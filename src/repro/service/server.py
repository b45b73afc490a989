"""A JSON-lines TCP front end for the consensus service.

``repro serve`` binds this server to a host/port and answers one
:class:`~repro.service.session.SessionRequest` JSON object per line with
one :class:`~repro.service.session.SessionResponse` JSON line.  The
protocol is deliberately primitive — newline-delimited JSON over TCP, no
framing negotiation, no TLS — because the server's job is to demonstrate
the *service* semantics (admission, deadlines, breakers, degradation) on
a real event loop, not to be a production transport.

Requests on one connection are pipelined: the server keeps reading lines
while earlier sessions are still in service, and each response is
written when its session finishes, so responses arrive in *completion*
order and clients match them to requests by ``session_id``.  Each
connection has a window of ``shards * workers_per_shard`` sessions in
flight — the service's worker-slot count; once the window is full the
server stops reading that connection until a session finishes, so TCP
flow control pushes back on a client that sends faster than it is
served.  On EOF the server answers every session still in flight before
it closes the connection.

Malformed lines get an error object (``{"error": ...}``) rather than a
dropped connection: a load generator mid-run should see its own bug, not
a mysterious reset.  Whenever the line carried an integer
``session_id``, the error echoes it, so an out-of-order error can still
be matched to its request.  The server runs the same
:class:`ConsensusService` code the virtual-time loadtest drives, so
behaviour differences between ``repro serve`` and ``repro loadtest``
reduce to the clock.

Control verbs share the session stream: a line whose JSON object carries
a ``"cmd"`` key is introspection, not traffic.  ``{"cmd": "stats"}``
returns the full :meth:`ConsensusService.snapshot` (occupancy, breaker
states and timelines, degradation, shed counters, span recorder totals)
and ``{"cmd": "health"}`` a one-line liveness summary.  Both are answered
as soon as they are read — ahead of any sessions still in flight, even
with the connection's window full — and computed synchronously, without
awaiting, so asking for stats cannot reorder or perturb in-flight
sessions on the same or any other connection.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Optional, Set, Union

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import ServiceFaultPlan
from repro.service.service import ConsensusService, ServiceConfig
from repro.service.session import SessionRequest

__all__ = ["ServiceServer", "health_summary", "serve"]

_log = logging.getLogger(__name__)


def _dumps(reply: dict) -> str:
    return json.dumps(reply, sort_keys=True)


def _line(reply: str) -> bytes:
    return reply.encode("utf-8") + b"\n"


def health_summary(snapshot: dict) -> dict:
    """Distill a :meth:`ConsensusService.snapshot` to the health document.

    Shared by the ``{"cmd": "health"}`` control verb and ``repro serve
    --stats-interval``, so the periodic self-report and the on-demand
    probe are the same bytes for the same snapshot.
    """
    return {
        "cmd": "health",
        "status": (
            "degraded" if snapshot["degraded_mode"]["active"] else "ok"
        ),
        "breakers": {
            shard: breaker["state"]
            for shard, breaker in snapshot["breakers"].items()
        },
        "occupancy": snapshot["occupancy"]["total"],
    }


class ServiceServer:
    """One bound TCP endpoint wrapping a :class:`ConsensusService`."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        chaos: Optional[ServiceFaultPlan] = None,
    ):
        self.service = ConsensusService(
            config, metrics=metrics, chaos=chaos
        )
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (useful when started on port 0)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        config = self.service.config
        window = asyncio.Semaphore(config.shards * config.workers_per_shard)
        in_flight: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError,
                        asyncio.IncompleteReadError):
                    # A line over the StreamReader limit (64 KiB by
                    # default) raises instead of returning; the buffer was
                    # flushed mid-line so framing is lost — answer what is
                    # in flight, report the protocol error and close
                    # rather than guess where the next request starts.
                    if in_flight:
                        await asyncio.wait(in_flight)
                    writer.write(_line(_dumps(
                        {"error": "request line too long"}
                    )))
                    await writer.drain()
                    if writer.can_write_eof():
                        writer.write_eof()
                    # Swallow the rest of the oversized line: closing with
                    # unread inbound bytes would RST the socket and race
                    # the error reply to the client.
                    while await reader.read(65536):
                        pass
                    break
                if not line:
                    break
                decoded = self._decode(line)
                if isinstance(decoded, SessionRequest):
                    # A full window stops the reads: the client's unread
                    # lines back up into TCP flow control.
                    await window.acquire()
                    task = asyncio.create_task(
                        self._session(decoded, writer, window)
                    )
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
                else:
                    writer.write(_line(decoded))
                # The only drain on this writer: concurrent drains on one
                # stream fail before Python 3.10.
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up mid-line; nothing to answer
        finally:
            # Answer every session still in flight before closing (close
            # flushes what they wrote).  After a reset they still finish
            # — the capacity is spent either way — but write nothing.
            if in_flight:
                await asyncio.wait(in_flight)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _session(
        self,
        request: SessionRequest,
        writer: asyncio.StreamWriter,
        window: asyncio.Semaphore,
    ) -> None:
        """Serve one pipelined session and write its answer line.

        Only writes: the connection's read loop owns ``drain()``.
        """
        try:
            reply = await self._respond(request)
        finally:
            window.release()
        if not writer.is_closing():
            writer.write(_line(reply))

    async def _answer(self, line: bytes) -> str:
        """The reply to one request line, session or verb."""
        decoded = self._decode(line)
        if isinstance(decoded, SessionRequest):
            return await self._respond(decoded)
        return decoded

    def _decode(self, line: bytes) -> Union[SessionRequest, str]:
        """Parse one line into a session request, or into the reply owed
        right away: a control verb's answer or a protocol error."""
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return _dumps({"error": f"malformed request line: {error}"})
        if isinstance(payload, dict) and "cmd" in payload:
            return self._control(payload)
        try:
            return SessionRequest.from_json(payload)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            reply = {"error": f"invalid session request: {error}"}
            session_id = (
                payload.get("session_id") if isinstance(payload, dict)
                else None
            )
            if isinstance(session_id, int) and not isinstance(
                session_id, bool
            ):
                reply["session_id"] = session_id
            return _dumps(reply)

    async def _respond(self, request: SessionRequest) -> str:
        try:
            response = await self.service.submit(request)
        except ReproError as error:
            # Configuration errors (unknown algorithm, bad family) are the
            # client's fault; report them without killing the connection.
            return _dumps(
                {"error": str(error), "session_id": request.session_id}
            )
        except Exception as error:
            # A pipelined client waits for every session id it sent, so a
            # bug inside the service must still produce an answer.
            _log.exception("session %d failed", request.session_id)
            return _dumps({
                "error": f"internal error: {type(error).__name__}: {error}",
                "session_id": request.session_id,
            })
        return _dumps(response.to_json())

    def _control(self, payload: dict) -> str:
        """Answer one control verb (a ``{"cmd": ...}`` line), synchronously.

        ``stats`` returns :meth:`ConsensusService.snapshot` verbatim, so
        a TCP client and an in-process caller see the same document.
        ``health`` is the cheap liveness probe: overall status (degraded
        or ok), per-shard breaker states, and total queue occupancy.
        Unknown or non-string verbs get an ``{"error": ...}`` naming the
        supported set — same contract as malformed session lines.
        """
        cmd = payload.get("cmd")
        if not isinstance(cmd, str):
            return _dumps(
                {"error": f"control cmd must be a string, got {cmd!r}"}
            )
        now = asyncio.get_running_loop().time()
        if cmd == "stats":
            return _dumps(self.service.snapshot(now))
        if cmd == "health":
            return _dumps(health_summary(self.service.snapshot(now)))
        return _dumps({"error": f"unknown control cmd {cmd!r}; "
                                f"supported: health, stats"})


async def serve(
    host: str = "127.0.0.1",
    port: int = 8737,
    *,
    config: Optional[ServiceConfig] = None,
    chaos: Optional[ServiceFaultPlan] = None,
) -> None:
    """Bind and serve until cancelled (the ``repro serve`` entry point)."""
    server = ServiceServer(config, chaos=chaos)
    await server.start(host, port)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
