"""The ``serve`` workload: a real ``repro serve`` process, driven over TCP.

The benchmark process is the client.  It holds two connections and sends
seeded open-loop Poisson arrivals, each on the connection with fewer
requests outstanding, as a pooled client would.  Rates climb a stair;
steps above the first one that misses the latency limit are skipped.
Each request is timed from when it was *due*, not when it was sent, so a
stalled sender or server is charged for the wait it imposes.

After the stair, a closed-loop saturation step keeps a fixed window of
requests outstanding on each connection, so the server always has the
next request waiting whatever its speed; the rate at which it then
completes sessions is its capacity.  Sessions it refuses or fails there
are shed under overload, which the service is designed to do: they are
reported as a figure, not as failed operations.

The client uses threads and blocking sockets rather than asyncio: on a
2-vCPU Xeon container a sleeping thread woke within about a millisecond
of its due time (p99), where the event loop's timer overshot by 4-5 ms.
"""

from __future__ import annotations

import json
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from harness import (
    BENCH_DIR,
    ROOT,
    SETUP_REPEATS,
    HostSpeed,
    Report,
    check,
    check_repeatable,
    child_env,
    cpu_seconds_of,
    free_port,
    median,
    peak_rss_mb_of,
    quantile,
    stop_process,
    workload_rng,
)

#: Offered rates (sessions/s) and each step's share of ``--seconds``.
STAIR: Tuple[Tuple[int, float], ...] = (
    (50, 0.50), (100, 0.15), (125, 0.10), (150, 0.10),
)
#: The saturation step's share of ``--seconds``.
SATURATION_SHARE = 0.15
#: Requests the saturation step keeps outstanding on each connection.
WINDOW = 16
#: Completions in the saturation step's first this many seconds are not
#: counted, while the window fills.
SATURATION_RAMP_S = 0.5
#: The rate whose median latency is ``call_p50_ms``.
LIGHT_RATE = 50
#: The rate whose sessions give the per-session per-layer percentiles.
LOADED_RATE = 100
#: A step passes when its p99 latency is at most this and none failed.
P99_LIMIT_MS = 250.0
#: Session mix, sifting : snapshot : cil-embedded = 3 : 1 : 1.
MIX = ("sifting", "sifting", "sifting", "snapshot", "cil-embedded")
SESSION_N = 16
DEADLINE_S = 5.0
CONNECTIONS = 2
#: Longest wait for a step's last answers after its last arrival.
DRAIN_TIMEOUT_S = DEADLINE_S + 5.0
#: Completed responses per run replayed in process and compared.
REPLAY_SAMPLE = 25
#: Session ids of the warm-up and overhead-probe tables, apart from the
#: stair's ids (which start at 0).
WARM_UP_FIRST_ID = 1_000_000_000
PROBE_FIRST_ID = 2_000_000_000
#: Share of ``--seconds`` each overhead probe (untraced, traced) takes.
PROBE_SHARE = 0.1


def _request(rng: Any, session_id: int) -> Any:
    from repro.service.session import SessionRequest

    return SessionRequest(
        session_id=session_id,
        algorithm=rng.choice(MIX),
        n=SESSION_N,
        schedule_family="permuted",
        deadline=DEADLINE_S,
        seed=rng.getrandbits(32),
    )


def arrivals(seed: int, rate: int, seconds: float, first_id: int
             ) -> List[Tuple[float, Any]]:
    """Seeded Poisson arrivals: (offset in seconds, SessionRequest)."""
    rng = workload_rng(seed, f"serve-rate-{rate}")
    table, offset = [], 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= seconds:
            return table
        table.append((offset, _request(rng, first_id + len(table))))


def request_stream(seed: int, first_id: int) -> Iterator[Any]:
    """Seeded requests without arrival times, as many as are taken."""
    rng = workload_rng(seed, "serve-saturation")
    session_id = first_id
    while True:
        yield _request(rng, session_id)
        session_id += 1


# -- the server process -------------------------------------------------------


class Server:
    """One server child process, from spawn to its first accepted connection."""

    def __init__(self, argv: Sequence[str]):
        self.port = free_port()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [*argv, "--port", str(self.port)], cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = started + 60.0
        while True:
            try:
                socket.create_connection(("127.0.0.1", self.port),
                                         timeout=1.0).close()
                break
            except OSError:
                if (self.process.poll() is not None
                        or time.perf_counter() > deadline):
                    stop_process(self.process)
                    raise RuntimeError("server did not start")
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - started

    def cpu_s(self) -> float:
        return cpu_seconds_of(self.process.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.process.pid)

    def stop(self) -> None:
        stop_process(self.process)


def untraced_server() -> Server:
    return Server([sys.executable, "-m", "repro", "serve"])


def traced_server(spans_path: Any) -> Server:
    return Server([sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   "--spans", str(spans_path)])


# -- the client ---------------------------------------------------------------


@dataclass
class StepResult:
    rate: int
    sent: List[Any] = field(default_factory=list)
    due: Dict[int, float] = field(default_factory=dict)
    answers: Dict[int, List[Tuple[float, dict]]] = field(default_factory=dict)
    late_ms: List[float] = field(default_factory=list)
    backlog: int = 0
    stats: Optional[dict] = None
    occupancy_max: int = 0

    def latencies_ms(self) -> List[float]:
        return [(answers[0][0] - self.due[sid]) * 1e3
                for sid, answers in self.answers.items()]

    def ok(self) -> List[dict]:
        return [answers[0][1] for answers in self.answers.values()
                if len(answers) == 1
                and answers[0][1].get("status") == "completed"]

    def failed(self) -> int:
        good = {message["session_id"] for message in self.ok()}
        return sum(1 for request in self.sent
                   if request.session_id not in good)

    def p(self, q: float) -> float:
        return quantile(self.latencies_ms(), q)

    def passed(self) -> bool:
        return self.failed() == 0 and self.p(0.99) <= P99_LIMIT_MS

    def unanswered(self) -> int:
        return sum(1 for request in self.sent
                   if request.session_id not in self.answers)

    def refused(self) -> int:
        """Answered sessions the service refused or failed."""
        return len(self.answers) - len(self.ok())

    def completion_rate(self) -> float:
        """Sessions completed per second once the window has filled."""
        start = min(self.due.values()) + SATURATION_RAMP_S
        times = sorted(answers[0][0] for answers in self.answers.values()
                       if answers[0][1].get("status") == "completed")
        counted = [t for t in times if t > start]
        check(len(counted) > 1, "the saturation step completed no sessions")
        return len(counted) / (times[-1] - start)


class Client:
    """Open-loop sender plus one reader thread per connection."""

    def __init__(self, port: int, poll_stats: bool = False):
        self.sockets = [socket.create_connection(("127.0.0.1", port))
                        for _ in range(CONNECTIONS + int(poll_stats))]
        for sock in self.sockets:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.poll_stats = poll_stats
        self.lock = threading.Condition()
        self.outstanding = [0] * len(self.sockets)
        self.control: "queue.Queue[dict]" = queue.Queue()
        self.step: Optional[StepResult] = None
        #: Responses whose session id belongs to no open step.
        self.strays = 0
        self.readers = [threading.Thread(target=self._read, args=(index,),
                                         daemon=True)
                        for index in range(len(self.sockets))]
        for reader in self.readers:
            reader.start()

    def close(self) -> None:
        for sock in self.sockets:
            sock.shutdown(socket.SHUT_RDWR)
        for reader in self.readers:
            reader.join(timeout=10.0)
        for sock in self.sockets:
            sock.close()

    def _read(self, index: int) -> None:
        stream = self.sockets[index].makefile("rb")
        clock = time.monotonic
        for line in stream:
            now = clock()
            message = json.loads(line)
            if "session_id" not in message:
                self.control.put(message)
                continue
            with self.lock:
                step = self.step
                if step is None or message["session_id"] not in step.due:
                    self.strays += 1
                    continue
                step.answers.setdefault(message["session_id"], []).append(
                    (now, message))
                self.outstanding[index] -= 1
                self.lock.notify_all()

    def stats(self, connection: int = 0) -> dict:
        self.sockets[connection].sendall(b'{"cmd": "stats"}\n')
        return self.control.get(timeout=DRAIN_TIMEOUT_S)

    def _poll_occupancy(self, step: StepResult, stop: threading.Event
                        ) -> None:
        while not stop.wait(0.1):
            snapshot = self.stats(CONNECTIONS)
            step.occupancy_max = max(step.occupancy_max,
                                     snapshot["occupancy"]["total"])

    def _open(self, step: StepResult) -> Callable[[], None]:
        """Make ``step`` the open step; returns the function that closes it
        once every answer is in (or the drain times out)."""
        with self.lock:
            self.step = step
        stop = threading.Event()
        poller = None
        if self.poll_stats:
            poller = threading.Thread(target=self._poll_occupancy,
                                      args=(step, stop), daemon=True)
            poller.start()

        def close() -> None:
            with self.lock:
                step.backlog = sum(self.outstanding)
                self.lock.wait_for(lambda: not any(self.outstanding),
                                   timeout=DRAIN_TIMEOUT_S)
                self.outstanding = [0] * len(self.sockets)
            if poller is not None:
                stop.set()
                poller.join()
            while not self.control.empty():
                self.control.get_nowait()
            step.stats = self.stats()
            with self.lock:
                self.step = None

        return close

    def _send(self, step: StepResult, request: Any, line: bytes,
              due: float) -> None:
        """Send on the connection with the fewest requests outstanding.
        The caller holds the lock; it is released around the send."""
        step.due[request.session_id] = due
        step.sent.append(request)
        load = self.outstanding[:CONNECTIONS]
        target = load.index(min(load))
        self.outstanding[target] += 1
        self.lock.release()
        try:
            self.sockets[target].sendall(line)
        finally:
            self.lock.acquire()

    def run_step(self, rate: int, table: List[Tuple[float, Any]]
                 ) -> StepResult:
        """Open loop: each request is sent at its due time."""
        step = StepResult(rate)
        lines = [json.dumps(request.to_json()).encode() + b"\n"
                 for _, request in table]
        close = self._open(step)
        clock = time.monotonic
        start = clock() + 0.05
        for (offset, request), line in zip(table, lines):
            due = start + offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            with self.lock:
                self._send(step, request, line, due)
            step.late_ms.append((clock() - due) * 1e3)
        close()
        return step

    def saturate(self, requests: Iterator[Any], seconds: float
                 ) -> StepResult:
        """Closed loop: for ``seconds``, keep :data:`WINDOW` requests
        outstanding on each connection, sending the next one as soon as an
        answer frees a place.  Each request is timed from when it was sent."""
        step = StepResult(0)
        close = self._open(step)
        clock = time.monotonic
        end = clock() + seconds
        limit = WINDOW * CONNECTIONS

        def has_room() -> bool:
            return sum(self.outstanding[:CONNECTIONS]) < limit

        with self.lock:
            while True:
                self.lock.wait_for(has_room, timeout=max(0.0, end - clock()))
                if clock() >= end:
                    break
                request = next(requests)
                line = json.dumps(request.to_json()).encode() + b"\n"
                self._send(step, request, line, clock())
        close()
        return step


def _warm_up(client: Client, seed: int) -> None:
    """A few sessions at a low rate, so lazy set-up is not timed."""
    client.run_step(40, arrivals(seed, 40, 0.5, WARM_UP_FIRST_ID))


def _stair(port: int, seed: int, seconds: float, poll_stats: bool,
           between: Callable[[], None] = lambda: None
           ) -> Tuple[List[StepResult], StepResult, int]:
    """Climb the stair, then saturate.  ``between`` runs before each step.
    Returns the stair steps run, the saturation step and the count of
    responses that matched no request."""
    steps: List[StepResult] = []
    client = Client(port, poll_stats)
    try:
        _warm_up(client, seed)
        next_id = 0
        for rate, share in STAIR:
            table = arrivals(seed, rate, share * seconds, next_id)
            next_id += len(table)
            between()
            steps.append(client.run_step(rate, table))
            if not steps[-1].passed():
                break
        between()
        saturation = client.saturate(request_stream(seed, next_id),
                                     SATURATION_SHARE * seconds)
    finally:
        client.close()
    return steps, saturation, client.strays


def max_ok_rate(steps: Sequence[StepResult]) -> int:
    return max([step.rate for step in steps if step.passed()], default=0)


def check_answers(seed: int, steps: Sequence[StepResult],
                  saturation: StepResult, strays: int) -> Tuple[int, int]:
    """Every request got exactly one response with its session id; a
    sample of completed responses equals the in-process worker's result;
    the light step's outcomes equal those of every run of this seed.

    Returns (attempted, failed).  A stair session fails unless it
    completed; a saturation session fails only if it went unanswered,
    since shedding there is the service's designed answer to overload."""
    from repro.service.workers import execute_session

    check(strays == 0, f"{strays} responses matched no request")
    light = steps[0].ok()
    # The arrival tables depend on the run length as well as the seed.
    check_repeatable(f"serve/{len(steps[0].sent)}", seed, [
        len(light), sum(m["result"]["agreement"] for m in light),
        sum(m["result"]["steps"] for m in light)])
    attempted = failed = 0
    completed = []
    for step in [*steps, saturation]:
        attempted += len(step.sent)
        failed += (step.unanswered() if step is saturation
                   else step.failed())
        for sid, answers in step.answers.items():
            check(len(answers) == 1,
                  f"session {sid} got {len(answers)} responses")
        by_id = {message["session_id"]: message for message in step.ok()}
        completed.extend((request, by_id[request.session_id])
                         for request in step.sent
                         if request.session_id in by_id)
    stride = max(1, len(completed) // REPLAY_SAMPLE)
    for request, message in completed[::stride]:
        local = execute_session(request, backend=message["backend"])
        check(local.to_json() == message["result"],
              f"session {request.session_id}: served {message['result']} "
              f"!= in-process {local.to_json()}")
    return attempted, failed


def _describe(report: Report, steps: Sequence[StepResult],
              saturation: StepResult) -> None:
    for step in steps:
        report.note(
            f"  r{step.rate}: {len(step.sent)} sessions, "
            f"p50_ms.r{step.rate}={step.p(0.5):.2f} ms "
            f"p90 {step.p(0.9):.2f} ms "
            f"p99_ms.r{step.rate}={step.p(0.99):.2f} ms, "
            f"failed {step.failed()}, backlog {step.backlog}, "
            f"late p99 {quantile(step.late_ms, 0.99):.2f} ms"
            + ("" if step.passed() else "  (misses the limit)"))
    report.note(f"  max_ok_rate = {max_ok_rate(steps)} 1/s")
    report.note(
        f"  saturation ({WINDOW} outstanding x {CONNECTIONS} connections): "
        f"{len(saturation.sent)} sessions, completed "
        f"{saturation.completion_rate():.1f}/s, refused or failed "
        f"{saturation.refused()}, p50 {saturation.p(0.5):.0f} ms")


def run_untraced(report: Report, seed: int, seconds: float) -> None:
    """The server under test is started once; more servers are started and
    stopped between the steps, so that ``setup_s`` is a median over set-ups
    spread through the run."""
    setups: List[float] = []
    host = HostSpeed()
    # Spare starts before each stair step and the saturation step.
    per_gap = (SETUP_REPEATS - 1) // (len(STAIR) + 1)

    def start_spares(count: int) -> None:
        for _ in range(count):
            host.sample()
            spare = untraced_server()
            setups.append(spare.setup_s)
            spare.stop()
            host.sample()

    host.sample()
    server = untraced_server()
    setups.append(server.setup_s)
    try:
        steps, saturation, strays = _stair(
            server.port, seed, seconds, False,
            between=lambda: start_spares(per_gap))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    start_spares(SETUP_REPEATS - len(setups))
    report.attempted, report.failed = check_answers(seed, steps, saturation,
                                                    strays)
    _describe(report, steps, saturation)
    light = steps[0]
    check(light.rate == LIGHT_RATE, "the stair must start at the light rate")
    report.metric("trials_per_s", saturation.completion_rate())
    report.metric("call_p50_ms", light.p(0.5))
    # Server start-up is interpreter-bound; the stair's latencies and the
    # capacity are mostly the service's modelled sleep, so they are not
    # scaled (see HostSpeed).
    slow = host.factor()
    report.metric("setup_s", median(setups) / slow)
    report.metric("peak_rss_mb", rss)
    report.note(f"  host: {slow:.3f} x the nominal reference time "
                f"({len(host.samples)} samples); as measured: setup_s "
                f"{median(setups):.6g}")


def _cpu_per_session(server: Server, seed: int, seconds: float) -> float:
    """Server CPU seconds per session for one fixed light-rate table."""
    try:
        client = Client(server.port)
        try:
            _warm_up(client, seed)
            before = server.cpu_s()
            table = arrivals(seed, LIGHT_RATE, seconds, PROBE_FIRST_ID)
            step = client.run_step(LIGHT_RATE, table)
        finally:
            client.close()
        check(step.failed() == 0, "overhead probe sessions failed")
        return (server.cpu_s() - before) / len(table)
    finally:
        server.stop()


def run_traced(report: Report, seed: int, seconds: float,
               spans_path: Any) -> None:
    """Traced run: the tracing overhead is measured as server CPU per
    session on one fixed arrival table, untraced and traced; then the
    stair runs against a fresh traced server whose spans are analysed."""
    import layers
    import tracing

    calibration = tracing.calibrate()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    probe_seconds = PROBE_SHARE * seconds
    plain_cpu = _cpu_per_session(untraced_server(), seed, probe_seconds)
    traced_cpu = _cpu_per_session(traced_server(spans_path), seed,
                                  probe_seconds)
    server = traced_server(spans_path)
    try:
        steps, saturation, strays = _stair(server.port, seed, seconds, True)
    finally:
        server.stop()
    check(server.process.returncode == 0, "traced server did not exit cleanly")
    report.attempted, report.failed = check_answers(seed, steps, saturation,
                                                    strays)
    _describe(report, steps, saturation)
    tracer = tracing.load_jsonl(spans_path)
    values = layers.from_spans(tracer, calibration)
    values.update(layers.serve_split(tracer, steps, LOADED_RATE, report))
    values["loadgen.saturation_refused"] = saturation.refused()
    values["trace.overhead_share"] = traced_cpu / plain_cpu - 1.0
    layers.report_all(report, values)
    report.note(f"  spans: {spans_path}")
