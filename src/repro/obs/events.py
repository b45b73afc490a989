"""Versioned structured trace events and their JSONL encoding.

A structured trace is a sequence of :class:`TraceEventRecord` values, one
per observable occurrence in a run: a charged step (specialized by the
operation it executed), a fault-injected crash or stall, a process
finishing, protocol-level milestones (persona adoption, round transition),
and the run boundaries.  Events serialize to single-line JSON objects —
one per line, the JSONL convention — so traces stream to disk, diff
cleanly, and load without a custom parser.

Every serialized event carries ``"v": TRACE_SCHEMA_VERSION``.  Readers
reject other versions loudly (:class:`~repro.errors.ConfigurationError`)
instead of guessing: a trace is evidence, and silently misreading evidence
from a different schema generation is worse than refusing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Union

from repro.codec import check_envelope, decode_json, iter_jsonl
from repro.errors import ConfigurationError

__all__ = [
    "EVENT_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TraceEventRecord",
    "event_from_json",
    "event_to_json",
    "read_trace_jsonl",
    "write_trace_jsonl",
]

#: Version stamped on every serialized event; bump on incompatible change.
TRACE_SCHEMA_VERSION = 1

#: The closed set of event kinds this schema version defines.
EVENT_KINDS = (
    "run-start",
    "step",
    "register-read",
    "register-write",
    "snapshot-update",
    "snapshot-scan",
    "max-read",
    "max-write",
    "persona-adoption",
    "round-transition",
    "crash",
    "stall",
    "finish",
    "run-end",
)

#: Operation ``kind`` strings (see ``repro.runtime.operations``) mapped to
#: their specialized event kinds; unknown operations fall back to ``step``.
OPERATION_EVENT_KINDS = {
    "read": "register-read",
    "write": "register-write",
    "update": "snapshot-update",
    "scan": "snapshot-scan",
    "maxread": "max-read",
    "maxwrite": "max-write",
}


@dataclass(frozen=True)
class TraceEventRecord:
    """One structured trace event.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        step: global charged-step index at which the event occurred, or
            ``None`` for events outside the step measure (run boundaries,
            post-run protocol milestones).
        pid: the process concerned, or ``None`` for run-level events.
        payload: kind-specific details (object name, written value,
            result, round index, persona description, ...).  Values must
            be JSON-representable; the recorder is responsible for
            converting exotic results with ``repr`` before they get here.
    """

    kind: str
    step: Any = None
    pid: Any = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown trace event kind {self.kind!r}; "
                f"this schema version defines {EVENT_KINDS}"
            )


def event_to_json(event: TraceEventRecord) -> Dict[str, Any]:
    """The plain-JSON form of one event (keys sorted when dumped)."""
    data: Dict[str, Any] = {"v": TRACE_SCHEMA_VERSION, "kind": event.kind}
    if event.step is not None:
        data["step"] = event.step
    if event.pid is not None:
        data["pid"] = event.pid
    if event.payload:
        data["payload"] = dict(event.payload)
    return data


def event_from_json(data: Dict[str, Any]) -> TraceEventRecord:
    """Rebuild an event, rejecting other schema versions.

    Raises :class:`~repro.errors.ConfigurationError` for non-objects,
    missing/foreign versions, and unknown kinds.
    """
    return _event(check_envelope(data, "trace event", TRACE_SCHEMA_VERSION))


def _event(data: Dict[str, Any]) -> TraceEventRecord:
    return TraceEventRecord(
        kind=str(data.get("kind", "")),
        step=data.get("step"),
        pid=data.get("pid"),
        payload=dict(data.get("payload", {})),
    )


def dumps_event(event: TraceEventRecord) -> str:
    """One canonical JSONL line (sorted keys, no trailing newline)."""
    return json.dumps(event_to_json(event), sort_keys=True,
                      separators=(",", ":"))


def loads_event(line: str) -> TraceEventRecord:
    """Parse one JSONL line back into an event."""
    return event_from_json(decode_json(line, "trace line"))


def write_trace_jsonl(
    events: Iterable[TraceEventRecord], path: Union[str, Path]
) -> int:
    """Write events as JSONL to ``path``; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(dumps_event(event))
            handle.write("\n")
            count += 1
    return count


def read_trace_jsonl(path: Union[str, Path]) -> List[TraceEventRecord]:
    """Load a JSONL trace, validating the version of every line."""
    return list(iter_trace_jsonl(path))


def iter_trace_jsonl(path: Union[str, Path]) -> Iterator[TraceEventRecord]:
    """Stream a JSONL trace without holding it all in memory.

    Tolerates a torn *final* line — the signature of a writer killed
    mid-append, the same contract as the checkpoint journal — by dropping
    it with a warning instead of crashing mid-triage.  An unparseable
    line with durable lines after it is corruption, not tearing, and
    raises; so does any parseable line with a foreign schema version,
    even at the tail (a version mismatch is never a partial write).  A
    missing file is an empty trace (see :func:`repro.codec.iter_jsonl`).
    """
    for data in iter_jsonl(path, "trace event", TRACE_SCHEMA_VERSION):
        yield _event(data)


__all__ += ["OPERATION_EVENT_KINDS", "dumps_event", "iter_trace_jsonl",
            "loads_event"]
