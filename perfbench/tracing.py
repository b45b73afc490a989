"""Span tracing installed from outside the program, around its public calls.

:func:`install` replaces public functions and methods of the program with
wrappers that read ``time.perf_counter_ns`` before and after each call.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original back.

Two kinds of span:

- *coarse* spans, one per call of a sweep, a run, a schedule build, a
  worker call or a service session, are kept one by one with name, start,
  end, parent and an id (the harness's call or trial id, or the session
  id on the server);
- *fine* spans, one per step (schedule slot draws, generator resumes and
  shared-object applies), are far too many to keep; each is folded into a
  per-name count and total, and into its parent's child time.

A span's self time is its duration minus its children's.  The wrappers
themselves cost time, which lands in the traced wall clock;
:func:`calibrate` measures that cost per wrapped call so the per-layer
figures can be reported without it.
"""

from __future__ import annotations

import contextvars
import functools
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns

#: Session id of the service session whose code is running (server only).
current_session: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_session", default=None
)

# Span record fields (a list, so wrappers can fill the end in place).
NAME, START, END, PARENT, ID, CHILD, ATTRS = range(7)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.fine: Dict[str, List[int]] = {}
        self.trace_id: Any = None
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]
                           if isinstance(owner, type)
                           else getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def coarse(self, name: str, fn: Callable,
               annotate: Optional[Callable[[Any], Dict[str, Any]]] = None
               ) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            trace_id = current_session.get()
            record = [name, _clock(), 0, parent,
                      self.trace_id if trace_id is None else trace_id, 0,
                      None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = _clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += record[END] - record[START]
            if annotate is not None:
                record[ATTRS] = annotate(result)
            return result

        return wrapper

    def counter(self, name: str) -> List[int]:
        return self.fine.setdefault(name, [0, 0])

    def fine_call(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack
        totals = self.counter(name)

        def wrapper(*args: Any) -> Any:
            start = _clock()
            result = fn(*args)
            elapsed = _clock() - start
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                spans[stack[-1]][CHILD] += elapsed
            return result

        return wrapper

    def fine_apply(self, label: str, fn: Callable) -> Callable:
        """``SharedObject.apply`` wrapper keyed by the operation's kind."""
        spans, stack, counter = self.spans, self.stack, self.counter
        by_type: Dict[type, List[int]] = {}

        def wrapper(obj: Any, operation: Any, pid: int) -> Any:
            start = _clock()
            result = fn(obj, operation, pid)
            elapsed = _clock() - start
            totals = by_type.get(type(operation))
            if totals is None:
                totals = by_type[type(operation)] = counter(
                    f"{label}.{type(operation).__name__.lower()}")
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                spans[stack[-1]][CHILD] += elapsed
            return result

        return wrapper

    def fine_iter(self, name: str, fn: Callable) -> Callable:
        """``Schedule.__iter__`` wrapper timing every slot drawn."""
        spans, stack = self.spans, self.stack
        totals = self.counter(name)

        def wrapper(schedule: Any):
            draw = fn(schedule).__next__
            while True:
                start = _clock()
                try:
                    pid = draw()
                except StopIteration:
                    return
                elapsed = _clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    spans[stack[-1]][CHILD] += elapsed
                yield pid

        return wrapper

    def session_span(self, name: str, fn: Callable) -> Callable:
        """Async wrapper for ``ConsensusService.submit``: one span per session.

        Sessions interleave on the event loop, so they are not on the
        stack; the session id travels in :data:`current_session` to the
        synchronous spans the session causes.
        """
        spans = self.spans

        @functools.wraps(fn)
        async def wrapper(service: Any, request: Any, *args: Any,
                          **kwargs: Any) -> Any:
            token = current_session.set(request.session_id)
            record = [name, _clock(), 0, -1, request.session_id, 0, None]
            spans.append(record)
            try:
                return await fn(service, request, *args, **kwargs)
            finally:
                record[END] = _clock()
                current_session.reset(token)

        return wrapper

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        """One line per coarse span, then one line of fine totals.

        Spans under a sweep's trial loop also carry their trial number:
        each ``make_schedule`` under ``run_indexed_trials`` opens a trial,
        and the ``run_programs`` after it (with its children) belongs to it.
        """
        spans, trial_of, opened = self.spans, {}, {}
        for index, record in enumerate(spans):
            parent = record[PARENT]
            if parent < 0:
                continue
            if (spans[parent][NAME] == "parallel.run_indexed_trials"
                    and record[NAME] == "schedules.make_schedule"):
                opened[parent] = opened.get(parent, -1) + 1
            if spans[parent][NAME] == "parallel.run_indexed_trials":
                trial_of[index] = opened.get(parent, 0)
            elif parent in trial_of:
                trial_of[index] = trial_of[parent]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, record in enumerate(spans):
                out.write(json.dumps({
                    "i": index, "name": record[NAME],
                    "start_ns": record[START], "end_ns": record[END],
                    "parent": record[PARENT], "id": record[ID],
                    "trial": trial_of.get(index),
                    "self_ns": record[END] - record[START] - record[CHILD],
                    "attrs": record[ATTRS],
                }) + "\n")
            out.write(json.dumps({"fine": self.fine}) + "\n")


def load_jsonl(path: Path) -> Tracer:
    """A tracer holding the spans another process wrote with
    :meth:`Tracer.write_jsonl`."""
    tracer = Tracer()
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            entry = json.loads(line)
            if "fine" in entry:
                tracer.fine = entry["fine"]
                continue
            duration = entry["end_ns"] - entry["start_ns"]
            tracer.spans.append([
                entry["name"], entry["start_ns"], entry["end_ns"],
                entry["parent"], entry["id"], duration - entry["self_ns"],
                entry["attrs"],
            ])
    return tracer


def _result_attrs(outcome: Any) -> Dict[str, Any]:
    return {"backend": outcome.backend, "steps": outcome.steps}


def _sweep_attrs(sweep: Any) -> Dict[str, Any]:
    return {"kind": sweep.kind, "trials": sweep.trials}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark measures."""
    from repro.analysis import experiments
    from repro.memory.max_register import MaxRegister
    from repro.memory.register import AtomicRegister
    from repro.memory.snapshot import SnapshotObject
    from repro.runtime import scheduler, simulator, vectorized
    from repro.runtime.process import Process
    from repro.service import service, session, workers
    from repro.workloads import schedules

    def everywhere(name: str, modules: Tuple[Any, ...], attribute: str,
                   annotate: Optional[Callable] = None) -> None:
        wrapped = tracer.coarse(name, getattr(modules[0], attribute),
                                annotate)
        for module in modules:
            tracer.patch(module, attribute, wrapped)

    everywhere("experiments.run_conciliator_trials", (experiments,),
               "run_conciliator_trials")
    tracer.patch(experiments, "run_indexed_trials", tracer.coarse(
        "parallel.run_indexed_trials", experiments.run_indexed_trials))
    tracer.patch(vectorized, "run_indexed_trials", tracer.coarse(
        "vectorized.run_indexed_trials", vectorized.run_indexed_trials))
    everywhere("schedules.make_schedule", (schedules, experiments, workers),
               "make_schedule")
    everywhere("simulator.run_programs", (simulator, workers),
               "run_programs")
    tracer.patch(simulator.Simulator, "run", tracer.coarse(
        "simulator.Simulator.run", simulator.Simulator.run))
    everywhere("workers.execute_session", (workers, service),
               "execute_session", _result_attrs)
    everywhere("vectorized.run_vectorized_sweep",
               (vectorized, experiments, workers), "run_vectorized_sweep",
               _sweep_attrs)

    tracer.patch(Process, "start",
                 tracer.fine_call("process.resume", Process.start))
    tracer.patch(Process, "complete_step",
                 tracer.fine_call("process.resume", Process.complete_step))
    for cls, label in ((AtomicRegister, "memory.register"),
                       (SnapshotObject, "memory.snapshot"),
                       (MaxRegister, "memory.maxreg")):
        tracer.patch(cls, "apply", tracer.fine_apply(label, cls.apply))
    for cls in vars(scheduler).values():
        if (isinstance(cls, type) and issubclass(cls, scheduler.Schedule)
                and "__iter__" in cls.__dict__):
            tracer.patch(cls, "__iter__", tracer.fine_iter(
                "schedule.slot", cls.__dict__["__iter__"]))

    from_json = session.SessionRequest.__dict__["from_json"].__func__
    tracer.patch(session.SessionRequest, "from_json", classmethod(
        tracer.fine_call("server.codec", from_json)))
    tracer.patch(session.SessionResponse, "to_json", tracer.fine_call(
        "server.codec", session.SessionResponse.to_json))
    tracer.patch(service.ConsensusService, "submit", tracer.session_span(
        "service.submit", service.ConsensusService.submit))
    return tracer


def calibrate(samples: int = 20_000, pairs: int = 15) -> Dict[str, float]:
    """Wrapper cost per fine span, split into the part the span measures
    (``<kind>.inner_ns``, charged to the span itself) and the part outside
    it (``<kind>.outer_ns``, charged to the parent's self time).  Kinds are
    ``call`` (resumes), ``apply`` (shared-object operations) and ``iter``
    (slot draws).

    Plain and wrapped passes alternate and each figure is the median over
    ``pairs`` adjacent pairs, so a change in host speed between passes
    does not land in the estimate."""

    def noop(value: Any) -> Any:
        return value

    def noop_apply(obj: Any, operation: Any, pid: int) -> Any:
        return pid

    def endless(_: Any):
        while True:
            yield 0

    def timed(fn: Callable, args: Tuple[Any, ...]) -> float:
        start = _clock()
        for _ in range(samples):
            fn(*args)
        return (_clock() - start) / samples

    results: Dict[str, float] = {}
    for kind in ("call", "apply", "iter"):
        probe = Tracer()
        if kind == "call":
            plain, wrapped = noop, probe.fine_call("probe", noop)
            args: Tuple[Any, ...] = (0,)
        elif kind == "apply":
            plain = noop_apply
            wrapped = probe.fine_apply("probe", noop_apply)
            args = (None, 0, 0)
        else:
            plain = endless(None).__next__
            wrapped = probe.fine_iter("probe", endless)(None).__next__
            args = ()
        probe.spans[:] = [["parent", 0, 0, -1, None, 0, None]]
        probe.stack[:] = [0]
        totals, inners = [], []
        for _ in range(pairs):
            plain_ns = timed(plain, args)
            for counts in probe.fine.values():
                counts[:] = [0, 0]
            wrapped_ns = timed(wrapped, args)
            measured = sum(c[1] for c in probe.fine.values()) / samples
            # The span also measures the wrapped call itself, which the
            # plain loop pays too; only the excess is wrapper cost.
            totals.append(wrapped_ns - plain_ns)
            inners.append(max(0.0, measured - plain_ns))
        inner = statistics.median(inners)
        results[f"{kind}.inner_ns"] = inner
        results[f"{kind}.outer_ns"] = max(0.0, statistics.median(totals)
                                          - inner)
    return results


def merged(calibrations: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each figure over calibrations taken through a run."""
    return {key: statistics.median(c[key] for c in calibrations)
            for key in calibrations[0]}
