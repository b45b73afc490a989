"""Per-layer metrics computed from a traced run's spans.

Every workload's traced run reports every ``per_layer`` name that
``BENCHMARK.json`` declares, in the unit declared there.  A layer the
workload never enters reads 0 (no spans, no time); the README lists which
layer each workload exercises.

Times per operation subtract the wrapper cost measured by
:func:`tracing.calibrate`; shares of traced wall time do not, so that the
shares and the unattributed remainder add up to the traced wall clock.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from harness import Report, quantile
from tracing import ATTRS, CHILD, END, ID, NAME, PARENT, START, Tracer

KINDS = ("read", "write", "update", "scan")
SHARE_LAYERS = ("runner", "schedule", "run_setup", "simulator", "process",
                "memory", "vectorized.assemble", "vectorized.blocks",
                "workers", "service", "server")
STEP_LAYERS = ("schedule", "simulator", "process", "memory", "run_setup",
               "runner")

def _duration(record: list) -> int:
    return record[END] - record[START]


def _self(record: list) -> int:
    return record[END] - record[START] - record[CHILD]


def _named(spans: Iterable[list], name: str) -> List[list]:
    return [record for record in spans if record[NAME] == name]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fine_sum(fine: Dict[str, List[int]], prefix: str) -> Tuple[int, int]:
    """Count and total nanoseconds of the fine spans named ``prefix...``."""
    count = total = 0
    for name, (calls, spent) in fine.items():
        if name.startswith(prefix):
            count += calls
            total += spent
    return count, total


class FineTotals:
    """Per-layer fine-span counts and times, with wrapper cost removed."""

    def __init__(self, fine: Dict[str, List[int]],
                 calibration: Dict[str, float]):
        self.slots, slot_ns = fine_sum(fine, "schedule.slot")
        self.resumes, resume_ns = fine_sum(fine, "process.resume")
        self.applies, apply_ns = fine_sum(fine, "memory.")
        self.codecs, codec_ns = fine_sum(fine, "server.codec")
        self.raw = {"schedule": slot_ns, "process": resume_ns,
                    "memory": apply_ns}
        self.slot_ns = slot_ns - calibration["iter.inner_ns"] * self.slots
        self.resume_ns = resume_ns - calibration["call.inner_ns"] * self.resumes
        self.apply_ns = apply_ns - calibration["apply.inner_ns"] * self.applies
        self.codec_ns = codec_ns - calibration["call.inner_ns"] * self.codecs
        #: Wrapper cost the fine spans add to their parents' self time.
        self.outer_ns = (calibration["iter.outer_ns"] * self.slots
                         + calibration["call.outer_ns"] * self.resumes
                         + calibration["apply.outer_ns"] * self.applies)
        self.per_kind = {}
        for label in ("memory.register", "memory.snapshot"):
            for kind in KINDS:
                count, total = fine_sum(fine, f"{label}.{kind}")
                self.per_kind[(label, kind)] = (
                    count, total - calibration["apply.inner_ns"] * count)
        self.kind_counts = {kind: fine_sum(fine, f"memory.register.{kind}")[0]
                            + fine_sum(fine, f"memory.snapshot.{kind}")[0]
                            + fine_sum(fine, f"memory.maxreg.{kind}")[0]
                            for kind in KINDS}


def _runner_self(spans: List[list]) -> List[int]:
    """Self time of each sweep-runner call: ``run_conciliator_trials`` plus
    the ``run_indexed_trials`` engine call it makes."""
    selves = {index: _self(record) for index, record in enumerate(spans)
              if record[NAME] == "experiments.run_conciliator_trials"}
    for record in spans:
        if (record[NAME] == "parallel.run_indexed_trials"
                and record[PARENT] in selves):
            selves[record[PARENT]] += _self(record)
    return list(selves.values())


def from_spans(tracer: Tracer, calibration: Dict[str, float]
               ) -> Dict[str, float]:
    """Every per-layer metric the spans of a traced run determine."""
    spans, fine = tracer.spans, FineTotals(tracer.fine, calibration)
    simulator_self = sum(_self(r) for r in
                         _named(spans, "simulator.Simulator.run"))
    values: Dict[str, float] = {
        "schedule.build_ms": _mean([_duration(r) for r in _named(
            spans, "schedules.make_schedule")]) / 1e6,
        "schedule.ns_per_slot": _ratio(fine.slot_ns, fine.slots),
        "schedule.slots": fine.slots,
        "simulator.charged_share": _ratio(fine.applies, fine.slots),
        "simulator.self_ns_per_step": _ratio(
            simulator_self - fine.outer_ns, fine.applies),
        "process.ns_per_resume": _ratio(fine.resume_ns, fine.resumes),
        "run.setup_ms": _mean([_self(r) for r in _named(
            spans, "simulator.run_programs")]) / 1e6,
        "experiments.overhead_ms": _mean(_runner_self(spans)) / 1e6,
    }
    register = [fine.per_kind[("memory.register", k)] for k in KINDS]
    values["memory.register.ns_per_apply"] = _ratio(
        sum(total for _, total in register), sum(c for c, _ in register))
    for kind in ("scan", "update"):
        count, total = fine.per_kind[("memory.snapshot", kind)]
        values[f"memory.snapshot.ns_per_{kind}"] = _ratio(total, count)
    for kind in KINDS:
        values[f"memory.applies.{kind}"] = fine.kind_counts[kind]

    sweeps = _named(spans, "vectorized.run_vectorized_sweep")
    single = [r for r in sweeps if r[ATTRS]["trials"] == 1]
    batch = [r for r in sweeps if r[ATTRS]["trials"] > 1]
    values["vectorized.fixed_ms"] = _mean([_duration(r) for r in single]) / 1e6
    for kind in ("sifting", "snapshot"):
        mine = [r for r in batch if r[ATTRS]["kind"].startswith(kind)]
        values[f"vectorized.{kind}.us_per_trial"] = _ratio(
            sum(_duration(r) for r in mine),
            sum(r[ATTRS]["trials"] for r in mine)) / 1e3
    batch_index = {id(r) for r in batch}
    blocks = [_duration(r) for r in spans
              if r[NAME] == "vectorized.run_indexed_trials"
              and r[PARENT] >= 0 and id(spans[r[PARENT]]) in batch_index]
    values["vectorized.blocks_ms"] = _mean(blocks) / 1e6
    values["vectorized.assemble_ms"] = _mean([_self(r) for r in batch]) / 1e6

    calls = _named(spans, "workers.execute_session")
    for backend in ("generator", "vectorized"):
        mine = [_duration(r) / 1e6 for r in calls
                if r[ATTRS]["backend"] == backend]
        if mine:
            values[f"workers.compute_ms.{backend}.p50"] = quantile(mine, 0.5)
            values[f"workers.compute_ms.{backend}.p99"] = quantile(mine, 0.99)
    generator = [r for r in calls if r[ATTRS]["backend"] == "generator"]
    values["workers.real_steps_per_s"] = _ratio(
        sum(r[ATTRS]["steps"] for r in generator),
        sum(_duration(r) for r in generator) / 1e9)
    sessions = len(_named(spans, "service.submit"))
    values["server.codec_us"] = _ratio(fine.codec_ns, sessions) / 1e3
    return values


def call_split(tracer: Tracer, calibration: Dict[str, float]
               ) -> Dict[str, float]:
    """The figures of a sweep workload's one-trial calls: worker compute,
    the vectorized fixed cost, and the per-call run and schedule set-up."""
    values = from_spans(tracer, calibration)
    picked = {name: value for name, value in values.items()
              if name.startswith("workers.") or name == "vectorized.fixed_ms"}
    picked["call.run.setup_ms"] = values["run.setup_ms"]
    picked["call.schedule.build_ms"] = values["schedule.build_ms"]
    return picked


def report_all(report: Report, values: Dict[str, float]) -> None:
    """Report every declared per-layer metric; one the workload's spans do
    not determine (a layer it never enters) reads 0.  A computed figure
    that ``BENCHMARK.json`` does not declare fails the run."""
    for name, value in {**dict.fromkeys(report.units, 0.0), **values}.items():
        report.metric(name, value)


def _note_shares(report: Report, title: str, values: Dict[str, float]
                 ) -> None:
    report.note(f"  {title}:")
    for layer in SHARE_LAYERS:
        if values[f"share.{layer}"]:
            report.note(f"    {layer:<19} {values[f'share.{layer}']:7.1%}")
    report.note(f"    {'unattributed':<19} "
                f"{values['trace.unattributed_share']:7.1%}")


def layer_self_ns(tracer: Tracer) -> Dict[str, float]:
    """Raw self time per layer (wrapper cost included), for shares."""
    spans, fine = tracer.spans, tracer.fine

    def fine_ns(prefix: str) -> int:
        return fine_sum(fine, prefix)[1]

    def self_of(*names: str) -> int:
        return sum(_self(r) for r in spans if r[NAME] in names)

    return {
        "runner": self_of("experiments.run_conciliator_trials",
                          "parallel.run_indexed_trials"),
        "schedule": self_of("schedules.make_schedule")
        + fine_ns("schedule.slot"),
        "run_setup": self_of("simulator.run_programs"),
        "simulator": self_of("simulator.Simulator.run"),
        "process": fine_ns("process.resume"),
        "memory": fine_ns("memory."),
        "vectorized.assemble": self_of("vectorized.run_vectorized_sweep"),
        "vectorized.blocks": self_of("vectorized.run_indexed_trials"),
        "workers": self_of("workers.execute_session"),
    }


def batch_split(tracer: Tracer, calibration: Dict[str, float],
                traced_wall_s: float, untraced_wall_s: float,
                workload: Any, report: Report) -> Dict[str, float]:
    """Shares of the traced batch wall time, and the step→second
    reconciliation for the generator sweeps.  Call while the tracer holds
    only the batch phase."""
    from sweeps import SWEEP_N, theory_steps

    wall_ns = traced_wall_s * 1e9
    selves = layer_self_ns(tracer)
    values: Dict[str, float] = {
        f"share.{layer}": selves.get(layer, 0) / wall_ns
        for layer in SHARE_LAYERS
    }
    values["trace.unattributed_share"] = 1.0 - sum(selves.values()) / wall_ns
    _note_shares(report, "traced batch split (share of traced wall time)",
                 values)
    if workload.vectorized:
        return values

    fine = FineTotals(tracer.fine, calibration)
    steps = fine.applies
    per_step = {
        "schedule": selves["schedule"] - fine.raw["schedule"] + fine.slot_ns,
        "simulator": selves["simulator"] - fine.outer_ns,
        "process": fine.resume_ns,
        "memory": fine.apply_ns,
        "run_setup": selves["run_setup"],
        "runner": selves["runner"],
    }
    for layer in STEP_LAYERS:
        values[f"step_ns.{layer}"] = per_step[layer] / steps
    values["step_ns.total"] = sum(per_step.values()) / steps
    algorithm = workload.algorithm
    theory = theory_steps(algorithm, SWEEP_N) * workload.trials
    predicted = theory * values["step_ns.total"] / 1e9
    values["reconcile.predicted_s"] = predicted
    values["reconcile.measured_s"] = untraced_wall_s
    values["reconcile.error_share"] = (
        (predicted - untraced_wall_s) / untraced_wall_s)
    report.note(
        f"  step->second: theory {theory_steps(algorithm, SWEEP_N)} charged "
        f"steps/trial x {workload.trials} trials x "
        f"{values['step_ns.total']:.0f} ns/step = {predicted:.3f} s "
        f"predicted vs {untraced_wall_s:.3f} s measured untraced "
        f"({values['reconcile.error_share']:+.1%})")
    for layer in STEP_LAYERS:
        report.note(f"    {layer:<19} {values[f'step_ns.{layer}']:8.0f} "
                    f"ns/step {per_step[layer] / sum(per_step.values()):6.1%}")
    return values


def serve_split(tracer: Tracer, steps: Sequence[Any], loaded_rate: int,
                report: Report) -> Dict[str, float]:
    """Per-session and service-wide metrics of the traced stair.

    Percentiles come from the sessions of the ``loaded_rate`` step; counts
    and shares cover every stair session.  Shares are of the summed
    client-observed latency.  Fine spans are not per session, so the time
    inside ``Simulator.run`` that they cover is split between schedule,
    process and memory by their run-wide proportions.
    """
    ids = {sid for step in steps for sid in step.due}
    spans = [r for r in tracer.spans if r[ID] in ids]
    compute: Dict[int, int] = {}
    backend_of: Dict[int, str] = {}
    for record in _named(spans, "workers.execute_session"):
        compute[record[ID]] = compute.get(record[ID], 0) + _duration(record)
        backend_of[record[ID]] = record[ATTRS]["backend"]

    def per_session(step: Any) -> List[Tuple[float, float, float]]:
        rows = []
        for message in step.ok():
            sid = message["session_id"]
            latency = (step.answers[sid][0][0] - step.due[sid]) * 1e3
            in_service = message["latency"] * 1e3
            rows.append((latency, in_service, compute.get(sid, 0) / 1e6))
        return rows

    values: Dict[str, float] = {}
    loaded = [step for step in steps if step.rate == loaded_rate]
    if loaded:
        rows = per_session(loaded[0])
        waits = [lat - svc for lat, svc, _ in rows]
        in_service = [svc for _, svc, _ in rows]
        values.update({
            "server.conn_wait_ms.p50": quantile(waits, 0.5),
            "server.conn_wait_ms.p99": quantile(waits, 0.99),
            "service.in_service_ms.p50": quantile(in_service, 0.5),
            "service.in_service_ms.p99": quantile(in_service, 0.99),
            "service.non_compute_ms": quantile(
                [svc - cpu for _, svc, cpu in rows], 0.5),
        })
        loaded_ids = set(loaded[0].due)
        for backend in ("generator", "vectorized"):
            mine = [compute[sid] / 1e6 for sid in loaded_ids
                    if backend_of.get(sid) == backend]
            if mine:
                values[f"workers.compute_ms.{backend}.p50"] = quantile(
                    mine, 0.5)
                values[f"workers.compute_ms.{backend}.p99"] = quantile(
                    mine, 0.99)
    answered = [m for step in steps for m in step.ok()]
    last = steps[-1].stats
    values.update({
        "service.shed": sum(last["sessions"]["rejected"].values()),
        "service.degraded_share": _ratio(
            sum(1 for m in answered if m["degraded"]), len(answered)),
        "service.attempts_per_session": _mean(
            [m["attempts"] for m in answered]),
        "service.breaker_opens": sum(
            breaker["opened"] for breaker in last["breakers"].values()),
        "service.occupancy_max": max(step.occupancy_max for step in steps),
        "loadgen.late_ms_p99": quantile(
            [late for step in steps for late in step.late_ms], 0.99),
        "loadgen.backlog": steps[-1].backlog,
    })

    rows = [row for step in steps for row in per_session(step)]
    total_ms = sum(lat for lat, _, _ in rows)
    fine = {layer: fine_sum(tracer.fine, prefix)[1]
            for layer, prefix in (("schedule", "schedule.slot"),
                                  ("process", "process.resume"),
                                  ("memory", "memory."))}
    fine_total = sum(fine.values())
    inside_runs = sum(r[CHILD] for r in _named(spans,
                                                "simulator.Simulator.run"))

    def own(name: str) -> float:
        return sum(_self(r) for r in _named(spans, name)) / 1e6

    layer_ms = {
        "server": sum(lat - svc for lat, svc, _ in rows),
        "service": sum(svc - cpu for _, svc, cpu in rows),
        "workers": own("workers.execute_session"),
        "schedule": own("schedules.make_schedule"),
        "run_setup": own("simulator.run_programs"),
        "simulator": own("simulator.Simulator.run"),
        "vectorized.assemble": own("vectorized.run_vectorized_sweep"),
        "vectorized.blocks": own("vectorized.run_indexed_trials"),
    }
    for layer, spent in fine.items():
        layer_ms[layer] = layer_ms.get(layer, 0.0) + _ratio(
            spent, fine_total) * inside_runs / 1e6
    for layer in SHARE_LAYERS:
        values[f"share.{layer}"] = _ratio(layer_ms.get(layer, 0.0), total_ms)
    values["trace.unattributed_share"] = 1.0 - _ratio(
        sum(layer_ms.values()), total_ms)
    _note_shares(report,
                 "traced serve split (share of client-observed latency)",
                 values)
    return values
