"""The three sweep workloads: generator sweeps and the vectorized sweep.

Each workload has two phases, both driven through public entry points:

- a *batch* phase: repeated fixed-size sweeps with one master seed
  (``run_conciliator_trials`` on the generator backend, or
  ``run_vectorized_sweep`` for each kernel), timed per sweep;
- a *call* phase: a fixed number of one-trial calls shaped like one
  service session (``service.workers.execute_session``, n=16,
  ``permuted``), timed per call.

On a shared host the speed of the same code can swing by a factor of
1.8 from one second to the next (a 2-vCPU Xeon container showed this:
bursts of fast seconds within slower stretches).  So the phases are
interleaved: the calls run in chunks spread evenly over the run, with
batch sweeps in between, and both metrics average over the whole run
rather than over one window.  A median over the run would flip between
the fast and the slow speed with the share of fast seconds a run happens
to get; an average moves only in proportion to it.  The set-up probes
(a fresh interpreter each) are spread over the run the same way, and so
is the host-speed reference that the interpreter-bound metrics are
scaled by (see ``harness.HostSpeed``).

Every input (master seed, session seeds) is drawn from the workload seed;
the program sees only those values.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from harness import (
    SETUP_REPEATS,
    HostSpeed,
    Report,
    check,
    check_repeatable,
    median,
    quantile,
    time_setup_probe,
    workload_rng,
)

#: Processes per trial in the batch phase.
SWEEP_N = 64
#: Trials per generator sweep (about 0.4 s each on a 2.1 GHz Xeon).
GENERATOR_TRIALS = {"sweep-sifting": 64, "sweep-snapshot": 32}
#: Trials per vectorized sweep.
VECTORIZED_TRIALS = 65_536
#: Vectorized batch kernels: (algorithm, schedule family).
VECTORIZED_KERNELS = (("sifting", "permuted"), ("snapshot", "interleaved"))
#: One-trial calls per run (about 3 s of calls on each workload), run in
#: :data:`CALL_CHUNKS` evenly spaced chunks.
CALLS = {"sweep-sifting": 2000, "sweep-snapshot": 2000,
         "sweep-vectorized": 8000}
CALL_CHUNKS = 100
#: Processes per one-trial call (the service's session size).
CALL_N = 16
#: Trials compared bit for bit against the vectorized oracle.
ORACLE_SAMPLE = 16
#: Sweeps per kernel per run at the least, however short ``--seconds`` is.
MIN_BATCH_REPS = 3

ALGORITHM = {"sweep-sifting": "sifting", "sweep-snapshot": "snapshot"}


def _factory(algorithm: str, n: int) -> Callable[[], Any]:
    from repro.service.workers import ALGORITHMS

    build = ALGORITHMS[algorithm]
    return lambda: build(n)


def theory_steps(algorithm: str, n: int) -> int:
    """Charged steps of one trial, from ``analysis.theory`` (exact for
    Algorithms 1 and 2 under the default epsilon)."""
    from repro.analysis import theory

    count = (theory.sifting_step_count if algorithm == "sifting"
             else theory.snapshot_step_count)
    return count(n, 0.5) * n


#: Outcome digest of one sweep: (algorithm, agreements, charged steps,
#: validity failures).
Digest = Tuple[str, int, float, int]


class SweepWorkload:
    """Inputs and entry points of one sweep workload, built from the seed."""

    def __init__(self, name: str, seed: int):
        from repro.service.session import SessionRequest

        self.name = name
        self.vectorized = name == "sweep-vectorized"
        self.algorithm = ALGORITHM.get(name)
        self.kernels = (VECTORIZED_KERNELS if self.vectorized
                        else ((self.algorithm, "permuted"),))
        self.trials = (VECTORIZED_TRIALS if self.vectorized
                       else GENERATOR_TRIALS[name])
        self.backend = "vectorized" if self.vectorized else "generator"
        self.calls = CALLS[name]
        rng = workload_rng(seed, name)
        self.seed = seed
        self.master_seed = rng.getrandbits(63)
        # One algorithm per call phase: the median of a mix of two call
        # types with different costs would jump between them.
        call_algorithm = self.kernels[0][0]
        self.requests = [
            SessionRequest(
                session_id=index,
                algorithm=call_algorithm,
                n=CALL_N,
                schedule_family="permuted",
                seed=rng.getrandbits(32),
            )
            for index in range(self.calls)
        ]

    # -- the two phases ----------------------------------------------------

    def batch(self, kernel: int, trials: int = 0) -> Digest:
        """One sweep of one kernel; returns the digest of its outcome."""
        from repro.analysis import experiments
        from repro.runtime import vectorized

        algorithm, family = self.kernels[kernel]
        trials = trials or self.trials
        if self.vectorized:
            sweep = vectorized.run_vectorized_sweep(
                _factory(algorithm, SWEEP_N), list(range(SWEEP_N)),
                schedule_family=family, trials=trials,
                master_seed=self.master_seed, workers=1,
            )
            return (algorithm, sweep.agreement_count,
                    sum(sweep.total_steps), 0)
        stats = experiments.run_conciliator_trials(
            _factory(algorithm, SWEEP_N), list(range(SWEEP_N)),
            schedule_family=family, trials=trials,
            master_seed=self.master_seed, workers=1,
        )
        return (algorithm, stats.agreement_count,
                stats.total_steps.mean * stats.trials,
                stats.validity_failures)

    def call(self, index: int) -> Any:
        from repro.service import workers

        return workers.execute_session(self.requests[index],
                                       backend=self.backend)

    def warm_up(self) -> None:
        """Fill caches and finish lazy imports before anything is timed."""
        for index in range(20):
            self.call(index)
        for kernel in range(len(self.kernels)):
            self.batch(kernel, 4096 if self.vectorized else 4)

    # -- correctness -------------------------------------------------------

    def check_batch(self, digests: Dict[int, List[Digest]]) -> None:
        """Repeats agree with each other and with earlier runs of the seed,
        validity holds, and every sweep charged exactly the theory's step
        count; generator sweeps also match the oracle."""
        check_repeatable(self.name, self.seed,
                         [seen[0] for seen in digests.values()])
        for seen in digests.values():
            check(len(set(seen)) == 1,
                  f"batch outcomes differ between repeats: {set(seen)}")
            algorithm, agreements, total_steps, validity = seen[0]
            check(validity == 0, f"{validity} validity failures")
            check(0 <= agreements <= self.trials,
                  f"agreement count {agreements} out of range")
            expected = theory_steps(algorithm, SWEEP_N) * self.trials
            check(total_steps == expected,
                  f"{algorithm}: {total_steps} charged steps, theory says "
                  f"{expected}")
        if not self.vectorized:
            self.check_oracle()

    def check_oracle(self) -> None:
        """The first trials match the vectorized oracle bit for bit."""
        from repro.analysis import experiments
        from repro.runtime import vectorized

        factory = _factory(self.algorithm, SWEEP_N)
        generator = experiments.run_conciliator_trials(
            factory, list(range(SWEEP_N)), schedule_family="permuted",
            trials=ORACLE_SAMPLE, master_seed=self.master_seed, workers=1,
        )
        oracle = vectorized.run_vectorized_sweep(
            factory, list(range(SWEEP_N)), schedule_family="permuted",
            trials=ORACLE_SAMPLE, master_seed=self.master_seed, oracle=True,
            workers=1,
        ).stats()
        check(generator == oracle,
              f"generator and oracle disagree: {generator} vs {oracle}")

    def check_calls(self, outcomes: List[Any]) -> int:
        """Every call charged the theory's steps; a sample replays exactly.

        Returns the number of failed calls.
        """
        failed = 0
        for request, outcome in zip(self.requests, outcomes):
            if (outcome.backend != self.backend
                    or outcome.steps != theory_steps(request.algorithm,
                                                     CALL_N)):
                failed += 1
        for index in range(0, len(outcomes), len(outcomes) // 20):
            check(self.call(index) == outcomes[index],
                  f"call {index} did not replay identically")
        return failed


class Measurement:
    """Timings of one run: per-call durations and per-kernel sweep walls."""

    def __init__(self, workload: SweepWorkload):
        self.workload = workload
        self.durations: List[float] = []
        self.outcomes: List[Any] = []
        self.walls: Dict[int, List[float]] = {
            k: [] for k in range(len(workload.kernels))}
        self.digests: Dict[int, List[Digest]] = {
            k: [] for k in range(len(workload.kernels))}
        self.sweeps = 0

    def calls(self, count: int) -> None:
        clock = time.perf_counter
        for index in range(len(self.outcomes),
                           len(self.outcomes) + count):
            start = clock()
            outcome = self.workload.call(index)
            self.durations.append(clock() - start)
            self.outcomes.append(outcome)

    def sweep(self) -> float:
        """Time the next sweep, cycling through the kernels."""
        kernel = self.sweeps % len(self.walls)
        start = time.perf_counter()
        digest = self.workload.batch(kernel)
        wall = time.perf_counter() - start
        self.walls[kernel].append(wall)
        self.digests[kernel].append(digest)
        self.sweeps += 1
        return wall

    def trials_per_s(self) -> float:
        """Batch trials per second with each kernel at its mean sweep time
        (a kernel may have run one sweep more than the other)."""
        return (self.workload.trials * len(self.walls)
                / sum(sum(walls) / len(walls)
                      for walls in self.walls.values()))

    def call_p50_s(self, chunk: int) -> float:
        """The median call time of each chunk of calls, averaged over the
        chunks, which are spread evenly over the run."""
        durations = self.durations
        medians = [median(durations[start:start + chunk])
                   for start in range(0, len(durations), chunk)]
        return sum(medians) / len(medians)


def run_untraced(report: Report, workload: SweepWorkload,
                 seconds: float) -> None:
    workload.warm_up()
    measured = Measurement(workload)
    host = HostSpeed()
    setups: List[float] = []
    chunk = workload.calls // CALL_CHUNKS
    min_sweeps = MIN_BATCH_REPS * len(workload.kernels)
    clock = time.perf_counter
    began = clock()
    last_sweep = 0.0
    while True:
        elapsed = clock() - began
        chunks_done = len(measured.outcomes) // chunk
        calls_left = chunks_done < CALL_CHUNKS
        sweep_fits = elapsed + last_sweep <= seconds
        host.sample()
        if len(setups) < SETUP_REPEATS and (
                elapsed >= len(setups) * seconds / SETUP_REPEATS
                or not sweep_fits):
            setups.append(time_setup_probe(workload.name, workload.seed))
        elif calls_left and (elapsed >= chunks_done * seconds / CALL_CHUNKS
                             or not sweep_fits):
            measured.calls(chunk)
        elif sweep_fits or measured.sweeps < min_sweeps:
            last_sweep = measured.sweep()
        else:
            break
    workload.check_batch(measured.digests)
    report.failed = workload.check_calls(measured.outcomes)
    report.attempted = workload.calls + workload.trials * measured.sweeps
    durations = measured.durations
    slow = host.factor()
    trials_per_s = measured.trials_per_s()
    call_p50_ms = measured.call_p50_s(chunk) * 1e3
    setup_s = median(setups)
    # The NumPy kernels do not slow with the interpreter; see HostSpeed.
    report.metric("trials_per_s",
                  trials_per_s if workload.vectorized else trials_per_s * slow)
    report.metric("call_p50_ms", call_p50_ms / slow)
    report.metric("setup_s", setup_s / slow)
    report.note(f"  host: {slow:.3f} x the nominal reference time "
                f"({len(host.samples)} samples); as measured: trials_per_s "
                f"{trials_per_s:.6g}, call_p50_ms {call_p50_ms:.6g}, "
                f"setup_s {setup_s:.6g}")
    for kernel, (algorithm, family) in enumerate(workload.kernels):
        report.note(
            f"  batch {algorithm}/{family}: "
            f"{len(measured.walls[kernel])} sweeps of {workload.trials} "
            f"trials at n={SWEEP_N}, median "
            f"{median(measured.walls[kernel]):.3f} s; digest "
            f"{measured.digests[kernel][0]}")
    report.note(f"  calls: {workload.calls} one-trial {workload.backend} "
                f"calls at n={CALL_N}, p90 {quantile(durations, 0.90) * 1e3:.3f} ms, "
                f"p99 {quantile(durations, 0.99) * 1e3:.3f} ms")


def run_traced(report: Report, workload: SweepWorkload, seconds: float,
               spans_path: Any) -> None:
    """Traced run: untraced and traced sweeps alternate, so the overhead
    and the traced/untraced equality are measured on the same work.

    The batch sweeps (n=64) and the one-trial calls (n=16) are traced into
    separate tracers, so that no per-layer figure averages the two sizes:
    the layer figures come from the batch, the ``workers.*``,
    ``vectorized.fixed_ms`` and ``call.*`` figures from the calls."""
    import layers
    import tracing

    workload.warm_up()
    tracer = tracing.Tracer()
    plain, traced = Measurement(workload), Measurement(workload)
    # Calibrating between sweeps samples host speed as the sweeps do.
    calibrations = []
    clock = time.perf_counter
    began = clock()
    pair = 0.0
    while (traced.sweeps < 2 * len(workload.kernels)
           or clock() - began + pair <= 0.7 * seconds):
        calibrations.append(tracing.calibrate(pairs=3))
        pair = plain.sweep()
        tracing.install(tracer)
        tracer.trace_id = f"sweep-{traced.sweeps}"
        try:
            pair += traced.sweep()
        finally:
            tracer.uninstall()
    check(traced.digests == plain.digests,
          f"traced sweeps {traced.digests} != untraced {plain.digests}")
    workload.check_batch(plain.digests)
    calibration = tracing.merged(calibrations)
    split = layers.batch_split(
        tracer, calibration, sum(sum(w) for w in traced.walls.values()),
        sum(median(w) for w in plain.walls.values()), workload, report,
    )
    values = layers.from_spans(tracer, calibration)
    values.update(split)
    calls = workload.calls // 4
    plain.calls(calls)
    call_tracer = tracing.install(tracing.Tracer())
    try:
        for index in range(calls):
            call_tracer.trace_id = f"call-{index}"
            traced.calls(1)
    finally:
        call_tracer.uninstall()
    check(traced.outcomes == plain.outcomes,
          "traced calls differ from untraced calls")
    report.attempted = 2 * (workload.trials * plain.sweeps + calls)
    report.failed = workload.check_calls(plain.outcomes)
    values.update(layers.call_split(call_tracer, calibration))
    values["trace.overhead_share"] = median([
        t / u for kernel in plain.walls
        for t, u in zip(traced.walls[kernel], plain.walls[kernel])
    ]) - 1.0
    layers.report_all(report, values)
    tracer.write_jsonl(spans_path)
    call_tracer.write_jsonl(spans_path.with_name(
        spans_path.stem + "-calls.jsonl"))
    report.note(f"  spans: {spans_path} (batch), "
                f"{spans_path.stem}-calls.jsonl (calls)")
