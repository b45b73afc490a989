"""Unit tests for the adaptive-adversary runtime."""

import hashlib
import re
from pathlib import Path

import pytest

from repro.errors import (
    ScheduleExhaustedError,
    SimulationError,
    StepLimitExceededError,
)
from repro.memory.register import AtomicRegister
from repro.runtime.adaptive import (
    ADAPTIVE_FAMILIES,
    AdaptiveAdversary,
    AdversaryView,
    LongestFirstAdversary,
    PendingKindAdversary,
    RandomAdaptiveAdversary,
    ShortestFirstAdversary,
    SiftKillerAdversary,
    make_adaptive,
    run_adaptive_programs,
)
from repro.runtime.adversary import LATE, NOISY, make_adversary
from repro.runtime.faults import CrashFault, FaultPlan, StallFault
from repro.runtime.operations import Read, Write
from repro.runtime.rng import SeedTree


def write_then_read(register):
    def program(ctx):
        yield Write(register, ctx.pid)
        value = yield Read(register)
        return value

    return program


class TestRunAdaptive:
    def test_completes_and_counts_steps(self):
        register = AtomicRegister("r")
        result = run_adaptive_programs(
            [write_then_read(register)] * 3,
            RandomAdaptiveAdversary(1),
            SeedTree(0),
        )
        assert result.completed
        assert all(steps == 2 for steps in result.steps_by_pid.values())

    def test_deterministic_given_seeds(self):
        outcomes = []
        for _ in range(2):
            register = AtomicRegister("r")
            result = run_adaptive_programs(
                [write_then_read(register)] * 4,
                RandomAdaptiveAdversary(9),
                SeedTree(3),
            )
            outcomes.append(result.outputs)
        assert outcomes[0] == outcomes[1]

    def test_trace_recording(self):
        register = AtomicRegister("r")
        result = run_adaptive_programs(
            [write_then_read(register)] * 2,
            ShortestFirstAdversary(),
            SeedTree(0),
            record_trace=True,
        )
        assert len(result.trace) == result.total_steps

    def test_step_limit(self):
        register = AtomicRegister("r")

        def forever(ctx):
            while True:
                yield Read(register)

        with pytest.raises(StepLimitExceededError):
            run_adaptive_programs(
                [forever], ShortestFirstAdversary(), SeedTree(0),
                step_limit=50,
            )

    @pytest.mark.parametrize("pick", [0, 99])
    def test_unrunnable_choice_is_refused(self, pick):
        # pid 0 finishes after one step; 99 names no process at all.
        register = AtomicRegister("r")

        class Stubborn(AdaptiveAdversary):
            def choose(self, view):
                return pick

        def once(ctx):
            yield Write(register, ctx.pid)
            return "done"

        with pytest.raises(SimulationError, match="unrunnable process"):
            run_adaptive_programs([once, once], Stubborn(), SeedTree(0))

    def test_input_length_checked(self):
        register = AtomicRegister("r")
        with pytest.raises(SimulationError):
            run_adaptive_programs(
                [write_then_read(register)] * 2,
                ShortestFirstAdversary(),
                SeedTree(0),
                inputs=[1],
            )


class TestStrategies:
    def test_pending_kind_prefers_listed_kind(self):
        register = AtomicRegister("r")

        def reader(ctx):
            value = yield Read(register)
            return ("read-first", value)

        def writer(ctx):
            yield Write(register, "w")
            return "wrote"

        # Readers scheduled before writers: the reader must see None.
        result = run_adaptive_programs(
            [writer, reader],
            PendingKindAdversary(["read"]),
            SeedTree(0),
        )
        assert result.outputs[1] == ("read-first", None)

    def test_pending_kind_write_priority(self):
        register = AtomicRegister("r")

        def reader(ctx):
            value = yield Read(register)
            return value

        def writer(ctx):
            yield Write(register, "w")
            return "wrote"

        result = run_adaptive_programs(
            [reader, writer],
            PendingKindAdversary(["write"]),
            SeedTree(0),
        )
        assert result.outputs[0] == "w"

    def test_longest_first_runs_one_process_to_completion(self):
        register = AtomicRegister("r")

        def program(ctx):
            for _ in range(5):
                yield Write(register, ctx.pid)
            value = yield Read(register)
            return value

        result = run_adaptive_programs(
            [program] * 3, LongestFirstAdversary(), SeedTree(0),
            record_trace=True,
        )
        # The first scheduled process keeps the lead and finishes before
        # anyone else starts.
        first_six = [event.pid for event in result.trace.events[:6]]
        assert len(set(first_six)) == 1

    def test_shortest_first_is_round_robin_like(self):
        register = AtomicRegister("r")

        def program(ctx):
            yield Write(register, ctx.pid)
            yield Write(register, ctx.pid)
            return "done"

        result = run_adaptive_programs(
            [program] * 3, ShortestFirstAdversary(), SeedTree(0),
            record_trace=True,
        )
        pids = [event.pid for event in result.trace.events[:3]]
        assert pids == [0, 1, 2]

    def test_sift_killer_runs_empty_readers_first(self):
        register = AtomicRegister("r")

        def reader(ctx):
            value = yield Read(register)
            return value

        def writer(ctx):
            yield Write(register, "w")
            return "wrote"

        result = run_adaptive_programs(
            [writer, reader], SiftKillerAdversary(), SeedTree(0),
        )
        # The reader ran while the register was still empty.
        assert result.outputs[1] is None


class TestAdversaryBreaksSifting:
    """The E18 punchline at unit-test scale: a content-aware adversary
    pushes Algorithm 2 below its oblivious floor, while Algorithm 1 is
    structurally immune (its two ops per round are the same kinds for
    everyone)."""

    def test_readers_first_defeats_the_sift(self):
        from repro.core.sifting_conciliator import SiftingConciliator

        # The attack strengthens with n (~0.30 at n=32 vs ~0.9 oblivious).
        n, trials = 32, 40
        agreed = 0
        for trial in range(trials):
            conciliator = SiftingConciliator(n)
            result = run_adaptive_programs(
                [conciliator.program] * n,
                PendingKindAdversary(["read"]),
                SeedTree(trial),
                inputs=list(range(n)),
            )
            agreed += result.agreement
        # Well below the 1 - eps = 0.5 oblivious floor.
        assert agreed / trials < 0.5

    def test_snapshot_conciliator_resists_the_same_adversary(self):
        from repro.core.snapshot_conciliator import SnapshotConciliator

        n, trials = 16, 30
        agreed = 0
        for trial in range(trials):
            conciliator = SnapshotConciliator(n)
            result = run_adaptive_programs(
                [conciliator.program] * n,
                PendingKindAdversary(["scan"]),
                SeedTree(trial),
                inputs=list(range(n)),
            )
            agreed += result.agreement
        assert agreed / trials >= 0.5

    def test_validity_and_termination_survive_any_adversary(self):
        from repro.core.sifting_conciliator import SiftingConciliator

        n = 8
        for adversary in (
            PendingKindAdversary(["read"]),
            SiftKillerAdversary(),
            LongestFirstAdversary(),
            ShortestFirstAdversary(),
        ):
            conciliator = SiftingConciliator(n)
            result = run_adaptive_programs(
                [conciliator.program] * n, adversary, SeedTree(5),
                inputs=list(range(n)),
            )
            assert result.completed
            assert result.validity_holds({pid: pid for pid in range(n)})


class TestAdaptiveUnderFullMonitorSuite:
    """Every adaptive adversary family, with the complete invariant-monitor
    suite riding along as hooks: no monitor may record a violation against
    an honest protocol, whatever the adversary does."""

    ADVERSARIES = (
        lambda: PendingKindAdversary(["read"]),
        lambda: PendingKindAdversary(["write"]),
        lambda: LongestFirstAdversary(),
        lambda: ShortestFirstAdversary(),
        lambda: RandomAdaptiveAdversary(7),
        lambda: SiftKillerAdversary(),
    )

    def run_under_monitors(self, conciliator, adversary, inputs, seed=3):
        from repro.runtime.monitors import (
            AdoptCommitCoherenceMonitor,
            RegisterSemanticsMonitor,
            ValidityMonitor,
            WaitFreedomWatchdog,
        )

        n = len(inputs)
        monitors = [
            ValidityMonitor(inputs, strict=False),
            AdoptCommitCoherenceMonitor(strict=False),
            WaitFreedomWatchdog(conciliator.step_bound(), strict=False),
            RegisterSemanticsMonitor(strict=False),
        ]
        result = run_adaptive_programs(
            [conciliator.program] * n,
            adversary,
            SeedTree(seed),
            inputs=list(inputs),
            hooks=monitors,
            record_trace=True,
        )
        return result, monitors

    def test_sifting_is_clean_under_every_adversary(self):
        from repro.core.sifting_conciliator import SiftingConciliator

        n = 6
        for make_adversary in self.ADVERSARIES:
            result, monitors = self.run_under_monitors(
                SiftingConciliator(n), make_adversary(), list(range(n)),
            )
            assert result.completed
            for monitor in monitors:
                assert monitor.violations == [], type(monitor).__name__

    def test_snapshot_is_clean_under_every_adversary(self):
        from repro.core.snapshot_conciliator import SnapshotConciliator

        n = 5
        for make_adversary in self.ADVERSARIES:
            result, monitors = self.run_under_monitors(
                SnapshotConciliator(n), make_adversary(), list(range(n)),
            )
            assert result.completed
            for monitor in monitors:
                assert monitor.violations == [], type(monitor).__name__

    def test_watchdog_exposes_a_planted_step_hog_under_adaptive(self):
        # Sanity-check the suite has teeth in the adaptive runtime too: an
        # absurdly tight step budget must be reported by the watchdog.
        from repro.core.sifting_conciliator import SiftingConciliator
        from repro.runtime.monitors import WaitFreedomWatchdog

        n = 4
        conciliator = SiftingConciliator(n)
        watchdog = WaitFreedomWatchdog(1, strict=False)
        result = run_adaptive_programs(
            [conciliator.program] * n,
            RandomAdaptiveAdversary(1),
            SeedTree(2),
            inputs=list(range(n)),
            hooks=[watchdog],
        )
        assert result.completed
        assert watchdog.violations
        assert all(v.monitor == "wait-freedom" for v in watchdog.violations)


class TestAdaptiveRunsEmitEveryLifecycleEvent:
    """Adaptive runs go through the simulator, so hooks see the same
    lifecycle as on oblivious runs: run start (reservoir sampling, run
    counters, queue depth) and withheld slots."""

    def test_run_start_reaches_the_hooks(self):
        from repro.core.sifting_conciliator import SiftingConciliator
        from repro.obs.metrics import MetricsHook, MetricsRegistry
        from repro.obs.tracing import TraceRecorder as EventRecorder

        n = 16
        recorder = EventRecorder(pid_reservoir=2)
        registry = MetricsRegistry()
        run_adaptive_programs(
            [SiftingConciliator(n).program] * n,
            make_adaptive("random-adaptive", 3),
            SeedTree(4),
            inputs=list(range(n)),
            hooks=[recorder, MetricsHook(registry, queue_depth_every=1)],
        )
        assert recorder.sampled_pids is not None
        assert len(recorder.sampled_pids) == 2
        assert {event.pid for event in recorder.events
                if event.pid is not None} <= recorder.sampled_pids
        assert registry.counter_value("run.count") == 1
        depth = registry.histogram_for("sched.queue_depth")
        assert depth is not None and depth.count > 0

    def test_withheld_slots_reach_the_hooks(self):
        from repro.core.sifting_conciliator import SiftingConciliator
        from repro.obs.metrics import MetricsHook, MetricsRegistry

        n = 8
        registry = MetricsRegistry()
        plan = FaultPlan(stalls=(StallFault(pid=3, start_step=2, duration=20),))
        result = run_adaptive_programs(
            [SiftingConciliator(n).program] * n,
            make_adaptive("random-adaptive", 3),
            SeedTree(4),
            inputs=list(range(n)),
            hooks=[plan.injector(), MetricsHook(registry)],
        )
        assert result.completed
        assert registry.counter_value("sim.stalled_slots") >= 1


#: Every adaptive family, plus the late and noisy rungs wrapping
#: ``pending-reads``.
_PINNED_FAMILIES = ADAPTIVE_FAMILIES + (LATE, NOISY)

#: Digests of adaptive runs taken from the hand-written adaptive step
#: loop that preceded the simulator-driven one.  A run that starves under
#: the stall pins its diagnostic state instead of its outputs.
_PINNED_DIGESTS = {
    ("pending-reads", "sifting"): "66b15a5a259d2371",
    ("pending-reads", "snapshot"): "43a267dc6cfaa6c3",
    ("pending-writes", "sifting"): "86828bcef7109577",
    ("pending-writes", "snapshot"): "35967d80d6e6a293",
    ("longest-first", "sifting"): "6bcf89b4445e5a75",
    ("longest-first", "snapshot"): "0c56c15a0e6168a5",
    ("shortest-first", "sifting"): "d49edcbe16b7ce44",
    ("shortest-first", "snapshot"): "d49edcbe16b7ce44",
    ("random-adaptive", "sifting"): "93550505df53ad19",
    ("random-adaptive", "snapshot"): "48be5579dde3a4c1",
    ("sift-killer", "sifting"): "71232a2cacd48498",
    ("sift-killer", "snapshot"): "0c56c15a0e6168a5",
    ("late", "sifting"): "76e227175f783794",
    ("late", "snapshot"): "d0fe94afe61dafb1",
    ("noisy", "sifting"): "9dc1ca57e7565c23",
    ("noisy", "snapshot"): "d980aafcc5e00296",
}


def _adaptive_run_digest(family, algorithm):
    """Digest outputs, step counts, crashes and the raw trace of one run."""
    from repro.core.sifting_conciliator import SiftingConciliator
    from repro.core.snapshot_conciliator import SnapshotConciliator

    n = 8
    conciliator = {
        "sifting": SiftingConciliator, "snapshot": SnapshotConciliator,
    }[algorithm](n)
    if family in (LATE, NOISY):
        adversary = make_adversary(family, inner="pending-reads", seed=5)
    else:
        adversary = make_adaptive(family, seed=5)
    plan = FaultPlan(
        crashes=(CrashFault(pid=2, after_steps=4),),
        stalls=(StallFault(pid=6, start_step=10, duration=30),),
    )
    try:
        result = run_adaptive_programs(
            [conciliator.program] * n,
            adversary,
            SeedTree(11),
            inputs=list(range(n)),
            record_trace=True,
            hooks=[plan.injector()],
        )
    except ScheduleExhaustedError as error:
        parts = ("starved", error.unfinished_pids,
                 sorted(error.steps_by_pid.items()))
    else:
        parts = (
            sorted(result.outputs.items()),
            sorted(result.steps_by_pid.items()),
            sorted(result.crashed),
            [
                tuple(repr(getattr(event, field)) for field in (
                    "step", "pid", "kind", "obj_name", "value", "result",
                ))
                for event in result.trace.events
            ],
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("algorithm", ["sifting", "snapshot"])
@pytest.mark.parametrize("family", _PINNED_FAMILIES)
def test_adaptive_runs_match_the_pinned_digests(family, algorithm):
    assert _adaptive_run_digest(family, algorithm) == \
        _PINNED_DIGESTS[family, algorithm]


_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
_STEP_LOOP_CALL = re.compile(r"\.complete_step\(|\.obj\.apply\(")


def test_only_the_simulator_has_a_step_loop():
    """Applying an operation and resuming its process happen in
    ``Simulator.run`` only; every other runner drives the simulator."""
    allowed = _SRC / "runtime" / "simulator.py"
    offenders = [
        f"{path.relative_to(_SRC)}:{number}"
        for path in sorted(_SRC.rglob("*.py")) if path != allowed
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _STEP_LOOP_CALL.search(line)
    ]
    assert offenders == [], (
        "drive repro.runtime.simulator.Simulator instead: "
        + ", ".join(offenders)
    )
