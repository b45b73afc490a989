"""Helpers shared by every workload: paths, statistics, set-up timing, output.

Nothing here imports the program under test at module import time; the
workload modules do that after :func:`program_root` has put ``src`` on the
path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Where traced runs write their span files (inside the checkout).
OUT_DIR = ROOT / ".perfbench_out"

#: How many times set-up is repeated in one run, spread over the run;
#: ``setup_s`` is the median.
SETUP_REPEATS = 15

#: Rounds of the host-speed reference loop (about 4 ms of work).
REFERENCE_ROUNDS = 40
#: Seconds the reference loop takes at the nominal host speed.
REFERENCE_S = 0.004


class CheckFailed(Exception):
    """A correctness check failed; the run must exit non-zero."""


def program_root() -> Path:
    """Put the program's ``src`` on ``sys.path``, or fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: program sources not found under {SRC}; run from the "
            "root of a checkout that holds src/repro"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SRC


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the program on the path,
    and a fixed hash seed so that dict and set layouts, and with them
    timings, do not differ between children by chance."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def declared(kind: str) -> Dict[str, str]:
    """Metric names of one kind (``end_to_end`` or ``per_layer``) with their
    units, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_repeatable(workload: str, seed: int, digest: Any) -> None:
    """Outcomes must be identical on every run of one seed, traced or not.

    The first run of a (workload, seed, source tree) records its digest in
    the checkout; every later run compares against it.
    """
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    key = f"{workload}|{seed}|{source.hexdigest()[:16]}"
    digest = json.loads(json.dumps(digest))
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        check(known[key] == digest,
              f"outcomes differ from an earlier run of this seed: "
              f"{digest} != {known[key]}")
        return
    known[key] = digest
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def workload_rng(seed: int, label: str) -> random.Random:
    """A private stream per (seed, purpose), so inputs depend only on both."""
    return random.Random(f"perfbench|{seed}|{label}")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb_self() -> float:
    """High-water resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """High-water resident set (``VmHWM``) of a live child, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


def cpu_seconds_of(pid: int) -> float:
    """User + system CPU seconds a live child has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def stop_process(process: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate a child and wait until it has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def time_setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready.

    The child imports the workload's entry points and makes one warm-up
    call (see ``run.py --setup-probe``), which is the set-up a user of the
    sweeps pays before the first measured trial.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        check(line.strip() == "ready", f"set-up probe said {line!r}")
        check(process.wait(timeout=60) == 0, "set-up probe failed")
    finally:
        stop_process(process)
    return elapsed


class _Cell:
    """A toy shared cell, stepped by :func:`_protocol`."""

    __slots__ = ("pid", "value", "seen")

    def __init__(self, pid: int):
        self.pid = pid
        self.value = 0
        self.seen: List[int] = []

    def step(self, observed: int) -> int:
        self.value = max(self.value, observed)
        self.seen.append(observed)
        return self.value


def _protocol(cell: _Cell, draw: Any):
    for round_ in range(8):
        observed = yield ("read", round_)
        cell.step(int(draw() * 64) ^ observed)


def reference_s() -> float:
    """Seconds one pass of a fixed pure-Python loop takes.

    The loop is shaped like the generator backend's work, with none of the
    program's code in it: 16 generator protocols resumed in lockstep,
    each stepping a small slotted object with a seeded random draw, then a
    dict of tuple views.  A plain arithmetic loop tracked the host's speed
    swings less well: its speed changed more than the program's did."""
    start = time.perf_counter()
    draw = random.Random(1).random
    for _ in range(REFERENCE_ROUNDS):
        cells = [_Cell(pid) for pid in range(16)]
        runs = [_protocol(cell, draw) for cell in cells]
        for run in runs:
            run.send(None)
        for value in range(7):
            for run in runs:
                run.send(value)
        views = {cell.pid: tuple(cell.seen) for cell in cells}
    check(len(views) == 16, "reference loop lost a cell")
    return time.perf_counter() - start


class HostSpeed:
    """How slow the host runs during one run, against a nominal speed.

    On a shared host the interpreter's speed swings by tens of percent
    from second to second and between runs (a 2-vCPU Xeon container ran
    the same code 1.5x slower in one 25 s run than in the next).  Timings
    bound by the interpreter are reported at the nominal speed: measured
    time divided by :meth:`factor`, the mean time of :func:`reference_s`
    over the run divided by :data:`REFERENCE_S`.  The reference is sampled
    between the measured pieces of work all through the run.  It is code
    of the benchmark's own, so no change to the program moves it."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(reference_s())

    def factor(self) -> float:
        check(bool(self.samples), "the host speed was never sampled")
        return statistics.fmean(self.samples) / REFERENCE_S


class Report:
    """Collects human-readable lines and the metrics of one run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.units = declared("per_layer" if trace else "end_to_end")
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def metric(self, name: str, value: float) -> None:
        """Record a metric; its unit is the one ``BENCHMARK.json`` gives."""
        if name not in self.units:
            raise CheckFailed(f"metric {name} is not declared in "
                              "BENCHMARK.json")
        self.metrics[name] = {"value": float(value),
                              "unit": self.units[name]}

    def note(self, line: str) -> None:
        self.notes.append(line)

    def emit(self, correct: bool, error: Optional[str] = None) -> None:
        """Print every metric by name, then the one-line JSON result.

        A run that failed a check reports what it measured; one that
        passed must have measured every declared metric."""
        print(f"workload={self.workload} seed={self.seed} "
              f"trace={int(self.trace)}")
        for line in self.notes:
            print(line)
        for name in sorted(self.metrics):
            entry = self.metrics[name]
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
        if error is not None:
            print(f"CHECK FAILED: {error}")
        missing = [name for name in self.units if name not in self.metrics]
        if correct and missing:
            raise CheckFailed(f"metrics not measured: {missing}")
        result = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in self.units
                        if name in self.metrics},
        }
        sys.stdout.flush()
        print(json.dumps(result, sort_keys=True))
