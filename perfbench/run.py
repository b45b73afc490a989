"""Repository benchmark: one command, four workloads, traced or untraced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-sifting --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
run that times the program's layers from outside and prints the per-layer
metrics.  Every run checks the program's outputs and exits non-zero when a
check fails.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import sys

from harness import (OUT_DIR, CheckFailed, Report, peak_rss_mb_self,
                     program_root)

WORKLOADS = ("sweep-sifting", "sweep-snapshot", "sweep-vectorized", "serve")


def _setup_probe(workload: str, seed: int) -> int:
    """The set-up a sweep user pays: imports, inputs, one small sweep per
    kernel (NumPy's first call included) and one call."""
    import sweeps

    bench = sweeps.SweepWorkload(workload, seed)
    for kernel in range(len(bench.kernels)):
        bench.batch(kernel, 64 if bench.vectorized else 1)
    bench.call(0)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: every generated input derives "
                             "from it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    program_root()
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    report = Report(args.workload, args.seed, bool(args.trace))
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        if args.workload == "serve":
            import serve

            if args.trace:
                serve.run_traced(report, args.seed, args.seconds, spans_path)
            else:
                serve.run_untraced(report, args.seed, args.seconds)
        else:
            import sweeps

            workload = sweeps.SweepWorkload(args.workload, args.seed)
            if args.trace:
                sweeps.run_traced(report, workload, args.seconds, spans_path)
            else:
                sweeps.run_untraced(report, workload, args.seconds)
                report.metric("peak_rss_mb", peak_rss_mb_self())
    except CheckFailed as failure:
        report.failed = max(report.failed, 1)
        report.attempted = max(report.attempted, 1)
        report.emit(False, str(failure))
        return 1
    report.emit(report.failed == 0)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
