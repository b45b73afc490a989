"""Check that the benchmark is steady: spread of each end-to-end metric.

Runs ``run.py`` once per seed on each named workload and reports, per
metric, the distance between the first and third quartile of the values
as a share of their median, next to the metric's bound in
``BENCHMARK.json``.  A spread should stay under a third of its bound::

    python3 perfbench/steadiness.py --workloads serve sweep-sifting --seeds 1-10

With one seed (``--seeds 1``) it runs every workload once and prints each
end-to-end metric.  Each run's last output line is kept in
``.perfbench_out/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, OUT_DIR, ROOT


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    worst = 0.0
    with open(OUT_DIR / "steadiness.jsonl", "a", encoding="utf-8") as log:
        for workload in args.workloads:
            values: dict = {}
            for seed in args.seeds:
                done = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                )
                if done.returncode != 0:
                    print(done.stdout + done.stderr)
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      **result}) + "\n")
                log.flush()
                for name, entry in result["metrics"].items():
                    values.setdefault(name, []).append(entry["value"])
            print(f"{workload} (seeds {args.seeds[0]}..{args.seeds[-1]})")
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                middle = statistics.median(values[name])
                if len(values[name]) < 2:
                    print(f"  {name:<14} {middle:12.4f} {metric['unit']}")
                    continue
                share = spread(values[name])
                worst = max(worst, share / bound)
                flag = "" if share < bound / 3 else "  <-- above bound/3"
                print(f"  {name:<14} median {middle:12.4f} "
                      f"{metric['unit']:<5} spread {share:6.1%} "
                      f"bound {bound:5.0%}{flag}")
    print(f"worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
