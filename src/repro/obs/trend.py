"""Append-only bench trend ledger: ``benchmarks/BENCH_history.jsonl``.

A single bench report answers "how fast is this commit?"; the gate
(:func:`~repro.obs.bench.compare_bench`) answers "did this PR regress?".
Neither answers "what has steps/sec done over the last ten PRs?" — that
needs history.  This module keeps it as JSONL: one line per bench run,
carrying the git SHA, the creation time, and each case's steps/sec.
Appending a line never rewrites earlier ones, so the ledger survives
crashes mid-append with at most one torn final line — which the reader
tolerates with a warning, the same contract as the PR 2 checkpoint
journal and :func:`~repro.obs.events.iter_trace_jsonl`.

Entries carry ``"v": TREND_SCHEMA_VERSION`` and foreign versions are
rejected loudly.  Timing numbers are host-dependent; the summary compares
entries from whatever hosts produced them, so read cross-host deltas as
context, not verdicts (the ``env`` fingerprint in the full bench report is
the tie-breaker).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.codec import iter_jsonl
from repro.errors import ConfigurationError

__all__ = [
    "TREND_SCHEMA_VERSION",
    "CaseTrend",
    "append_history",
    "history_entry",
    "load_history",
    "render_trend",
    "summarize_trend",
]

#: Version stamped on every ledger line; bump on incompatible change.
TREND_SCHEMA_VERSION = 1

_ENTRY_KIND = "repro-bench-history"


def history_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """Distill one bench report (see ``run_bench_suite``) to a ledger line."""
    if "cases" not in report or "label" not in report:
        raise ConfigurationError(
            "not a bench report: missing 'cases'/'label'; build one with "
            "run_bench_suite"
        )
    return {
        "v": TREND_SCHEMA_VERSION,
        "kind": _ENTRY_KIND,
        "label": report["label"],
        "quick": bool(report.get("quick", False)),
        "seed": report.get("seed"),
        "git_sha": report.get("git_sha", "unknown"),
        "created_unix": report.get("created_unix"),
        "cases": {
            name: case["steps_per_sec"]
            for name, case in sorted(report["cases"].items())
        },
    }


def append_history(
    report: Dict[str, Any], path: Union[str, Path]
) -> Dict[str, Any]:
    """Append one report's ledger line to ``path``; returns the entry."""
    entry = history_entry(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True,
                                separators=(",", ":")))
        handle.write("\n")
    return entry


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load the ledger, in append order.

    A missing file is an empty history.  An unparseable *final* line is a
    torn append — tolerated with a warning.  An unparseable line with
    durable entries after it, or any parseable line with a foreign
    version or kind, raises :class:`~repro.errors.ConfigurationError`
    (see :func:`repro.codec.iter_jsonl`).
    """
    return list(iter_jsonl(path, "bench history entry", TREND_SCHEMA_VERSION,
                           kind=_ENTRY_KIND))


@dataclass(frozen=True)
class CaseTrend:
    """One case's trajectory across the loaded ledger entries."""

    name: str
    points: int
    first_steps_per_sec: float
    last_steps_per_sec: float
    #: Fractional change from the newest entry's predecessor; ``None``
    #: when the case appears in fewer than two entries.
    latest_change: Optional[float]
    #: Fractional change across the whole window (first -> last).
    overall_change: Optional[float]


def _fraction(old: float, new: float) -> Optional[float]:
    return (new - old) / old if old > 0 else None


def summarize_trend(
    entries: Sequence[Dict[str, Any]], *, last: Optional[int] = None
) -> List[CaseTrend]:
    """Per-case first/last/delta summary over the (windowed) ledger.

    ``last`` restricts the window to the newest N entries.  Cases are
    summarized independently because the suite can gain cases over time.
    """
    if last is not None:
        if last < 1:
            raise ConfigurationError(f"last must be >= 1, got {last}")
        entries = list(entries)[-last:]
    series: Dict[str, List[float]] = {}
    for entry in entries:
        for name, steps_per_sec in entry.get("cases", {}).items():
            series.setdefault(name, []).append(float(steps_per_sec))
    trends: List[CaseTrend] = []
    for name in sorted(series):
        values = series[name]
        trends.append(CaseTrend(
            name=name,
            points=len(values),
            first_steps_per_sec=values[0],
            last_steps_per_sec=values[-1],
            latest_change=(
                _fraction(values[-2], values[-1]) if len(values) >= 2
                else None
            ),
            overall_change=(
                _fraction(values[0], values[-1]) if len(values) >= 2
                else None
            ),
        ))
    return trends


def render_trend(
    entries: Sequence[Dict[str, Any]], *, last: Optional[int] = None
) -> str:
    """Human-readable trend table for terminal output."""
    if not entries:
        return ("bench history is empty; run `repro bench --history` to "
                "start the ledger")
    trends = summarize_trend(entries, last=last)
    window = list(entries)[-last:] if last is not None else list(entries)
    first_sha = str(window[0].get("git_sha", "unknown"))[:12]
    last_sha = str(window[-1].get("git_sha", "unknown"))[:12]
    lines = [
        f"bench trend over {len(window)} entr"
        f"{'y' if len(window) == 1 else 'ies'} "
        f"({first_sha} -> {last_sha})",
        f"{'case':<24} {'first':>12} {'last':>12} {'latest':>8} "
        f"{'overall':>8}  points",
    ]
    for trend in trends:
        latest = (f"{trend.latest_change:+.1%}"
                  if trend.latest_change is not None else "-")
        overall = (f"{trend.overall_change:+.1%}"
                   if trend.overall_change is not None else "-")
        lines.append(
            f"{trend.name:<24} {trend.first_steps_per_sec:>12.0f} "
            f"{trend.last_steps_per_sec:>12.0f} {latest:>8} {overall:>8}  "
            f"{trend.points}"
        )
    return "\n".join(lines)
