"""The shared artifact codec and every versioned reader routed through it.

One table lists each on-disk format with its envelope key, version and
kind.  Those are frozen: committed corpora, baselines and ledgers must keep
loading, so a change to any row is a format break, not a refactor.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.growth import load_growth_json
from repro.analysis.probe import ProbeReport
from repro.codec import read_json
from repro.errors import ConfigurationError
from repro.fuzz.corpus import CorpusCase, load_case
from repro.fuzz.explain import CaseExplanation
from repro.fuzz.scenario import FuzzConfig, Scenario
from repro.memory.semantics import RegisterModel
from repro.obs.analyze import AttributionReport, DisagreementReport
from repro.obs.bench import load_bench_json
from repro.obs.events import event_from_json, read_trace_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trend import load_history
from repro.runtime.adaptive import AdaptiveSpec
from repro.runtime.adversary import AdversarySpec
from repro.runtime.faults import FaultPlan, ServiceFaultPlan
from repro.runtime.scheduler import ExplicitSchedule
from repro.service.session import SessionRequest, SessionResponse
from repro.service.slo import load_report, load_slo_history
from repro.service.spans import read_spans_jsonl, tree_from_json
from repro.workloads.schedules import ScheduleSpec

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
BENCHMARKS = REPO / "benchmarks"

# Reader shapes: "value" readers take a decoded JSON value, "file" readers
# a whole-file JSON document, "jsonl" readers one envelope per line.
VALUE, FILE, JSONL = "value", "file", "jsonl"

#: (format, reader, shape, envelope key, version, kind)
FORMATS = [
    ("adversary spec", AdversarySpec.from_json, VALUE, "version", 1, None),
    ("fault plan", FaultPlan.from_json, VALUE, "version", 1, None),
    ("service fault plan", ServiceFaultPlan.from_json, VALUE, "version", 1,
     None),
    ("adaptive spec", AdaptiveSpec.from_json, VALUE, "version", 1, None),
    ("explicit schedule", ExplicitSchedule.from_json, VALUE, "version", 1,
     "explicit"),
    ("schedule spec", ScheduleSpec.from_json, VALUE, "version", 1, None),
    ("register model", RegisterModel.from_json, VALUE, "version", 1, None),
    ("scenario", Scenario.from_json, VALUE, "version", 1, None),
    ("fuzz config", FuzzConfig.from_json, VALUE, "version", 1, None),
    ("corpus case", CorpusCase.from_json, VALUE, "version", 1,
     "repro-fuzz-corpus-case"),
    ("corpus case file", load_case, FILE, "version", 1,
     "repro-fuzz-corpus-case"),
    ("probe report", ProbeReport.from_json, VALUE, "version", 1, None),
    ("session request", SessionRequest.from_json, VALUE, "version", 1, None),
    ("session response", SessionResponse.from_json, VALUE, "version", 1,
     None),
    ("metrics snapshot", MetricsRegistry.from_json, VALUE, "v", 1, None),
    ("trace event", event_from_json, VALUE, "v", 1, None),
    ("trace file", read_trace_jsonl, JSONL, "v", 1, None),
    ("disagreement report", DisagreementReport.from_json, VALUE, "v", 1,
     "repro-disagreement-report"),
    ("attribution report", AttributionReport.from_json, VALUE, "v", 1,
     "repro-attribution-report"),
    ("case explanation", CaseExplanation.from_json, VALUE, "v", 1,
     "repro-case-explanation"),
    ("span tree", tree_from_json, VALUE, "v", 1, "repro-session-spans"),
    ("spans file", read_spans_jsonl, JSONL, "v", 1, "repro-session-spans"),
    ("bench report", load_bench_json, FILE, "v", 1, None),
    ("bench history", load_history, JSONL, "v", 1, "repro-bench-history"),
    ("growth report", load_growth_json, FILE, "v", 1, None),
    ("SLO report", load_report, FILE, "v", 1, None),
    ("SLO history", load_slo_history, JSONL, "v", 1, "repro-slo-history"),
]

FORMAT_IDS = [row[0] for row in FORMATS]
KINDED = [row for row in FORMATS if row[5] is not None]
FILE_READERS = [row for row in FORMATS if row[2] == FILE]


def feed(row, data, tmp_path):
    """Hand ``data`` to the row's reader in the shape it consumes."""
    _, reader, shape, _, _, _ = row
    if shape == VALUE:
        return reader(data)
    path = tmp_path / "artifact"
    text = json.dumps(data)
    path.write_text(text + "\n" if shape == JSONL else text)
    return reader(str(path))


class TestEveryReader:
    @pytest.mark.parametrize("row", FORMATS, ids=FORMAT_IDS)
    def test_rejects_a_non_object(self, row, tmp_path):
        with pytest.raises(ConfigurationError, match="JSON object"):
            feed(row, [1, 2, 3], tmp_path)

    @pytest.mark.parametrize("row", FORMATS, ids=FORMAT_IDS)
    def test_rejects_a_foreign_version(self, row, tmp_path):
        _, _, _, key, _, kind = row
        data = {key: 99, "kind": kind or "anything"}
        with pytest.raises(ConfigurationError, match="version 99"):
            feed(row, data, tmp_path)

    @pytest.mark.parametrize("row", KINDED, ids=[r[0] for r in KINDED])
    def test_rejects_a_wrong_kind(self, row, tmp_path):
        _, _, _, key, version, _ = row
        with pytest.raises(ConfigurationError, match="kind 'bogus'"):
            feed(row, {key: version, "kind": "bogus"}, tmp_path)

    @pytest.mark.parametrize("row", FILE_READERS,
                             ids=[r[0] for r in FILE_READERS])
    def test_missing_file_is_a_configuration_error(self, row, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot be read"):
            row[1](str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("row", FILE_READERS,
                             ids=[r[0] for r in FILE_READERS])
    def test_truncated_file_is_a_configuration_error(self, row, tmp_path):
        _, reader, _, key, version, kind = row
        path = tmp_path / "torn.json"
        path.write_text(json.dumps({key: version, "kind": kind})[:-5])
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            reader(str(path))

    @pytest.mark.parametrize(
        "reader", [load_history, load_slo_history, read_trace_jsonl],
        ids=["bench history", "SLO history", "trace file"],
    )
    def test_missing_ledger_is_empty(self, reader, tmp_path):
        assert reader(tmp_path / "absent.jsonl") == []
        with pytest.raises(ConfigurationError, match="cannot be read"):
            reader(tmp_path)  # a directory is not a missing file


class TestCommittedArtifacts:
    """Every committed artifact loads through its public reader unchanged."""

    @pytest.mark.parametrize("name, reader", [
        ("BENCH_baseline.json", load_bench_json),
        ("GROWTH_baseline.json", load_growth_json),
        ("GROWTH_curves.json", load_growth_json),
        ("SLO_baseline.json", load_report),
    ])
    def test_whole_file_report_loads(self, name, reader):
        path = BENCHMARKS / name
        assert reader(str(path)) == json.loads(path.read_text())

    def test_bench_history_loads(self):
        path = BENCHMARKS / "BENCH_history.jsonl"
        entries = load_history(path)
        assert entries
        assert len(entries) == len(path.read_text().splitlines())

    def test_probe_ladder_round_trips(self):
        data = read_json(BENCHMARKS / "PROBE_ladder.json")
        assert ProbeReport.from_json(data).to_json() == data


_LOCAL_VERSION_CHECK = re.compile(
    r"""\.get\(\s*["'](?:v|version)["']\s*\)\s*!="""
)
_ALLOWED = {SRC / "codec.py", SRC / "runtime" / "checkpoint.py"}


def test_no_reader_checks_its_own_version():
    """Envelope checks live in repro.codec only; the checkpoint journal
    keeps its own (hash-chained, truncating) recovery reader."""
    offenders = [
        f"{path.relative_to(REPO)}:{number}"
        for path in sorted(SRC.rglob("*.py")) if path not in _ALLOWED
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _LOCAL_VERSION_CHECK.search(line)
    ]
    assert offenders == [], (
        "route these through repro.codec.check_envelope: "
        + ", ".join(offenders)
    )
