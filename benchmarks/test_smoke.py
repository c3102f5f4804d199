"""Smoke test of the benchmark at tiny size (about half a minute).

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.3


def _assert_metrics(result: dict, spec: list) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_present_for_two_seeds(workload, seed):
    result = run.measure(workload, seed, SECONDS, False, size=run.TINY)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_writes_linked_spans(workload, tmp_path):
    path = tmp_path / "spans.json"
    result = run.measure(workload, 3, SECONDS, True, size=run.TINY,
                         trace_file=path)
    _assert_metrics(result, SPEC["per_layer"])
    doc = json.loads(path.read_text())
    spans = doc["spans"]
    assert spans
    ids = {s[1] for s in spans}
    for trace, sid, parent, name, start, dur, own in spans:
        assert parent is None or parent in ids
        assert 0 <= own <= dur


def test_sweep_gate_trips_on_wrong_expected_value(monkeypatch):
    wrong = dict(run.SWEEP_EXPECTED[2], admitting=3324)
    monkeypatch.setitem(run.SWEEP_EXPECTED, 2, wrong)
    with pytest.raises(run.AnswerMismatch):
        run.measure("sweep_light", 1, SECONDS, False, size=run.TINY)


def test_golden_digest_gate_exits_nonzero_without_result(
        monkeypatch, tmp_path, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["cli"]["p2"] = "0" * 16
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", bad)
    code = run.main(["--workload", "verify_small", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0"])
    assert code == 3
    assert '"metrics"' not in capsys.readouterr().out


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "verify_small", "--seed", "1",
                     "--seconds", "0.1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
