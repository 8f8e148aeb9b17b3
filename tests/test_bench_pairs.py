"""tools/bench_pairs.py: one smoke pair on one checkout, and the verdict rules."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_smoke_pair_reports_every_end_to_end_metric(bench_pairs, capsys):
    before = sorted(os.listdir(os.path.join(ROOT, "perfbench")))
    code = bench_pairs.main(["--parent", ROOT, "--change", ROOT, "--pairs", "1",
                             "--workload", "quickstart-500", "--smoke"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    report = json.loads(out[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["end_to_end"]}
    entry = report["quickstart-500"]
    assert set(entry["metrics"]) == declared
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.0}
    for cmp in entry["metrics"].values():
        assert cmp["pairs"] == 1 and cmp["wins"] in (0, 1)
    assert sorted(os.listdir(os.path.join(ROOT, "perfbench"))) == before


def test_claim_needs_nine_wins_in_ten_and_a_gap_past_the_parent_iqr(bench_pairs):
    parent = [10.0, 10.5, 11.0, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]
    faster = [p - 2.0 for p in parent]
    assert bench_pairs.compare(parent, faster, "lower", 0.25)["claim_holds"]
    eight = faster[:8] + parent[8:]
    assert bench_pairs.compare(parent, eight, "lower", 0.25)["wins"] == 8
    assert not bench_pairs.compare(parent, eight, "lower", 0.25)["claim_holds"]
    within_iqr = [p - 0.01 for p in parent]
    assert not bench_pairs.compare(parent, within_iqr, "lower", 0.25)["claim_holds"]


def test_bound_is_a_fraction_of_the_parent_median(bench_pairs):
    parent = [1.0, 1.0, 1.0]
    assert bench_pairs.compare(parent, [1.2] * 3, "lower", 0.25)["bound_holds"]
    assert not bench_pairs.compare(parent, [1.3] * 3, "lower", 0.25)["bound_holds"]
    assert bench_pairs.compare(parent, [0.8] * 3, "higher", 0.25)["bound_holds"]
    assert not bench_pairs.compare(parent, [0.7] * 3, "higher", 0.25)["bound_holds"]


def test_a_wrong_result_stops_the_comparison(bench_pairs, monkeypatch):
    wrong = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(wrong) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError, match="correct: false"):
        bench_pairs.run_once(ROOT, "quickstart-500", 1, smoke=True)
    code = bench_pairs.main(["--parent", ROOT, "--change", ROOT, "--pairs", "1",
                             "--workload", "quickstart-500"])
    assert code == 2
