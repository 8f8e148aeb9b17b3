"""Tests of the benchmark itself, on the small-graph smoke workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workload  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402


def smoke_run(name, tmp_path, trace=False, recorded=None, seconds=0.2):
    w = workload.smoke(workload.WORKLOADS[name])
    return workload.run(w, 3, seconds, trace, recorded, str(tmp_path))


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric(name, tmp_path):
    out = smoke_run(name, tmp_path)
    assert out["failed"] == 0, out["problems"]
    for metric in workload.declared(trace=False):
        value, _ = out["metrics"][metric]
        assert value > 0, metric
    assert len(out["counts"]) == 2


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_traced_smoke_reports_every_per_layer_metric(name, tmp_path):
    out = smoke_run(name, tmp_path, trace=True)
    assert out["failed"] == 0, out["problems"]
    metrics = out["metrics"]
    assert set(workload.declared(trace=True)) <= set(metrics)
    assert metrics["serve.transform_calls"][0] >= 2
    assert metrics["plan.bridges"][0] == out["counts"][0]["bridges"]
    assert metrics["secular.m2_sum"][0] == out["counts"][0]["m2_sum"]
    assert metrics["filters.layer_self_s"][0] > 0


def test_corrupted_transform_counts_as_failure(tmp_path, monkeypatch):
    real = workload.factorize

    def corrupted(g, plan):
        fact = real(g, plan)
        basis = fact.leaf_bases[0]
        basis[:, [0, -1]] = basis[:, [-1, 0]]  # swap two leaf eigenvectors
        return fact

    monkeypatch.setattr(workload, "factorize", corrupted)
    out = smoke_run("serve-2000", tmp_path)
    assert out["failed"] > 0
    assert any("vs Lx" in p for p in out["problems"])


def test_counts_differing_from_recorded_fail(tmp_path):
    first = smoke_run("paper-4000", tmp_path)
    assert smoke_run("paper-4000", tmp_path, recorded=first["counts"])["failed"] == 0
    bumped = [dict(c, m2_sum=c["m2_sum"] + 1) for c in first["counts"]]
    out = smoke_run("paper-4000", tmp_path, recorded=bumped)
    assert out["failed"] > 0
    assert any("differ from recorded" in p for p in out["problems"])


def test_tracer_restores_every_name():
    before = [owner.__dict__[attr] for owner, attr, _ in TRACED]
    with Tracer() as tr:
        assert all(owner.__dict__[attr] is not raw
                   for (owner, attr, _), raw in zip(TRACED, before))
        assert tr.spans == []
    assert [owner.__dict__[attr] for owner, attr, _ in TRACED] == before


def test_self_time_excludes_children():
    tr = Tracer()
    tr.span("outer", lambda: tr.span("inner", lambda: sum(range(10000))))
    outer, inner = tr.spans
    assert inner.parent == 0
    assert tr.self_seconds()[0] == pytest.approx(outer.seconds - inner.seconds)


def run_cli(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


def test_cli_last_line_is_the_result():
    proc = run_cli(ROOT, "--workload", "quickstart-500", "--seed", "2",
                   "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(workload.declared(trace=False))


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(str(tmp_path), "--workload", "paper-4000", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_graph_seeds_are_disjoint_across_seeds():
    a, b = workload.graph_seeds(0, 3), workload.graph_seeds(1, 3)
    assert a[0] == 0 and b[0] == 1
    assert not set(a) & set(b)
    assert np.unique(a).size == 3
