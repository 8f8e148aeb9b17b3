"""tools/factor_digest.py: equal factors give equal digests, one ulp shows
in the stored arrays and in the served transforms, and each line carries its
work counts and whether they match the recorded ones."""

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest

from cauchygft.factorization import factorize
from cauchygft.graph import Graph, barabasi_albert
from cauchygft.plan import plan_from_leaves

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "factor_digest.py")


@pytest.fixture(scope="module")
def factor_digest():
    spec = importlib.util.spec_from_file_location("factor_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_transform():
    g = barabasi_albert(60, 2, seed=11)
    return factorize(g, plan_from_leaves(g, [list(range(30)), list(range(30, 60))]))


def test_two_factorizations_of_one_plan_digest_equal(factor_digest):
    a, b = factor_digest.digests(small_transform()), factor_digest.digests(small_transform())
    assert set(a) == {"lambda_final", "leaf_bases", "level_lambdas", "steps",
                      "fwd", "inv", "all"}
    assert a == b


def test_one_leaf_eigenvector_sign_moves_served_bits(factor_digest):
    # still an eigenbasis, so only the leaf bases and the transforms move
    fact = small_transform()
    before = factor_digest.digests(fact)
    fact.leaf_bases[0][:, 0] *= -1.0
    after = factor_digest.digests(fact)
    for part in ("leaf_bases", "fwd", "inv", "all"):
        assert after[part] != before[part]
    for part in ("lambda_final", "level_lambdas", "steps"):
        assert after[part] == before[part]


def test_one_ulp_of_one_zhat_moves_steps_only(factor_digest):
    fact = small_transform()
    before = factor_digest.digests(fact)
    zhat = next(st.factor.zhat for rec in fact.history for st in rec.steps
                if st.factor.zhat.size)
    zhat[0] = np.nextafter(zhat[0], np.inf)
    after = factor_digest.digests(fact)
    assert after["steps"] != before["steps"]
    assert after["all"] != before["all"]
    for part in ("lambda_final", "leaf_bases", "level_lambdas"):
        assert after[part] == before[part]


def test_one_ulp_of_one_reflector_moves_steps(factor_digest):
    # the repeated pair of eigenvalue 1 of the two paths rotates at the root
    g = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                             (2, 3, 1e-40), (0, 5, 1.0)])
    fact = factorize(g, plan_from_leaves(g, [[0, 1, 2], [3, 4, 5]]))
    before = factor_digest.digests(fact)
    (blk, *_) = [b for rec in fact.history for st in rec.steps
                 for b in st.factor.householder_blocks]
    blk.reflector[0] = np.nextafter(blk.reflector[0], np.inf)
    after = factor_digest.digests(fact)
    assert after["steps"] != before["steps"]
    assert after["level_lambdas"] == before["level_lambdas"]


def test_lines_carry_counts_and_their_recorded_match(factor_digest, monkeypatch, capsys):
    small = dataclasses.replace(factor_digest.WORKLOADS["quickstart-500"], n=60, graphs=2)
    monkeypatch.setattr(factor_digest, "WORKLOADS", {small.name: small})

    def lines(seed):
        factor_digest.main(["--workload", small.name, "--seed", str(seed)])
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    unrecorded = lines(99)  # counts.json has no seed 99
    assert [line["counts_recorded"] for line in unrecorded] == [None, None]
    counts = [line["counts"] for line in unrecorded]
    assert set(counts[0]) == {"leaves", "bridges", "max_interface", "m2_sum"}
    assert counts[0]["bridges"] > 0 and counts[0]["m2_sum"] > 0
    recorded = [counts[0], {**counts[1], "m2_sum": counts[1]["m2_sum"] + 1}]
    monkeypatch.setattr(factor_digest, "load_recorded",
                        lambda name, seed: recorded if seed == 99 else None)
    again = lines(99)
    assert [line["counts_recorded"] for line in again] == [True, False]
    assert [line["all"] for line in again] == [line["all"] for line in unrecorded]
