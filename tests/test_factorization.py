import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest

from cauchygft import factorization
from cauchygft.errors import (
    DimensionMismatch, InvalidParams, PlanMismatch, TooLarge, ZeroDegreeNode,
)
from cauchygft.factorization import (
    _DENSE_CACHE_MAX,
    FactorizedGft,
    MergeRecord,
    MergeStep,
    factorize,
)
from cauchygft.filters import (
    FilterLayerConfig,
    heat_filter,
    hierarchical_mix,
)
from cauchygft.graph import Graph, barabasi_albert, build_laplacian, dense_eig
from cauchygft.partition import build_plan
from cauchygft.plan import MergePlan, plan_from_leaves
from cauchygft.secular import (
    CauchyFactor,
    Reflectors,
    SecularSolution,
    _cauchy_columns,
    rank_one_update_factor,
)


def two_block_plan(g):
    half = g.n // 2
    return plan_from_leaves(g, [list(range(half)), list(range(half, g.n))])


def four_block_plan(g):
    q = g.n // 4
    sets = [list(range(i * q, (i + 1) * q)) for i in range(3)]
    sets.append(list(range(3 * q, g.n)))
    return plan_from_leaves(g, sets)


def factor_bytes(f):
    """Every array factorize produces, as bytes, in history order."""
    out = [f.lambda_final.tobytes()] + [b.tobytes() for b in f.leaf_bases]
    for rec in f.history:
        out.append(None if rec.concat_perm is None else rec.concat_perm.tobytes())
        for step in rec.steps:
            fa = step.factor
            out += [
                a.tobytes()
                for a in (
                    fa.affected, fa.solution.origins, fa.solution.offsets,
                    fa.solution.z, fa.column_norms, fa.column_signs,
                )
            ]
            out.append(None if step.perm is None else step.perm.tobytes())
    return out


def same_perm(a, b):
    """Two slot sorts are equal: both the identity (None) or the same bytes."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_against_dense(g, f, tol=1e-8, kind="combinatorial"):
    lap = build_laplacian(g, kind)
    w, _ = dense_eig(lap)
    assert np.max(np.abs(np.sort(f.lambda_final) - w)) <= tol
    return lap, w


class TestFactorizeSmall:
    def test_single_bridge_two_nodes(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        plan = plan_from_leaves(g, [[0], [1]])
        f = factorize(g, plan)
        assert np.allclose(f.lambda_final, [0.0, 2.0], atol=1e-14)
        assert len(f.history) == 1
        assert len(f.history[0].steps) == 1
        # projection of the constant vector lands on the zero eigenvalue
        y = f.forward(np.array([1.0, 1.0]))
        assert abs(abs(y[0]) - math.sqrt(2.0)) <= 1e-12
        assert abs(y[1]) <= 1e-12

    def test_p3_split(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        plan = plan_from_leaves(g, [[0, 1], [2]])
        f = factorize(g, plan)
        assert np.allclose(np.sort(f.lambda_final), [0.0, 1.0, 3.0], atol=1e-12)
        w, u = dense_eig(build_laplacian(g))
        x = np.random.default_rng(0).standard_normal(3)
        got = f.forward(x)
        want = u.T @ x
        assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-9

    def test_single_node_graph(self):
        g = Graph.from_edges(1, [])
        plan = plan_from_leaves(g, [[0]])
        f = factorize(g, plan)
        x = np.array([0.7])
        assert np.allclose(f.inverse(x), x, atol=1e-15)

    def test_zero_input(self):
        g = barabasi_albert(30, 2, seed=1)
        f = factorize(g, two_block_plan(g))
        assert np.array_equal(f.forward(np.zeros((30, 3))), np.zeros((30, 3)))


class TestFactorizeExactness:
    def test_ba_two_blocks(self):
        g = barabasi_albert(120, 2, seed=3)
        f = factorize(g, two_block_plan(g))
        check_against_dense(g, f)

    def test_ba_four_blocks_two_levels(self):
        g = barabasi_albert(200, 2, seed=7)
        f = factorize(g, four_block_plan(g))
        lap, w = check_against_dense(g, f)
        # composed transform is orthogonal on its dense realization
        u_t = f.forward(np.eye(g.n))
        assert np.linalg.norm(u_t @ u_t.T - np.eye(g.n)) <= 1e-8

    def test_normalized_kind(self):
        g = barabasi_albert(90, 2, seed=11)
        f = factorize(g, two_block_plan(g), kind="normalized")
        check_against_dense(g, f, kind="normalized")

    def test_weighted_and_self_loops(self):
        rng = np.random.default_rng(13)
        base = barabasi_albert(80, 2, seed=13)
        edges = [(u, v, float(rng.uniform(0.2, 3.0)))
                 for u, v in zip(base.uu.tolist(), base.vv.tolist())]
        g = Graph.from_edges(80, edges, {0: 0.7, 41: 1.3})
        f = factorize(g, two_block_plan(g))
        check_against_dense(g, f)

    def test_unbalanced_tree(self):
        g = barabasi_albert(90, 2, seed=17)
        plan = plan_from_leaves(g, [list(range(30)), list(range(30, 60)), list(range(60, 90))])
        f = factorize(g, plan)
        check_against_dense(g, f)

    def test_repeat_calls_bit_identical(self):
        # the default plan has dozens of merges; calls on one plan repeat
        # every factor array, bit for bit
        g = barabasi_albert(120, 2, seed=0)
        plan = build_plan(g, seed=0).plan
        assert len(plan.internal_nodes()) > 20
        assert factor_bytes(factorize(g, plan)) == factor_bytes(factorize(g, plan))

    def test_disconnected_blocks(self):
        # two components end up in separate leaves; empty interface at the root
        g = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        plan = plan_from_leaves(g, [[0, 1, 2], [3, 4, 5]])
        f = factorize(g, plan)
        assert len(f.history[0].steps) == 0
        check_against_dense(g, f, tol=1e-12)


class TestTransforms:
    def setup_method(self):
        self.g = barabasi_albert(200, 2, seed=23)
        self.f = factorize(self.g, four_block_plan(self.g))
        self.lap = build_laplacian(self.g)

    def test_round_trip_100_vectors(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 100))
        back = self.f.inverse(self.f.forward(x))
        err = np.linalg.norm(back - x) / np.linalg.norm(x)
        assert err <= 1e-9

    def test_column_norms_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 8))
        y = self.f.forward(x)
        assert np.allclose(
            np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0), rtol=1e-9
        )

    def test_eigenvector_residuals(self):
        a = self.lap.matrix
        rng = np.random.default_rng(9)
        for j in rng.choice(200, size=10, replace=False):
            e = np.zeros(200)
            e[j] = 1.0
            u = self.f.inverse(e)
            lam = self.f.lambda_final[j]
            assert np.linalg.norm(a @ u - lam * u) <= 1e-7 * (1.0 + lam)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            self.f.forward(np.zeros(17))


class TestReconstructOperator:
    def setup_method(self):
        self.g = barabasi_albert(60, 2, seed=29)
        self.f = factorize(self.g, two_block_plan(self.g))

    def test_unit_multiplier_is_identity(self):
        op = self.f.reconstruct_operator(np.ones(60))
        assert np.linalg.norm(op - np.eye(60)) <= 1e-9

    def test_lambda_multiplier_matches_laplacian(self):
        lap = build_laplacian(self.g).dense()
        op = self.f.reconstruct_operator(self.f.lambda_final)
        assert np.linalg.norm(op - lap) <= 1e-8 * np.linalg.norm(lap)
        assert np.linalg.norm(op - op.T) <= 1e-9

    def test_p3_lambda_multiplier(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        f = factorize(g, plan_from_leaves(g, [[0, 1], [2]]))
        op = f.reconstruct_operator(f.lambda_final)
        assert np.max(np.abs(op - build_laplacian(g).dense())) <= 1e-10

    def test_nullspace_indicator_gives_averaging(self):
        ind = (self.f.lambda_final < 1e-8).astype(float)
        op = self.f.reconstruct_operator(ind)
        assert np.linalg.norm(op - np.full((60, 60), 1.0 / 60)) <= 1e-8

    def test_too_large(self, monkeypatch):
        monkeypatch.setattr(factorization, "DENSE_LIMIT", 10)
        with pytest.raises(TooLarge):
            self.f.reconstruct_operator(np.ones(60))


class TestStructure:
    def test_factor_locality(self):
        g = barabasi_albert(160, 2, seed=31)
        plan = four_block_plan(g)
        f = factorize(g, plan)
        assert sum(len(r.steps) for r in f.history) == plan.total_bridges
        for rec in f.history:
            s0, s1 = plan.ranges[rec.node_id]
            for step in rec.steps:
                f = step.factor
                if f.affected.size:
                    assert f.affected.max() < s1 - s0
                assert np.all(f.reflectors.stops <= s1 - s0)

    def test_interface_order_independence(self):
        g = barabasi_albert(100, 2, seed=37)
        plan = two_block_plan(g)
        f1 = factorize(g, plan)
        root = plan.root_id
        shuffled = dict(plan.interfaces)
        shuffled[root] = list(reversed(shuffled[root]))
        plan2 = MergePlan(
            n=plan.n, leaves=plan.leaves, tree=plan.tree, interfaces=shuffled
        )
        f2 = factorize(g, plan2)
        assert np.max(np.abs(np.sort(f1.lambda_final) - np.sort(f2.lambda_final))) <= 1e-8

    def test_plan_mismatch_uncovered_edge(self):
        g = barabasi_albert(40, 2, seed=41)
        plan = two_block_plan(g)
        edges = list(zip(g.uu.tolist(), g.vv.tolist(), g.ww.tolist()))
        g2 = Graph.from_edges(40, edges + [(0, 39, 1.0)])
        with pytest.raises(PlanMismatch):
            factorize(g2, plan)

    @pytest.mark.parametrize(
        "damage, error, message",
        [
            ("graph_n", PlanMismatch, "plan is for n=4, graph has n=5"),
            ("leaf_repeats_node", PlanMismatch, "leaves do not partition"),
            ("edge_twice", PlanMismatch, r"edge \(1, 2\) listed twice in the interface of node 2"),
            ("intra_leaf_bridge", PlanMismatch, r"intra-leaf edge \(0, 1\) also in an"),
            ("weight", PlanMismatch, r"edge \(1, 2\) weight differs from the graph"),
            ("absent_edge", PlanMismatch, r"not present in graph: \[\(0, 3\)\]"),
            ("kind", InvalidParams, "unknown Laplacian kind 'bogus'"),
            ("isolated_normalized", ZeroDegreeNode, "node 3"),
            ("level_lambdas", PlanMismatch, "level_lambdas does not cover"),
            ("lambda_edited", PlanMismatch, "level_lambdas 2 is not ascending"),
            ("lambda_old_edited", PlanMismatch,
             "record 2 step 0 lambda_old does not match the replayed spectrum"),
            ("history_dropped", PlanMismatch, "history does not hold the plan's merges"),
            ("reflector", PlanMismatch, "reflector outside 4 positions"),
            ("reflector_length", PlanMismatch, r"reflector has shape \(2,\), expected \(3,\)"),
        ],
    )
    def test_plan_or_transform_that_does_not_fit_refused(self, damage, error, message):
        # path 0-1-2-3 over leaves [0, 1] and [2, 3]; node 2 owns bridge (1, 2)
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        g = Graph.from_edges(4, edges)
        data = plan_from_leaves(g, [[0, 1], [2, 3]]).to_dict()
        kind = "combinatorial"
        if damage == "graph_n":
            g = Graph.from_edges(5, edges)
        elif damage == "leaf_repeats_node":
            data["leaves"][1] = [1, 3]
        elif damage == "edge_twice":
            data["interfaces"]["2"].append([2, 1, 1.0])
        elif damage == "intra_leaf_bridge":
            data["interfaces"]["0"] = [[0, 1, 1.0]]
        elif damage == "weight":
            data["interfaces"]["2"][0][2] = 2.0
        elif damage == "absent_edge":
            data["interfaces"]["2"].append([0, 3, 1.0])
        elif damage == "kind":
            kind = "bogus"
        elif damage == "isolated_normalized":
            g, kind = Graph.from_edges(4, edges[:2]), "normalized"
            data = plan_from_leaves(g, [[0, 1], [2, 3]]).to_dict()
        with pytest.raises(error, match=message):
            fact = factorize(g, MergePlan.from_dict(data), kind)
            saved = json.loads(json.dumps(fact.to_dict()))
            if damage == "level_lambdas":
                del saved["level_lambdas"]["0"]
            elif damage == "lambda_edited":
                saved["level_lambdas"]["2"][1] = 7.0
            elif damage == "lambda_old_edited":
                saved["history"][0]["steps"][0]["factor"]["solution"]["lambda_old"][-1] = 2.5
            elif damage == "history_dropped":
                saved["history"] = []
            elif damage == "reflector":
                saved["history"][0]["steps"][0]["factor"]["reflectors"] = {
                    "starts": [2], "stops": [5], "vectors": [1.0, 0.0, 0.0]
                }
            elif damage == "reflector_length":
                saved["history"][0]["steps"][0]["factor"]["reflectors"] = {
                    "starts": [0], "stops": [3], "vectors": [1.0, 0.0]
                }
            FactorizedGft.from_dict(saved)


class TestDegenerateSpectra:
    def test_complete_graph_split(self):
        # K12 spectrum {0, 12 x11}; leaf spectra are heavily repeated
        n = 12
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, edges)
        f = factorize(g, two_block_plan(g))
        want = np.array([0.0] + [float(n)] * (n - 1))
        assert np.max(np.abs(np.sort(f.lambda_final) - want)) <= 1e-10
        u_t = f.forward(np.eye(n))
        assert np.linalg.norm(u_t @ u_t.T - np.eye(n)) <= 1e-9

    def test_cycle_c4(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        plan = plan_from_leaves(g, [[0, 1], [2, 3]])
        f = factorize(g, plan)
        assert np.allclose(np.sort(f.lambda_final), [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_parallel_bridges_k22(self):
        # complete bipartite bridges between two K2 leaves -> K4
        g = Graph.from_edges(
            4,
            [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)],
        )
        plan = plan_from_leaves(g, [[0, 1], [2, 3]])
        f = factorize(g, plan)
        assert np.allclose(np.sort(f.lambda_final), [0.0, 4.0, 4.0, 4.0], atol=1e-10)


class TestSerialization:
    def test_each_hint_resolves_its_reader_once(self):
        from cauchygft import codec

        g = barabasi_albert(50, 2, seed=43)
        data = json.loads(json.dumps(factorize(g, two_block_plan(g)).to_dict()))
        FactorizedGft.from_dict(data)
        before = codec._reader.cache_info()
        FactorizedGft.from_dict(data)
        after = codec._reader.cache_info()
        assert after.misses == before.misses and after.hits == before.hits

    def test_round_trip_bit_stable(self, tmp_path):
        g = barabasi_albert(50, 2, seed=43)
        f = factorize(g, two_block_plan(g))
        p1 = tmp_path / "f1.json"
        p2 = tmp_path / "f2.json"
        f.save(str(p1))
        f2 = FactorizedGft.load(str(p1))
        f2.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        x = np.random.default_rng(3).standard_normal((50, 2))
        assert np.array_equal(f.forward(x), f2.forward(x))
        assert np.array_equal(f.lambda_final, f2.lambda_final)

    def test_json_is_versioned(self, tmp_path):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        f = factorize(g, plan_from_leaves(g, [[0], [1]]))
        path = tmp_path / "f.json"
        f.save(str(path))
        data = json.loads(path.read_text())
        assert data["version"] == factorization.GFT_VERSION
        assert data["plan_hash"] == f.plan.content_hash()

    @staticmethod
    def deflating_transform():
        # the 1e-40 bridge deflates fully; the other rotates a repeated pair
        g = Graph.from_edges(
            6,
            [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (2, 3, 1e-40),
             (0, 5, 1.0)],
        )
        return factorize(g, plan_from_leaves(g, [[0, 1, 2], [3, 4, 5]]))

    def test_round_trip_every_field(self, tmp_path):
        f = self.deflating_transform()
        steps = [st for rec in f.history for st in rec.steps]
        assert any(st.perm is None for st in steps)
        assert any(st.perm is not None for st in steps)
        assert any(st.factor.affected.size == 0 for st in steps)
        path = tmp_path / "f.json"
        f.save(str(path))
        data = json.loads(path.read_text())
        assert "lambda_final" not in data
        for rec in data["history"]:
            assert set(rec) == {"node_id", "steps"}
        for step in (st for rec in data["history"] for st in rec["steps"]):
            assert set(step) == {"factor"}
            assert set(step["factor"]) == {
                "solution", "affected", "reflectors", "column_norms"
            }
            assert set(step["factor"]["reflectors"]) == {"starts", "stops", "vectors"}
            assert set(step["factor"]["solution"]) == {
                "lambda_old", "z", "rho", "origins", "offsets"
            }
        loaded = FactorizedGft.load(str(path))
        seen = set()

        def same(a, b, where):
            assert type(a) is type(b), where
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
            elif isinstance(a, MergePlan):
                assert a.to_dict() == b.to_dict(), where
            elif dataclasses.is_dataclass(a):
                seen.add(type(a))
                for fl in dataclasses.fields(a):
                    if fl.init:
                        same(getattr(a, fl.name), getattr(b, fl.name), f"{where}.{fl.name}")
            elif isinstance(a, (list, tuple, dict)):
                assert len(a) == len(b), where
                keys = list(a) if isinstance(a, dict) else range(len(a))
                assert keys == (list(b) if isinstance(b, dict) else range(len(b))), where
                for k in keys:
                    same(a[k], b[k], f"{where}[{k}]")
            else:
                assert a == b, where

        same(f, loaded, "transform")
        assert seen >= {
            FactorizedGft, MergeRecord, MergeStep, CauchyFactor,
            SecularSolution, Reflectors,
        }
        (empty,) = [st.factor for rec in loaded.history for st in rec.steps
                    if st.factor.affected.size == 0]
        assert empty.affected.dtype == empty.solution.origins.dtype == np.int64
        x = np.random.default_rng(5).standard_normal((6, 3))
        assert np.array_equal(f.forward(x), loaded.forward(x))
        for a, b in zip(steps, (st for rec in loaded.history for st in rec.steps)):
            assert a.factor.column_signs.tobytes() == b.factor.column_signs.tobytes()
        # the slot sorts are derived, not saved: the replay rebuilds each one
        for a, b in zip(f.history, loaded.history):
            assert same_perm(a.concat_perm, b.concat_perm)
            for sa, sb in zip(a.steps, b.steps):
                assert same_perm(sa.perm, sb.perm)

    def test_version_one_file_refused(self):
        data = self.deflating_transform().to_dict()
        data["version"] = 1
        with pytest.raises(PlanMismatch, match="version 1"):
            FactorizedGft.from_dict(data)

    def test_version_two_file_refused(self):
        # version 2 stored each step's deflation report and lambda_final
        data = self.deflating_transform().to_dict()
        data["version"] = 2
        with pytest.raises(PlanMismatch, match="version 2, expected 5"):
            FactorizedGft.from_dict(data)

    def test_version_three_file_refused(self):
        # version 3 stored each cluster's reflector as its own object
        data = self.deflating_transform().to_dict()
        data["version"] = 3
        with pytest.raises(PlanMismatch, match="version 3, expected 5"):
            FactorizedGft.from_dict(data)

    def test_version_four_file_refused(self):
        # version 4 stored every slot sort, each reflector's first sign,
        # each record's position range and the solver's z beside zhat
        data = self.deflating_transform().to_dict()
        data["version"] = 4
        with pytest.raises(PlanMismatch, match="version 4, expected 5"):
            FactorizedGft.from_dict(data)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("nan_zhat", "NaN or inf"),
            ("inf_lambda_final", "NaN or inf"),
            ("nan_leaf_basis", "NaN or inf"),
            ("inf_reflector", "NaN or inf"),
            ("scaled_reflector", "reflector is not of unit length"),
            ("bogus_kind", "kind 'bogus' is not a Laplacian kind"),
            ("repeated_affected", "affected is not strictly increasing"),
            ("zero_column_norm", "column_norms are not all positive"),
        ],
    )
    def test_nonfinite_array_or_unknown_kind_refused(self, damage, message):
        data = json.loads(json.dumps(self.deflating_transform().to_dict()))
        factors = [st["factor"] for rec in data["history"] for st in rec["steps"]]
        if damage == "nan_zhat":
            next(fc for fc in factors if fc["solution"]["z"])["solution"]["z"][0] = math.nan
        elif damage == "inf_lambda_final":  # the root node's spectrum
            data["level_lambdas"][str(len(data["plan"]["tree"]) - 1)][-1] = math.inf
        elif damage == "nan_leaf_basis":
            data["leaf_bases"][1][0][0] = math.nan
        elif damage == "inf_reflector":
            table = next(fc["reflectors"] for fc in factors if fc["reflectors"]["vectors"])
            table["vectors"][0] = -math.inf
        elif damage == "scaled_reflector":  # loaded before the unit check
            table = next(fc["reflectors"] for fc in factors if fc["reflectors"]["vectors"])
            table["vectors"][0] *= 3.0
        elif damage == "bogus_kind":
            data["kind"] = "bogus"
        elif damage == "repeated_affected":
            affected = next(fc for fc in factors if len(fc["affected"]) > 1)["affected"]
            affected[1] = affected[0]
        elif damage == "zero_column_norm":
            next(fc for fc in factors if fc["column_norms"])["column_norms"][0] = 0.0
        with pytest.raises(PlanMismatch, match=message):
            FactorizedGft.from_dict(data)

    def test_spectrum_edit_that_stays_ascending_refused(self):
        # BA(60) root eigenvalue 30 is 2.3823; 2.4997 keeps the spectrum ascending
        g = barabasi_albert(60, 2, seed=0)
        fact = factorize(g, build_plan(g, seed=0).plan)
        data = json.loads(json.dumps(fact.to_dict()))
        root_id = fact.plan.root_id
        root = data["level_lambdas"][str(root_id)]
        assert root[29] < 2.4997 < root[31]
        root[30] = 2.4997
        with pytest.raises(PlanMismatch, match=f"level_lambdas {root_id} does not match"):
            FactorizedGft.from_dict(data)

    def test_default_plan_load_derives_every_sort(self, tmp_path):
        # BA(500) under the default plan: hundreds of steps, many of them
        # followed by a slot sort, none of which the file stores
        g = barabasi_albert(500, 2, seed=0)
        f = factorize(g, build_plan(g, seed=0).plan)
        path = tmp_path / "f.json"
        f.save(str(path))
        loaded = FactorizedGft.load(str(path))
        assert any(st.perm is not None for rec in f.history for st in rec.steps)
        assert any(rec.concat_perm is not None for rec in f.history)
        for a, b in zip(f.history, loaded.history, strict=True):
            assert same_perm(a.concat_perm, b.concat_perm)
            for sa, sb in zip(a.steps, b.steps, strict=True):
                assert same_perm(sa.perm, sb.perm)
        x = np.random.default_rng(9).standard_normal((f.n, 3))
        assert loaded.forward(x).tobytes() == f.forward(x).tobytes()
        assert loaded.inverse(x).tobytes() == f.inverse(x).tobytes()

    @pytest.mark.parametrize("text", ["", "{\"version\": 2, \"plan\"", "not json"])
    def test_unreadable_file_raises_plan_mismatch(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(PlanMismatch, match="not valid JSON"):
            FactorizedGft.load(str(path))
        with pytest.raises(PlanMismatch, match="not valid JSON"):
            MergePlan.load(str(path))


def walk_forward(f, x, cfg=None):
    """Reference U^T x: leaf bases, then every concat sort and step in turn.

    With a filter config, each tree node's response follows its merge, as
    in hierarchical_mix.
    """
    y = x[f.plan.pos_to_node].copy()
    for i, basis in enumerate(f.leaf_bases):
        nid = f.plan.leaf_node_id[i]
        s0, s1 = f.plan.ranges[nid]
        y[s0:s1] = basis.T @ y[s0:s1]
        if cfg is not None and nid in cfg.node_filters:
            y[s0:s1] *= cfg.node_filters[nid](f.level_lambdas[nid])[:, None]
    for rec in f.history:
        s0, s1 = f.plan.ranges[rec.node_id]
        view = y[s0:s1]
        if rec.concat_perm is not None:
            view[:] = view[rec.concat_perm]
        for step in rec.steps:
            step.apply_forward(view)
        if cfg is not None and rec.node_id in cfg.node_filters:
            view *= cfg.node_filters[rec.node_id](f.level_lambdas[rec.node_id])[:, None]
    return y


def walk_inverse(f, x):
    """Reference U x: every step transposed in reverse, then the leaf bases."""
    y = x.copy()
    for rec in reversed(f.history):
        s0, s1 = f.plan.ranges[rec.node_id]
        view = y[s0:s1]
        for step in reversed(rec.steps):
            step.apply_inverse(view)
        if rec.concat_perm is not None:
            tmp = np.empty_like(view)
            tmp[rec.concat_perm] = view
            view[:] = tmp
    for i, basis in enumerate(f.leaf_bases):
        s0, s1 = f.plan.ranges[f.plan.leaf_node_id[i]]
        y[s0:s1] = basis @ y[s0:s1]
    return y[f.plan.node_to_pos]


class TestRecordOperators:
    @staticmethod
    def default_plan_transform():
        g = barabasi_albert(200, 2, seed=3)
        return factorize(g, build_plan(g, seed=3).plan)

    def test_served_transforms_match_step_walk(self, monkeypatch):
        f = self.default_plan_transform()
        assert all(s1 - s0 <= _DENSE_CACHE_MAX for s0, s1 in f.plan.ranges.values())
        x = np.random.default_rng(6).standard_normal((f.n, 3))
        cfg = FilterLayerConfig(
            node_filters={nd.id: heat_filter(0.3) for nd in f.plan.tree[::3]}
        )
        want = {
            "forward": walk_forward(f, x),
            "inverse": walk_inverse(f, x),
            "mix": walk_forward(f, x, cfg),
        }

        def served():
            return {
                "forward": f.forward(x),
                "inverse": f.inverse(x),
                "mix": hierarchical_mix(f, cfg, x),
            }

        for name, got in served().items():
            err = np.linalg.norm(got - want[name]) / np.linalg.norm(want[name])
            assert err <= 1e-12, name
        # no record is narrow enough for an operator: every one walks its
        # steps, with the reference's bits
        monkeypatch.setattr(factorization, "_DENSE_CACHE_MAX", 0)
        for name, got in served().items():
            assert np.array_equal(got, want[name]), name

    def test_factorize_and_load_cache_no_operator(self):
        f = self.default_plan_transform()
        assert all(rec._operator is None for rec in f.history)
        loaded = FactorizedGft.from_dict(f.to_dict())
        assert all(rec._operator is None for rec in loaded.history)
        f.forward(np.ones(f.n))
        assert all(rec._operator is not None for rec in f.history)
        assert json.dumps(f.to_dict()) == json.dumps(loaded.to_dict())

    @pytest.mark.parametrize("m", [2, 37, _DENSE_CACHE_MAX])
    def test_small_factor_apply_is_one_dense_product(self, m):
        # the product the propagation in factorize uses for m <= 512
        rng = np.random.default_rng(m)
        lam = np.sort(rng.uniform(0.0, 4.0, m))
        factor, _ = rank_one_update_factor(lam, rng.standard_normal(m), 0.8)
        assert factor.affected.size == m
        assert factor.reflectors.starts.size == 0
        x = rng.standard_normal((m, 5))
        sol = factor.solution
        c = _cauchy_columns(sol.lambda_old, sol.origins, sol.offsets, sol.z,
                            factor.column_norms, factor.column_signs, np.arange(m))
        y = x.copy()
        factor.apply_inplace(y)
        assert y.tobytes() == (c.T @ x).tobytes()

    def test_concurrent_first_forward_builds_each_operator_once(self, monkeypatch):
        f = self.default_plan_transform()
        builds = []
        build = MergeRecord._build_operator

        def counted(rec, r):
            builds.append(rec.node_id)
            return build(rec, r)

        monkeypatch.setattr(MergeRecord, "_build_operator", counted)
        x = np.random.default_rng(8).standard_normal((f.n, 2))
        outs = [None] * 4
        start = threading.Barrier(len(outs))

        def run(i):
            start.wait(timeout=60)
            outs[i] = f.forward(x)

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(outs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert all(out is not None for out in outs)
        assert all(out.tobytes() == outs[0].tobytes() for out in outs)
        assert sorted(builds) == sorted(rec.node_id for rec in f.history)
