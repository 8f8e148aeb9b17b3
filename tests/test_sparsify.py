import math
import sys
import tracemalloc

import numpy as np
import pytest

import cauchygft.sparsify as sparsify
from cauchygft.errors import (
    Disconnected,
    EmptyInterface,
    InvalidParams,
    SolverNotConverged,
)
from cauchygft.graph import Graph, Laplacian, barabasi_albert, build_laplacian
from cauchygft.partition import build_plan
from cauchygft.sparsify import (
    ResistanceEstimate,
    SparsifyPolicy,
    _jacobi_block_pcg,
    apply_policy,
    estimate_resistances,
    exact_resistances,
    jl_dimension,
    sparsify_interface,
    verify_spectral_bound,
)


def block_pcg(lap, rhs, tol, maxiter, rows=None):
    """_jacobi_block_pcg with fresh buffers, at `rows` (every row when None)."""
    n, c = rhs.shape
    rows = np.arange(n) if rows is None else rows
    work = [np.empty(rows.size * c)] + [np.empty(n * c) for _ in range(4)]
    minv = sparsify._jacobi_inverse(lap)
    return _jacobi_block_pcg(lap, rhs, tol, maxiter, work, rows, minv)


def edges_of(g):
    """Every edge of g as (u, v, w), in the graph's sorted order."""
    return list(zip(g.uu.tolist(), g.vv.tolist(), g.ww.tolist()))


def cycle4():
    return Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


def interface_laplacian(edges, n):
    lap = np.zeros((n, n))
    for u, v, w in edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


class TestResistances:
    def test_single_edge_exact_and_estimate(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)])
        assert exact_resistances(g, [(0, 1)]) == pytest.approx([1.0])
        est = estimate_resistances(g, [(0, 1)], eps_jl=0.5, seed=0)
        assert est.edges == [(0, 1)]
        assert 0.5 <= est.values[0] <= 1.5

    def test_p3_tree_edge(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert exact_resistances(g, [(0, 1)]) == pytest.approx([1.0])

    def test_c4_edge_three_quarters(self):
        # series 3 ohm parallel with 1 ohm: 3/4, frozen from the pinv oracle
        got = exact_resistances(cycle4(), [(0, 1)])
        assert got == pytest.approx([0.75], abs=1e-12)
        est = estimate_resistances(cycle4(), [(0, 1, 1.0)], eps_jl=0.5, seed=3)
        assert 0.75 * 0.5 <= est.values[0] <= 0.75 * 1.5

    def test_jl_dimension_floor(self):
        assert jl_dimension(200, 0.5) == int(np.ceil(24 * np.log(200) / 0.25))
        # the minimum of 20 binds only once eps is large
        assert jl_dimension(5, 3.0) == 20

    def test_tree_edges_within_band(self):
        # resistance of every tree edge is exactly 1/w; JL stays in (1 +- 0.5)
        rng = np.random.default_rng(5)
        hits = total = 0
        for seed in range(10):
            g0 = barabasi_albert(60, 1, seed=seed)
            w = rng.uniform(0.5, 2.0, g0.num_edges)
            g = Graph.from_edges(60, list(zip(g0.uu.tolist(), g0.vv.tolist(), w)))
            est = estimate_resistances(g, edges_of(g), eps_jl=0.5, seed=seed)
            assert est.edges == list(zip(g.uu.tolist(), g.vv.tolist()))
            for wi, r in zip(g.ww, est.values):
                total += 1
                hits += 0.5 / wi <= r <= 1.5 / wi
        assert hits / total >= 0.95

    def test_estimates_track_exact_on_ba(self):
        g = barabasi_albert(200, 2, seed=1)
        edges = edges_of(g)
        est = estimate_resistances(g, edges, eps_jl=0.5, seed=1)
        exact = exact_resistances(g, edges)
        ratio = est.values / exact
        frac_in_band = np.mean((ratio >= 0.5) & (ratio <= 1.5))
        assert frac_in_band >= 0.95

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(Disconnected):
            estimate_resistances(g, [(0, 1)])
        with pytest.raises(Disconnected):
            exact_resistances(g, [(0, 1)])


class TestSketchBlocks:
    @staticmethod
    def one_block_reference(g, seed):
        """The sketch solved as one n x k PCG block, read out edge by edge."""
        k = jl_dimension(g.n, 0.5)
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(g.num_edges, k)).astype(np.float64) * 2.0 - 1.0
        signs /= math.sqrt(k)
        root_w = np.sqrt(g.ww)
        yt = np.zeros((g.n, k))
        np.add.at(yt, g.uu, root_w[:, None] * signs)
        np.add.at(yt, g.vv, -root_w[:, None] * signs)
        sol, unconverged = block_pcg(build_laplacian(g).matrix, yt, 1e-8, 1000)
        assert unconverged == 0
        return np.array([np.sum((sol[u] - sol[v]) ** 2) for u, v in zip(g.uu, g.vv)])

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_resistances_bit_identical_to_one_block(self, monkeypatch, workers):
        # k = 513 = 8 * 64 + 1: fixed 64-column blocks would leave a 1-column
        # block, whose reductions run pairwise and round differently
        g = barabasi_albert(208, 2, seed=4)
        k = jl_dimension(g.n, 0.5)
        assert k % sparsify._SKETCH_COLS == 1
        monkeypatch.setattr(sparsify, "_sketch_workers", lambda: workers)
        # signs drawn 3 rows at a time, the last chunk ragged
        monkeypatch.setattr(sparsify, "_SIGN_CHUNK_ELEMS", 3 * k)
        assert g.num_edges % 3
        # frequent thread switches, so blocks writing their columns of the
        # shared solution interleave as much as they can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = estimate_resistances(g, edges_of(g), seed=7)
        finally:
            sys.setswitchinterval(interval)
        assert got.projection_dim == k
        assert np.array_equal(got.values, self.one_block_reference(g, 7))

    def test_plans_identical_for_any_worker_count(self, monkeypatch):
        for seed in range(2):
            g = barabasi_albert(400, 2, seed=seed)
            plans = []
            for workers in (1, 2):
                monkeypatch.setattr(sparsify, "_sketch_workers", lambda w=workers: w)
                res = build_plan(
                    g, force_levels=2, max_levels=2,
                    sparsify=SparsifyPolicy(target_count=5), seed=seed,
                )
                plans.append((res.plan.content_hash(), res.graph.ww.tobytes()))
            assert plans[0] == plans[1]

    @staticmethod
    def textbook_pcg(lap, rhs, tol, maxiter):
        """The block PCG loop with fresh arrays each iteration (bit reference)."""
        minv = 1.0 / lap.diagonal()
        x = np.zeros_like(rhs)
        r = rhs.copy()
        z = minv[:, None] * r
        z -= z.mean(axis=0, keepdims=True)
        p = z.copy()
        rz = np.einsum("ij,ij->j", r, z)
        bnorm = np.linalg.norm(rhs, axis=0)
        bnorm[bnorm == 0.0] = 1.0
        for _ in range(maxiter):
            active = np.linalg.norm(r, axis=0) > tol * bnorm
            if not np.any(active):
                return x, 0
            q = lap @ p
            pq = np.einsum("ij,ij->j", p, q)
            alpha = np.where(active & (pq > 0.0), rz / np.where(pq == 0.0, 1.0, pq), 0.0)
            x += alpha[None, :] * p
            r -= alpha[None, :] * q
            z = minv[:, None] * r
            z -= z.mean(axis=0, keepdims=True)
            rz_new = np.einsum("ij,ij->j", r, z)
            beta = np.where(rz > 0.0, rz_new / np.where(rz == 0.0, 1.0, rz), 0.0)
            p = z + beta[None, :] * p
            rz = rz_new
        rn = np.linalg.norm(r, axis=0) / bnorm
        return x, int(np.sum(rn > tol))

    @staticmethod
    def endpoint_rows(g):
        """Sorted endpoints of every fifth edge, as the sketch reads them."""
        return np.unique(np.concatenate([g.uu[::5], g.vv[::5]]))

    @pytest.mark.parametrize("maxiter", [1000, 4])
    def test_block_pcg_bit_identical_to_textbook_loop(self, maxiter):
        # column blocks of one right-hand side matrix, as the sketch solves
        # them: a 61-column block and a 2-column block, both strided views.
        # Iterated only at endpoint rows, the solution is the bytes of the
        # full solution's rows.
        g = barabasi_albert(300, 2, seed=6)
        lap = build_laplacian(g).matrix
        signs = np.random.default_rng(6).choice([-1.0, 1.0], size=(g.num_edges, 63))
        rhs = np.zeros((g.n, 63))
        np.add.at(rhs, g.uu, np.sqrt(g.ww)[:, None] * signs)
        np.add.at(rhs, g.vv, -np.sqrt(g.ww)[:, None] * signs)
        rows = self.endpoint_rows(g)
        assert 0 < rows.size < g.n
        for cols in (slice(0, 61), slice(61, 63)):
            want, want_unconverged = self.textbook_pcg(lap, rhs[:, cols], 1e-8, maxiter)
            for at, expect in ((None, want), (rows, want[rows])):
                x, unconverged = block_pcg(lap, rhs[:, cols], 1e-8, maxiter, rows=at)
                assert x.tobytes() == expect.tobytes()
                assert unconverged == want_unconverged
                assert (unconverged == 0) == (maxiter == 1000)

    def test_block_pcg_reuses_caller_buffers_bit_for_bit(self):
        # one set of work buffers (x, r, z, p and the sparse product), sized
        # for the widest block, serves a wide block and then a narrow one
        # left holding the wide block's values
        g = barabasi_albert(300, 2, seed=6)
        lap = build_laplacian(g).matrix
        rhs = np.random.default_rng(8).standard_normal((g.n, 63))
        rhs -= rhs.mean(axis=0)
        work = [np.empty(g.n * 61) for _ in range(5)]
        rows, minv = np.arange(g.n), sparsify._jacobi_inverse(lap)
        for cols in (slice(0, 61), slice(61, 63)):
            x, unconverged = _jacobi_block_pcg(lap, rhs[:, cols], 1e-8, 1000, work, rows, minv)
            want, _ = self.textbook_pcg(lap, rhs[:, cols], 1e-8, 1000)
            assert unconverged == 0
            assert np.shares_memory(x, work[0]) and x.flags.c_contiguous
            assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("endpoints", [False, True])
    def test_block_pcg_with_caller_buffers_allocates_no_block(self, endpoints):
        # given its buffers, a solve allocates per-column scalars, never an
        # (n, c) array such as a fresh lap @ p
        g = barabasi_albert(300, 2, seed=6)
        lap = build_laplacian(g).matrix
        rhs = np.random.default_rng(8).standard_normal((g.n, 61))
        rhs -= rhs.mean(axis=0)
        rows = self.endpoint_rows(g) if endpoints else np.arange(g.n)
        work = [np.empty(g.n * 61) for _ in range(5)]
        minv = sparsify._jacobi_inverse(lap)
        tracemalloc.start()
        try:
            _, unconverged = _jacobi_block_pcg(lap, rhs, 1e-8, 1000, work, rows, minv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert unconverged == 0
        assert peak < rhs.nbytes

    @pytest.mark.parametrize("cols", [61, 2, 1])
    def test_csr_product_into_buffer_matches_matmul(self, cols):
        # the caller-buffer product runs SciPy's private csr kernel; a SciPy
        # whose kernel or dispatch changed would fail here, not move bits
        g = barabasi_albert(300, 2, seed=6)
        lap = build_laplacian(g).matrix
        bt = sparsify._weighted_incidence_t(g)
        rng = np.random.default_rng(cols)
        for a in (lap, bt):
            x = rng.standard_normal((a.shape[1], cols))
            out = np.full((a.shape[0], cols), np.nan)
            got = sparsify._csr_matmul_into(a, x, out)
            assert got is out
            assert out.tobytes() == (a @ x).tobytes()

    def test_csr_product_into_buffer_refuses_strided_blocks(self):
        lap = build_laplacian(barabasi_albert(40, 2, seed=6)).matrix
        x = np.ones((40, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            sparsify._csr_matmul_into(lap, x[:, :2], np.empty((40, 2)))
        with pytest.raises(ValueError, match="C-contiguous"):
            sparsify._csr_matmul_into(lap, x[:, :2].copy(), np.empty((40, 4))[:, :2])

    def test_sketch_memory_below_sign_and_solution_matrices(self, monkeypatch):
        # the sketch keeps signs as bytes, only endpoint rows of the solution
        # and per-worker block buffers: its peak stays below what an E x k
        # float64 sign matrix and an n x k solution alone would take
        g = barabasi_albert(3000, 2, seed=0)
        k = jl_dimension(g.n, 0.5)
        monkeypatch.setattr(sparsify, "_sketch_workers", lambda: 2)
        crossing = edges_of(g)[::60]
        tracemalloc.start()
        try:
            estimate_resistances(g, crossing, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (g.num_edges + g.n) * k

    def test_unconverged_blocks_raise_with_total_count(self, monkeypatch):
        g = barabasi_albert(208, 2, seed=4)
        k = jl_dimension(g.n, 0.5)
        monkeypatch.setattr(sparsify, "_sketch_workers", lambda: 2)
        monkeypatch.setattr(sparsify, "_PCG_MAXITER", 1)
        with pytest.raises(SolverNotConverged, match=rf"block PCG: {k} of {k} columns"):
            estimate_resistances(g, edges_of(g), seed=0)

    def test_policy_falls_back_to_inverse_weights(self, monkeypatch):
        g = barabasi_albert(208, 2, seed=4)
        crossing = edges_of(g)[:12]
        monkeypatch.setattr(sparsify, "_PCG_MAXITER", 1)
        policy = SparsifyPolicy(target_count=4)
        with pytest.warns(UserWarning, match="did not converge"):
            out = apply_policy(g, crossing, policy, seed=3)
        inverse_w = ResistanceEstimate(
            edges=[(u, v) for u, v, _ in crossing],
            values=np.array([1.0 / w for _, _, w in crossing]),
            projection_dim=0,
            epsilon_jl=0.5,
        )
        want = sparsify_interface(crossing, inverse_w, target_count=4, seed=4)
        assert out.kept_edges == want.kept_edges


class TestSampler:
    def test_single_edge_keep_all(self):
        res = ResistanceEstimate(
            edges=[(0, 1)], values=np.array([1.0]), projection_dim=0, epsilon_jl=0.5
        )
        out = sparsify_interface([(0, 1, 2.5)], res, keep_fraction=1.0, seed=0)
        assert out.kept_edges == [(0, 1, 2.5)]
        assert out.sample_count == 1

    def test_two_identical_edges_frequency(self):
        res = ResistanceEstimate(
            edges=[(0, 2), (1, 3)],
            values=np.array([1.0, 1.0]),
            projection_dim=0,
            epsilon_jl=0.5,
        )
        edges = [(0, 2, 1.0), (1, 3, 1.0)]
        first = 0
        trials = 1000
        for seed in range(trials):
            out = sparsify_interface(edges, res, keep_fraction=0.5, seed=seed)
            assert out.sample_count == 1
            first += out.kept_edges[0][:2] == (0, 2)
        assert abs(first / trials - 0.5) <= 0.05

    def test_unbiasedness_monte_carlo(self):
        # E[sparsified Laplacian] equals the original interface Laplacian (3 sigma)
        rng = np.random.default_rng(11)
        edges = [(0, 3, 1.0), (1, 3, 2.0), (1, 4, 0.5), (2, 4, 1.5), (2, 5, 1.0)]
        res = ResistanceEstimate(
            edges=[(u, v) for u, v, _ in edges],
            values=rng.uniform(0.3, 1.0, len(edges)),
            projection_dim=0,
            epsilon_jl=0.5,
        )
        trials = 10000
        acc = np.zeros((6, 6))
        acc2 = np.zeros((6, 6))
        for seed in range(trials):
            out = sparsify_interface(edges, res, keep_fraction=0.5, seed=seed)
            lap = interface_laplacian(out.kept_edges, 6)
            acc += lap
            acc2 += lap * lap
        mean = acc / trials
        target = interface_laplacian(edges, 6)
        stderr = np.sqrt(np.maximum(acc2 / trials - mean**2, 0.0) / trials)
        gap = np.abs(mean - target)
        assert np.all(gap <= 3.0 * stderr + 1e-12)

    def test_weights_positive_and_subset(self):
        edges = [(0, 5, 1.0), (1, 6, 2.0), (2, 7, 0.5), (3, 8, 1.5)]
        res = ResistanceEstimate(
            edges=[(u, v) for u, v, _ in edges],
            values=np.ones(4),
            projection_dim=0,
            epsilon_jl=0.5,
        )
        out = sparsify_interface(edges, res, keep_fraction=0.5, seed=2)
        orig = {(u, v) for u, v, _ in edges}
        for u, v, w in out.kept_edges:
            assert w > 0
            assert (u, v) in orig

    def test_empty_interface(self):
        res = ResistanceEstimate(
            edges=[], values=np.zeros(0), projection_dim=0, epsilon_jl=0.5
        )
        with pytest.raises(EmptyInterface):
            sparsify_interface([], res, keep_fraction=0.5)

    def test_target_count(self):
        edges = [(0, i + 1, 1.0) for i in range(10)]
        res = ResistanceEstimate(
            edges=[(u, v) for u, v, _ in edges],
            values=np.ones(10),
            projection_dim=0,
            epsilon_jl=0.5,
        )
        out = sparsify_interface(edges, res, target_count=3, seed=0)
        assert out.sample_count == 3
        assert 1 <= len(out.kept_edges) <= 3

    @pytest.mark.parametrize(
        "est_edges",
        [[(0, 1)], [(0, 1), (0, 1)], [(0, 2), (0, 1)], [(0, 1), (0, 2), (0, 3)]],
        ids=["missing", "duplicated", "reordered", "extra"],
    )
    def test_estimate_must_list_interface_in_order(self, est_edges):
        res = ResistanceEstimate(
            edges=est_edges,
            values=np.ones(len(est_edges)),
            projection_dim=0,
            epsilon_jl=0.5,
        )
        with pytest.raises(InvalidParams, match="edges in order"):
            sparsify_interface([(0, 1, 1.0), (0, 2, 1.0)], res, target_count=1)

    def test_policy_takes_one_sampling_mode(self):
        with pytest.raises(InvalidParams, match="exactly one"):
            SparsifyPolicy(keep_fraction=0.5, target_count=3)
        with pytest.raises(InvalidParams, match="exactly one"):
            SparsifyPolicy()
        edges = [(0, 1, 1.0), (0, 2, 1.0)]
        res = ResistanceEstimate(
            edges=[(0, 1), (0, 2)], values=np.ones(2), projection_dim=0, epsilon_jl=0.5
        )
        with pytest.raises(InvalidParams, match="exactly one"):
            sparsify_interface(edges, res, keep_fraction=0.5, target_count=1)
        with pytest.raises(InvalidParams, match="exactly one"):
            sparsify_interface(edges, res)


class TestSpectralBound:
    def test_identical_matrices(self):
        lap = build_laplacian(barabasi_albert(60, 2, seed=0))
        rep = verify_spectral_bound(lap, lap, eps=0.5, trials=50, seed=0)
        assert rep.ratio_min == pytest.approx(1.0, abs=1e-9)
        assert rep.ratio_max == pytest.approx(1.0, abs=1e-9)
        assert rep.passed

    def test_scaled_matrix(self):
        lap = build_laplacian(barabasi_albert(60, 2, seed=1)).dense()
        rep = verify_spectral_bound(lap, 1.25 * lap, eps=0.5, trials=50, seed=0)
        assert rep.ratio_min == pytest.approx(1.25, abs=1e-9)
        assert rep.ratio_max == pytest.approx(1.25, abs=1e-9)
        assert rep.passed
        rep2 = verify_spectral_bound(lap, 1.6 * lap, eps=0.5, trials=10, seed=0)
        assert not rep2.passed

    @pytest.mark.parametrize("half", [60, 200])  # dense extremes, samples only
    def test_split_sparsified_graph_fails_with_zero_ratio(self, half):
        # two BA halves joined by three bridges; the sparsified side drops
        # the bridges, so random directions barely see the split
        a = barabasi_albert(half, 2, seed=half)
        halves = edges_of(a) + [(u + half, v + half, w) for u, v, w in edges_of(a)]
        bridges = [(0, half, 1.0), (7, half + 3, 1.0), (11, 2 * half - 1, 1.0)]
        g = Graph.from_edges(2 * half, halves + bridges)
        split = Graph.from_edges(2 * half, halves)
        rep = verify_spectral_bound(
            build_laplacian(g), build_laplacian(split), eps=0.5, trials=100, seed=0
        )
        assert rep.dense_extremes == (2 * half <= sparsify._BOUND_DENSE_N)
        assert rep.ratio_min == 0.0
        assert 0.0 < rep.ratio_max <= 1.0 + 1e-9
        assert not rep.passed

    def test_above_dense_limit_never_densifies(self, monkeypatch):
        # n = 400: the directions and the component count use the sparse
        # Laplacians, so no n x n array is built
        def refuse(lap):
            raise AssertionError("densified a Laplacian above the dense limit")

        g = barabasi_albert(400, 2, seed=5)
        assert g.n > sparsify._BOUND_DENSE_N
        lap = build_laplacian(g)
        # node 0 loses its edges: one component more
        cut = build_laplacian(Graph.from_edges(g.n, [e for e in edges_of(g) if 0 not in e[:2]]))
        monkeypatch.setattr(Laplacian, "dense", refuse)
        rep = verify_spectral_bound(lap, 1.25 * lap.matrix, eps=0.5, trials=20, seed=0)
        assert not rep.dense_extremes and rep.passed
        assert rep.ratio_min == pytest.approx(1.25, abs=1e-9)
        assert rep.ratio_max == pytest.approx(1.25, abs=1e-9)
        rep = verify_spectral_bound(lap, cut, eps=0.5, trials=20, seed=0)
        assert rep.ratio_min == 0.0 and not rep.passed

    @pytest.mark.parametrize("n", [100, 400])  # dense extremes, samples only
    def test_zero_trials_refused(self, n):
        # no direction is no evidence, whichever path would read the extremes
        lap = build_laplacian(barabasi_albert(n, 2, seed=0))
        with pytest.raises(InvalidParams, match="trials must be at least 1, got 0"):
            verify_spectral_bound(lap, 3.0 * lap.matrix, eps=0.5, trials=0, seed=0)

    def test_sparsified_ba_interfaces(self):
        # dense BA graphs: redundant interfaces are the sparsifier's regime;
        # balanced cuts of sparse BA graphs carry too much leverage per edge
        # for half-rate sampling to concentrate (recorded in the cut test)
        passes = 0
        seeds = range(8)
        for seed in seeds:
            g = barabasi_albert(200, 40, seed=seed)
            res = build_plan(
                g,
                force_levels=1,
                max_levels=1,
                sparsify=SparsifyPolicy(keep_fraction=0.5),
                seed=seed,
            )
            rep = verify_spectral_bound(
                build_laplacian(g), build_laplacian(res.graph), eps=0.5,
                trials=100, seed=seed,
            )
            passes += rep.ratio_min > 0.4 and rep.ratio_max < 1.6
        print(f"sparsifier band (0.4,1.6) pass rate: {passes}/{len(list(seeds))}")
        assert passes >= int(0.9 * 8)
