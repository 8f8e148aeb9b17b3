import math

import numpy as np
import pytest

import cauchygft.secular as secular
from cauchygft.errors import BracketFailure, InvalidParams
from cauchygft.factorization import _DENSE_CACHE_MAX
from cauchygft.secular import (
    build_cauchy_factor,
    deflate,
    rank_one_update_factor,
    secular_residuals,
    solve_secular,
)

RNG_SPECTRA = ("plain", "clustered", "tiny_gaps", "mixed_scale")


def updated_matrix(lam, z, rho):
    return np.diag(lam) + rho * np.outer(z, z)


def deflation_transform(record, n):
    """Dense orthogonal G from the record's Householder blocks (oracle path)."""
    g = np.eye(n)
    for blk in record.householder_blocks:
        h = np.eye(blk.stop - blk.start) - 2.0 * np.outer(blk.reflector, blk.reflector)
        s = np.eye(blk.stop - blk.start)
        s[0, 0] = blk.first_sign
        g[blk.start : blk.stop, blk.start : blk.stop] = h @ s
    return g


def applied(factor, x, transpose=False):
    factor.apply_inplace(y := np.array(x, dtype=np.float64), transpose)
    return y


def cauchy_block(f):
    s = f.solution
    return secular._cauchy_columns(s.lambda_old, s.origins, s.offsets, f.zhat, f.column_norms,
                                   f.column_signs, np.arange(f.affected.size))


def random_instance(rng, n, kind):
    """Spectra stressing the solver: repeats, 1e-8 gaps, mixed magnitudes."""
    if kind == "plain":
        lam = np.sort(rng.uniform(0.0, 4.0, n))
    elif kind == "clustered":
        base = np.sort(rng.uniform(0.0, 4.0, max(1, n // 3)))
        lam = np.sort(rng.choice(base, size=n, replace=True))
    elif kind == "tiny_gaps":
        lam = np.sort(rng.uniform(0.0, 4.0, n))
        for i in range(1, n, 3):
            lam[i] = lam[i - 1] + 10.0 ** rng.uniform(-8, -4)
        lam = np.sort(lam)
    else:
        lam = np.sort(rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 3, n))
    z = rng.standard_normal(n)
    if kind != "plain":
        z[rng.random(n) < 0.15] = 0.0
    z /= max(np.linalg.norm(z), 1e-3)
    rho = float(rng.uniform(0.25, 2.0))
    return lam, z, rho


class TestDeflate:
    def test_two_node_merge(self):
        rec = deflate(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert rec.kept.tolist() == [0]
        assert rec.rotated.tolist() == [1]
        assert np.allclose(rec.z_deflated, [math.sqrt(2.0)], atol=1e-15)

    def test_zero_components_dropped(self):
        rec = deflate(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]))
        assert rec.dropped_zero.tolist() == [0, 1]
        assert rec.kept.tolist() == [2]

    def test_everything_deflates(self):
        rec = deflate(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert rec.kept.size == 0

    def test_partition_of_indices(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam, z, rho = random_instance(rng, int(rng.integers(2, 40)), "clustered")
            rec = deflate(lam, z, rho=rho)
            union = np.concatenate([rec.kept, rec.dropped_zero, rec.rotated])
            assert np.array_equal(np.sort(union), np.arange(lam.size))
            assert np.all(np.abs(rec.z_deflated) > 0.0)
            if rec.kept.size > 1:
                assert np.all(np.diff(lam[rec.kept]) > 0.0)

    def test_reflectors_reconstruct_matrix(self):
        # dense comparison: G (diag + rho zhat zhat^T) G^T == diag + rho z z^T
        rng = np.random.default_rng(11)
        n = 20
        lam = np.sort(rng.choice([0.5, 1.0, 1.0, 1.0, 2.0, 3.0], size=n))
        z = rng.standard_normal(n)
        rho = 0.7
        rec = deflate(lam, z, rho=rho)
        g = deflation_transform(rec, n)
        zhat = g.T @ z
        rebuilt = g @ updated_matrix(lam, zhat, rho) @ g.T
        assert np.max(np.abs(rebuilt - updated_matrix(lam, z, rho))) <= 1e-12
        # reflected z concentrates each block's mass on its head
        for blk in rec.householder_blocks:
            seg = zhat[blk.start : blk.stop]
            assert abs(seg[0] - np.linalg.norm(z[blk.start : blk.stop])) <= 1e-12
            assert np.max(np.abs(seg[1:])) <= 1e-12


class TestSolveSecular:
    def test_two_by_two_example(self):
        # dense oracle for diag(1,3) + [1,1][1,1]^T = [[2,1],[1,4]]: 3 -+ sqrt(2)
        sol = solve_secular(np.array([1.0, 3.0]), np.array([1.0, 1.0]), 1.0)
        expect = np.array([3.0 - math.sqrt(2.0), 3.0 + math.sqrt(2.0)])
        assert np.allclose(sol.lambda_new, expect, atol=1e-14)

    def test_scalar_case(self):
        sol = solve_secular(np.array([0.0]), np.array([math.sqrt(2.0)]), 1.0)
        assert np.allclose(sol.lambda_new, [2.0], atol=1e-15)

    def test_p2_plus_isolated_node_gives_p3_spectrum(self):
        # merge {0,1} (edge) with {2} via bridge (1,2): spectrum must hit P3's
        lam0 = np.array([0.0, 0.0, 2.0])  # eigenvalues of P2 + isolated node
        u_p2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        u0 = np.zeros((3, 3))
        u0[:2, [0, 2]] = u_p2
        u0[2, 1] = 1.0
        v = np.zeros(3)
        v[1], v[2] = 1.0, -1.0
        z = u0.T @ v
        order = np.argsort(lam0)
        factor, lam_new = rank_one_update_factor(lam0[order], z[order], 1.0)
        assert np.allclose(np.sort(lam_new), [0.0, 1.0, 3.0], atol=1e-12)

    def test_residuals_and_requirements(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            lam, z, rho = random_instance(rng, n, "plain")
            sol = solve_secular(lam, z, rho)
            bound = 1e-11 * (1.0 + rho * float(z @ z))
            assert np.max(secular_residuals(sol)) <= bound

    def test_rejects_unsorted_or_zero_z(self):
        with pytest.raises(BracketFailure):
            solve_secular(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(BracketFailure):
            solve_secular(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)

    def test_uncertified_roots_raise(self, monkeypatch):
        # zero tolerances certify only exact zeros and collapsed brackets, so
        # some roots stay open through every sweep and the cap is reached
        rng = np.random.default_rng(4)
        lam = np.sort(rng.uniform(0.0, 4.0, 40))
        z = rng.standard_normal(40)
        monkeypatch.setattr(secular, "_EPS", 0.0)
        monkeypatch.setattr(secular, "_TINY", 0.0)
        with pytest.raises(BracketFailure, match=r"\d+ of 40 secular roots uncertified"):
            solve_secular(lam, z, 0.7)

    def test_nonpositive_rho_refused(self):
        lam = np.array([0.0, 1.0, 2.5])
        z = np.array([0.3, -1.0, 0.8])
        for rho in (-0.7, 0.0, -0.0, math.nan, -math.inf):
            with pytest.raises(InvalidParams, match="rho must be positive"):
                solve_secular(lam, z, rho)
            with pytest.raises(InvalidParams, match="rho must be positive"):
                solve_secular(np.zeros(0), np.zeros(0), rho)
            with pytest.raises(InvalidParams, match="rho must be positive"):
                deflate(lam, z, rho)
            with pytest.raises(InvalidParams, match="rho must be positive"):
                deflate(np.zeros(0), np.zeros(0), rho)
            with pytest.raises(InvalidParams, match="rho must be positive"):
                secular.default_tolerances(lam, z, rho)


class TestSolverProperties:
    def test_interleaving_1000_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(1000):
            n = int(rng.integers(2, 201))
            lam, z, rho = random_instance(rng, n, RNG_SPECTRA[trial % 4])
            rec = deflate(lam, z, rho=rho)
            if rec.kept.size == 0:
                continue
            d = lam[rec.kept]
            sol = solve_secular(d, rec.z_deflated, rho)
            assert np.all(sol.lambda_new > d)
            assert np.all(sol.lambda_new[:-1] < d[1:])
            # virtual top bound; equality is exact when one index survives
            top = d[-1] + rho * float(rec.z_deflated @ rec.z_deflated)
            assert sol.lambda_new[-1] <= top * (1.0 + 1e-15) + 1e-300

    def test_trace_conservation(self):
        rng = np.random.default_rng(23)
        for trial in range(200):
            n = int(rng.integers(2, 201))
            lam, z, rho = random_instance(rng, n, RNG_SPECTRA[trial % 4])
            rec = deflate(lam, z, rho=rho)
            if rec.kept.size == 0:
                continue
            sol = solve_secular(lam[rec.kept], rec.z_deflated, rho)
            znorm2 = rho * float(rec.z_deflated @ rec.z_deflated)
            tol = 1e-10 * (1.0 + abs(np.sum(lam[rec.kept])) + znorm2)
            assert sol.trace_defect <= tol


class TestCauchyFactor:
    def test_empty_affected_is_identity(self):
        rec = deflate(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        sol = solve_secular(np.zeros(0), np.zeros(0), 1.0)
        factor = build_cauchy_factor(rec, sol)
        x = np.array([3.0, -4.0])
        assert np.array_equal(applied(factor, x), x)
        assert factor.affected.size == 0 and not factor.householder_blocks

    def test_two_by_two_matches_dense_eigenvectors(self):
        lam = np.array([1.0, 3.0])
        z = np.array([1.0, 1.0])
        factor, lam_new = rank_one_update_factor(lam, z, 1.0)
        w, u = np.linalg.eigh(updated_matrix(lam, z, 1.0))
        c = cauchy_block(factor)
        for j in range(2):
            assert min(
                np.linalg.norm(c[:, j] - u[:, j]), np.linalg.norm(c[:, j] + u[:, j])
            ) <= 1e-12
        assert np.allclose(lam_new, w, atol=1e-14)

    def test_apply_matches_dense_column(self):
        factor, _ = rank_one_update_factor(
            np.array([1.0, 3.0]), np.array([1.0, 1.0]), 1.0
        )
        e1 = np.zeros(2)
        e1[1] = 1.0
        dense = applied(factor, np.eye(2))
        assert np.allclose(applied(factor, e1), dense[:, 1], atol=1e-14)

    def test_round_trip_and_norm(self):
        rng = np.random.default_rng(29)
        for trial in range(60):
            n = int(rng.integers(2, 120))
            lam, z, rho = random_instance(rng, n, RNG_SPECTRA[trial % 4])
            factor, _ = rank_one_update_factor(lam, z, rho)
            x = rng.standard_normal(n)
            y = applied(factor, x)
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)
            back = applied(factor, y, transpose=True)
            assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    def test_orthogonality_dense_realizations(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            n = int(rng.integers(2, 201))
            lam, z, rho = random_instance(rng, n, RNG_SPECTRA[trial % 4])
            factor, _ = rank_one_update_factor(lam, z, rho)
            c = cauchy_block(factor)
            if c.size:
                err = np.linalg.norm(c.T @ c - np.eye(c.shape[0]))
                assert err <= 1e-9
            d = applied(factor, np.eye(n))
            assert np.linalg.norm(d.T @ d - np.eye(n)) <= 1e-9

    def test_eigenvector_subspace_match_n50(self):
        # subspace-angle check against the dense oracle, degenerate-safe
        rng = np.random.default_rng(37)
        n = 50
        lam = np.sort(rng.uniform(0.0, 5.0, n))
        z = rng.standard_normal(n)
        rho = 1.3
        factor, lam_new = rank_one_update_factor(lam, z, rho)
        w, u = np.linalg.eigh(updated_matrix(lam, z, rho))
        order = np.argsort(lam_new)
        d = applied(factor, np.eye(n))
        # D maps old-basis coefficients to new; columns of D^T are eigenvectors
        vecs = d.T
        for j in range(n):
            col = vecs[:, order[j]]
            assert min(np.linalg.norm(col - u[:, j]), np.linalg.norm(col + u[:, j])) <= 1e-8

    def test_first_row_sign_convention(self):
        rng = np.random.default_rng(41)
        lam = np.sort(rng.uniform(0.0, 3.0, 25))
        z = rng.standard_normal(25)
        factor, _ = rank_one_update_factor(lam, z, 1.0)
        c = cauchy_block(factor)
        assert np.all(c[0, :] > 0.0)


class TestOracleEquivalence:
    def test_eigenvalues_match_dense_500(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for trial in range(500):
            n = int(rng.integers(2, 201))
            lam, z, rho = random_instance(rng, n, RNG_SPECTRA[trial % 4])
            _, lam_new = rank_one_update_factor(lam, z, rho)
            w = np.linalg.eigvalsh(updated_matrix(lam, z, rho))
            err = np.abs(np.sort(lam_new) - w) / (1.0 + np.abs(w))
            worst = max(worst, float(err.max()))
        assert worst <= 1e-10

    def test_eigenvalues_match_dense_reduceat_branch(self):
        # m > _MASK_MAX_M: split sums come from segment sums, not the mask
        rng = np.random.default_rng(47)
        for kind in ("plain", "tiny_gaps", "mixed_scale"):
            lam, z, rho = random_instance(rng, 1500, kind)
            factor, lam_new = rank_one_update_factor(lam, z, rho)
            assert factor.affected.size > secular._MASK_MAX_M
            w = np.linalg.eigvalsh(updated_matrix(lam, z, rho))
            err = np.abs(np.sort(lam_new) - w) / (1.0 + np.abs(w))
            assert float(err.max()) <= 1e-10


class TestCacheBlocking:
    @pytest.mark.parametrize("m", [600, 1500])  # mask branch, reduceat branch
    def test_factor_bit_identical_for_any_block(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        lam = np.sort(rng.uniform(0.0, 4.0, m))
        z = rng.standard_normal(m)
        x = rng.standard_normal((m, 3))
        assert (m <= secular._MASK_MAX_M) == (m == 600)
        results = []
        # one row per block, 7 rows (ragged last block), every row at once
        for elems in (1, 7 * m, m * m):
            monkeypatch.setattr(secular, "_BLOCK_ELEMS", elems)
            factor, _ = rank_one_update_factor(lam, z, 0.7)
            assert factor.affected.size > _DENSE_CACHE_MAX
            sol = factor.solution
            arrays = (
                sol.origins, sol.offsets, factor.zhat, factor.column_norms,
                factor.column_signs, applied(factor, x), applied(factor, x, transpose=True),
            )
            results.append([a.tobytes() for a in arrays])
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("m, rows", [(1500, 43), (3400, 19), (2000, 7)])
    def test_reduceat_branch_matches_forward_segments(self, m, rows):
        # the branch must keep the bits of plain forward segment sums: each
        # row's left segment, then its right one, in one reduceat over the
        # flattened rows; psi is the left segment and phi the right one
        assert m > secular._MASK_MAX_M and rows <= secular._BLOCK_ELEMS // m
        rng = np.random.default_rng(m + rows)
        d = np.sort(rng.uniform(0.0, 4.0, m))
        zeta = rng.uniform(0.1, 1.0, m) ** 2
        p_left = rng.integers(0, m - 1, rows)
        origins = p_left + rng.integers(0, 2, rows)
        gaps = d[p_left + 1] - d[p_left]
        tau = np.where(origins == p_left, 0.5, -0.5) * gaps * rng.uniform(0.1, 0.9, rows)
        delta = d[None, :] - d[origins, None]
        delta -= tau[:, None]
        t = zeta[None, :] / delta
        t2 = t / delta
        starts = np.arange(rows) * m
        bounds = np.column_stack([starts, starts + p_left + 1]).reshape(-1)
        seg = np.add.reduceat(t.reshape(-1), bounds)
        seg2 = np.add.reduceat(t2.reshape(-1), bounds)
        want = (seg[0::2], seg2[0::2], seg[1::2], seg2[1::2])
        psi, dpsi, phi, dphi = secular._split_sums(d, zeta, origins, tau, p_left)
        for got, ref in zip((psi, dpsi, phi, dphi), want):
            assert got.tobytes() == ref.tobytes()


def loop_deflate(lam, z, tol_z, tol_lambda):
    """Deflation with the per-index cluster scan: the reference for deflate."""
    m = lam.size
    zd = z.copy()
    blocks, rotated = [], []
    i = 0
    while i < m:
        j = i + 1
        while j < m and lam[j] - lam[j - 1] <= tol_lambda:
            j += 1
        if j - i >= 2:
            zb = zd[i:j]
            nrm = float(np.linalg.norm(zb))
            if nrm > 0.0:
                sgn = 1.0 if zb[0] >= 0.0 else -1.0
                u = zb.copy()
                u[0] += sgn * nrm
                u /= np.linalg.norm(u)
                blocks.append((i, j, u, -sgn))
                zd[i] = nrm
                zd[i + 1 : j] = 0.0
            rotated.extend(range(i + 1, j))
        i = j
    rot = np.asarray(rotated, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    alive[rot] = False
    small = alive & (np.abs(zd) <= tol_z)
    kept = np.flatnonzero(alive & ~small)
    return kept, np.flatnonzero(small), rot, blocks, zd[kept]


def masked_split_sums(d, zeta, origins, tau, p_left):
    """Mask-path split sums with every mask row built by a compare."""
    delta = d[None, :] - d[origins, None]
    delta -= tau[:, None]
    t = zeta[None, :] / delta
    t2 = t / delta
    mask = np.empty_like(t)
    np.less_equal(np.arange(d.size)[None, :], p_left[:, None], out=mask)
    left = np.einsum("ij,ij->i", t, mask)
    left2 = np.einsum("ij,ij->i", t2, mask)
    return left, left2, np.sum(t, axis=1) - left, np.sum(t2, axis=1) - left2


def masked_assembly(d, origins, tau, rho, z_signs):
    """Factor assembly with the full j < i mask over each row block."""
    m = d.size
    zh = np.empty(m)
    norm2 = np.zeros(m)
    mu = d[origins]
    rows_step = max(1, secular._CHUNK_ELEMS // m)
    inv_mu2 = np.empty((min(rows_step, m), m))
    for s in range(0, m, rows_step):
        sl = slice(s, min(s + rows_step, m))
        mu_minus = (mu[None, :] - d[sl, None]) + tau[None, :]
        if m == 1:
            zh[0] = np.sqrt(np.abs(tau[0] / rho))
        else:
            dd = d[None, :] - d[sl, None]
            ratio = np.empty_like(mu_minus)
            jlt = np.arange(m - 1)[None, :] < np.arange(sl.start, sl.stop)[:, None]
            ratio[:, : m - 1] = mu_minus[:, : m - 1] / np.where(
                jlt, dd[:, : m - 1], dd[:, 1:]
            )
            ratio[:, m - 1] = mu_minus[:, m - 1] / rho
            zh[sl] = np.sqrt(np.abs(np.prod(ratio, axis=1)))
        inv_mu2[: sl.stop - sl.start] = 1.0 / (mu_minus * mu_minus)
        norm2 += (zh[sl] * zh[sl]) @ inv_mu2[: sl.stop - sl.start]
    zhat = z_signs * zh
    row0_mu = (mu - d[0]) + tau
    signs = np.where(zhat[0] * row0_mu <= 0.0, 1.0, -1.0)
    return zhat, np.sqrt(norm2), signs


def split_instance(rng, m, p_left):
    """Poles, weights and one in-bracket iterate per split, as a sweep sees them."""
    d = np.sort(rng.uniform(0.0, 4.0, m))
    zeta = rng.uniform(0.1, 1.0, m) ** 2
    p_left = np.asarray(p_left, dtype=np.int64)
    origins = p_left + rng.integers(0, 2, p_left.size)
    gaps = d[p_left + 1] - d[p_left]
    tau = np.where(origins == p_left, 0.5, -0.5) * gaps * rng.uniform(0.1, 0.9, p_left.size)
    return d, zeta, origins, tau, p_left


class TestReferenceLoops:
    """Vectorized kernels against the loops they replaced, byte for byte."""

    @pytest.mark.parametrize(
        "lam, z, rotated",
        [
            ([1.0, 1.0, 2.0, 3.0, 4.0, 4.0], [0.5, -0.5, 1.0, 0.3, 0.2, 0.7], [1, 5]),
            ([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0], [1.0, -0.2, 0.4, 0.8, 0.0, 0.0, 0.1],
             [2, 3, 5]),
            # each gap is under tol_lambda, the chain's span is not
            ([1.0, 1.0 + 2e-15, 1.0 + 4e-15, 1.0 + 6e-15, 3.0], [0.3, 0.4, -0.5, 0.2, 1.0],
             [1, 2, 3]),
            ([2.0, 2.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0], [1, 2, 3]),  # all deflates
            ([], [], []),
            ([3.0], [0.25], []),
        ],
    )
    def test_deflate_matches_index_loop(self, lam, z, rotated):
        lam, z = np.asarray(lam, dtype=np.float64), np.asarray(z, dtype=np.float64)
        tol_z, tol_lambda = secular.default_tolerances(lam, z, 1.0)
        rec = deflate(lam, z)
        assert rec.rotated.tolist() == rotated
        kept, dropped, rot, blocks, zd = loop_deflate(lam, z, tol_z, tol_lambda)
        for got, want in ((rec.kept, kept), (rec.dropped_zero, dropped),
                          (rec.rotated, rot), (rec.z_deflated, zd)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(rec.householder_blocks) == len(blocks)
        for blk, (i, j, u, sign) in zip(rec.householder_blocks, blocks):
            assert (blk.start, blk.stop, blk.first_sign) == (i, j, sign)
            assert blk.reflector.tobytes() == u.tobytes()

    def test_deflate_matches_index_loop_on_random_spectra(self):
        rng = np.random.default_rng(17)
        for kind in RNG_SPECTRA:
            for n in (2, 9, 60):
                lam, z, rho = random_instance(rng, n, kind)
                tol_z, tol_lambda = secular.default_tolerances(lam, z, rho)
                rec = deflate(lam, z, rho=rho)
                kept, dropped, rot, blocks, zd = loop_deflate(lam, z, tol_z, tol_lambda)
                assert rec.kept.tobytes() == kept.tobytes()
                assert rec.rotated.tobytes() == rot.tobytes()
                assert rec.z_deflated.tobytes() == zd.tobytes()
                assert len(rec.householder_blocks) == len(blocks)

    @pytest.mark.parametrize(
        "m, p_left, block_rows",
        [
            (7, [0, 1, 2, 3, 4, 5, 5], None),   # a first sweep: the last split repeats
            (7, [2, 3, 4], None),               # consecutive splits
            (7, [3, 3, 5], None),               # gapped, ending in the duplicate m - 2
            (7, [3, 5, 5], None),               # span r - 1 yet not consecutive
            (7, [4], None),                     # a single row
            (40, list(range(38)) + [38], 5),    # 5-row blocks, the last one ragged
            (600, [0, 2, 3, 4, 9, 598, 598], 2),
        ],
    )
    def test_split_sums_staircase_matches_compare_masks(
        self, monkeypatch, m, p_left, block_rows
    ):
        if block_rows is not None:
            monkeypatch.setattr(secular, "_BLOCK_ELEMS", block_rows * m)
        rng = np.random.default_rng(m + len(p_left))
        d, zeta, origins, tau, p = split_instance(rng, m, p_left)
        got = secular._split_sums(d, zeta, origins, tau, p)
        want = masked_split_sums(d, zeta, origins, tau, p)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 600])
    def test_assembly_matches_masked_version(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        lam = np.sort(rng.uniform(0.0, 4.0, m)) + np.arange(m) * 1e-3
        z = rng.standard_normal(m)
        sol = solve_secular(lam, z, 0.7)
        args = (sol.lambda_old, sol.origins, sol.offsets, sol.rho, np.sign(sol.z))
        want = masked_assembly(*args)
        # one row per block, 7 rows (a ragged last block), every row at once
        for elems in (1, 7 * m, m * m):
            monkeypatch.setattr(secular, "_BLOCK_ELEMS", elems)
            got = secular._assemble_factor_data(*args)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("m", [1, 5, 600, 1500])
    def test_residuals_match_per_root_loop(self, m):
        rng = np.random.default_rng(m)
        lam, z, rho = random_instance(rng, m, "plain")
        z[z == 0.0] = 1.0
        sol = solve_secular(lam, z, rho)
        zeta = sol.rho * sol.z * sol.z
        want = np.empty(m)
        for j in range(m):
            delta = (sol.lambda_old - sol.lambda_old[sol.origins[j]]) - sol.offsets[j]
            want[j] = abs(1.0 + np.sum(zeta / delta))
        assert secular_residuals(sol).tobytes() == want.tobytes()
