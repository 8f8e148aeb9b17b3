import numpy as np
import pytest
import scipy.linalg

from cauchygft.errors import ConfigMismatch, DomainError
from cauchygft.factorization import factorize
from cauchygft.filters import (
    BankFilter,
    CallableFilter,
    FilterBank,
    FilterLayerConfig,
    UnitFilter,
    apply_layer,
    bspline_design,
    eval_bank,
    euler_step,
    heat_filter,
    hierarchical_mix,
    poly_filter,
)
from cauchygft.graph import Graph, barabasi_albert, build_laplacian
from cauchygft.partition import build_plan
from cauchygft.plan import plan_from_leaves
from cauchygft.sparsify import SparsifyPolicy


def p3_factorization():
    g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return g, factorize(g, plan_from_leaves(g, [[0, 1], [2]]))


def ba_factorization(n=100, seed=3, m=2):
    g = barabasi_albert(n, m, seed=seed)
    half = n // 2
    plan = plan_from_leaves(g, [list(range(half)), list(range(half, n))])
    return g, factorize(g, plan)


class TestBanks:
    def test_constant_spline_is_ones(self):
        bank = FilterBank.spline(num_basis=1, coefficients=np.ones((1, 1)))
        vals = eval_bank(bank, np.linspace(0.0, 1.0, 50))
        assert np.allclose(vals, 1.0, atol=1e-14)

    def test_rbf_unit_height_at_center(self):
        bank = FilterBank.rbf(num_basis=1, centers=np.array([0.4]))
        vals = eval_bank(bank, np.array([0.4, 0.0, 1.0]))[:, 0]
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(vals[1:] < 1.0)
        assert np.all(vals > 0.0)

    def test_partition_of_unity_four_cubic_bsplines(self):
        # numeric check of the B-spline partition-of-unity identity
        bank = FilterBank.spline(num_basis=4, normalize=True)
        grid = np.linspace(0.0, 1.0, 1000)
        rows = eval_bank(bank, grid).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-9

    def test_normalized_rbf_rows_sum_to_one(self):
        bank = FilterBank.rbf(num_basis=5, normalize=True)
        rows = eval_bank(bank, np.linspace(0.0, 1.0, 1000)).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-9

    def test_bspline_design_matches_manual_quadratic(self):
        # K=3, degree 2 on knots [0,0,0,1,1,1]: Bernstein polynomials
        x = np.linspace(0.0, 1.0, 7)
        b = bspline_design(x, 3, 2)
        expect = np.stack([(1 - x) ** 2, 2 * x * (1 - x), x**2], axis=1)
        assert np.max(np.abs(b - expect)) <= 1e-14

    def test_domain_error(self):
        bank = FilterBank.spline(num_basis=3)
        with pytest.raises(DomainError):
            eval_bank(bank, np.array([1.01]))
        with pytest.raises(DomainError):
            eval_bank(bank, np.array([-0.01]))
        eval_bank(bank, np.array([1.0 + 5e-7]))  # inside the declared slack

    def test_readme_bank_config_reads_as_rbf(self):
        # the README's bank config form, read the way the CLI reads it
        coeff = [[1.0, 0.5, 0.0, 2.0], [0.0, 1.0, 1.0, 0.0]]
        data = {"kind": "rbf", "K": 4, "coefficients": coeff, "normalize": True,
                "lambda_max": 2.0}
        bank = FilterBank.rbf(
            num_basis=4, coefficients=np.array(coeff), normalize=True, lambda_max=2.0
        )
        grid = np.linspace(0.0, 2.0, 100)
        expected = eval_bank(bank, grid)
        assert expected.shape == (100, 2)
        assert np.array_equal(eval_bank(FilterBank.from_dict(data), grid), expected)


class TestHierarchicalMix:
    def test_unit_filters_equal_forward(self):
        g, f = ba_factorization()
        x = np.random.default_rng(0).standard_normal((g.n, 5))
        got = hierarchical_mix(f, FilterLayerConfig(), x)
        want = f.forward(x)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_root_lowpass_mask(self):
        g, f = ba_factorization()
        median = float(np.median(f.lambda_final))
        cfg = FilterLayerConfig(
            node_filters={
                f.plan.root_id: CallableFilter(lambda lam: (lam < median).astype(float))
            }
        )
        x = np.random.default_rng(1).standard_normal(g.n)
        got = hierarchical_mix(f, cfg, x)
        want = f.forward(x) * (f.lambda_final < median)
        assert np.linalg.norm(got - want) <= 1e-9 * max(np.linalg.norm(want), 1.0)

    def test_column_norm_bound(self):
        # diagonal multipliers through orthogonal factors: norm gain <= max|g|
        g, f = ba_factorization()
        rng = np.random.default_rng(2)
        bank = FilterBank.rbf(num_basis=3, coefficients=rng.uniform(0, 2, (1, 3)))
        gains = []
        cfg_filters = {}
        for nd in f.plan.tree:
            cfg_filters[nd.id] = BankFilter(bank)
            lam = f.level_lambdas[nd.id]
            lam_max = float(lam[-1]) if lam[-1] > 0 else 1.0
            gains.append(np.max(np.abs(BankFilter(bank).values(lam, lam_max))))
        cfg = FilterLayerConfig(node_filters=cfg_filters)
        x = rng.standard_normal((g.n, 4))
        y = hierarchical_mix(f, cfg, x)
        bound = np.prod(np.sort(gains)[-len(f.plan.tree) :])
        # per-column: every diagonal stage multiplies the norm by <= max |g|
        total_gain = np.prod([g_ for g_ in gains])
        assert np.all(
            np.linalg.norm(y, axis=0)
            <= np.linalg.norm(x, axis=0) * (total_gain + 1e-8)
        )

    def test_config_mismatch(self):
        _, f = ba_factorization()
        cfg = FilterLayerConfig(node_filters={999: UnitFilter()})
        with pytest.raises(ConfigMismatch):
            hierarchical_mix(f, cfg, np.zeros(f.n))


class TestApplyLayer:
    def test_identity_with_unit_filters(self):
        g, f = ba_factorization()
        x = np.random.default_rng(3).standard_normal((g.n, 3))
        out = apply_layer(f, FilterLayerConfig(), x)
        assert np.linalg.norm(out - x) <= 1e-8 * np.linalg.norm(x)

    def test_lambda_filter_is_laplacian(self):
        g, f = p3_factorization()
        cfg = FilterLayerConfig(global_filter=poly_filter([0.0, 1.0]))
        x = np.array([1.0, 0.0, 0.0])
        got = apply_layer(f, cfg, x)
        assert np.max(np.abs(got - np.array([1.0, -1.0, 0.0]))) <= 1e-7

    def test_polynomial_consistency(self):
        g, f = ba_factorization(n=120, seed=5)
        lap = build_laplacian(g).dense()
        x = np.random.default_rng(4).standard_normal((g.n, 2))
        for d in (1, 2, 3):
            cfg = FilterLayerConfig(
                global_filter=CallableFilter(lambda lam, d=d: lam**d)
            )
            want = np.linalg.matrix_power(lap, d) @ x
            got = apply_layer(f, cfg, x)
            scale = np.linalg.norm(lap) ** d
            assert np.linalg.norm(got - want) <= 1e-6 * scale

    def test_heat_kernel_vs_expm(self):
        g, f = p3_factorization()
        lap = build_laplacian(g).dense()
        want = scipy.linalg.expm(-lap)[:, 1]
        e1 = np.zeros(3)
        e1[1] = 1.0
        got = apply_layer(f, FilterLayerConfig(global_filter=heat_filter(1.0)), e1)
        assert np.max(np.abs(got - want)) <= 1e-7

    def test_heat_kernel_ba(self):
        g, f = ba_factorization(n=80, seed=7)
        lap = build_laplacian(g).dense()
        x = np.random.default_rng(5).standard_normal(g.n)
        want = scipy.linalg.expm(-0.5 * lap) @ x
        got = apply_layer(f, FilterLayerConfig(global_filter=heat_filter(0.5)), x)
        assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.abs(want).max())

    def test_euler_step(self):
        g, f = ba_factorization(n=60, seed=9)
        x = np.random.default_rng(6).standard_normal((g.n, 2))
        w = np.array([[0.5, 0.0], [0.0, 2.0]])
        out = euler_step(f, FilterLayerConfig(), x, step_size=0.1, weight=w)
        assert np.allclose(out, x + 0.1 * (x @ w), atol=1e-8)

    def test_lipschitz_stability_under_sparsification(self):
        # qualitative transferability check: deviation recorded, sanity band only
        g = barabasi_albert(200, 2, seed=1)
        exact = build_plan(g, force_levels=1, max_levels=1, seed=1)
        spars = build_plan(
            g, force_levels=1, max_levels=1, seed=1,
            sparsify=SparsifyPolicy(keep_fraction=0.5),
        )
        f_exact = factorize(g, exact.plan)
        f_spars = factorize(spars.graph, spars.plan)
        cfg = FilterLayerConfig(global_filter=heat_filter(1.0))
        x = np.random.default_rng(7).standard_normal((g.n, 3))
        y0 = apply_layer(f_exact, cfg, x)
        y1 = apply_layer(f_spars, cfg, x)
        dev = np.linalg.norm(y0 - y1) / np.linalg.norm(y0)
        print(f"1-Lipschitz layer deviation under rho=0.5 sparsification: {dev:.3e}")
        assert np.isfinite(dev)
        assert dev <= 10.0
