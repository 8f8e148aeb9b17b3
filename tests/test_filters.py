import numpy as np
import pytest
import scipy.linalg

from cauchygft.errors import ConfigMismatch, DomainError, InvalidParams
from cauchygft.factorization import factorize
from cauchygft.filters import (
    CallableFilter,
    FilterBank,
    FilterLayerConfig,
    apply_layer,
    bspline_design,
    eval_bank,
    heat_filter,
    hierarchical_mix,
    parse_filter_config,
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


def cox_de_boor(x, t, i, degree):
    """B-spline i of `degree` on knots t at x; the last span is closed at t[-1]."""
    if degree == 0:
        if t[i] <= x < t[i + 1]:
            return 1.0
        return float(x == t[-1] and t[i] < t[i + 1] == t[-1])
    value = 0.0
    if t[i + degree] > t[i]:
        value += (x - t[i]) / (t[i + degree] - t[i]) * cox_de_boor(x, t, i, degree - 1)
    if t[i + degree + 1] > t[i + 1]:
        value += ((t[i + degree + 1] - x) / (t[i + degree + 1] - t[i + 1])
                  * cox_de_boor(x, t, i + 1, degree - 1))
    return value


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

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"widths": [1.0, 1.0]}, "widths must be 3 finite values"),
            ({"centers": [0.0, np.nan, 1.0]}, "centers must be 3 finite values"),
            ({"widths": [[0.5, 0.5, 0.5]]}, "widths must be 3 finite values"),
            ({"widths": [0.5, 0.0, 0.5]}, "widths must be positive"),
            ({"widths": [0.5, -1.0, 0.5]}, "widths must be positive"),
        ],
    )
    def test_rbf_centers_and_widths_validated(self, options, message):
        with pytest.raises(InvalidParams, match=message):
            FilterBank.rbf(3, **options)

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

    def test_bspline_design_matches_cox_de_boor(self):
        # SciPy's basis against the textbook recursion, knots and ends included
        for k in range(1, 12):
            for degree in range(min(k, 4)):
                inner = np.linspace(0.0, 1.0, k - degree + 1)[1:-1]
                t = np.concatenate([np.zeros(degree + 1), inner, np.ones(degree + 1)])
                x = np.unique(np.concatenate([np.linspace(0.0, 1.0, 41), t]))
                want = np.array([[cox_de_boor(xv, t, i, degree) for i in range(k)]
                                 for xv in x])
                got = bspline_design(x, k, degree)
                assert got.shape == (x.size, k)
                assert np.max(np.abs(got - want)) <= 8 * np.finfo(np.float64).eps

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
                "lambda_max": 2.0, "filter_index": 1}
        bank = FilterBank.rbf(
            num_basis=4, coefficients=np.array(coeff), normalize=True, lambda_max=2.0
        )
        grid = np.linspace(0.0, 2.0, 100)
        expected = eval_bank(bank, grid)
        assert expected.shape == (100, 2)
        cfg = parse_filter_config(data)
        assert cfg.node_filters == {}
        assert np.array_equal(cfg.global_filter(grid), expected[:, 1])

    def test_bank_filter_scales_by_the_top_eigenvalue(self):
        # a bank on the normalized axis sees lam / lam[-1]; one with its own
        # lambda_max sees the raw eigenvalues
        lam = np.array([0.0, 0.7, 1.9, 3.5])
        unit = FilterBank.spline(num_basis=5, coefficients=np.arange(10.0).reshape(2, 5))
        raw = FilterBank.spline(num_basis=5, lambda_max=4.0)
        assert np.array_equal(unit.filter(1)(lam), eval_bank(unit, lam / 3.5)[:, 1])
        assert np.array_equal(raw.filter(2)(lam), eval_bank(raw, lam)[:, 2])
        zero = np.zeros(3)
        assert np.array_equal(unit.filter(0)(zero), eval_bank(unit, zero)[:, 0])
        with pytest.raises(InvalidParams, match="bank has 2 filters, not 2"):
            unit.filter(2)

    def test_both_config_forms_read_in_one_place(self):
        lam = np.linspace(0.0, 2.0, 9)
        single = parse_filter_config({"kind": "heat", "t": 0.5})
        assert np.array_equal(single.global_filter(lam), np.exp(-0.5 * lam))
        assert single.node_filters == {}
        layered = parse_filter_config(
            {"nodes": {"3": {"kind": "poly", "coefficients": [1.0, 2.0]}}}
        )
        assert np.array_equal(layered.global_filter(lam), np.ones_like(lam))
        assert list(layered.node_filters) == [3]
        assert np.array_equal(layered.node_filters[3](lam), 1.0 + 2.0 * lam)
        with pytest.raises(ConfigMismatch, match="global filter config has no field 'kind'"):
            parse_filter_config({"global": {}})


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
            cfg_filters[nd.id] = bank.filter(0)
            gains.append(np.max(np.abs(bank.filter(0)(f.level_lambdas[nd.id]))))
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
        cfg = FilterLayerConfig(node_filters={999: np.ones_like})
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
