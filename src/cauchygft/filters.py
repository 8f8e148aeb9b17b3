"""Spectral filter banks and forward-only filtering through the factorization.

A spectral filter is a callable that takes a tree node's eigenvalues
(ascending) and returns one response per eigenvalue. Banks parameterize
responses on a normalized eigenvalue axis with cubic B-splines or
unit-height Gaussians; a normalized bank's filters sum to one at every
spectral location. The layer evaluates local filters on each tree node's
eigenvalues while mixing spectral blocks through the stored Cauchy factors,
then synthesizes back through the inverse transform. No training happens
here; coefficients and centers are plain configuration, read from JSON by
parse_filter_config.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch, DomainError, InvalidParams
from .factorization import FactorizedGft

_DOMAIN_SLACK = 1e-6

Filter = Callable[[np.ndarray], np.ndarray]


def bspline_design(x: np.ndarray, num_basis: int, degree: int) -> np.ndarray:
    """Clamped uniform B-splines on [0, 1] at x, one column each; rows sum to one."""
    # scipy.interpolate adds ~18 MB and ~0.3 s to an import; only splines need it
    from scipy.interpolate import BSpline

    inner = np.linspace(0.0, 1.0, num_basis - degree + 1)[1:-1]
    t = np.concatenate([np.zeros(degree + 1), inner, np.ones(degree + 1)])
    return BSpline.design_matrix(np.asarray(x, dtype=np.float64), t, degree).toarray()


@dataclass(eq=False)
class FilterBank:
    """Spline or RBF filter bank over a normalized spectral domain.

    coefficients has one row per filter; evaluation is B(x) @ coefficients.T.
    With normalize=True the filters sum to one across the bank for every
    eigenvalue in the domain (coefficient columns renormalized for splines,
    pointwise response normalization for RBFs). Unset coefficients are the
    identity, unset RBF centers and widths follow an even grid on [0, 1];
    set ones must be num_basis finite values, widths positive.
    """

    kind: str
    num_basis: int
    coefficients: np.ndarray | None = None
    centers: np.ndarray | None = None
    widths: np.ndarray | None = None
    degree: int = 3
    normalize: bool = False
    lambda_max: float = 1.0

    def __post_init__(self):
        k = self.num_basis
        if self.kind == "spline":
            self.degree = min(self.degree, k - 1)
        elif self.kind == "rbf":
            if self.centers is None:
                self.centers = np.linspace(0.0, 1.0, k) if k > 1 else np.array([0.5])
            if self.widths is None:
                self.widths = np.full(k, 1.0 / (k - 1) if k > 1 else 1.0)
            self.centers = np.asarray(self.centers, dtype=np.float64)
            self.widths = np.asarray(self.widths, dtype=np.float64)
            for name, arr in (("centers", self.centers), ("widths", self.widths)):
                if arr.shape != (k,) or not np.isfinite(arr).all():
                    raise InvalidParams(f"RBF {name} must be {k} finite values")
            if np.any(self.widths <= 0.0):
                raise InvalidParams("RBF widths must be positive")
        else:
            raise InvalidParams(f"unknown bank kind {self.kind!r}")
        if self.coefficients is None:
            self.coefficients = np.eye(k)
        self.coefficients = np.atleast_2d(
            np.asarray(self.coefficients, dtype=np.float64)
        )
        if self.coefficients.shape[1] != k:
            raise InvalidParams("coefficient columns must match num_basis")
        if self.kind == "spline" and self.normalize:
            colsum = self.coefficients.sum(axis=0)
            if np.any(np.abs(colsum) < 1e-12):
                raise InvalidParams("cannot normalize zero coefficient columns")
            self.coefficients = self.coefficients / colsum[None, :]

    @classmethod
    def spline(
        cls,
        num_basis: int,
        coefficients: np.ndarray | None = None,
        degree: int = 3,
        normalize: bool = False,
        lambda_max: float = 1.0,
    ) -> FilterBank:
        return cls("spline", num_basis, coefficients, degree=degree,
                   normalize=normalize, lambda_max=lambda_max)

    @classmethod
    def rbf(
        cls,
        num_basis: int,
        centers: np.ndarray | None = None,
        widths: np.ndarray | None = None,
        coefficients: np.ndarray | None = None,
        normalize: bool = False,
        lambda_max: float = 1.0,
    ) -> FilterBank:
        return cls("rbf", num_basis, coefficients, centers, widths,
                   normalize=normalize, lambda_max=lambda_max)

    def filter(self, index: int) -> CallableFilter:
        """Filter `index` of the bank as a function of a node's eigenvalues.

        A bank on the normalized axis (lambda_max == 1.0) sees each node's
        eigenvalues divided by the largest of them, when that is positive.
        """
        count = self.coefficients.shape[0]
        if not 0 <= index < count:
            raise InvalidParams(f"bank has {count} filters, not {index}")

        def response(lam: np.ndarray) -> np.ndarray:
            if self.lambda_max == 1.0 and lam.size and lam[-1] > 0:
                lam = lam / lam[-1]
            return eval_bank(self, lam)[:, index]

        return CallableFilter(response)


def eval_bank(bank: FilterBank, lambdas: np.ndarray) -> np.ndarray:
    """Filter responses, one column per filter, at the given eigenvalues."""
    lam = np.asarray(lambdas, dtype=np.float64)
    top = bank.lambda_max
    if np.any(lam < -top * _DOMAIN_SLACK) or np.any(lam > top * (1.0 + _DOMAIN_SLACK)):
        raise DomainError(
            f"eigenvalues outside [0, {top}] beyond the {_DOMAIN_SLACK} slack"
        )
    x = np.clip(lam / top if top > 0 else lam, 0.0, 1.0)
    if bank.kind == "spline":
        basis = bspline_design(x, bank.num_basis, bank.degree)
    else:
        basis = np.exp(-0.5 * ((x[:, None] - bank.centers) / bank.widths) ** 2)
    resp = basis @ bank.coefficients.T
    if bank.normalize and bank.kind == "rbf":
        total = resp.sum(axis=1, keepdims=True)
        if np.any(np.abs(total) < 1e-300):
            raise DomainError("normalized RBF bank has zero total response")
        resp = resp / total
    return resp


class CallableFilter:
    """Response g(lambda) on the raw eigenvalue axis, as a filter."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(lam, dtype=np.float64)))


def poly_filter(coeffs) -> CallableFilter:
    c = [float(v) for v in coeffs]
    return CallableFilter(lambda lam: sum(ci * lam**i for i, ci in enumerate(c)))


def heat_filter(t: float) -> CallableFilter:
    return CallableFilter(lambda lam: np.exp(-t * lam))


@dataclass(eq=False)
class FilterLayerConfig:
    """Global response plus one local response per tree node (r, p)."""

    global_filter: Filter = np.ones_like
    node_filters: dict[int, Filter] = field(default_factory=dict)

    def validate(self, f: FactorizedGft) -> None:
        known = set(f.plan.ranges)
        bad = set(self.node_filters) - known
        if bad:
            raise ConfigMismatch(f"filters reference unknown tree nodes {sorted(bad)}")


def parse_filter_config(data) -> FilterLayerConfig:
    """A filter layer from its JSON config; ConfigMismatch names a bad field.

    The config is one filter, used as the global response, or
    {"global": filter, "nodes": {"<tree node id>": filter, ...}}. A filter
    is {"kind": "unit"}, {"kind": "heat", "t": 1.0}, {"kind": "poly",
    "coefficients": [...]} or a bank {"kind": "spline" | "rbf", "K": ...,
    "coefficients": [...]} with optional FilterBank fields ("degree",
    "normalize", "lambda_max", "centers", "widths") and "filter_index".
    """
    if not (isinstance(data, dict) and ("global" in data or "nodes" in data)):
        return FilterLayerConfig(global_filter=_parse_filter(data, "filter config"))
    nodes = data.get("nodes", {})
    if not isinstance(nodes, dict):
        raise ConfigMismatch(
            f"filter config field 'nodes' must map node ids to filters, "
            f"not be a {type(nodes).__name__}"
        )
    return FilterLayerConfig(
        global_filter=_parse_filter(
            data.get("global", {"kind": "unit"}), "global filter config"
        ),
        node_filters={
            _node_id(nid): _parse_filter(spec, f"filter config of node {nid}")
            for nid, spec in nodes.items()
        },
    )


def _node_id(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ConfigMismatch(
            f"filter config field 'nodes' has key {key!r}, not a tree node id"
        ) from None


def _parse_filter(data, where: str) -> Filter:
    if not isinstance(data, dict):
        raise ConfigMismatch(f"{where} must be a JSON object, not {type(data).__name__}")
    try:
        kind = data["kind"]
        if kind == "poly":
            return poly_filter(data["coefficients"])
        if kind == "heat":
            return heat_filter(float(data.get("t", 1.0)))
        if kind == "unit":
            return np.ones_like
        if kind not in ("spline", "rbf"):
            raise ConfigMismatch(
                f"{where} field 'kind' is {kind!r}, not poly, heat, unit, spline or rbf"
            )
        options = ("centers", "widths", "degree", "normalize", "lambda_max")
        bank = FilterBank(
            kind,
            coefficients=data["coefficients"],
            num_basis=data["K"],
            **{k: data[k] for k in options if data.get(k) is not None},
        )
        return bank.filter(data.get("filter_index", 0))
    except KeyError as exc:
        raise ConfigMismatch(f"{where} has no field {exc.args[0]!r}") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigMismatch(f"malformed {where} ({type(exc).__name__}: {exc})") from exc


def hierarchical_mix(
    f: FactorizedGft, cfg: FilterLayerConfig, x: np.ndarray
) -> np.ndarray:
    """Forward transform with local filters applied as each subgraph merges.

    Leaf spectra are filtered right after the leaf transforms; every merge
    applies its interface's Cauchy factors and then that node's response on
    the merged eigenvalues. All-unit filters collapse this to forward().
    """
    cfg.validate(f)
    arr, vec = f._check_rows(x)
    scales = {nid: filt(f.level_lambdas[nid]) for nid, filt in cfg.node_filters.items()}
    y = f._walk_forward(arr, scales)
    return y[:, 0] if vec else y


def apply_layer(
    f: FactorizedGft, cfg: FilterLayerConfig, x: np.ndarray
) -> np.ndarray:
    """Synthesis of the globally filtered hierarchical mix.

    inverse(diag(g(lambda_final)) . hierarchical_mix(x)); all-unit filters
    make this the identity up to roundoff.
    """
    arr, vec = f._check_rows(x)
    spec = hierarchical_mix(f, cfg, arr)
    out = f.inverse(cfg.global_filter(f.lambda_final)[:, None] * spec)
    return out[:, 0] if vec else out
