"""Spectral filter banks and forward-only filtering through the factorization.

Banks parameterize responses on a normalized eigenvalue axis with cubic
B-splines or unit-height Gaussians; a normalized bank's filters sum to one
at every spectral location. The layer evaluates local filters on each tree
node's eigenvalues while mixing spectral blocks through the stored Cauchy
factors, then synthesizes back through the inverse transform. No training
happens here; coefficients and centers are plain configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch, DomainError, InvalidParams
from .factorization import FactorizedGft

_DOMAIN_SLACK = 1e-6


def bspline_knots(num_basis: int, degree: int) -> np.ndarray:
    """Clamped uniform knot vector on [0, 1] for num_basis functions."""
    inner = np.linspace(0.0, 1.0, num_basis - degree + 1)[1:-1]
    return np.concatenate(
        [np.zeros(degree + 1), inner, np.ones(degree + 1)]
    )


def bspline_design(x: np.ndarray, num_basis: int, degree: int) -> np.ndarray:
    """Cox-de Boor evaluation of all basis functions; rows sum to one on [0,1]."""
    t = bspline_knots(num_basis, degree)
    x = np.asarray(x, dtype=np.float64)
    m = len(t) - 1
    b = np.zeros((x.size, m))
    for i in range(m):
        if t[i] < t[i + 1]:
            b[:, i] = (x >= t[i]) & (x < t[i + 1])
    b[x >= t[-1], np.max(np.flatnonzero(np.diff(t) > 0))] = 1.0
    for d in range(1, degree + 1):
        nb = np.zeros((x.size, m - d))
        for i in range(m - d):
            left = t[i + d] - t[i]
            if left > 0:
                nb[:, i] += (x - t[i]) / left * b[:, i]
            right = t[i + d + 1] - t[i + 1]
            if right > 0:
                nb[:, i] += (t[i + d + 1] - x) / right * b[:, i + 1]
        b = nb
    return b[:, :num_basis]


@dataclass(eq=False)
class FilterBank:
    """Spline or RBF filter bank over a normalized spectral domain.

    coefficients has one row per filter; evaluation is B(x) @ coefficients.T.
    With normalize=True the filters sum to one across the bank for every
    eigenvalue in the domain (coefficient columns renormalized for splines,
    pointwise response normalization for RBFs).
    """

    kind: str
    num_basis: int
    coefficients: np.ndarray
    centers: np.ndarray
    widths: np.ndarray | None = None
    degree: int = 3
    normalize: bool = False
    lambda_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("spline", "rbf"):
            raise InvalidParams(f"unknown bank kind {self.kind!r}")
        self.coefficients = np.atleast_2d(
            np.asarray(self.coefficients, dtype=np.float64)
        )
        if self.coefficients.shape[1] != self.num_basis:
            raise InvalidParams("coefficient columns must match num_basis")
        if self.kind == "spline":
            self.degree = min(self.degree, self.num_basis - 1)
            if self.normalize:
                colsum = self.coefficients.sum(axis=0)
                if np.any(np.abs(colsum) < 1e-12):
                    raise InvalidParams("cannot normalize zero coefficient columns")
                self.coefficients = self.coefficients / colsum[None, :]

    @property
    def num_filters(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def spline(
        cls,
        num_basis: int,
        coefficients: np.ndarray | None = None,
        degree: int = 3,
        normalize: bool = False,
        lambda_max: float = 1.0,
    ) -> FilterBank:
        if coefficients is None:
            coefficients = np.eye(num_basis)
        degree = min(degree, num_basis - 1)
        # Greville abscissae serve as nominal centers of the spline basis
        t = bspline_knots(num_basis, degree)
        centers = np.array(
            [t[i + 1 : i + degree + 1].mean() if degree else t[i] for i in range(num_basis)]
        )
        return cls(
            kind="spline",
            num_basis=num_basis,
            coefficients=coefficients,
            centers=centers,
            degree=degree,
            normalize=normalize,
            lambda_max=lambda_max,
        )

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
        if centers is None:
            centers = np.linspace(0.0, 1.0, num_basis) if num_basis > 1 else np.array([0.5])
        centers = np.asarray(centers, dtype=np.float64)
        if widths is None:
            spacing = 1.0 / (num_basis - 1) if num_basis > 1 else 1.0
            widths = np.full(num_basis, spacing)
        widths = np.asarray(widths, dtype=np.float64)
        if coefficients is None:
            coefficients = np.eye(num_basis)
        return cls(
            kind="rbf",
            num_basis=num_basis,
            coefficients=coefficients,
            centers=centers,
            widths=widths,
            normalize=normalize,
            lambda_max=lambda_max,
        )

    def basis_matrix(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "spline":
            return bspline_design(x, self.num_basis, self.degree)
        diff = x[:, None] - self.centers[None, :]
        return np.exp(-0.5 * (diff / self.widths[None, :]) ** 2)

    # -- config file form ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "K": self.num_basis,
            "centers": self.centers.tolist(),
            "widths": self.widths.tolist() if self.widths is not None else None,
            "degree": self.degree,
            "knots": bspline_knots(self.num_basis, self.degree).tolist()
            if self.kind == "spline"
            else None,
            "coefficients": self.coefficients.tolist(),
            "normalize": self.normalize,
            "lambda_max": self.lambda_max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FilterBank:
        kind = data["kind"]
        coeff = np.asarray(data["coefficients"], dtype=np.float64)
        if kind == "spline":
            return cls.spline(
                num_basis=data["K"],
                coefficients=coeff,
                degree=data.get("degree", 3),
                normalize=data.get("normalize", False),
                lambda_max=data.get("lambda_max", 1.0),
            )
        return cls.rbf(
            num_basis=data["K"],
            centers=np.asarray(data["centers"], dtype=np.float64)
            if data.get("centers") is not None
            else None,
            widths=np.asarray(data["widths"], dtype=np.float64)
            if data.get("widths") is not None
            else None,
            coefficients=coeff,
            normalize=data.get("normalize", False),
            lambda_max=data.get("lambda_max", 1.0),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path: str) -> FilterBank:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def eval_bank(bank: FilterBank, lambdas: np.ndarray) -> np.ndarray:
    """Filter responses, one column per filter, at the given eigenvalues."""
    lam = np.asarray(lambdas, dtype=np.float64)
    top = bank.lambda_max
    if np.any(lam < -top * _DOMAIN_SLACK) or np.any(lam > top * (1.0 + _DOMAIN_SLACK)):
        raise DomainError(
            f"eigenvalues outside [0, {top}] beyond the {_DOMAIN_SLACK} slack"
        )
    x = np.clip(lam / top if top > 0 else lam, 0.0, 1.0)
    resp = bank.basis_matrix(x) @ bank.coefficients.T
    if bank.normalize and bank.kind == "rbf":
        total = resp.sum(axis=1, keepdims=True)
        if np.any(np.abs(total) < 1e-300):
            raise DomainError("normalized RBF bank has zero total response")
        resp = resp / total
    return resp


# ---------------------------------------------------------------------------
# spectral filters usable inside the layer


class SpectralFilter:
    """Diagonal spectral multiplier; subclasses pick raw or normalized axis."""

    def values(self, lam: np.ndarray, lam_max: float) -> np.ndarray:
        raise NotImplementedError


class UnitFilter(SpectralFilter):
    def values(self, lam, lam_max):
        return np.ones_like(np.asarray(lam, dtype=np.float64))


class BankFilter(SpectralFilter):
    """One response from a bank, evaluated on the normalized spectrum."""

    def __init__(self, bank: FilterBank, index: int = 0):
        if not 0 <= index < bank.num_filters:
            raise InvalidParams(f"bank has {bank.num_filters} filters, not {index}")
        self.bank = bank
        self.index = index

    def values(self, lam, lam_max):
        lam = np.asarray(lam, dtype=np.float64)
        if self.bank.lambda_max == 1.0 and lam_max > 0:
            scaled = lam / lam_max
        else:
            scaled = lam
        return eval_bank(self.bank, scaled)[:, self.index]


class CallableFilter(SpectralFilter):
    """Arbitrary response g(lambda) on the raw eigenvalue axis."""

    def __init__(self, fn):
        self.fn = fn

    def values(self, lam, lam_max):
        return np.asarray(self.fn(np.asarray(lam, dtype=np.float64)))


def poly_filter(coeffs) -> CallableFilter:
    c = [float(v) for v in coeffs]
    return CallableFilter(lambda lam: sum(ci * lam**i for i, ci in enumerate(c)))


def heat_filter(t: float) -> CallableFilter:
    return CallableFilter(lambda lam: np.exp(-t * lam))


@dataclass(eq=False)
class FilterLayerConfig:
    """Global response plus one local response per tree node (r, p)."""

    global_filter: SpectralFilter = field(default_factory=UnitFilter)
    node_filters: dict[int, SpectralFilter] = field(default_factory=dict)

    def validate(self, f: FactorizedGft) -> None:
        known = {nd.id for nd in f.plan.nodes}
        bad = set(self.node_filters) - known
        if bad:
            raise ConfigMismatch(f"filters reference unknown tree nodes {sorted(bad)}")


def _node_multiplier(cfg, f, nid) -> np.ndarray | None:
    filt = cfg.node_filters.get(nid)
    if filt is None:
        return None
    lam = f.level_lambdas[nid]
    lam_max = float(lam[-1]) if lam.size and lam[-1] > 0 else 1.0
    return filt.values(lam, lam_max)


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
    scales = {nid: _node_multiplier(cfg, f, nid) for nid in cfg.node_filters}
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
    lam = f.lambda_final
    lam_max = float(lam[-1]) if lam.size and lam[-1] > 0 else 1.0
    g = cfg.global_filter.values(lam, lam_max)
    out = f.inverse(g[:, None] * spec)
    return out[:, 0] if vec else out


def euler_step(
    f: FactorizedGft,
    cfg: FilterLayerConfig,
    x: np.ndarray,
    step_size: float,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """One explicit Euler update x + eps * layer(x) W with a fixed weight."""
    arr, vec = f._check_rows(x)
    update = apply_layer(f, cfg, arr)
    if weight is not None:
        update = update @ np.asarray(weight, dtype=np.float64)
    out = arr + step_size * update
    return out[:, 0] if vec else out
