"""Rank-one symmetric eigenvalue updates: deflation, secular roots, Cauchy factors.

Given diag(lam) + rho * z z^T, the updated eigenvalues are the roots of

    w(mu) = 1 + rho * sum_i z_i^2 / (lam_i - mu) = 0,

one per interleaving bracket (lam_j, lam_j+1). The updated eigenvectors, in
the old eigenbasis, are the columns of an orthogonal Cauchy-like matrix with
entries proportional to z_i / (lam_i - mu_j). Repeated eigenvalues and zero
projections are removed first by deflation (one table of Householder
reflectors over the degenerate clusters, then dropping zero components).

Numerical notes that the tolerances of this package depend on:

* every root is stored as (origin index, offset) so that differences
  lam_i - mu_j are formed without catastrophic cancellation near poles;
* after root finding, z is recomputed from the roots (the Loewner / inverse
  eigenvalue identity), which makes (lam, z, roots) an exactly consistent
  triple and the resulting Cauchy columns orthogonal to machine precision
  even for tightly clustered spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import F64, I64
from .errors import BracketFailure, DimensionMismatch, InvalidParams

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# elements per operand of each BLAS product in the factor assembly and the
# Cauchy apply. Those products sum across row/column chunks of this size,
# so resizing it changes the rounding of every factor: keep it fixed.
_CHUNK_ELEMS = 4_000_000
# elements per temporary of one cache block (512 KiB): the secular sweep and
# the elementwise parts of the assembly and apply work in row blocks of this
# size, so their few temporaries stay in one core's L2 cache instead of
# streaming through DRAM on every pass. Each element and each row reduction
# is computed on its own, so this size moves speed, never bits.
_BLOCK_ELEMS = 1 << 16
# largest pole count whose split sums use the 0/1 mask (einsum) path. The
# two paths round differently and perfbench/counts.json pins the work of
# both, so the limit stays where the counts were recorded
_MASK_MAX_M = 1024
# guarded rational-model steps per secular root, then as many bisection
# sweeps before a root still open raises BracketFailure
_MODEL_STEPS = 100


def default_tolerances(
    lam: np.ndarray, z: np.ndarray, rho: float
) -> tuple[float, float]:
    """Deflation thresholds: 8 eps * (|z| sqrt(rho) + diam) and 8 eps * diam."""
    if not rho > 0.0:
        raise InvalidParams(f"rho must be positive, got {rho}")
    diam = float(lam[-1] - lam[0]) if lam.size else 0.0
    zn = float(np.linalg.norm(z)) * np.sqrt(rho)
    tol_z = 8.0 * _EPS * (zn + diam) + _TINY
    tol_lambda = 8.0 * _EPS * diam
    return tol_z, tol_lambda


@dataclass(frozen=True, eq=False)
class Reflectors:
    """Householder reflectors of one update's repeated-eigenvalue clusters.

    Cluster k acts on positions [starts[k], stops[k]) as H = I - 2 u u^T, u
    its unit vector (all lie end to end in `vectors`), then multiplies its
    first coordinate by first_signs[k]: its z-mass lands there as +||z||.
    """

    starts: I64
    stops: I64
    first_signs: F64
    vectors: F64

    def apply_inplace(self, x: np.ndarray, transpose: bool = False) -> None:
        """Reflect the rows of x in place; transposed, each flip comes first."""
        at = 0
        for i, j, sign in zip(
            self.starts.tolist(), self.stops.tolist(), self.first_signs.tolist()
        ):
            u = self.vectors[at : at + j - i]
            at += j - i
            if transpose:
                x[i] *= sign
            blk = x[i:j]
            blk -= np.multiply.outer(2.0 * u, u @ blk)
            if not transpose:
                x[i] *= sign


@dataclass(frozen=True, eq=False)
class DeflationRecord:
    """Partition of spectral indices for one rank-one update.

    kept: indices that enter the secular solve (all |z| > tol_z, eigenvalues
    pairwise separated by > tol_lambda). dropped_zero: zero projections left
    untouched (Case 1). rotated: cluster members whose z-mass `reflectors`
    moved onto the cluster head (Case 2). z_deflated: the z entries over
    `kept` after the reflectors.
    """

    kept: I64
    dropped_zero: I64
    rotated: I64
    reflectors: Reflectors
    z_deflated: F64


@dataclass(frozen=True, eq=False)
class SecularSolution:
    """Roots of the secular equation for one deflated update.

    Root j is lambda_old[origins[j]] + offsets[j]; keeping the (origin,
    offset) pair preserves full relative accuracy of the pole distances
    used everywhere downstream.
    """

    lambda_old: F64
    z: F64
    rho: float
    origins: I64
    offsets: F64

    @property
    def lambda_new(self) -> np.ndarray:
        """The updated eigenvalues, rebuilt from (origin, offset) pairs."""
        return self.lambda_old[self.origins] + self.offsets

    @property
    def trace_defect(self) -> float:
        """|sum(new) - sum(old) - rho ||z||^2|, which trace conservation bounds."""
        shift = np.sum(self.lambda_old[self.origins] - self.lambda_old)
        return float(abs(shift + np.sum(self.offsets) - self.rho * (self.z @ self.z)))


@dataclass(eq=False)
class CauchyFactor:
    """Structured orthogonal transform of one rank-one update.

    Acts on the merge's positions as identity outside `affected` (the
    deflation's kept indices): forward = post-deflation Cauchy-block
    transpose after the deflation's reflector table, i.e. the map from
    old-basis to new-basis spectral coefficients. Only O(|affected|) data
    is stored; the column signs are derived on construction and the dense
    Cauchy block is rebuilt in column chunks on every apply.
    """

    solution: SecularSolution
    affected: I64
    reflectors: Reflectors
    zhat: F64                # Loewner-consistent z over `affected`
    column_norms: F64
    column_signs: F64 = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # every column's first affected entry is zhat_0/(d_0 - mu_j); the
        # sign flip makes it positive
        sol = self.solution
        d = sol.lambda_old
        row0_mu = (d[sol.origins] - d[:1]) + sol.offsets
        self.column_signs = np.where(self.zhat[:1] * row0_mu <= 0.0, 1.0, -1.0)

    def apply_inplace(self, y: np.ndarray, transpose: bool = False) -> None:
        """Multiply an (r, c) array over the merge's positions in place."""
        if not transpose:
            self.reflectors.apply_inplace(y)
        if self.affected.size:
            y[self.affected] = _cauchy_apply(
                self.solution, self.zhat, self.column_norms,
                self.column_signs, y[self.affected], transpose=not transpose,
            )
        if transpose:
            self.reflectors.apply_inplace(y, transpose=True)


# ---------------------------------------------------------------------------
# deflation


def deflate(lam: np.ndarray, z: np.ndarray, rho: float = 1.0) -> DeflationRecord:
    """Reduce (lam ascending, z) to a strictly-separated all-nonzero core.

    With (tol_z, tol_lambda) = default_tolerances(lam, z, rho): Case 2
    first, within each cluster of eigenvalues closer than tol_lambda
    (chained), a Householder reflector concentrates the cluster's z-mass on
    its first index. Case 1 second: indices with |z| <= tol_z are dropped.
    Worst case everything deflates and `kept` is empty.
    """
    lam = np.asarray(lam, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if lam.shape != z.shape or lam.ndim != 1:
        raise DimensionMismatch("lambda and z must be 1-D of equal length")
    if lam.size and np.any(np.diff(lam) < 0.0):
        raise InvalidParams("eigenvalues must be ascending")
    m = lam.size
    tol_z, tol_lambda = default_tolerances(lam, z, rho)

    zd = z.copy()
    # a cluster [i, j) is a maximal run of gaps lam[k+1] - lam[k] <= tol_lambda
    # for k in [i, j - 1); the padded flags rise at i and fall at j - 1, and
    # close[k] marks a member k that is not its cluster's head
    close = np.concatenate(([False], lam[1:] - lam[:-1] <= tol_lambda, [False]))
    edges = np.flatnonzero(close[1:] != close[:-1])
    starts, stops = edges[0::2], edges[1::2] + 1
    signs = np.zeros(starts.size)  # stays 0 where a cluster has no z-mass to move
    vectors = [np.zeros(0)]
    for c, (i, j) in enumerate(zip(starts.tolist(), stops.tolist())):
        zb = zd[i:j]
        nrm = float(np.linalg.norm(zb))
        if nrm > 0.0:
            sgn = 1.0 if zb[0] >= 0.0 else -1.0
            u = zb.copy()
            u[0] += sgn * nrm  # no cancellation: |u_0| >= nrm
            u /= np.linalg.norm(u)
            signs[c] = -sgn
            vectors.append(u)
            zd[i] = nrm
            zd[i + 1 : j] = 0.0

    alive = ~close[:m]
    small = alive & (np.abs(zd) <= tol_z)
    kept = np.flatnonzero(alive & ~small)
    live = signs != 0.0
    return DeflationRecord(
        kept=kept,
        dropped_zero=np.flatnonzero(small),
        rotated=np.flatnonzero(close[:m]),
        reflectors=Reflectors(starts[live], stops[live], signs[live], np.concatenate(vectors)),
        z_deflated=zd[kept],
    )


# ---------------------------------------------------------------------------
# secular roots


def _split_sums(d, zeta, origins, tau, p_left):
    """psi/phi value+derivative sums at mu = d[origins] + tau, split at p_left.

    psi covers terms i <= p_left, phi the rest; derivatives are wrt mu. The
    split halves only steer the rational model. Up to _MASK_MAX_M poles psi
    comes from einsum against a 0/1 mask (row k holds 1 in columns up to
    p_left[k]) and phi is the pairwise row total minus psi; above it both
    are segment sums of one reduceat over the row block. The two paths
    round differently, so the limit is part of every recorded factor.

    Roots are swept in row blocks of about _BLOCK_ELEMS elements whose two
    temporaries (three with the mask; t/delta overwrites delta) stay cache
    resident. Every root's row is reduced on its own, so the block size
    never changes a bit of the result.
    """
    m = d.size
    k = tau.size
    psi = np.empty(k)
    dpsi = np.empty(k)
    phi = np.empty(k)
    dphi = np.empty(k)
    step = max(1, _BLOCK_ELEMS // max(m, 1))
    rows = min(step, k)
    delta = np.empty((rows, m))
    t = np.empty((rows, m))
    if m <= _MASK_MAX_M:
        mask = np.empty((rows, m))
        cols = np.arange(m)
    else:
        bounds = np.empty(2 * rows, dtype=np.intp)
        row_starts = np.arange(rows) * m
    for s in range(0, k, step):
        sl = slice(s, min(s + step, k))
        r = sl.stop - sl.start
        dl, tl = delta[:r], t[:r]
        np.subtract(d[None, :], d[origins[sl], None], out=dl)
        dl -= tau[sl, None]
        np.divide(zeta[None, :], dl, out=tl)
        t2l = np.divide(tl, dl, out=dl)
        if m <= _MASK_MAX_M:
            ml = np.less_equal(cols, p_left[sl, None], out=mask[:r])
            left = np.einsum("ij,ij->i", tl, ml)
            left2 = np.einsum("ij,ij->i", t2l, ml)
            psi[sl] = left
            phi[sl] = np.sum(tl, axis=1) - left
            dpsi[sl] = left2
            dphi[sl] = np.sum(t2l, axis=1) - left2
        else:
            # each root's row splits into its left segment (columns up to
            # its split) and its right one; one reduceat sums both, mask-free
            bl = bounds[: 2 * r]
            bl[0::2] = row_starts[:r]
            bl[1::2] = row_starts[:r] + p_left[sl] + 1
            seg = np.add.reduceat(tl.reshape(-1), bl)
            seg2 = np.add.reduceat(t2l.reshape(-1), bl)
            psi[sl], phi[sl] = seg[0::2], seg[1::2]
            dpsi[sl], dphi[sl] = seg2[0::2], seg2[1::2]
    return psi, dpsi, phi, dphi


def _model_step(tau, lo, hi, psi, dpsi, phi, dphi, dl, dr):
    """One guarded step of the two-pole rational model.

    Fits C + A/(dl - t) + B/(dr - t) to (value, derivative) of psi at pole dl
    and phi at pole dr, solves for its root, and falls back to bisection
    whenever the candidate is not strictly inside the current bracket.
    """
    wl = dl - tau
    wr = dr - tau
    a_co = dpsi * wl * wl
    b_co = dphi * wr * wr
    c_co = 1.0 + (psi - dpsi * wl) + (phi - dphi * wr)

    qa = c_co
    qb = -(c_co * (dl + dr) + a_co + b_co)
    qc = c_co * dl * dr + a_co * dr + b_co * dl

    disc = qb * qb - 4.0 * qa * qc
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    qq = -0.5 * (qb + np.where(qb >= 0.0, sq, -sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(qa != 0.0, qq / qa, np.inf)
        r2 = np.where(qq != 0.0, qc / qq, np.inf)
    in1 = ok & (r1 > lo) & (r1 < hi)
    in2 = ok & (r2 > lo) & (r2 < hi)
    # prefer the root inside the pole interval; bisect when neither lands
    cand = np.where(in1, r1, np.where(in2, r2, 0.5 * (lo + hi)))
    both = in1 & in2
    if np.any(both):
        # keep the one between the poles (the model is monotone there)
        between1 = (r1 > np.minimum(dl, dr)) & (r1 < np.maximum(dl, dr))
        cand = np.where(both & ~between1, r2, cand)
    return cand


def _solve_two(gap: float, z0: float, z1: float):
    """Closed-form roots for m = 2, every branch in cancellation-free form.

    Shifted to d[1], the secular polynomial is s^2 + s(gap - z0 - z1) - z1 gap
    with one root on each side of d[1]; the positive one is root 1's offset
    and the product identity recovers root 0 from it without cancellation.
    """
    lin = gap - z0 - z1
    disc = np.sqrt(lin * lin + 4.0 * z1 * gap)
    tau1 = 2.0 * z1 * gap / (lin + disc) if lin >= 0.0 else 0.5 * (disc - lin)
    # root 0 lives in (0, gap); pick its origin from the midpoint sign
    f_mid = 1.0 + 2.0 * (z1 - z0) / gap
    if f_mid >= 0.0:
        b = gap + z0 + z1  # shifted to d[0]: tau^2 - b tau + z0 gap = 0
        c = z0 * gap
        tau0 = 2.0 * c / (b + np.sqrt(b * b - 4.0 * c))
        o0 = 0
    else:
        tau0 = -z1 * gap / tau1
        o0 = 1
    return np.array([o0, 1], dtype=np.int64), np.array([tau0, tau1])


def _solve_roots(d, zeta):
    """All m >= 1 roots of 1 + sum zeta_i/(d_i - mu), d strictly ascending, zeta > 0.

    Returns (origins, tau) with root_j = d[origins[j]] + tau[j]; roots come
    out bracket-sorted. Vectorized over roots; bisection-safeguarded. Raises
    BracketFailure if any root is still uncertified after _MODEL_STEPS model
    steps and _MODEL_STEPS bisection sweeps.
    """
    m = d.size
    if m == 1:
        return np.zeros(1, dtype=np.int64), np.array([zeta[0]])
    if m == 2:
        return _solve_two(float(d[1] - d[0]), float(zeta[0]), float(zeta[1]))

    zsum = float(np.sum(zeta))
    origins = np.empty(m, dtype=np.int64)
    p_left = np.empty(m, dtype=np.int64)
    tau = np.empty(m)
    lo = np.empty(m)
    hi = np.empty(m)

    idx = np.arange(m - 1)
    gaps = d[1:] - d[:-1]
    # phase A: evaluate at bracket midpoints (origin = left pole everywhere)
    origins[: m - 1] = idx
    origins[m - 1] = m - 1
    p_left[: m - 1] = idx
    p_left[m - 1] = m - 2
    tau[: m - 1] = 0.5 * gaps
    tau[m - 1] = 0.5 * zsum
    psi, dpsi, phi, dphi = _split_sums(d, zeta, origins, tau, p_left)
    f = 1.0 + psi + phi

    # place each interior origin at the nearer pole; the evaluated midpoint
    # becomes one certified bracket endpoint, the pole the (virtual) other
    right = f[: m - 1] < 0.0
    origins[: m - 1] = np.where(right, idx + 1, idx)
    tau[: m - 1] = np.where(right, -0.5 * gaps, 0.5 * gaps)
    lo[: m - 1] = np.where(right, tau[: m - 1], 0.0)
    hi[: m - 1] = np.where(right, 0.0, tau[: m - 1])
    if f[m - 1] < 0.0:
        lo[m - 1], hi[m - 1] = tau[m - 1], zsum
    else:
        lo[m - 1], hi[m - 1] = 0.0, tau[m - 1]

    # pole offsets relative to each root's origin
    dl = d[p_left] - d[origins]
    dr = d[p_left + 1] - d[origins]

    done = np.zeros(m, dtype=bool)
    # residual floor: per-term rounding plus pairwise-summation growth; a
    # threshold below this stalls every root into bisection at large m
    resid_tol = 8.0 * _EPS * (2.0 + np.log2(m))
    sweeps = 2 * _MODEL_STEPS
    # one pass more than there are sweeps, so the last sweep's iterates are
    # certified before any root is declared unconverged
    for sweep in range(sweeps + 1):
        scale = 1.0 + np.abs(psi) + np.abs(phi)
        resid_ok = np.abs(f) <= resid_tol * scale
        width = hi - lo
        width_ok = width <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + 4.0 * _TINY
        done |= resid_ok | width_ok
        if np.all(done):
            break
        if sweep == sweeps:
            raise BracketFailure(
                f"{int(np.sum(~done))} of {m} secular roots uncertified "
                f"after {sweeps} sweeps"
            )
        act = np.flatnonzero(~done)
        if sweep < _MODEL_STEPS:
            step = _model_step(
                tau[act], lo[act], hi[act],
                psi[act], dpsi[act], phi[act], dphi[act],
                dl[act], dr[act],
            )
        else:
            step = 0.5 * (lo[act] + hi[act])  # bisect once the model steps run out
        tau[act] = step
        psi_a, dpsi_a, phi_a, dphi_a = _split_sums(
            d, zeta, origins[act], tau[act], p_left[act]
        )
        psi[act], dpsi[act], phi[act], dphi[act] = psi_a, dpsi_a, phi_a, dphi_a
        f_a = 1.0 + psi_a + phi_a
        f[act] = f_a
        neg = f_a < 0.0
        lo[act] = np.where(neg, tau[act], lo[act])
        hi[act] = np.where(neg, hi[act], tau[act])

    if not np.all(np.isfinite(tau)):
        raise BracketFailure("nonfinite secular iterate; deflate harder upstream")
    return origins, tau


def solve_secular(
    lambda_old: np.ndarray, z: np.ndarray, rho: float
) -> SecularSolution:
    """Roots of 1 + rho sum z_i^2/(lam_i - mu) = 0, one per interleaving bracket.

    Requires rho > 0, strictly ascending lambda_old and all z nonzero (run
    deflate first).
    """
    lam = np.asarray(lambda_old, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if lam.shape != z.shape or lam.ndim != 1:
        raise DimensionMismatch("lambda and z must be 1-D of equal length")
    if not rho > 0.0:
        raise InvalidParams(f"rho must be positive, got {rho}")
    if lam.size == 0:
        return SecularSolution(
            lambda_old=lam, z=z, rho=rho,
            origins=np.zeros(0, dtype=np.int64), offsets=np.zeros(0),
        )
    if np.any(np.diff(lam) <= 0.0):
        raise BracketFailure("eigenvalues not strictly ascending after deflation")
    if np.any(z == 0.0):
        raise BracketFailure("zero z entry reached the root finder")

    zeta = rho * z * z
    origins, tau = _solve_roots(lam, zeta)
    return SecularSolution(
        lambda_old=lam, z=z, rho=rho, origins=origins, offsets=tau,
    )


def secular_residuals(sol: SecularSolution) -> np.ndarray:
    """|w(lambda_new_j)| through the offsets, one row sum per root, in row blocks."""
    d = sol.lambda_old
    zeta = sol.rho * sol.z * sol.z
    out = np.empty(d.size)
    step = max(1, _BLOCK_ELEMS // max(d.size, 1))
    for s in range(0, d.size, step):
        sl = slice(s, min(s + step, d.size))
        delta = (d[None, :] - d[sol.origins[sl], None]) - sol.offsets[sl, None]
        out[sl] = np.abs(1.0 + np.sum(zeta / delta, axis=1))
    return out


# ---------------------------------------------------------------------------
# Cauchy factor assembly


def _assemble_factor_data(d, origins, tau, rho, z_signs):
    """Loewner-consistent z and column norms in one m x m pass.

    zhat_i^2 = prod_j (mu_j - d_i) / (rho prod_{k != i} (d_k - d_i)) (paired
    O(1) ratios so products never overflow); column norms accumulate from
    the same pole distances, one BLAS product per _CHUNK_ELEMS chunk of
    rows whose inverse squares are filled in cache blocks. At m = 1 the one
    ratio is (mu_0 - d_0) / rho = tau_0 / rho exactly.
    """
    m = d.size
    zh = np.empty(m)
    norm2 = np.zeros(m)
    mu = d[origins]
    rows_step = max(1, _CHUNK_ELEMS // m)
    blk = max(1, _BLOCK_ELEMS // m)
    inv_mu2 = np.empty((min(rows_step, m), m))
    ratio = np.empty((min(blk, m), m))
    for s in range(0, m, rows_step):
        sl = slice(s, min(s + rows_step, m))
        for b in range(sl.start, sl.stop, blk):
            e = min(b + blk, sl.stop)
            di = d[b:e, None]
            mu_minus = (mu[None, :] - di) + tau[None, :]  # mu_j - d_i
            # row i pairs column j with d_j - d_i for j < i and with
            # d_{j+1} - d_i for j >= i; only the band b <= j < e - 1 holds
            # both kinds among rows b..e-1
            dd = d[None, :] - di                      # d_j - d_i
            rl = ratio[: e - b]
            hi = e - 1
            np.divide(mu_minus[:, :b], dd[:, :b], out=rl[:, :b])
            jlt = np.arange(b, hi)[None, :] < np.arange(b, e)[:, None]
            band = np.where(jlt, dd[:, b:hi], dd[:, b + 1 : hi + 1])
            np.divide(mu_minus[:, b:hi], band, out=rl[:, b:hi])
            np.divide(mu_minus[:, hi : m - 1], dd[:, hi + 1 :], out=rl[:, hi : m - 1])
            np.divide(mu_minus[:, m - 1], rho, out=rl[:, m - 1])
            zh[b:e] = np.sqrt(np.abs(np.prod(rl, axis=1)))
            inv = inv_mu2[b - s : e - s]
            np.multiply(mu_minus, mu_minus, out=inv)
            np.divide(1.0, inv, out=inv)
        norm2 += (zh[sl] * zh[sl]) @ inv_mu2[: sl.stop - sl.start]
    return z_signs * zh, np.sqrt(norm2)


def _cauchy_columns(d, origins, tau, zhat, norms, signs, col_idx):
    """Dense columns C[:, col_idx]; C[i, j] = s_j zhat_i / ((d_i - mu_j) nu_j).

    Filled in row blocks of about _BLOCK_ELEMS elements, in place.
    """
    mu = d[origins[col_idx]][None, :]
    tau_j = tau[col_idx][None, :]
    scale = (signs[col_idx] / norms[col_idx])[None, :]
    cols = np.empty((d.size, col_idx.size))
    step = max(1, _BLOCK_ELEMS // max(col_idx.size, 1))
    for s in range(0, d.size, step):
        sl = slice(s, min(s + step, d.size))
        blk = cols[sl]
        np.subtract(d[sl, None], mu, out=blk)
        blk -= tau_j
        np.divide(zhat[sl, None], blk, out=blk)
        blk *= scale
    return cols


def _cauchy_apply(sol, zhat, norms, signs, x, transpose):
    """C @ x or C^T @ x over the affected block, built in column chunks."""
    d = sol.lambda_old
    m = d.size
    shape = x.shape
    x = x.reshape(m, -1)
    out = np.zeros_like(x)
    step = max(1, _CHUNK_ELEMS // max(m, 1))
    for s in range(0, m, step):
        ji = np.arange(s, min(s + step, m))
        cblk = _cauchy_columns(d, sol.origins, sol.offsets, zhat, norms, signs, ji)
        if transpose:
            out[ji] = cblk.T @ x
        else:
            out += cblk @ x[ji]
    return out.reshape(shape)


def build_cauchy_factor(record: DeflationRecord, sol: SecularSolution) -> CauchyFactor:
    """Assemble the orthogonal factor for a deflated, solved rank-one update.

    `record` indices define the factor's coordinate space. An empty kept set
    yields an identity factor.
    """
    zhat = norms = np.zeros(0)
    if record.kept.size:
        zhat, norms = _assemble_factor_data(
            sol.lambda_old, sol.origins, sol.offsets, sol.rho, np.sign(sol.z)
        )
    return CauchyFactor(
        solution=sol, affected=record.kept,
        reflectors=record.reflectors,
        zhat=zhat, column_norms=norms,
    )


def rank_one_update_factor(
    lam: np.ndarray, z: np.ndarray, rho: float = 1.0
) -> tuple[CauchyFactor, np.ndarray]:
    """Deflate, solve and assemble one update; also return the new eigenvalues.

    The returned eigenvalue array is in the factor's (pre-sort) coordinate
    order: kept slots carry the secular roots, all others are unchanged.
    """
    lam = np.asarray(lam, dtype=np.float64)
    record = deflate(lam, z, rho=rho)
    sol = solve_secular(lam[record.kept], record.z_deflated, rho)
    factor = build_cauchy_factor(record, sol)
    lam_new = lam.copy()
    lam_new[record.kept] = sol.lambda_new
    return factor, lam_new
