"""Sampling the interface, continuum interpolation and scaling statistics.

Sampling solves against the precision: with w i.i.d. standard normal on the
lattice, the vector y = Delta_1 w restricted to R_h has covariance exactly
equal to the precision matrix A (the normalized Laplacian is the symmetric
square root of the bilaplacian), so phi = A^{-1} y is an exact draw from
N(0, A^{-1}).  Each sample costs one solve against the shared solver.

The continuum interpolation on the box (-1,1)^d splits every lattice cell
into d! simplices by the ordering of the fractional parts of N*t and is
affine on each piece:

    Psi_N(t) = kappa N^{(d-4)/2} [ phi_a
               + sum_k f_(k) (phi_{v_k} - phi_{v_{k-1}}) ]

where a = floor(N t), f_(1) >= ... >= f_(d) are the sorted fractional parts,
and v_k advances from a one unit along the axis of the k-th largest
fractional part.  At lattice points this reduces to kappa N^{(d-4)/2}
phi_{Nt}; values of phi outside R_h are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .green import GreenTable, PrecisionMatrix, assemble_precision, solve_block
from .lattice import GridDomain, apply_stencil_array, classify, field_on_grid, kappa, stencil_weights, unit_box


@dataclass
class FieldSample:
    """One realization of the interface on R_h (zero outside by convention)."""

    domain: GridDomain
    values: np.ndarray         # (n_rh,)
    seed: int
    stream: int

    def on_grid(self) -> np.ndarray:
        return field_on_grid(self.domain, self.values)


def _sample_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


def sample(
    precision: PrecisionMatrix, seed: int, count: int, stream: int = 0
) -> list:
    """Draw `count` independent N(0, A^{-1}) samples.

    Streams are keyed by (seed, stream, sample index), so samples are
    reproducible independent of scheduling.
    """
    if count < 0:
        raise ValueError(f"count={count} is negative")
    dom = precision.domain
    st1 = stencil_weights("delta1", dom.d)
    rh_loc = tuple((dom.rh_points - dom.origin).T)
    out = []
    for i in range(count):
        rng = _sample_rng(seed, stream, i)
        w = rng.standard_normal(dom.mask_shape)
        y = apply_stencil_array(w, st1)[rh_loc]
        phi = precision.solve(y)
        out.append(FieldSample(domain=dom, values=phi, seed=seed, stream=stream))
    return out


# ---------------------------------------------------------------------------
# simplex interpolation

def field_prefactor(d: int, N: int) -> float:
    """kappa N^{(d-4)/2}, the scale that turns phi into Psi_N."""
    return kappa(d) * float(N) ** ((d - 4) / 2.0)


def simplex_weights(t: np.ndarray, N: int):
    """Barycentric decomposition of points t (..., d) at scale N.

    Returns the simplex vertices (..., d+1, d) as integer lattice points and
    their weights (..., d+1).  Fractional parts are sorted along the last
    axis; ties resolve by axis order, which both adjacent simplex formulas
    agree on.
    """
    p = np.asarray(t, dtype=float) * N
    a = np.floor(p).astype(np.int64)
    frac = p - a
    order = np.argsort(-frac, axis=-1, kind="stable")
    fs = np.take_along_axis(frac, order, axis=-1)
    # v_k = a + e_{order[0]} + ... + e_{order[k-1]}
    steps = np.cumsum(np.eye(p.shape[-1], dtype=np.int64)[order], axis=-2)
    verts = a[..., None, :] + np.concatenate([np.zeros_like(steps[..., :1, :]), steps], axis=-2)
    wts = np.concatenate([1.0 - fs[..., :1], fs[..., :-1] - fs[..., 1:], fs[..., -1:]], axis=-1)
    return verts, wts


@dataclass
class InterpolatedField:
    """Continuous simplex extension of a sampled field at scale N on (-1,1)^d."""

    sample: FieldSample
    N: int

    def __post_init__(self):
        if self.sample.domain.d not in (2, 3):
            raise ValueError("interpolation is defined for d in {2, 3}")

    @property
    def d(self) -> int:
        return self.sample.domain.d

    @property
    def prefactor(self) -> float:
        return field_prefactor(self.d, self.N)

    def evaluate(self, t: Sequence[float]) -> float:
        return float(self.evaluate_many(t))

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """Psi_N at points ts (..., d) as (...); raises ValueError outside the
        closed box or when the last axis is not d."""
        ts = np.asarray(ts, dtype=float)
        if np.any(np.abs(ts) > 1.0 + 1e-12):
            raise ValueError("evaluation point outside the closed box")
        verts, wts = simplex_weights(ts, self.N)
        j = self.sample.domain.rh_indices(verts)
        phi = np.where(j >= 0, self.sample.values[j], 0.0)
        acc = np.zeros(wts.shape[:-1])
        for k in range(self.d + 1):  # the vertex order of a per-point sum
            acc += wts[..., k] * phi[..., k]
        return self.prefactor * acc


def rescaled_max(sample_: FieldSample, d: int, N: int) -> float:
    """kappa N^{(d-4)/2} max over R_h of phi, the sup of the interpolated field."""
    return field_prefactor(d, N) * float(sample_.values.max())


# ---------------------------------------------------------------------------
# exact second moments of interpolated increments

def exact_increment_variance(table: GreenTable, t, s, d: int, N: int) -> float:
    """E |Psi_N(t) - Psi_N(s)|^2 = kappa^2 N^{d-4} w^T G w through a full
    covariance table G, w the pair's `increment_weights`; the reference of
    `moment_exponent`.  A columns table raises ValueError."""
    if table.mode != "full":
        raise ValueError("exact_increment_variance needs a full covariance table")
    w = increment_weights(np.atleast_2d(t), np.atleast_2d(s), N, table.domain)
    G = table.values[np.ix_(w.indices, w.indices)]
    return field_prefactor(d, N) ** 2 * float(w.data @ G @ w.data)


def increment_weights(ts: np.ndarray, ss: np.ndarray, N: int, domain: GridDomain) -> sp.csc_matrix:
    """Column p holds the signed weights of Psi(t_p) - Psi(s_p) on R_h, (n_rh, P).

    Vertices off R_h drop out (phi is zero there); a vertex shared by both
    simplices gets the sum of its two weights.
    """
    verts_t, w_t = simplex_weights(ts, N)
    verts_s, w_s = simplex_weights(ss, N)
    rows = domain.rh_indices(np.concatenate([verts_t, verts_s], axis=1))
    wts = np.concatenate([w_t, -w_s], axis=1)
    pair = np.broadcast_to(np.arange(len(ts))[:, None], rows.shape)
    on = rows >= 0
    return sp.csc_matrix((wts[on], (rows[on], pair[on])), shape=(domain.n_rh, len(ts)))


# ---------------------------------------------------------------------------
# recipes

MIN_FIT_PAIRS = 10  # pairs with a positive second moment needed for a fit
RESIDUAL_TOL = 1e-8  # max-norm residual |A X - W| of the increment solves


@dataclass
class MomentFit:
    d: int
    N: int
    n_pairs: int
    n_kept: int                # pairs with a positive second moment, used in the fit
    exponent: float
    distances: np.ndarray
    second_moments: np.ndarray
    max_residual: float        # worst max-norm residual of the n_pairs solves


def increment_pairs(d: int, n_pairs: int, seed: int, r_min: float, r_max: float):
    """Random pairs (t, s) as two (n_pairs, d) arrays, |t - s| log-uniform in [r_min, r_max].

    Base points stay in the bulk: the pinned frame has identically small
    increments that carry no information about the scaling exponent.
    """
    rng = np.random.default_rng(seed)
    ts, ss = [], []
    while len(ts) < n_pairs:
        t = rng.uniform(-0.7, 0.7, size=d)
        r = np.exp(rng.uniform(np.log(r_min), np.log(r_max)))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        s = t + r * u
        if np.all(np.abs(s) <= 1.0):
            ts.append(t)
            ss.append(s)
    return np.array(ts).reshape(-1, d), np.array(ss).reshape(-1, d)


def moment_exponent(
    precision: PrecisionMatrix,
    d: int,
    N: int,
    n_pairs: int = 200,
    seed: int = 7,
    r_min: Optional[float] = None,
    r_max: Optional[float] = None,
) -> MomentFit:
    """Fit of log E|Psi(t)-Psi(s)|^2 against log |t-s| over random pairs.

    Distances are drawn log-uniformly inside the field-scaling window: from a
    couple of lattice cells up to a fraction of the domain (1/8 in d=2 where
    the logarithmic increment correction flattens the slope near the domain
    scale, 1/4 in d=3).  Second moments are exact, no Monte Carlo: with w_p
    the pair's signed weights on R_h, E|Psi(t)-Psi(s)|^2 = kappa^2 N^{d-4} w_p^T A^{-1} w_p,
    one solve per pair.  Raises ValueError when the window is empty (in d=2
    the default r_min = 2/N reaches r_max at N <= 16) or fewer than
    MIN_FIT_PAIRS pairs have a positive second moment, and RuntimeError when
    a solve's residual is above RESIDUAL_TOL (or NaN).
    """
    if r_min is None:
        r_min = (2.0 if d == 2 else 1.5) / N
    if r_max is None:
        r_max = 0.125 if d == 2 else 0.25
    if r_min >= r_max:
        raise ValueError(f"distance window [{r_min:.4g}, {r_max:.4g}] is empty at N={N}")
    ts, ss = increment_pairs(d, n_pairs, seed, r_min, r_max)
    W = increment_weights(ts, ss, N, precision.domain)
    quad = np.empty(n_pairs)

    def take(c, X):  # w_p^T A^{-1} w_p for the batch's pairs
        quad[c] = np.asarray(W[:, c].multiply(X).sum(axis=0)).ravel()

    worst = solve_block(precision, W, take)
    if not worst <= RESIDUAL_TOL:
        raise RuntimeError(f"increment solve residual {worst:.3e} above {RESIDUAL_TOL:.0e}")
    mom = field_prefactor(d, N) ** 2 * quad
    dist = np.linalg.norm(ts - ss, axis=1)
    # pairs entirely inside the pinned boundary frame have exactly zero
    # increments and carry no exponent information
    keep = mom > 0
    n_kept = int(keep.sum())
    if n_kept < MIN_FIT_PAIRS:
        raise ValueError(
            f"only {n_kept} of {n_pairs} pairs have a positive second moment; "
            f"the fit needs {MIN_FIT_PAIRS}"
        )
    expo = float(np.polyfit(np.log(dist[keep]), np.log(mom[keep]), 1)[0])
    return MomentFit(
        d=d, N=N, n_pairs=n_pairs, n_kept=n_kept, exponent=expo,
        distances=dist, second_moments=mom, max_residual=worst,
    )


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


@dataclass
class MaxScalingReport:
    d: int
    Ns: Tuple[int, ...]
    maxima: dict               # N -> array of rescaled maxima
    ks: float


def max_scaling(d: int, Ns: Sequence[int], count: int, seed: int) -> MaxScalingReport:
    """Empirical distributions of the rescaled maximum at two or more distinct
    scales, and the KS distance between the first and the last."""
    if len(Ns) < 2 or len(set(Ns)) < len(Ns):
        raise ValueError(f"N={list(Ns)}: give two or more distinct scales")
    maxima = {}
    for stream, N in enumerate(Ns):
        dom = classify(unit_box(d), 1.0 / N)
        prec = assemble_precision(dom)
        samples = sample(prec, seed=seed, count=count, stream=stream)
        maxima[N] = np.array([rescaled_max(s, d, N) for s in samples])
    return MaxScalingReport(d=d, Ns=tuple(Ns), maxima=maxima, ks=ks_distance(maxima[Ns[0]], maxima[Ns[-1]]))
