"""Sampling the interface, continuum interpolation and scaling statistics.

Sampling uses the factorized precision: with w i.i.d. standard normal on the
lattice, the vector y = Delta_1 w restricted to R_h has covariance exactly
equal to the precision matrix A (the normalized Laplacian is the symmetric
square root of the bilaplacian), so phi = A^{-1} y is an exact draw from
N(0, A^{-1}).  Each sample costs one solve against the shared factorization.

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

from .green import GreenTable, PrecisionMatrix
from .lattice import GridDomain, field_on_grid, stencil_weights, apply_stencil_array


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

def simplex_weights(t: np.ndarray, N: int, d: int):
    """Barycentric decomposition of one point: list of (lattice point, weight).

    Ties among fractional parts resolve by axis order, which both adjacent
    simplex formulas agree on.
    """
    p = np.asarray(t, dtype=float) * N
    a = np.floor(p).astype(np.int64)
    frac = p - a
    order = np.argsort(-frac, kind="stable")
    fs = frac[order]
    verts = [a.copy()]
    v = a.copy()
    for k in range(d):
        v = v.copy()
        v[order[k]] += 1
        verts.append(v)
    wts = np.empty(d + 1)
    wts[0] = 1.0 - fs[0]
    for k in range(1, d):
        wts[k] = fs[k - 1] - fs[k]
    wts[d] = fs[d - 1]
    return verts, wts


@dataclass
class InterpolatedField:
    """Continuous simplex extension of a sampled field at scale N on (-1,1)^d."""

    sample: FieldSample
    N: int

    def __post_init__(self):
        d = self.sample.domain.d
        if d not in (2, 3):
            raise ValueError("interpolation is defined for d in {2, 3}")
        self._grid = self.sample.on_grid()
        self._origin = self.sample.domain.origin
        self._shape = np.array(self.sample.domain.mask_shape)

    @property
    def d(self) -> int:
        return self.sample.domain.d

    @property
    def prefactor(self) -> float:
        d = self.d
        return (1.0 / (2 * d)) * float(self.N) ** ((d - 4) / 2.0)

    def _phi(self, point: np.ndarray) -> float:
        loc = point - self._origin
        if np.any(loc < 0) or np.any(loc >= self._shape):
            return 0.0
        return float(self._grid[tuple(loc)])

    def evaluate(self, t: Sequence[float]) -> float:
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > 1.0 + 1e-12):
            raise ValueError("evaluation point outside the closed box")
        verts, wts = simplex_weights(t, self.N, self.d)
        acc = 0.0
        for v, w in zip(verts, wts):
            if w != 0.0:
                acc += w * self._phi(v)
        return self.prefactor * acc

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.evaluate(t) for t in np.asarray(ts, dtype=float)])


def rescaled_max(sample_: FieldSample, d: int, N: int) -> float:
    """kappa N^{(d-4)/2} max over R_h of phi, the sup of the interpolated field."""
    pref = (1.0 / (2 * d)) * float(N) ** ((d - 4) / 2.0)
    return pref * float(sample_.values.max())


# ---------------------------------------------------------------------------
# exact second moments of interpolated increments

def increment_weight_vector(t, s, N: int, d: int):
    """Signed barycentric weights of Psi(t) - Psi(s) as a finite phi-combination."""
    verts_t, w_t = simplex_weights(t, N, d)
    verts_s, w_s = simplex_weights(s, N, d)
    combo = {}
    for v, w in zip(verts_t, w_t):
        combo[tuple(v)] = combo.get(tuple(v), 0.0) + w
    for v, w in zip(verts_s, w_s):
        combo[tuple(v)] = combo.get(tuple(v), 0.0) - w
    return combo


def _combo_arrays(combos: list, d: int):
    """phi-combinations as points (P, m, d) and weights (P, m); pads repeat a point at weight 0."""
    m = max(map(len, combos))
    rows = [list(c.items()) + [(next(iter(c)), 0.0)] * (m - len(c)) for c in combos]
    points = np.array([[p for p, _ in r] for r in rows], dtype=np.int64).reshape(len(rows), m, d)
    return points, np.array([[w for _, w in r] for r in rows])


def _increment_form(table: GreenTable, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{a,b} w_a w_b G(p_a, p_b) for combinations of points (..., m, d), weights (..., m)."""
    return np.einsum("...a,...ab,...b->...", weights, table.block(points), weights)


def exact_increment_variance(table: GreenTable, t, s, d: int, N: int) -> float:
    """E |Psi_N(t) - Psi_N(s)|^2 evaluated exactly through the covariance table."""
    pref = (1.0 / (2 * d)) * float(N) ** ((d - 4) / 2.0)
    points, weights = _combo_arrays([increment_weight_vector(t, s, N, d)], d)
    return pref * pref * float(_increment_form(table, points, weights)[0])


# ---------------------------------------------------------------------------
# recipes

MIN_FIT_PAIRS = 10  # pairs with a positive second moment needed for a fit


@dataclass
class MomentFit:
    d: int
    N: int
    n_pairs: int
    n_kept: int                # pairs with a positive second moment, used in the fit
    exponent: float
    distances: np.ndarray
    second_moments: np.ndarray


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
    scale, 1/4 in d=3).  Second moments come from exact covariance columns,
    no Monte Carlo.  Raises ValueError when the window is empty (in d=2 the
    default r_min = 2/N reaches r_max at N <= 16) or fewer than
    MIN_FIT_PAIRS pairs have a positive second moment.
    """
    from .green import green_columns

    if r_min is None:
        r_min = (2.0 if d == 2 else 1.5) / N
    if r_max is None:
        r_max = 0.125 if d == 2 else 0.25
    if r_min >= r_max:
        raise ValueError(f"distance window [{r_min:.4g}, {r_max:.4g}] is empty at N={N}")
    rng = np.random.default_rng(seed)
    pairs = []
    # base points stay in the bulk: the pinned frame has identically small
    # increments that carry no information about the scaling exponent
    while len(pairs) < n_pairs:
        t = rng.uniform(-0.7, 0.7, size=d)
        r = np.exp(rng.uniform(np.log(r_min), np.log(r_max)))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        s = t + r * u
        if np.all(np.abs(s) <= 1.0):
            pairs.append((t, s))

    points, weights = _combo_arrays([increment_weight_vector(t, s, N, d) for t, s in pairs], d)
    needed = np.unique(points.reshape(-1, d), axis=0)
    table = green_columns(precision, needed[precision.domain.rh_indices(needed) >= 0])

    pref2 = ((1.0 / (2 * d)) * float(N) ** ((d - 4) / 2.0)) ** 2
    dist = np.array([np.linalg.norm(t - s) for t, s in pairs])
    mom = pref2 * _increment_form(table, points, weights)
    # pairs entirely inside the pinned boundary frame have exactly zero
    # increments and carry no exponent information
    keep = mom > 0
    n_kept = int(keep.sum())
    if n_kept < MIN_FIT_PAIRS:
        raise ValueError(
            f"only {n_kept} of {len(pairs)} pairs have a positive second moment; "
            f"the fit needs {MIN_FIT_PAIRS}"
        )
    expo = float(np.polyfit(np.log(dist[keep]), np.log(mom[keep]), 1)[0])
    return MomentFit(
        d=d, N=N, n_pairs=len(pairs), n_kept=n_kept, exponent=expo,
        distances=dist, second_moments=mom,
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
    """Empirical distributions of the rescaled maximum at several scales."""
    from .green import assemble_precision
    from .lattice import classify, unit_box

    maxima = {}
    for stream, N in enumerate(Ns):
        dom = classify(unit_box(d), 1.0 / N)
        prec = assemble_precision(dom)
        samples = sample(prec, seed=seed, count=count, stream=stream)
        maxima[N] = np.array([rescaled_max(s, d, N) for s in samples])
    ks = ks_distance(maxima[Ns[0]], maxima[Ns[-1]]) if len(Ns) >= 2 else 0.0
    return MaxScalingReport(d=d, Ns=tuple(Ns), maxima=maxima, ks=ks)
