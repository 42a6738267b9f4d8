"""Spectrum of the discrete bilaplacian, dual Sobolev norms, random series.

The continuum field on a domain D expands over the clamped-plate eigenpairs
(lambda_j, u_j); the discrete surrogate is the spectrum of the h-scaled
squared difference Laplacian with the double zero boundary layer, whose
eigenvalues are reported in continuum units (they stabilize under grid
refinement).  Note these differ from squares of Dirichlet Laplacian
eigenvalues: the zero extension clamps two layers, which raises the bottom of
the spectrum strictly.

`eigendecompose` takes one of three routes, recorded as `SpectralBasis.route`
and `route_reason`.  "box-sectors" computes one parity sector per
permutation class (see `boxsolve`) on a centred box that `green.box_route`
accepts, and box sectors follow green's factor budget.  On a box-direct box
(every box in d = 2, and in d = 3 within DIRECT_FACTOR_BUDGET) a class is
shift-invert `eigsh` on the class's own unknowns over the sector solve of
green's `boxsolve.DirectBoxSolver` (dense `eigh` when the class is small);
on a box-pcg box whose largest sector has at most DENSE_EIG_CAP unknowns it
is dense `eigh` of its block.  "dense" is `eigh` for any other matrix up to
DENSE_EIG_CAP, and "shift-invert" `eigsh` above it, over the precision's
solver (`torus.TorusCapacitanceSolver` on any domain that is not a centred
box, within the factor budget; the route table in `green`'s docstring).
No `eigsh` sees a whole box-direct box.  Every `eigsh` starts from a fixed
vector, so a repeated call repeats its result bit for bit.  Every route is
gated against the assembled matrix.

Norms on the dual scale: || v ||_{-s}^2 = sum_j lambda_j^{-s/2} (v, u_j)^2.
The random series  sum_j lambda_j^{-1/2} xi_j u_j  with i.i.d. standard
normal xi has squared dual norm  sum_j lambda_j^{-s/2-1} xi_j^2, which
converges iff s > (d-4)/2 under the eigenvalue growth lambda_j ~ j^{4/d}.

The grid pairing against a test function f is

    (psi_h, f) = kappa * sum_{x in R_h} h^{(d+4)/2} phi_{x/h} f(x),

a Gaussian linear functional with variance
kappa^2 h^{d+4} sum_{x,y} G(x,y) f(x) f(y) = kappa^2 h^{d+4} f^T A^{-1} f,
A the precision matrix.  `pairing_variance_study` takes it from one solve
A^{-1} f on the permutation wedge of the centred box, and on small grids
once more by CG on the assembled matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .boxsolve import CenteredBoxSolver, box_classes, centered_box_halfwidth, sector_view, wedge_solve
from .green import PrecisionMatrix, _make_solver, assemble_precision, box_route, factorize_spd
from .lattice import Box, GridDomain, assemble, classify, kappa, stencil_weights, unit_ball_volume, wedge

DENSE_EIG_CAP = 4000


@dataclass
class SpectralBasis:
    """Ascending eigenpairs of the discrete bilaplacian in continuum units.

    Eigenvectors are orthonormal in the discrete L^2 inner product
    h^d sum_x u_i(x) u_j(x) = delta_ij.
    """

    domain: GridDomain
    lambdas: np.ndarray        # (k,) ascending, units of the continuum operator
    vectors: np.ndarray        # (n_rh, k)
    route: str = ""            # "box-sectors", "dense" or "shift-invert"
    route_reason: str = ""     # why that route was taken

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def coefficients(self, values_rh: np.ndarray) -> np.ndarray:
        """Discrete L^2 coefficients (v, u_j) = h^d sum v u_j."""
        h = self.domain.h
        return h**self.domain.d * (self.vectors.T @ values_rh)


def _shift_invert(solve: Callable, n: int, k: int):
    """k smallest eigenpairs (ascending) of the SPD operator on n unknowns
    whose inverse is `solve`, by `eigsh` about 0 from a fixed start vector, so
    that a repeated call repeats its result.  In this mode `eigsh` reads only
    the shape and dtype of the operator, so it gets a stand-in that raises."""

    def unused(x):
        raise RuntimeError("eigsh applied the operator in shift-invert mode")

    A, OPinv = (spla.LinearOperator((n, n), matvec=f, dtype=float) for f in (unused, solve))
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        w, v = spla.eigsh(A, k=k, sigma=0, which="LM", tol=0, OPinv=OPinv, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w)
    return w[order], v[:, order]


def _smallest_eigenpairs(S, k: int, make_solve: Callable[[], Callable]):
    """k smallest eigenpairs (ascending) of the sparse SPD matrix S.

    Dense `eigh` of the first k pairs up to DENSE_EIG_CAP unknowns; above it
    `_shift_invert` with OPinv = make_solve(), built only there.
    """
    n = S.shape[0]
    if n <= DENSE_EIG_CAP:
        return scipy.linalg.eigh(S.toarray(), subset_by_index=(0, k - 1))
    return _shift_invert(make_solve(), n, k)


def _sector_eigenpairs(box, direct, k: int):
    """k smallest eigenpairs (ascending) of the box operator A_hat of the
    `CenteredBoxSolver` box, mapped to the box, from one eigensolve per
    permutation class of parity sectors; the class's other sectors come from
    transposing axes.  Candidates are ordered stably by value and then by
    sector order.

    Without `direct` every class takes dense `eigh` of min(k, n_c) pairs of
    its block.  With the `DirectBoxSolver` direct of the box, a class of n_c
    unknowns first asks for k_c pairs (`_first_count`), and doubles k_c until
    its largest value lies above the k-th smallest candidate overall or it
    holds min(k, n_c) pairs.  A class with 2 k_c + 1 >= n_c takes dense
    `eigh` of min(k, n_c) pairs; every other class runs `_shift_invert` on
    its n_c sine coefficients, with the sector solve of direct as the
    inverse, and no transform runs inside the eigensolve.
    """
    classes = box_classes(box.d, box.M)
    full = [min(k, math.prod(shape)) for _, _, shape in classes]
    want = full if direct is None else [_first_count(k, math.prod(shape), box.n) for _, _, shape in classes]
    pairs = [None] * len(classes)
    while True:
        for i, (rep, _, shape) in enumerate(classes):
            if pairs[i] is None or len(pairs[i][0]) < want[i]:
                pairs[i] = _class_eigenpairs(box, direct, rep, shape, full[i], want[i])
        values = np.concatenate([pairs[i][0] for i, (_, sectors, _) in enumerate(classes) for _ in sectors])
        kth = np.partition(values, k - 1)[k - 1] if len(values) >= k else np.inf
        grow = [i for i, (w, _) in enumerate(pairs) if len(w) < full[i] and not w[-1] > kth]
        if not grow:
            break
        for i in grow:
            want[i] = min(2 * want[i], k)
    # a NaN sorts first, so that the gate sees it
    pick = np.argsort(np.where(np.isnan(values), -np.inf, values), kind="stable")[:k]
    coef = np.zeros((k,) + (box.L,) * box.d)
    lo = 0
    for (_, sectors, _), (w, V) in zip(classes, pairs):
        for parity, axes in sectors:
            rows = np.flatnonzero((pick >= lo) & (pick < lo + len(w)))
            sector_view(coef, parity, axes)[rows] = V[pick[rows] - lo]
            lo += len(w)
    return values[pick], box.field(coef).reshape(k, -1).T


def _first_count(k: int, n_c: int, n: int) -> int:
    """The pairs a sector class of n_c of the n unknowns asks for first: its
    share of k plus 8, which on square boxes up to h=1/80 holds the class's
    part of the k smallest for every k tried (1..60 at h=1/16, 100 at h=1/40
    and 1/80); on cubes the growth of the counts makes up any shortfall."""
    return min(k, -(-k * n_c // n) + 8)


def _class_eigenpairs(box, direct, rep: tuple, shape: tuple, full: int, want: int):
    """The smallest eigenpairs (ascending) of A_hat on the sector rep, vectors
    as (pairs,) + shape: `full` of them by dense `eigh`, or `want` by
    `_shift_invert` over the sector solve of `direct`."""
    n_c = math.prod(shape)
    if direct is None or 2 * want + 1 >= n_c:
        w, V = scipy.linalg.eigh(box.sector_block(rep), subset_by_index=(0, full - 1))
    else:
        w, V = _shift_invert(lambda x: direct.sector_solve(rep, x.reshape(shape)).reshape(-1), n_c, want)
    return w, V.T.reshape((len(w),) + shape)


def _gate_eigenpairs(S, w: np.ndarray, v: np.ndarray) -> None:
    """Raise unless the eigenvalues are positive, the orthonormality residual
    is at most 1e-8 and the eigen-residual against S at most 1e-6 relative."""
    if not np.all(w > 0):
        raise RuntimeError(f"eigenvalues not all positive (smallest {w.min():.3e})")
    orth = np.abs(v.T @ v - np.eye(len(w))).max()
    if not orth <= 1e-8:
        raise RuntimeError(f"orthonormality residual {orth:.2e} above 1e-8")
    res = np.linalg.norm(S @ v - v * w, axis=0).max()
    if not res <= 1e-6 * max(abs(w[-1]), 1.0):
        raise RuntimeError(f"eigen residual {res:.2e} too large")


def eigendecompose(precision: PrecisionMatrix, k: int) -> SpectralBasis:
    """k smallest eigenpairs of the h-scaled bilaplacian on R_h, by one of the
    three routes of the module docstring, gated by `_gate_eigenpairs`.  The
    box route of `green.box_route` is taken once; the shift-invert route's
    solver is built from it and cached nowhere."""
    dom = precision.domain
    n, d = precision.n, dom.d
    if not 1 <= k <= n:
        raise ValueError(f"k={k} is outside 1..|R_h|={n}")
    S = precision.raw
    boxed = box_route(precision.matrix, dom)
    solver, route, reason, _ = boxed
    direct = solver if route == "box-direct" else None
    box = direct.box if direct else solver
    largest = math.prod(box_classes(d, box.M)[0][2]) if box else 0  # the all-odd sector
    if direct or (box and largest <= DENSE_EIG_CAP):
        route, reason = "box-sectors", f"centred box, largest parity sector {largest}"
        w, v = _sector_eigenpairs(box, direct, k)
        w = w / dom.kappa**2  # A = kappa^2 S
    else:
        if box:
            reason = "; ".join(filter(None, [reason, f"largest parity sector {largest} above DENSE_EIG_CAP"]))
        route, reason = ("dense" if n <= DENSE_EIG_CAP else "shift-invert"), reason or "not a centred box"

        def make_solve():
            solve = _make_solver(precision.matrix, dom, boxed)[0]  # S^{-1} = kappa^2 A^{-1}
            return lambda x: solve(x) * dom.kappa**2

        w, v = _smallest_eigenpairs(S, k, make_solve)
    _gate_eigenpairs(S, w, v)
    # normalize to the discrete L^2 product (vectors come back 2-norm unit)
    return SpectralBasis(
        domain=dom, lambdas=w / dom.h**4, vectors=v / dom.h ** (d / 2.0), route=route, route_reason=reason
    )


def _fit_window(k: int, window: Optional[tuple]) -> slice:
    """0-based slice of the 1-based index window (lo, hi), default (10, k-10)."""
    lo, hi = (10, k - 10) if window is None else window
    if hi - lo < 10:
        raise ValueError("window too small for a stable fit")
    return slice(lo - 1, hi)


def weyl_constant(d: int, volume: float) -> float:
    """Leading Weyl coefficient A_W = omega_d |D| / (2 pi)^d of the clamped plate.

    The counting function of the bilaplacian obeys
    N(lambda) ~ A_W lambda^{d/4}, since |xi|^4 <= lambda is the ball of
    radius lambda^{1/4}.
    """
    return unit_ball_volume(d) * volume / (2.0 * math.pi) ** d


@dataclass
class WeylCountingFit:
    """Two-term counting fit N(lambda) ~ A lambda^{d/4} - B lambda^{(d-1)/4}."""

    leading: float             # A
    boundary: float            # B
    weyl_leading: float        # A_W of the domain

    @property
    def ratio(self) -> float:
        """A / A_W, which tends to 1 as the spectrum is resolved."""
        return self.leading / self.weyl_leading


def weyl_counting_fit(
    lambdas: np.ndarray, d: int, volume: float, window: Optional[tuple] = None
) -> WeylCountingFit:
    """Least-squares fit of j - 1/2 = A lambda_j^{d/4} - B lambda_j^{(d-1)/4}.

    The index window is 1-based and inclusive, (10, k-10) by default.  The
    second term is the boundary correction of the clamped problem, which
    dominates the low spectrum; fitting it separates the leading coefficient
    A, to be compared with `weyl_constant(d, volume)`.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    sl = _fit_window(len(lambdas), window)
    lam = lambdas[sl]
    j = np.arange(1, len(lambdas) + 1)[sl]
    design = np.column_stack([lam ** (d / 4.0), -(lam ** ((d - 1) / 4.0))])
    (a, b), *_ = np.linalg.lstsq(design, j - 0.5, rcond=None)
    return WeylCountingFit(leading=float(a), boundary=float(b), weyl_leading=weyl_constant(d, volume))


# ---------------------------------------------------------------------------
# Sobolev threshold arithmetic

@dataclass(frozen=True)
class SobolevParams:
    d: int
    l0: int
    l2: int
    l5: int
    s_d: Fraction


def _l_exponent(d: int, m: int) -> int:
    return math.ceil((d // 2 + m + 1) / 4)


def s_threshold(d: int) -> SobolevParams:
    """Exact threshold s_d = d/2 + 2 (l_0 + l_5 - 1), with l_m = ceil((floor(d/2)+m+1)/4)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    l0 = _l_exponent(d, 0)
    l2 = _l_exponent(d, 2)
    l5 = _l_exponent(d, 5)
    s_d = Fraction(d, 2) + 2 * (l0 + l5 - 1)
    return SobolevParams(d=d, l0=l0, l2=l2, l5=l5, s_d=s_d)


def hs_norm(coefficients: np.ndarray, lambdas: np.ndarray, s: float) -> float:
    """Partial sum  sum_j lambda_j^{-s/2} c_j^2  of the dual norm."""
    c = np.asarray(coefficients, dtype=float)
    lam = np.asarray(lambdas, dtype=float)[: len(c)]
    return float(np.sum(lam ** (-s / 2.0) * c * c))


# ---------------------------------------------------------------------------
# random series

@dataclass
class WienerSeries:
    """Truncated random series sum_j lambda_j^{-1/2} xi_j u_j over a basis."""

    lambdas: np.ndarray
    xi: np.ndarray
    s: float

    def partial_norm(self, J: int) -> float:
        """|| . ||_{-s}^2 partial sum at truncation J."""
        J = min(J, len(self.xi))
        return hs_norm(self.lambdas[:J] ** -0.5 * self.xi[:J], self.lambdas, self.s)


def wiener_series(lambdas: np.ndarray, s: float, seed: int, trial: int = 0) -> WienerSeries:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    xi = rng.standard_normal(len(lambdas))
    return WienerSeries(lambdas=np.asarray(lambdas, dtype=float), xi=xi, s=s)


@dataclass
class WienerReport:
    s: float
    schedule: tuple
    partial_sums: list         # per trial, list of S(J) along the schedule
    increments: list           # per trial, successive differences
    increment_ratios: list     # per trial, I_{k+1} / I_k
    mean_ratio: float
    growth_factors: list       # per trial, S(J_{k+1}) / S(J_k)


def wiener_convergence_report(
    lambdas: np.ndarray,
    s: float,
    trials: int = 8,
    schedule: Sequence[int] = (50, 100, 200),
    seed: int = 11,
) -> WienerReport:
    """Partial-sum trajectories of the random dual norm under truncation doubling.

    In the convergent regime (s above the threshold) the dyadic increments
    shrink; in the divergent control they keep growing with J.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if schedule[-1] > len(lambdas):
        raise ValueError("schedule exceeds available spectrum")
    sums = []
    incs = []
    ratios = []
    growth = []
    for tr in range(trials):
        ws = wiener_series(lambdas, s, seed=seed, trial=tr)
        S = [ws.partial_norm(J) for J in schedule]
        I = [S[k + 1] - S[k] for k in range(len(S) - 1)]
        sums.append(S)
        incs.append(I)
        ratios.append([I[k + 1] / I[k] for k in range(len(I) - 1)])
        growth.append([S[k + 1] / S[k] for k in range(len(S) - 1)])
    flat = [r for rs in ratios for r in rs]
    return WienerReport(
        s=s,
        schedule=tuple(schedule),
        partial_sums=sums,
        increments=incs,
        increment_ratios=ratios,
        mean_ratio=float(np.mean(flat)) if flat else float("nan"),
        growth_factors=growth,
    )


def expected_increment_ratio(
    lambdas: np.ndarray, s: float, schedule: Sequence[int] = (50, 100, 200)
) -> float:
    """Exact expectation of `wiener_convergence_report(...).mean_ratio`.

    The increment I_k = sum_{J_k < j <= J_{k+1}} c_j xi_j^2 with
    c_j = lambda_j^{-s/2-1} is independent of I_{k+1}, so
    E[I_{k+1}/I_k] = E[I_{k+1}] E[1/I_k] with
    E[1/I_k] = int_0^inf prod_j (1 + 2 c_j t)^{-1/2} dt.
    """
    from scipy.integrate import quad

    lambdas = np.asarray(lambdas, dtype=float)
    if schedule[-1] > len(lambdas):
        raise ValueError("schedule exceeds available spectrum")
    c = lambdas ** (-s / 2.0 - 1.0)
    blocks = [c[lo:hi] for lo, hi in zip(schedule, schedule[1:])]
    ratios = []
    for cur, nxt in zip(blocks, blocks[1:]):
        r = cur / cur.mean()     # t = u / mean(c) keeps the integrand O(1)
        inv_mean, _ = quad(lambda u: np.exp(-0.5 * np.log1p(2.0 * r * u).sum()), 0.0, np.inf)
        ratios.append(nxt.sum() * inv_mean / cur.mean())
    return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# pairing against test functions

def bump_test_function(scale: float = 3.0, power: int = 6) -> Callable[[np.ndarray], np.ndarray]:
    """Compactly supported product bump prod_i (1 - u_i^2)^power, u = scale*x.

    C^{power-1} regularity with moderate derivative sizes, so grid pairings
    resolve it already at coarse spacings (a sharp exponential bump needs
    several more refinement levels before the variance sequence turns
    Cauchy).
    """

    def f(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        u = scale * x
        inside = np.all(np.abs(u) < 1.0, axis=-1)
        out = np.zeros(x.shape[:-1])
        if inside.any():
            v = u[inside]
            out[inside] = np.prod((1.0 - v**2) ** power, axis=-1)
        return out

    return f


@dataclass
class PairingStudy:
    d: int
    hs: tuple
    variances: list
    differences: list
    cauchy_ratio: float
    cross_checks: list         # (h, relative gap) where both solver routes ran
    iterations: list           # wedge PCG iterations per h


def _cg_direct(A, b: np.ndarray) -> np.ndarray:
    """A^{-1} b by unpreconditioned CG on the assembled matrix, to 1e-13.

    Raises unless CG reports convergence and the normwise backward error is
    at most 1e-13.  The true relative residual cannot be gated at 1e-13: it
    stalls near eps * cond(A) (4e-12 for d=2 at h=1/32).
    """
    from .thomee import backward_error

    x, info = spla.cg(A, b, rtol=1e-13, atol=0.0, maxiter=10 * len(b))
    back = backward_error(A, x, b)
    if info != 0 or not back <= 1e-13:
        raise RuntimeError(f"CG cross-check stopped at backward error {back:.3e} (info {info})")
    return x


def pairing_variance_study(
    d: int,
    h_list: Sequence[float],
    f: Callable[[np.ndarray], np.ndarray],
    cross_check_cap: int = 40_000,
) -> PairingStudy:
    """Var(psi_h, f) along a refinement sequence on the centred box (-1/2, 1/2)^d.

    f must be even in every coordinate and symmetric under the permutations
    of the axes, as `bump_test_function` is.  It is evaluated on the sector
    {0..M}^d of each grid, and once more with each coordinate negated in
    turn on the wedge rows; values that change under a swap of two adjacent
    axes, or under the negation of one coordinate, by more than 1e-14 max|f|
    raise ValueError.  Negations of two or more coordinates at once stay
    unchecked.  Every grid
    solves on the permutation wedge of the even sector (`boxsolve.wedge_solve`,
    sine-coefficient PCG to 1e-12 on the exact operator); the variance is
    kappa^2 h^(d+4) sum_f orbit(f) cf(f) c(f) over the wedge, with cf the
    coefficients of f and c those of A^{-1} f, on R_h = [-M, M]^d with
    M = floor((1/2 + 1e-9) / h) - 2 (1e-9 is `Box`'s tolerance).  Grids
    with at most cross_check_cap points also run unpreconditioned CG on the
    assembled precision matrix, a route that shares no code with the box
    solver, and report the relative gap between the two; there a classified
    R_h that is not [-M, M]^d raises ValueError.
    """
    hs = sorted(h_list, reverse=True)
    box = Box([(-0.5, 0.5)] * d)
    kappa2 = kappa(d) ** 2
    variances, iterations, checks = [], [], []
    for h in hs:
        M = math.floor((0.5 + 1e-9) / h) - 2
        solver = CenteredBoxSolver(d, M, even=True)
        axis = np.arange(0, M + 1) * h
        coords = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)
        fv = np.asarray(f(coords.reshape(-1, d)), dtype=float).reshape((M + 1,) * d)
        # the adjacent transpositions generate all axis permutations
        skew = max((np.abs(fv - fv.swapaxes(j, j + 1)).max() for j in range(d - 1)), default=0.0)
        if skew > 1e-14 * np.abs(fv).max():
            raise ValueError(f"f is not symmetric under the axis permutations at h={h:g} (skew {skew:.1e})")
        F, orbit = wedge(d, M)
        fw = fv[tuple(F.T)]
        odd = max(np.abs(np.asarray(f(F * h * np.where(np.arange(d) == i, -1.0, 1.0)), dtype=float) - fw).max()
                  for i in range(d))
        if odd > 1e-14 * np.abs(fv).max():
            raise ValueError(f"f is not even in every coordinate at h={h:g} (skew {odd:.1e})")
        cf = solver.coefficients(fv)[tuple(F.T)]
        c, info = wedge_solve(solver, F, orbit, cf, 1e-12)
        var_fold = kappa2 * h ** (d + 4) * float(np.sum(orbit * cf * c))
        variances.append(var_fold)
        iterations.append(info.iterations)
        if (2 * M + 1) ** d <= cross_check_cap:
            dom = classify(box, h)
            if centered_box_halfwidth(dom) != M:
                raise ValueError(f"R_h at h={h:g} is not [-{M}, {M}]^{d}")
            A = assemble_precision(dom).matrix
            frh = np.asarray(f(dom.rh_coordinates()), dtype=float)
            w = _cg_direct(A, frh)
            var_direct = kappa2 * h ** (d + 4) * float(frh @ w)
            checks.append((h, abs(var_direct - var_fold) / max(abs(var_direct), 1e-300)))
    diffs = [abs(variances[i + 1] - variances[i]) for i in range(len(variances) - 1)]
    ratio = max(
        (diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1)), default=float("nan")
    )
    return PairingStudy(
        d=d,
        hs=tuple(hs),
        variances=variances,
        differences=diffs,
        cauchy_ratio=ratio,
        cross_checks=checks,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# boundary-condition gap

@dataclass
class GapReport:
    bilaplacian_min: float
    laplacian_min_squared: float
    margin: float


def dirichlet_laplacian_min(domain: GridDomain) -> float:
    """Smallest eigenvalue of -Lap_h with zero condition outside R_h (h^-2 units)."""
    Lap = -assemble(domain, stencil_weights("deltah", domain.d))
    w, v = _smallest_eigenpairs(Lap, 1, lambda: factorize_spd(Lap).solve)
    _gate_eigenpairs(Lap, w, v)
    return float(w[0]) / domain.h**2


def boundary_condition_gap(precision: PrecisionMatrix) -> GapReport:
    """Smallest bilaplacian eigenvalue vs the squared smallest Laplacian eigenvalue.

    The double zero layer of the fourth-order problem clamps harder than the
    single Dirichlet layer, so the gap is strictly positive.
    """
    basis = eigendecompose(precision, k=1)
    lam1 = float(basis.lambdas[0])
    mu1 = dirichlet_laplacian_min(precision.domain)
    return GapReport(
        bilaplacian_min=lam1,
        laplacian_min_squared=mu1**2,
        margin=lam1 - mu1**2,
    )
