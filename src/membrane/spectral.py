"""Spectrum of the discrete bilaplacian, dual Sobolev norms, random series.

The continuum field on a domain D expands over the clamped-plate eigenpairs
(lambda_j, u_j); the discrete surrogate is the spectrum of the h-scaled
squared difference Laplacian with the double zero boundary layer, whose
eigenvalues are reported in continuum units (they stabilize under grid
refinement).  Note these differ from squares of Dirichlet Laplacian
eigenvalues: the zero extension clamps two layers, which raises the bottom of
the spectrum strictly.

Norms on the dual scale: || v ||_{-s}^2 = sum_j lambda_j^{-s/2} (v, u_j)^2.
The random series  sum_j lambda_j^{-1/2} xi_j u_j  with i.i.d. standard
normal xi has squared dual norm  sum_j lambda_j^{-s/2-1} xi_j^2, which
converges iff s > (d-4)/2 under the eigenvalue growth lambda_j ~ j^{4/d}.

The grid pairing against a test function f is

    (psi_h, f) = kappa * sum_{x in R_h} h^{(d+4)/2} phi_{x/h} f(x),

a Gaussian linear functional with variance
kappa^2 sum_{x,y} h^{d+4} G(x,y) f(x) f(y); the equivalent split form
sum_x h^d H_h(x) f(x) runs through the discrete Dirichlet solve
Lap_h^2 H_h = f and is used for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .green import GreenTable, PrecisionMatrix, _make_solver, factorize_spd
from .lattice import GridDomain, assemble, stencil_weights, unit_ball_volume

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

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def coefficients(self, values_rh: np.ndarray) -> np.ndarray:
        """Discrete L^2 coefficients (v, u_j) = h^d sum v u_j."""
        h = self.domain.h
        return h**self.domain.d * (self.vectors.T @ values_rh)


def eigendecompose(precision: PrecisionMatrix, k: int, dense_cap: int = DENSE_EIG_CAP) -> SpectralBasis:
    """k smallest eigenpairs of the h-scaled bilaplacian on R_h.

    Shift-invert iteration against a fresh (uncached) solver of the precision;
    dense fallback for small systems.  Contracts: eigenvalues ascending and positive,
    orthonormality residual <= 1e-8, eigen-residual <= 1e-6 relative.
    """
    dom = precision.domain
    n = precision.n
    if k > n:
        raise ValueError(f"k={k} exceeds |R_h|={n}")
    S = precision.raw
    h = dom.h
    if n <= dense_cap:
        w, v = scipy.linalg.eigh(S.toarray(), subset_by_index=(0, k - 1))
    else:
        solve = _make_solver(precision.matrix, dom)[0]  # S^{-1} = A^{-1} / (2d)^2
        OPinv = spla.LinearOperator((n, n), matvec=lambda x: solve(x) / (2 * dom.d) ** 2, dtype=float)
        try:
            w, v = spla.eigsh(S, k=k, sigma=0, which="LM", tol=0, OPinv=OPinv)
        except spla.ArpackNoConvergence as exc:
            raise RuntimeError(
                f"eigensolver failed to converge: {exc}"
            ) from exc
        order = np.argsort(w)
        w = w[order]
        v = v[:, order]
    if not np.all(w > 0):
        raise RuntimeError(f"eigenvalues not all positive (smallest {w.min():.3e})")
    orth = np.abs(v.T @ v - np.eye(k)).max()
    if not orth <= 1e-8:
        raise RuntimeError(f"orthonormality residual {orth:.2e} above 1e-8")
    lambdas = w / h**4
    # normalize to the discrete L^2 product (vectors come back 2-norm unit)
    vectors = v / h ** (dom.d / 2.0)
    res = np.linalg.norm(S @ v - v * w, axis=0).max()
    if not res <= 1e-6 * max(abs(w[-1]), 1.0):
        raise RuntimeError(f"eigen residual {res:.2e} too large")
    return SpectralBasis(domain=dom, lambdas=lambdas, vectors=vectors)


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


def hs_norm(coefficients: np.ndarray, lambdas: np.ndarray, s: float, sign: int = -1) -> float:
    """Partial sum  sum_j lambda_j^{sign * s/2} c_j^2  (sign=-1 gives the dual norm)."""
    c = np.asarray(coefficients, dtype=float)
    lam = np.asarray(lambdas, dtype=float)[: len(c)]
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    return float(np.sum(lam ** (sign * s / 2.0) * c * c))


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
        return hs_norm(self.lambdas[:J] ** -0.5 * self.xi[:J], self.lambdas, self.s, sign=-1)


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

def pairing_value(field_rh: np.ndarray, f_rh: np.ndarray, domain: GridDomain) -> float:
    """(psi_h, f) = kappa h^{(d+4)/2} sum phi f for a concrete field realization."""
    d = domain.d
    h = domain.h
    return domain.kappa * h ** ((d + 4) / 2.0) * float(np.dot(field_rh, f_rh))


@dataclass
class PairingVariance:
    direct: float              # kappa^2 h^{d+4} f^T G f
    split: float               # h^d sum_x H_h(x) f(x), H_h from the Dirichlet solve
    relative_gap: float


def pairing_variance(table: GreenTable, f: Callable[[np.ndarray], np.ndarray]) -> PairingVariance:
    """Exact variance of the pairing, both as the covariance double sum and in
    the split form through the discrete Dirichlet solution."""
    from .thomee import solve_dirichlet

    if table.mode != "full":
        raise ValueError("pairing_variance needs a full covariance table")
    dom = table.domain
    d = dom.d
    h = dom.h
    fv = np.asarray(f(dom.rh_coordinates()), dtype=float)
    kappa2 = dom.kappa**2
    direct = kappa2 * h ** (d + 4) * float(fv @ (table.values @ fv))
    H = solve_dirichlet(dom, fv).u_h
    split = h**d * float(H @ fv)
    gap = abs(direct - split) / max(abs(direct), 1e-300)
    return PairingVariance(direct=direct, split=split, relative_gap=gap)


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
    half_width: float = 0.5,
    cross_check_cap: int = 40_000,
) -> PairingStudy:
    """Var(psi_h, f) along a refinement sequence on the centred box.

    Every grid runs the even box solver (sine-coefficient PCG to 1e-12 on the
    exact operator); the variance is the plain dot product of the
    coefficients of f and of A^{-1} f.  Grids with at most cross_check_cap
    points also run unpreconditioned CG on the assembled precision matrix, a
    route that shares no code with the box solver, and report the relative
    gap between the two.
    """
    from .boxsolve import CenteredBoxSolver
    from .green import assemble_precision
    from .lattice import Box, classify

    hs = sorted(h_list, reverse=True)
    box = Box([(-half_width, half_width)] * d)
    kappa2 = 1.0 / (2 * d) ** 2
    variances = []
    checks = []
    for h in hs:
        Mv = int(round(half_width / h))
        M = Mv - 2
        solver = CenteredBoxSolver(d, M, even=True)
        axis = np.arange(0, M + 1) * h
        coords = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)
        fv = np.asarray(f(coords.reshape(-1, d)), dtype=float)
        z, _ = solver.solve(fv, tol=1e-12)
        fz = solver.coefficients(np.stack([fv, z]).reshape((2,) + (M + 1,) * d))
        var_fold = kappa2 * h ** (d + 4) * float(np.vdot(fz[0], fz[1]))
        variances.append(var_fold)
        if (2 * M + 1) ** d <= cross_check_cap:
            dom = classify(box, h)
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
    n = domain.n_rh
    if n <= DENSE_EIG_CAP:
        w = scipy.linalg.eigh(Lap.toarray(), eigvals_only=True, subset_by_index=(0, 0))[0]
    else:
        OPinv = spla.LinearOperator((n, n), matvec=factorize_spd(Lap).solve, dtype=float)
        w = spla.eigsh(Lap, k=1, sigma=0, which="LM", return_eigenvectors=False, tol=0, OPinv=OPinv)[0]
    return float(w) / domain.h**2


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
