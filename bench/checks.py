"""Correctness checks of the benchmark, each against an independent computation
or a property the result must have.

Every check returns ``(passed, detail)``.  The oracles here do not reuse the
code path they check: covariance columns from SuperLU are compared with the
spectrally preconditioned box solver, the simplex interpolation with a
vectorized re-implementation, the random-walk oracle with exact walk counts,
and so on.  Nothing is compared with stored output of an earlier run.
"""

from __future__ import annotations

import math
from math import lgamma, log

import numpy as np

# ---------------------------------------------------------------------------
# covariance columns


def column_residual(matrix, table, tol: float = 1e-8):
    """Each column g_j of `table` solves A g_j = e_j against the assembled A."""
    dom = table.domain
    idx = np.array([dom.rh_index_of(p) for p in table.column_points])
    rhs = np.zeros((matrix.shape[0], len(idx)))
    rhs[idx, np.arange(len(idx))] = 1.0
    res = float(np.abs(matrix @ table.values.T - rhs).max())
    return res <= tol, f"max |A g - e| = {res:.2e} (<= {tol:.0e})"


def column_symmetry(table, tol: float = 1e-10):
    """G(x_i, x_j) = G(x_j, x_i) on the selected points."""
    dom = table.domain
    idx = np.array([dom.rh_index_of(p) for p in table.column_points])
    block = table.values[:, idx]
    asym = float(np.abs(block - block.T).max() / np.abs(block).max())
    return asym <= tol, f"relative asymmetry {asym:.2e} (<= {tol:.0e})"


def agree(what: str, values, reference, tol: float = 1e-8):
    """Two routes give the same values to `tol` relative to the largest entry."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return False, f"{what}: shapes {values.shape} and {reference.shape} differ"
    gap = float(np.abs(values - reference).max() / np.abs(reference).max())
    return gap <= tol, f"{what}: relative gap {gap:.2e} (<= {tol:.0e})"


# ---------------------------------------------------------------------------
# exact draws


def draw_covariance(draws, functionals, cov, n_se: float = 5.0):
    """Whitened sample variance of linear functionals of exact draws.

    With draws phi_1..phi_n ~ N(0, A^-1) and functionals W (k x n_rh) whose
    covariance C = W A^-1 W^T is computed by another route, the statistic
    sum_r (W phi_r)^T C^-1 (W phi_r) / (n k) has mean 1 and standard error
    sqrt(2 / (n k)).  It must lie within `n_se` standard errors of 1.
    """
    Y = np.asarray(functionals) @ np.asarray(draws).T          # (k, n)
    k, n = Y.shape
    L = np.linalg.cholesky(np.asarray(cov))
    Z = np.linalg.solve(L, Y)
    stat = float(np.sum(Z * Z) / (n * k))
    se = math.sqrt(2.0 / (n * k))
    dev = abs(stat - 1.0) / se
    return dev <= n_se, (
        f"whitened variance {stat:.4f} over {n} draws x {k} functionals, "
        f"{dev:.2f} SE from 1 (<= {n_se:g})"
    )


# ---------------------------------------------------------------------------
# simplex interpolation


def simplex_interpolate(grid, origin, N: int, points):
    """Independent vectorized simplex interpolation kappa N^{(d-4)/2} Psi(t).

    `grid` holds phi on the lattice box whose corner is `origin` (zero
    outside).  The fractional parts of N t are sorted in descending order,
    ties broken by axis order, and the value is phi_a plus the increments
    along the path a -> a + e_(1) -> ... -> a + e_(1) + ... + e_(d).
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    p = pts * N
    a = np.floor(p).astype(np.int64)
    frac = p - a
    order = np.argsort(-frac, axis=1, kind="stable")
    fs = np.take_along_axis(frac, order, axis=1)
    shape = np.array(grid.shape)

    def phi(v):
        loc = v - np.asarray(origin)
        ok = np.all((loc >= 0) & (loc < shape), axis=1)
        out = np.zeros(m)
        out[ok] = grid[tuple(loc[ok].T)]
        return out

    v = a.copy()
    prev = phi(v)
    acc = prev.copy()
    for k in range(d):
        v[np.arange(m), order[:, k]] += 1
        cur = phi(v)
        acc += fs[:, k] * (cur - prev)
        prev = cur
    return (1.0 / (2 * d)) * float(N) ** ((d - 4) / 2.0) * acc


def lattice_point_identity(field, lattice_points, tol: float = 1e-12):
    """At t = x / N the interpolant equals kappa N^{(d-4)/2} phi_x."""
    dom = field.sample.domain
    worst = 0.0
    scale = float(np.abs(field.sample.values).max()) * field.prefactor
    for x in lattice_points:
        t = np.asarray(x, dtype=float) / field.N
        want = field.prefactor * field.sample.values[dom.rh_index_of(x)]
        worst = max(worst, abs(field.evaluate(t) - want) / scale)
    return worst <= tol, f"{len(lattice_points)} lattice points, relative gap {worst:.1e} (<= {tol:.0e})"


# ---------------------------------------------------------------------------
# spectra


def in_range(name: str, value: float, lo: float, hi: float):
    return lo <= value <= hi, f"{name} {value:.4f} in [{lo:g}, {hi:g}]"


def eigenpairs(raw, basis, res_tol: float = 1e-6, orth_tol: float = 1e-8):
    """Eigen-residual and discrete orthonormality against the assembled S.

    S v = w v with w = lambda h^4 and v = u h^{d/2} (unit 2-norm); the
    residual is relative to the largest w, and h^d U^T U = I.
    """
    dom = basis.domain
    h, d = dom.h, dom.d
    v = basis.vectors * h ** (d / 2.0)
    w = basis.lambdas * h**4
    res = float(np.linalg.norm(raw @ v - v * w, axis=0).max() / abs(w).max())
    orth = float(np.abs(v.T @ v - np.eye(basis.k)).max())
    ascending = bool(np.all(np.diff(basis.lambdas) >= 0) and basis.lambdas[0] > 0)
    ok = res <= res_tol and orth <= orth_tol and ascending
    return ok, (
        f"k={basis.k}: residual {res:.1e} (<= {res_tol:.0e}), orthonormality "
        f"{orth:.1e} (<= {orth_tol:.0e}), ascending and positive {ascending}"
    )


# ---------------------------------------------------------------------------
# Thomee ladder


def errors_decrease(errors):
    """Errors against the closed-form solution fall strictly with h."""
    errs = [e for _, e in sorted(errors, reverse=True)]
    ok = len(errs) >= 2 and all(b < a for a, b in zip(errs, errs[1:]))
    return ok, "errors " + ", ".join(f"{e:.2e}" for e in errs) + " decreasing"


# ---------------------------------------------------------------------------
# infinite volume, d = 5


def green_identity(stencil: dict, values: dict, errors: dict, d: int = 5):
    """kappa^2 sum_off S_off G(0, off) = 1 within kappa^2 sum |S_off| err(off).

    G is the inverse of the discrete bilaplacian kappa^2 S on Z^d, so its
    stencil sum at the origin is exactly one.  `values` and `errors` map the
    symmetry class (sorted absolute coordinates) to the Fourier value and
    its error estimate.
    """
    kappa2 = 1.0 / (2 * d) ** 2
    total = 0.0
    budget = 0.0
    for off, coeff in stencil.items():
        key = tuple(sorted(abs(int(v)) for v in off))
        total += coeff * values[key]
        budget += abs(coeff) * errors[key]
    total *= kappa2
    budget *= kappa2
    gap = abs(total - 1.0)
    return gap <= budget, f"stencil sum {total:.15f}, |gap| {gap:.1e} (<= budget {budget:.1e})"


def walk_probabilities(x, M: int, d: int = 5) -> np.ndarray:
    """Exact P[S_m = x] for m = 0..M of the simple random walk on Z^d.

    The number of walks is m! [t^m] prod_i A_{x_i}(t) with the exponential
    generating function A_j(t) = sum_k C(k, (k+j)/2) t^k / k! of a 1-D walk
    ending at j, whose coefficients are 1 / (((k+j)/2)! ((k-j)/2)!).  They
    are scaled by s^k with s = M / d, which keeps every term of the
    (positive) products inside double range.
    """
    s = max(M / d, 1.0)
    k = np.arange(M + 1)
    poly = np.array([1.0])
    for xi in x:
        j = abs(int(xi))
        c = np.zeros(M + 1)
        ks = k[(k >= j) & ((k - j) % 2 == 0)]
        logc = np.array([-lgamma((q + j) // 2 + 1) - lgamma((q - j) // 2 + 1) for q in ks])
        c[ks] = np.exp(logc + ks * log(s))
        poly = np.convolve(poly, c)[: M + 1]
    logm = np.array([lgamma(m + 1) - m * log(2 * d * s) for m in k])
    out = np.zeros(M + 1)
    pos = poly > 0
    out[pos] = np.exp(logm[pos] + np.log(poly[pos]))
    return out


def truncated_green(x, M: int, d: int = 5) -> float:
    """sum_{m <= M} (m + 1) P[S_m = x], the exact mean of the walk tally."""
    p = walk_probabilities(x, M, d)
    return float(np.sum((np.arange(M + 1) + 1.0) * p))


def walk_matches_exact(estimates, standard_errors, exact, n_se: float = 5.0):
    """Walk tallies estimate the truncated sum within `n_se` standard errors."""
    z = np.abs(np.asarray(estimates) - np.asarray(exact)) / np.asarray(standard_errors)
    worst = float(z.max())
    return worst <= n_se, f"{len(z)} targets, largest |walk - exact| = {worst:.2f} SE (<= {n_se:g})"


def fourier_above_truncated(values, errors, exact):
    """G(0, x) >= its partial sum over walks of at most M steps (the terms are >= 0)."""
    slack = np.asarray(values) + np.asarray(errors) - np.asarray(exact)
    worst = float(slack.min())
    return worst >= 0.0, f"smallest G - G_M + err = {worst:.3e} (>= 0)"


def within_relative(name: str, value: float, reference: float, rel: float):
    gap = abs(value - reference) / abs(reference)
    return gap <= rel, f"{name} {value:.6f} vs {reference:.6f}, relative gap {gap:.2e} (<= {rel:g})"
