"""Finite-difference biharmonic Dirichlet solver with convergence verification.

Continuum problem on a bounded domain V with C^2 boundary:

    Lap^2 u = f in V,    D^beta u = 0 on the boundary for |beta| <= 1.

Discrete analogue: find u_h on V_h with

    L_h u_h(xi) = f(xi)  for xi in R_h,       u_h = 0 on B_h,

where L_h is the h^-4-scaled squared difference Laplacian.  The error
restricted to R_h satisfies

    || R_h e_h ||_{h,grid}^2  <=  C [ M_5^2 h^2 + h (M_5^2 h^6 + M_2^2) ]

with M_k the sum of sup-norms of all derivatives of u through order k, so in
particular || R_h e_h ||_{h,grid} = O(h^{1/2}).  The convergence study checks
the measured error against this bound curve with a single fitted constant and
reports the empirical order.

The discrete Sobolev norms take forward differences of the zero-extended
field with `lattice.apply_stencil_array`, so they shift the grid through
`lattice._shifted_slices` like every other non-periodic lattice shift.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyder

from .green import assemble_precision
from .lattice import (
    Ball,
    GridDomain,
    ShapePredicate,
    apply_stencil_array,
    classify,
    field_on_grid,
    inf_norm,
    stencil_weights,
)


# ---------------------------------------------------------------------------
# derivative budgets of a polynomial on the unit ball

def _ball_poly(d: int) -> np.ndarray:
    """(1 - |x|^2)^2 as a numpy.polynomial coefficient array c of shape (5,) * d,
    c[e] the coefficient of prod_i x_i^e_i."""
    c = np.zeros((5,) * d)
    c[(0,) * d] = 1.0
    squares = [tuple(2 * (k == i) for k in range(d)) for i in range(d)]  # x_i^2
    for a in squares:
        c[a] -= 2.0
        for b in squares:
            c[tuple(x + y for x, y in zip(a, b))] += 1.0
    return c


def _derivative_budget(c: np.ndarray, order: int) -> float:
    """sum over |alpha| <= order of a bound on sup |D^alpha p| over the unit
    ball: the sum of |coefficients| of D^alpha p, since |x_i| <= 1 there."""
    total = 0.0
    for alpha in itertools.product(range(order + 1), repeat=c.ndim):
        if sum(alpha) <= order:
            der = c
            for ax, k in enumerate(alpha):
                der = polyder(der, k, axis=ax)
            total += float(np.abs(der).sum())
    return total


# ---------------------------------------------------------------------------
# manufactured problems

@dataclass
class ManufacturedProblem:
    """Closed-form solution/right-hand-side pair with derivative budgets."""

    shape: ShapePredicate
    u: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    M2: float
    M5: float
    name: str = "manufactured"


def manufactured_disk(d: int) -> ManufacturedProblem:
    """u = (1-|x|^2)^2 on the unit ball; Lap^2 u = 8 d (d+2), clamped boundary."""
    if d < 2:
        raise ValueError("d must be >= 2")
    c = _ball_poly(d)
    fval = 8.0 * d * (d + 2)

    def u(x):
        return (1.0 - np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)) ** 2

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], fval)

    return ManufacturedProblem(
        shape=Ball([0.0] * d, 1.0),
        u=u,
        f=f,
        M2=_derivative_budget(c, 2),
        M5=_derivative_budget(c, 5),
        name=f"disk-d{d}",
    )


# ---------------------------------------------------------------------------
# grid norms

def grid_norm(values: np.ndarray, h: float, d: int) -> float:
    """|| f ||_{h,grid} = ( h^d sum f^2 )^{1/2}."""
    return float(np.sqrt(h**d * np.sum(np.asarray(values, dtype=float) ** 2)))


def _forward_diff(grid: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(f(x + h e_axis) - f(x)) / h, with f zero past the end of the array."""
    e = tuple(int(k == axis) for k in range(grid.ndim))
    return apply_stencil_array(grid, {(0,) * grid.ndim: -1, e: 1}) / h


def sobolev_h2_norm(values_rh: np.ndarray, domain: GridDomain) -> float:
    """|| f ||_{h,2}: root sum of squared grid norms of D^beta f, |beta| <= 2.

    Forward differences D_j f = (f(x+h e_j) - f(x))/h on the zero-extended
    field; the field must vanish outside R_h.
    """
    d = domain.d
    h = domain.h
    base = field_on_grid(domain, values_rh)
    base = np.pad(base, 2)
    total = 0.0
    for beta in itertools.product(range(3), repeat=d):
        if sum(beta) > 2:
            continue
        g = base
        for ax, k in enumerate(beta):
            for _ in range(k):
                g = _forward_diff(g, ax, h)
        total += h**d * float(np.sum(g * g))
    return float(np.sqrt(total))


def lh2_apply(values_rh: np.ndarray, domain: GridDomain) -> np.ndarray:
    """The boundary-weighted operator: L_h on R_h*, h^2 L_h on B_h*, 0 outside R_h."""
    h = domain.h
    rh_loc = tuple((domain.rh_points - domain.origin).T)
    grid = field_on_grid(domain, values_rh)
    out = apply_stencil_array(grid, stencil_weights("bilaplacian", domain.d), h**-4)[rh_loc]
    out[~domain.rhstar_mask[rh_loc]] *= h**2
    return out


# ---------------------------------------------------------------------------
# solver

@dataclass
class DiscreteSolution:
    domain: GridDomain
    u_h: np.ndarray            # values on R_h (zero on B_h by construction)
    residual: float
    e_h: Optional[np.ndarray] = None
    error_grid_norm: Optional[float] = None


def backward_error(S, u: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ||S u - b||_inf / (||S||_inf ||u||_inf + ||b||_inf)."""
    scale = inf_norm(S) * np.abs(u).max() + np.abs(b).max()
    return float(np.abs(S @ u - b).max() / scale) if scale != 0 else 0.0  # NaN propagates


def solve_dirichlet(domain: GridDomain, f_rh: np.ndarray, residual_tol: float = 1e-8):
    """Solve L_h u_h = f on R_h with u_h = 0 on B_h.

    The solve of S u = h^4 f is accepted when its normwise backward error is
    at most residual_tol: the residual itself grows with the h^-4
    conditioning of L_h even for a backward-stable solve.  `residual` is the
    grid norm of L_h u_h - f.
    """
    if domain.n_rh == 0:
        raise ValueError("R_h is empty")
    prec = assemble_precision(domain)  # matrix = kappa^2 S, S the integer stencil
    S = prec.raw                       # L_h = S / h^4
    b = domain.h**4 * np.asarray(f_rh, dtype=float)
    u = prec.solve(domain.kappa**2 * b)
    back = backward_error(S, u, b)
    if not back <= residual_tol:
        raise RuntimeError(f"discrete solve backward error {back:.3e} exceeds {residual_tol:.1e}")
    res = grid_norm(S @ u / domain.h**4 - f_rh, domain.h, domain.d)
    return DiscreteSolution(domain=domain, u_h=u, residual=res)


def attach_error(sol: DiscreteSolution, problem: ManufacturedProblem) -> DiscreteSolution:
    dom = sol.domain
    xs = dom.rh_coordinates()
    sol.e_h = problem.u(xs) - sol.u_h
    sol.error_grid_norm = grid_norm(sol.e_h, dom.h, dom.d)
    return sol


@dataclass
class ConvergenceRow:
    h: float
    n_rh: int
    error: float
    bound: float


@dataclass
class ConvergenceStudy:
    problem: str
    rows: list
    fitted_order: float
    fitted_constant: float     # err^2 <= C * bound, C fitted at the coarsest h
    monotone: bool
    within_bound: bool


def convergence_study(problem: ManufacturedProblem, h_list: Sequence[float]) -> ConvergenceStudy:
    """Solve at each h, report || R_h e_h ||_{h,grid} against the error bound.

    Its own checks: errors strictly decreasing along decreasing h and the
    fitted order (log-log slope) at least 1/2.  The bound check fits the
    constant at the coarsest h and requires every finer h to stay below
    C * bound * 1.05.
    """
    if len(h_list) < 3:
        raise ValueError("need at least 3 grid spacings")
    hs = sorted(h_list, reverse=True)
    rows = []
    for h in hs:
        dom = classify(problem.shape, h)
        f_rh = problem.f(dom.rh_coordinates())
        sol = attach_error(solve_dirichlet(dom, f_rh), problem)
        bound = problem.M5**2 * h**2 + h * (problem.M5**2 * h**6 + problem.M2**2)
        rows.append(ConvergenceRow(h=h, n_rh=dom.n_rh, error=sol.error_grid_norm, bound=bound))
    errs = np.array([r.error for r in rows])
    hsv = np.array([r.h for r in rows])
    order = float(np.polyfit(np.log(hsv), np.log(errs), 1)[0])
    monotone = bool(np.all(np.diff(errs) < 0))
    C = rows[0].error ** 2 / rows[0].bound
    within = all(r.error**2 <= C * r.bound * 1.05 for r in rows)
    return ConvergenceStudy(
        problem=problem.name,
        rows=rows,
        fitted_order=order,
        fitted_constant=C,
        monotone=monotone,
        within_bound=within,
    )


# ---------------------------------------------------------------------------
# fitted-constant monitors for the discrete Sobolev inequalities

def random_smooth_fields(domain: GridDomain, trials: int, seed: int) -> np.ndarray:
    """Random smooth compactly supported fields sampled on R_h.

    Random low-order trigonometric combinations damped by a smooth bump that
    vanishes well inside the domain, so the restriction to R_h has no
    boundary jump and grid norms converge under refinement (white noise
    would make every difference-quotient norm blow up like 1/h).
    """
    rng = np.random.default_rng(seed)
    xs = domain.rh_coordinates()
    d = domain.d
    lo, hi = domain.shape.bounding_box()
    center = 0.5 * (lo + hi)
    radius = 0.5 * float(np.min(hi - lo))
    u = np.linalg.norm(xs - center, axis=1) / (0.85 * radius)
    damp = np.where(u < 1.0, np.maximum(1.0 - u * u, 0.0) ** 6, 0.0)
    out = np.empty((trials, domain.n_rh))
    for t in range(trials):
        acc = np.zeros(domain.n_rh)
        for _ in range(6):
            k = rng.integers(1, 4, size=d)
            phase = rng.uniform(0, 2 * np.pi, size=d)
            amp = rng.standard_normal()
            term = amp * np.ones(domain.n_rh)
            for ax in range(d):
                term = term * np.cos(np.pi * k[ax] * xs[:, ax] / radius + phase[ax])
            acc += term
        out[t] = acc * damp
    return out


def poincare_fit(domain: GridDomain, trials: int = 8, seed: int = 5) -> float:
    """Largest ratio ||f||_grid / ||D_j f||_grid over random smooth fields."""
    d = domain.d
    h = domain.h
    worst = 0.0
    for f in random_smooth_fields(domain, trials, seed):
        base = np.pad(field_on_grid(domain, f), 1)
        num = grid_norm(base, h, d)
        for ax in range(d):
            den = grid_norm(_forward_diff(base, ax, h), h, d)
            worst = max(worst, num / den)
    return worst


def stability_fit(domain: GridDomain, trials: int = 8, seed: int = 6) -> float:
    """Largest ratio ||f||_{h,2} / ||L_{h,2} f||_grid over random smooth fields."""
    worst = 0.0
    for f in random_smooth_fields(domain, trials, seed):
        num = sobolev_h2_norm(f, domain)
        den = grid_norm(lh2_apply(f, domain), domain.h, domain.d)
        worst = max(worst, num / den)
    return worst


def bstar_count_scaling(shape: ShapePredicate, h_list: Sequence[float]):
    """|B_h*| * h^{d-1} across spacings (bounded iff the count is O(h^{-(d-1)}))."""
    out = []
    for h in h_list:
        dom = classify(shape, h)
        nb = int(np.sum(dom.classes == 1))
        out.append((h, nb, nb * h ** (shape.dimension - 1)))
    return out
