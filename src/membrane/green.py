"""Precision matrix and Green's function (covariance) of the discrete interface.

The field's energy is (1/2) sum_x |Delta_1 phi_x|^2 with phi pinned to zero
outside R_h, so the precision operator is the squared normalized Laplacian
with zero extension.  Its matrix entries between R_h points are the
bilaplacian stencil times kappa^2; stencil arms reaching outside R_h are
dropped (the zero boundary).  The covariance G solves

    Delta_1^2 G(x, .) = delta_x     on R_h,     G(x, .) = 0 outside.

`PrecisionMatrix.solver()` is the one place that picks how to invert the
precision, and `PrecisionMatrix.route` records its pick, by domain:

    centred box     box-direct in d = 2, and in d = 3 within the factor
                    budget; box-pcg above it, and in d = 1 and d >= 4
    anything else   torus-capacitance within the factor budget, else superlu

"box-direct" is the sine-transform and per-sector capacitance solve of
`boxsolve.DirectBoxSolver`, taken while its factors fit in
DIRECT_FACTOR_BUDGET bytes (in d = 3 up to [-52, 52]^3); "box-pcg" is the
sine-coefficient box PCG of `boxsolve`, at any size, and a solve that stops
above its tolerance raises; "torus-capacitance" is the periodic-torus
embedding and capacitance solve of `torus.TorusCapacitanceSolver`, with
one dense factor per class of the reflection-parity sectors of R_h's
mirror group (one factor over the whole boundary layer when R_h has no
mirror symmetry), taken in every d while those factors fit in
DIRECT_FACTOR_BUDGET bytes (the unit ball up to h = 1/34 in d = 3 and
h = 1/10 in d = 4).
Every domain that is not a centred box is bounded by FACTORIZATION_CAP rows,
above which it raises.  A box or torus route builds its operator from the
domain, so it is taken only when a seeded random probe (`operator_probe`)
shows that the matrix given is that operator; the probes run before any
factor is built.  Otherwise the matrix goes to SuperLU, and `route_reason`
says why, as it says why a domain above the budget goes to box PCG or
SuperLU.  `box_route` owns the box half of the table, and the box spectra
of `spectral` take the solver it builds.  `PrecisionMatrix.factor_fill`
records the entries of the factors built: SuperLU's stored entries of L and
U (`SuperLU.nnz`; building L and U to count them would copy the factor),
the sum of r^2 over the torus class factors of r rows (m^2 for one factor
on m boundary points, about m^2 / 5 for a disk), `boxsolve.direct_fill` for
the sector factors of a box (2(M+1)^2 + M^2 for [-M, M]^2) and 0 for box
PCG.  `PrecisionMatrix.sectors` holds the torus route's symmetric axes and
class sizes.
The d=4 log-correlation study solves for the centre column by
`boxsolve.centre_column`: the box PCG of the even sector |x_i|, run on the
permutation wedge f_0 <= .. <= f_{d-1} of its sine coefficients.

`factorize_spd`, the one call of SuperLU, uses its symmetric mode: minimum-
degree ordering of A^T + A and diagonal pivots, the choice for SPD matrices
(George & Liu 1981).  The shift-invert eigensolves of `spectral` use it on
the domains that reach SuperLU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import GridDomain, assemble, classify, inf_norm, stencil_weights, unit_box

DENSE_TABLE_CAP = 20_000
FACTORIZATION_CAP = 600_000   # rows; above this only centred boxes are solved
RHS_FLOAT_BUDGET = 16_000_000  # floats in one dense batch of right-hand sides
PROBE_TOL = 1e-12             # route operator vs matrix, relative to ||A|| ||v||
DIRECT_FACTOR_BUDGET = 2**28  # bytes of box-direct or torus factors; above it box PCG or SuperLU


@dataclass
class PrecisionMatrix:
    """Sparse symmetric positive definite precision of the field on R_h."""

    domain: GridDomain
    matrix: sp.csr_matrix      # kappa^2-scaled bilaplacian with zero extension
    raw: sp.csr_matrix         # integer stencil matrix S (matrix = kappa^2 * S)

    _solver: Optional[object] = field(default=None, repr=False)
    route: Optional[str] = field(default=None, init=False)  # set by solver()
    route_reason: str = field(default="", init=False)       # why a box or torus route was refused
    factor_fill: int = field(default=0, init=False)         # entries of the factors the route built
    sectors: dict = field(default_factory=dict, init=False)  # torus route: symmetric axes, class sizes

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def solver(self):
        if self._solver is None:
            self._solver, self.route, self.route_reason, self.factor_fill, self.sectors = _make_solver(
                self.matrix, self.domain
            )
        return self._solver

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.solver()(rhs)


def assemble_precision(domain: GridDomain) -> PrecisionMatrix:
    """Assemble kappa^2 * S where S is the integer bilaplacian stencil on R_h."""
    if domain.n_rh == 0:
        raise ValueError("R_h is empty; nothing to assemble")
    raw = assemble(domain, stencil_weights("bilaplacian", domain.d))
    return PrecisionMatrix(domain=domain, matrix=(domain.kappa**2 * raw).tocsr(), raw=raw)


def box_route(A: sp.csr_matrix, domain: GridDomain):
    """(solver, route, reason, fill) by the box half of the table above: a
    probed `boxsolve.DirectBoxSolver` or `CenteredBoxSolver`, its route, why
    box-direct was refused ("" when it was not), and its factor's entries;
    (None, "", reason, 0) when the probe refuses A, with reason "" when the
    domain is not a centred box."""
    from .boxsolve import CenteredBoxSolver, DirectBoxSolver, centered_box_halfwidth, direct_fill

    d, M = domain.d, centered_box_halfwidth(domain)
    if M < 0:
        return None, "", "", 0
    box = CenteredBoxSolver(d, M)
    reason = operator_probe(A, box)
    if reason:
        return None, "", reason, 0
    if d in (2, 3):
        nbytes = 8 * direct_fill(d, M)
        if nbytes <= DIRECT_FACTOR_BUDGET:
            direct = DirectBoxSolver(M, d)
            return direct, "box-direct", "", direct.fill
        reason = f"direct factors of {nbytes} bytes above DIRECT_FACTOR_BUDGET"
    return box, "box-pcg", reason, 0


def _make_solver(A: sp.csr_matrix, domain: GridDomain, boxed: Optional[tuple] = None):
    """(solve, route, reason, fill, sectors): a solver for A, the route's
    name, why a route of the table above was refused ("" when none was), the
    entries of the factors built, and the torus route's symmetric axes and
    class sizes ({} on other routes).  boxed is `box_route(A, domain)` when
    the caller has it already."""
    n = A.shape[0]
    # a centred box goes to its box route, any other domain to the torus
    # capacitance solve within the budget, the rest to SuperLU; a probe vets
    # the box and torus routes
    solver, route, reason, fill = boxed or box_route(A, domain)
    if route == "box-direct":
        return solver.solve, route, reason, fill, {}
    if route == "box-pcg":
        return (lambda rhs: solver.solve(rhs, tol=1e-11)[0]), route, reason, fill, {}
    if n > FACTORIZATION_CAP:
        raise ValueError(
            f"system size {n} is above the factorization cap {FACTORIZATION_CAP} "
            f"and {reason or 'the domain is not a centred box'}"
        )
    if not reason:  # not a centred box
        from .torus import TorusCapacitanceSolver  # loads scipy.fft, which no box needs

        torus = TorusCapacitanceSolver(domain)
        if 8 * torus.fill > DIRECT_FACTOR_BUDGET:
            reason = f"torus class factors of {8 * torus.fill} bytes above DIRECT_FACTOR_BUDGET"
        else:
            reason = operator_probe(A, torus)
        if not reason:
            return torus.factorize().solve, "torus-capacitance", "", torus.fill, torus.sectors
    lu = factorize_spd(A)
    return lu.solve, "superlu", reason, lu.nnz, {}


def operator_probe(A: sp.spmatrix, route) -> str:
    """"" when a seeded random probe shows that A is the route's `operator`,
    else why the route is refused."""
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    mismatch = np.abs(A @ v - route.operator(v)).max() / (inf_norm(A) * np.abs(v).max())
    if mismatch <= PROBE_TOL:
        return ""
    return f"matrix is not the {type(route).__name__} operator (probe mismatch {mismatch:.1e})"


def factorize_spd(A: sp.spmatrix) -> spla.SuperLU:
    """SuperLU factor of a symmetric positive definite matrix, in symmetric mode."""
    return spla.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


@dataclass
class GreenTable:
    """Covariance values G(x, y) between R_h points, in field-variance units."""

    domain: GridDomain
    mode: str                  # "full" or "columns"
    values: np.ndarray         # full: (n, n); columns: (k, n)
    column_points: Optional[np.ndarray] = None   # integer coords for "columns" mode
    max_residual: float = 0.0
    asymmetry: float = 0.0     # full: max |G - G^T| / max |G| as solved, before averaging
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # table row of each R_h point, -1 where no column is stored
        n = self.domain.n_rh
        cols = np.arange(n) if self.mode == "full" else self.domain.rh_indices(self.column_points)
        self._row = np.full(n, -1)
        self._row[cols] = np.arange(len(cols))

    def at(self, x: Sequence[int], y: Sequence[int]) -> float:
        """G between two integer lattice points (0 if either is outside R_h).

        In columns mode x must be a stored column point when both are in R_h.
        """
        i, j = self.domain.rh_indices([x, y])
        if i < 0 or j < 0:
            return 0.0
        if self._row[i] < 0:
            raise KeyError(f"column for {tuple(x)} not stored")
        return float(self.values[self._row[i], j])


def solve_block(precision: PrecisionMatrix, W: sp.csc_matrix, take) -> float:
    """Solve A X = W for a sparse block W (n, k) of right-hand sides.

    Columns go to the precision's solver in dense batches of at most 256
    columns and RHS_FLOAT_BUDGET floats, so box-PCG domains in d >= 3 stay
    within memory.  `take(cols, X)` receives each batch's column slice and
    solutions.  Returns the worst max-norm residual |A X - W| (NaN
    propagates); callers gate on it.
    """
    n, k = W.shape
    step = max(1, min(256, RHS_FLOAT_BUDGET // n))
    solver = precision.solver()
    worst = 0.0
    for lo in range(0, k, step):
        cols = slice(lo, min(lo + step, k))
        rhs = W[:, cols].toarray()
        sol = solver(rhs)
        worst = float(np.maximum(worst, np.abs(precision.matrix @ sol - rhs).max()))
        take(cols, sol)
    return worst


def solve_green_column(precision: PrecisionMatrix, x: Sequence[int]) -> np.ndarray:
    """One covariance column G(x, .) on R_h; asserts the BVP residual (1e-8) post-solve."""
    table = green_columns(precision, [x])
    if not table.max_residual <= 1e-8:
        raise RuntimeError(
            f"BVP residual {table.max_residual:.3e} above 1e-8; "
            f"condition may be too poor for this solver"
        )
    return table.values[0]


def green_columns(precision: PrecisionMatrix, points: Sequence[Sequence[int]]) -> GreenTable:
    """Selected covariance columns, solved in batches against one solver."""
    pts = np.asarray(points, dtype=np.int64)
    idx = precision.domain.rh_indices(pts)
    if np.any(idx < 0):
        raise ValueError(f"point {tuple(pts[idx < 0][0])} is not in R_h")
    cols = np.empty((len(pts), precision.n))

    def store(c, X):
        cols[c] = X.T

    units = sp.csc_matrix((np.ones(len(pts)), (idx, np.arange(len(pts)))), shape=(precision.n, len(pts)))
    worst = solve_block(precision, units, store)
    return GreenTable(
        domain=precision.domain,
        mode="columns",
        values=cols,
        column_points=pts,
        max_residual=worst,
    )


def green_full(precision: PrecisionMatrix, cap: int = DENSE_TABLE_CAP) -> GreenTable:
    """All covariance columns against one solver, symmetrized after the
    asymmetry as solved is checked and stored on the table."""
    n = precision.n
    if n > cap:
        raise ValueError(
            f"|R_h| = {n} exceeds the dense cap {cap}; use green_columns instead"
        )
    G = np.empty((n, n))

    def store(c, X):
        G[:, c] = X

    worst = solve_block(precision, sp.identity(n, format="csc"), store)
    asym = float(np.abs(G - G.T).max() / max(np.abs(G).max(), 1e-300))
    if not asym <= 1e-10:
        raise RuntimeError(f"Green table asymmetry {asym:.2e} exceeds 1e-10")
    G = 0.5 * (G + G.T)
    return GreenTable(domain=precision.domain, mode="full", values=G, max_residual=worst, asymmetry=asym)


# ---------------------------------------------------------------------------
# covariance bound reports on box domains

def _grid_view(table: GreenTable) -> np.ndarray:
    """Full table reshaped to (grid..., grid...) for a box domain."""
    dom = table.domain
    pts = dom.rh_points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    side = hi - lo + 1
    n = dom.n_rh
    if int(np.prod(side)) != n:
        raise ValueError("check_bounds requires a full box R_h")
    shp = tuple(int(s) for s in side)
    return table.values.reshape(shp + shp), shp


@dataclass
class BoundReport:
    N: int
    sup_g: float               # sup |G| / N^{4-d}
    sup_grad: float            # sup ||grad_x G|| / N^{3-d}
    sup_mixed_ratio: float     # mixed second difference vs d-dependent bound
    max_increment_var: float   # sup_z E[(phi_{z+e_i}-phi_z)^2]


def check_bounds(table: GreenTable, N: int) -> BoundReport:
    """Fitted constants for the covariance bounds on a box at scale N.

    The bounds only assert existence of constants, so the report returns the
    fitted values; stability across N is what tests assert.
    """
    dom = table.domain
    d = dom.d
    G, shp = _grid_view(table)
    n4 = float(N) ** (4 - d)
    n3 = float(N) ** (3 - d)
    sup_g = float(np.abs(G).max()) / n4

    # forward differences in x for each axis
    grad_sq = np.zeros_like(G)
    for ax in range(d):
        diff = np.diff(G, axis=ax)
        pad = [(0, 0)] * (2 * d)
        pad[ax] = (0, 1)
        grad_sq += np.pad(diff, pad) ** 2
    sup_grad = float(np.sqrt(grad_sq).max()) / n3

    # mixed second differences D_{i,x} D_{i,y} G at coincident points give the
    # increment variance E[(phi_{z+e_i}-phi_z)^2] = G(z+e,z+e)-2G(z+e,z)+G(z,z)
    inc_max = 0.0
    flat = table.values
    lin = np.arange(flat.shape[0]).reshape(shp)
    for ax in range(d):
        a = np.delete(lin, -1, axis=ax).ravel()  # z
        b = np.delete(lin, 0, axis=ax).ravel()  # z + e_ax
        inc = flat[b, b] - 2.0 * flat[b, a] + flat[a, a]
        inc_max = max(inc_max, float(inc.max()))
    denom = np.log(N) if d == 2 else 1.0
    return BoundReport(
        N=N,
        sup_g=sup_g,
        sup_grad=sup_grad,
        sup_mixed_ratio=inc_max / denom,
        max_increment_var=inc_max,
    )


def central_variance(d: int, N: int) -> float:
    """G(0,0) on the box (-1,1)^d at h = 1/N (the centre-of-box variance)."""
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    g = solve_green_column(prec, (0,) * d)
    return float(g[dom.rh_index_of((0,) * d)])


def variance_growth_slope(d: int, Ns: Sequence[int]):
    """Regression slope of log G_N(0,0) against log N over the given scales."""
    vals = [central_variance(d, N) for N in Ns]
    slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    return slope, vals


# ---------------------------------------------------------------------------
# log-correlation study at the critical dimension (box fast path)

@dataclass
class LogCorrReport:
    N: int
    slope: float
    intercept: float
    n_pairs: int
    r_range: tuple
    solver_iterations: int
    solver_residual: float


def log_correlation_slope(
    N: int,
    r_min: float = 3.0,
    r_max: Optional[float] = None,
    tol: float = 1e-9,
) -> LogCorrReport:
    """Covariance against -log(|x-y|+1) for bulk pairs on the d=4 box at scale N.

    Uses the centre covariance column G(0, .) on the sector |y_i| of the box,
    solved on its permutation wedge by `boxsolve.centre_column` (the even
    box solve on about 1/d! of the unknowns); pairs are (0, y) with y at least N/4
    from the boundary and separation in [r_min, r_max] (default N/2, keeping
    clear of both the lattice scale and the boundary-affected regime).
    """
    from .boxsolve import centre_column

    d = 4
    M = N - 2  # R_h of the box (-1,1)^d at h = 1/N blows up to [-(N-2), N-2]^d
    if r_max is None:
        r_max = N / 2.0
    gfold, info = centre_column(d, M, tol)
    m2 = np.arange(M + 1) ** 2.0
    r = np.sqrt(sum(m2.reshape((-1,) + (1,) * (d - 1 - ax)) for ax in range(d)))
    bulk = np.zeros(r.shape, dtype=bool)
    bulk[(slice(0, M - N // 4 + 1),) * d] = True
    mask = (bulk & (r >= r_min) & (r <= r_max)).reshape(-1)
    X = -np.log(r.reshape(-1)[mask] + 1.0)
    Y = gfold[mask]
    slope, intercept = np.polyfit(X, Y, 1)
    return LogCorrReport(
        N=N,
        slope=float(slope),
        intercept=float(intercept),
        n_pairs=int(mask.sum()),
        r_range=(float(r_min), float(r_max)),
        solver_iterations=info.iterations,
        solver_residual=info.relative_residual,
    )
