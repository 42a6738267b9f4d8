"""Precision matrix and Green's function (covariance) of the discrete interface.

The field's energy is (1/2) sum_x |Delta_1 phi_x|^2 with phi pinned to zero
outside R_h, so the precision operator is the squared normalized Laplacian
with zero extension.  Its matrix entries between R_h points are the
bilaplacian stencil times kappa^2; stencil arms reaching outside R_h are
dropped (the zero boundary).  The covariance G solves

    Delta_1^2 G(x, .) = delta_x     on R_h,     G(x, .) = 0 outside.

`PrecisionMatrix.solver()` is the one place that picks how to invert the
precision: a sparse factorization (fill-reducing ordering, via SuperLU) up to
FACTORIZATION_CAP rows, and the spectrally preconditioned box PCG of
`boxsolve` for centred boxes above that cap (above BOX_FFT_CAP_3D in d >= 3,
where factorization fill explodes).  Any other domain above the cap raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import GridDomain, assemble, stencil_weights

DENSE_TABLE_CAP = 20_000
FACTORIZATION_CAP = 600_000   # rows; above this only centred boxes are solved
BOX_FFT_CAP_3D = 40_000       # centred boxes in d >= 3: factorization fill
                              # explodes, switch to the spectral solver early


@dataclass
class PrecisionMatrix:
    """Sparse symmetric positive definite precision of the field on R_h."""

    domain: GridDomain
    matrix: sp.csr_matrix      # kappa^2-scaled bilaplacian with zero extension
    raw: sp.csr_matrix         # integer stencil matrix S (matrix = kappa^2 * S)

    _solver: Optional[object] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def solver(self):
        if self._solver is None:
            self._solver = _make_solver(self.matrix, self.domain)
        return self._solver

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.solver()(rhs)


def assemble_precision(domain: GridDomain) -> PrecisionMatrix:
    """Assemble kappa^2 * S where S is the integer bilaplacian stencil on R_h."""
    if domain.n_rh == 0:
        raise ValueError("R_h is empty; nothing to assemble")
    raw = assemble(domain, stencil_weights("bilaplacian", domain.d))
    kappa2 = 1.0 / (2 * domain.d) ** 2
    return PrecisionMatrix(domain=domain, matrix=(kappa2 * raw).tocsr(), raw=raw)


def _make_solver(A: sp.csr_matrix, domain: GridDomain):
    n = A.shape[0]
    if n > FACTORIZATION_CAP or (domain.d >= 3 and n > BOX_FFT_CAP_3D):
        from .boxsolve import CenteredBoxSolver, centered_box_halfwidth

        M = centered_box_halfwidth(domain)
        if M >= 0:
            box = CenteredBoxSolver(domain.d, M)
            tol = 1e-11

            def box_solve(rhs):
                x, info = box.solve(rhs, tol=tol)
                if not info.relative_residual <= tol:
                    raise RuntimeError(
                        f"box PCG stopped at relative residual {info.relative_residual:.3e} "
                        f"after {info.iterations} iterations (tolerance {tol:.0e})"
                    )
                return x

            return box_solve
    if n > FACTORIZATION_CAP:
        raise ValueError(
            f"system size {n} is above the factorization cap {FACTORIZATION_CAP} "
            f"and the domain is not a centred box"
        )
    return spla.splu(A.tocsc()).solve


@dataclass
class GreenTable:
    """Covariance values G(x, y) between R_h points, in field-variance units."""

    domain: GridDomain
    mode: str                  # "full" or "columns"
    values: np.ndarray         # full: (n, n); columns: (k, n)
    column_points: Optional[np.ndarray] = None   # integer coords for "columns" mode
    max_residual: float = 0.0
    _row_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = () if self.column_points is None else self.column_points
        self._row_of = {tuple(p): r for r, p in enumerate(points)}

    def at(self, x: Sequence[int], y: Sequence[int]) -> float:
        """G between two integer lattice points (0 if either is outside R_h).

        In columns mode x must be a stored column point when both are in R_h.
        """
        i = self.domain.rh_index_of(x)
        j = self.domain.rh_index_of(y)
        if i < 0 or j < 0:
            return 0.0
        if self.mode == "full":
            return float(self.values[i, j])
        r = self._row_of.get(tuple(x))
        if r is None:
            raise KeyError(f"column for {tuple(x)} not stored")
        return float(self.values[r, j])


def solve_green_column(
    precision: PrecisionMatrix, x: Sequence[int], residual_tol: float = 1e-8
) -> np.ndarray:
    """One covariance column G(x, .) on R_h; asserts the BVP residual post-solve."""
    i = precision.domain.rh_index_of(x)
    if i < 0:
        raise ValueError(f"point {x} is not in R_h")
    rhs = np.zeros(precision.n)
    rhs[i] = 1.0
    g = precision.solve(rhs)
    res = np.abs(precision.matrix @ g - rhs).max()
    if not res <= residual_tol:
        raise RuntimeError(
            f"BVP residual {res:.3e} above {residual_tol:.1e}; "
            f"condition may be too poor for this solver"
        )
    return g


def green_columns(
    precision: PrecisionMatrix, points: Sequence[Sequence[int]], batch: int = 256
) -> GreenTable:
    """Selected covariance columns, solved in batches against one factorization."""
    pts = np.asarray(points, dtype=np.int64)
    idx = np.empty(len(pts), dtype=np.int64)
    for r, p in enumerate(pts):
        i = precision.domain.rh_index_of(p)
        if i < 0:
            raise ValueError(f"point {tuple(p)} is not in R_h")
        idx[r] = i
    # keep each dense block of right-hand sides within a fixed float budget
    batch = max(1, min(batch, 16_000_000 // precision.n))
    cols = np.empty((len(pts), precision.n))
    worst = 0.0
    solver = precision.solver()
    for lo in range(0, len(pts), batch):
        hi = min(lo + batch, len(pts))
        rhs = np.zeros((precision.n, hi - lo))
        rhs[idx[lo:hi], np.arange(hi - lo)] = 1.0
        sol = solver(rhs)
        res = np.abs(precision.matrix @ sol - rhs).max()
        worst = float(np.maximum(worst, res))  # NaN propagates
        cols[lo:hi] = sol.T
    return GreenTable(
        domain=precision.domain,
        mode="columns",
        values=cols,
        column_points=pts,
        max_residual=worst,
    )


def green_full(precision: PrecisionMatrix, cap: int = DENSE_TABLE_CAP) -> GreenTable:
    """All covariance columns against one factorization; symmetry asserted."""
    n = precision.n
    if n > cap:
        raise ValueError(
            f"|R_h| = {n} exceeds the dense cap {cap}; use green_columns instead"
        )
    solver = precision.solver()
    G = np.empty((n, n))
    batch = 512
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        rhs = np.zeros((n, hi - lo))
        rhs[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        G[:, lo:hi] = solver(rhs)
    asym = np.abs(G - G.T).max() / max(np.abs(G).max(), 1e-300)
    if not asym <= 1e-10:
        raise RuntimeError(f"Green table asymmetry {asym:.2e} exceeds 1e-10")
    G = 0.5 * (G + G.T)
    return GreenTable(domain=precision.domain, mode="full", values=G)


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
    for ax in range(d):
        sl_all = [slice(None)] * d
        sl_cut = [slice(None)] * d
        sl_cut[ax] = slice(0, shp[ax] - 1)
        sl_up = [slice(None)] * d
        sl_up[ax] = slice(1, shp[ax])
        idx = np.indices(shp)
        # diagonal entries via fancy indexing on the flattened table
        flat = table.values
        nrh = flat.shape[0]
        lin = np.arange(nrh).reshape(shp)
        a = lin[tuple(sl_cut)].ravel()
        b = lin[tuple(sl_up)].ravel()
        inc = flat[b, b] - 2.0 * flat[b, a] + flat[a, a]
        inc_max = max(inc_max, float(inc.max()))
    if d == 2:
        denom = np.log(N)
    else:
        denom = 1.0
    return BoundReport(
        N=N,
        sup_g=sup_g,
        sup_grad=sup_grad,
        sup_mixed_ratio=inc_max / denom,
        max_increment_var=inc_max,
    )


def central_variance(d: int, N: int) -> float:
    """G(0,0) on the box (-1,1)^d at h = 1/N (the centre-of-box variance)."""
    from .lattice import classify, unit_box

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

    Uses the centre covariance column from the folded box solver; pairs are
    (0, y) with y at least N/4 from the boundary and separation in
    [r_min, r_max] (default N/2, keeping clear of both the lattice scale and
    the boundary-affected regime).
    """
    from .boxsolve import SymmetricBoxSolver

    d = 4
    M = N - 2  # R_h of the box (-1,1)^d at h = 1/N blows up to [-(N-2), N-2]^d
    if r_max is None:
        r_max = N / 2.0
    solver = SymmetricBoxSolver(d, M)
    gfold, info = solver.solve_center_column(tol=tol)
    coords = np.indices((M + 1,) * d).reshape(d, -1)
    r = np.sqrt(np.sum(coords.astype(float) ** 2, axis=0))
    bulk = np.max(coords, axis=0) <= (M - N // 4)
    mask = bulk & (r >= r_min) & (r <= r_max)
    X = -np.log(r[mask] + 1.0)
    Y = gfold.reshape(-1)[mask]
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
