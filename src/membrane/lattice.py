"""Lattice discretization of continuum domains and discrete difference stencils.

A domain D in R^d is discretized on the grid h*Z^d.  Grid points are
classified by how deep they sit inside the domain, using the second-order
neighbourhood

    N(y) = { y +- h e_i, y +- h(e_i +- e_j) : 1 <= i, j <= d }

(note i = j is allowed, so N(y) contains y +- 2h e_i).  The classes are

    V_h  = closure(D) cap h Z^d          all grid points of the domain
    R_h  = { y in V_h : N(y) in V_h }    interior points
    B_h  = V_h \\ R_h                     boundary band (double layer)
    R_h* = { y in R_h : N(y) in R_h }    deep interior
    B_h* = R_h \\ R_h*                    inner boundary band

The discrete field lives on R_h with zero values outside, which is exactly
the support needed so that the 13/25/41-point bilaplacian stencil applied at
any point of R_h never reads values outside V_h.

Operators are stored as exact rational stencils (offset -> coefficient);
the caller scales by the appropriate power of h:

    delta1        kappa * nearest-neighbour difference, dimensionless
    deltah        h^-2  * nearest-neighbour difference
    bilaplacian   h^-4  * deltah composed with itself (center 4d^2+2d,
                  axis -4d, diagonals +2, double steps +1)
    bilap1        delta1 composed with itself = kappa^2 h^4 * bilaplacian

This module owns the operator: the stencils, kappa = 1/(2d) (`kappa`) and
the Fourier symbol mu of -Delta_1 (`mu_symbol`), whose square is the symbol
of the precision on the torus, on Z^d and, in sine coefficients, of the
box part B^2.  It is also the one place where a stencil meets the lattice:
`apply_stencil_array` applies it to a grid array and `assemble` builds its
sparse matrix on R_h with zero extension, whose infinity norm `inf_norm`
reads off its CSR arrays.  `_shifted_slices` is the one non-periodic shift
of a lattice array: the stencils of `apply_stencil_array`, the erosions of
`classify`, the axis rays of `verify_b2star` and, through
`apply_stencil_array`, the forward differences of `thomee`; only the
periodic torus rolls.  `axis_classes` enumerates the axis permutations that
the symmetry reductions of `boxsolve`, `torus` and `infvol` share, `wedge`
the multisets of indices with the number of permutations of each (the
permutation wedge of `boxsolve` and `spectral`, the node orbits of a box in
`infvol.scaling_variance`), and `WORKERS` is the thread count of the FFTs
of `torus` and the walks of `infvol`.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

Offset = Tuple[int, ...]
Stencil = Dict[Offset, Fraction]

# class labels
CLASS_BH = 0       # boundary band (field is pinned to zero here)
CLASS_BHSTAR = 1   # inner band: in R_h but not deep interior
CLASS_RHSTAR = 2   # deep interior
CLASS_NAMES = {CLASS_BH: "B_h", CLASS_BHSTAR: "B_h*", CLASS_RHSTAR: "R_h*"}

# Threads of the torus FFTs and the walk oracle: the cores this process may
# use.  Each splits its work so that the results do not depend on the count.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def kappa(d: int) -> float:
    """kappa = 1/(2d), the normalization Delta_1 = kappa * Delta of the Laplacian."""
    return 1.0 / (2 * d)


def mu_symbol(angles) -> np.ndarray:
    """mu(theta) = (2/d) sum_i sin^2(theta_i/2), the Fourier symbol of -Delta_1,
    from d per-axis angle arrays that broadcast; 0 <= mu <= 2, zero only at 0.

    The sin^2 form keeps full relative accuracy near theta = 0, where the
    equal form (1/d) sum_i (1 - cos theta_i) cancels.
    """
    return (2.0 / len(angles)) * sum(np.sin(0.5 * t) ** 2 for t in angles)


# ---------------------------------------------------------------------------
# shapes

class ShapePredicate:
    """Bounded region of R^d with a pure, deterministic membership test.

    Membership is closed: points exactly on the boundary count as inside.
    """

    kind = "implicit"

    def __init__(self, dimension: int, membership: Callable[[np.ndarray], np.ndarray]):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        self._membership = membership

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Vectorized membership: x has shape (..., d); returns bool array."""
        return self._membership(np.asarray(x, dtype=float))

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError("implicit shapes must override bounding_box")


class Box(ShapePredicate):
    """Axis-aligned box prod_i [lo_i, hi_i]."""

    kind = "box"

    def __init__(self, bounds: Sequence[Tuple[float, float]]):
        bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        for lo, hi in bounds:
            if not lo < hi:
                raise ValueError("box bounds must satisfy lo < hi")
        self.bounds = bounds
        d = len(bounds)
        super().__init__(d, self._member)

    def _member(self, x: np.ndarray) -> np.ndarray:
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        eps = 1e-9 * scale
        return np.all((x >= lo - eps) & (x <= hi + eps), axis=-1)

    def bounding_box(self):
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return lo, hi

    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.bounds]))

    def is_symmetric(self) -> bool:
        """Whether the box is centred at the origin per axis."""
        return all(abs(lo + hi) < 1e-12 for lo, hi in self.bounds)


class Ball(ShapePredicate):
    """Closed Euclidean ball of given center and radius."""

    kind = "ball"

    def __init__(self, center: Sequence[float], radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        super().__init__(len(self.center), self._member)

    def _member(self, x: np.ndarray) -> np.ndarray:
        r2 = np.sum((x - self.center) ** 2, axis=-1)
        eps = 1e-9 * max(1.0, self.radius**2)
        return r2 <= self.radius**2 + eps

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def volume(self) -> float:
        return unit_ball_volume(self.dimension) * self.radius**self.dimension


def unit_ball_volume(d: int) -> float:
    """omega_d = pi^{d/2} / Gamma(d/2 + 1)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit_box(d: int) -> Box:
    """The standard box (-1, 1)^d used for the finite-volume field."""
    return Box([(-1.0, 1.0)] * d)


def shape_from_config(cfg: dict) -> ShapePredicate:
    """Build a shape from a config dict with keys kind, dimension, bounds/center/radius."""
    kind = cfg.get("kind")
    if kind == "box":
        if "bounds" in cfg:
            return Box([tuple(b) for b in cfg["bounds"]])
        d = int(cfg["dimension"])
        half = float(cfg.get("half_width", 1.0))
        return Box([(-half, half)] * d)
    if kind == "ball":
        d = int(cfg["dimension"])
        center = cfg.get("center", [0.0] * d)
        return Ball(center, float(cfg.get("radius", 1.0)))
    raise ValueError(f"unknown shape kind: {kind!r}")


# ---------------------------------------------------------------------------
# neighbourhood offsets

def neighborhood_offsets(d: int) -> list:
    """Offsets of N(y)/h: +-e_i, +-2e_i and +-e_i +- e_j for i != j.

    This is the support of the bilaplacian stencil without its centre.
    """
    return sorted(o for o in stencil_weights("bilaplacian", d) if any(o))


def axis_classes(d: int, first: int = 0) -> list:
    """Axis permutations that carry each class representative onto its orbit.

    Axes first..d-1 are interchangeable, and class j's representative marks
    first..first+j-1 (the upper halves of a quadrature box, the odd axes of a
    parity sector).  For each j-subset S of them, in `itertools.combinations`
    order, class j lists sigma, the inverse of the order (0..first-1, S, the
    rest): an array over the representative, transposed by sigma, is the one
    with S marked, its entry at f the representative's at g[sigma[i]] = f[i].
    """
    free = range(first, d)
    classes = []
    for j in range(d - first + 1):
        orders = ([*range(first), *S, *(ax for ax in free if ax not in S)] for S in itertools.combinations(free, j))
        classes.append([tuple(sorted(range(d), key=order.__getitem__)) for order in orders])
    return classes


def wedge(d: int, M: int):
    """The permutation wedge of {0..M}^d: the sorted tuples f_0 <= .. <= f_{d-1},
    one per row in colex order (f at row sum_i C(f_i + i, i + 1)), and the
    orbit of each, the number of its permutations d! / prod_v (mult. of v)!.
    A negative d or M raises ValueError."""
    if d < 0 or M < 0:
        raise ValueError(f"wedge(d={d}, M={M}) needs d, M >= 0")
    W = np.zeros((1, 0), dtype=np.intp)
    for k in range(d):
        # the (k+1)-tuples ending in t extend the k-tuples whose entries are
        # at most t, which are the first C(t + k, k) rows
        count = np.array([math.comb(t + k, k) for t in range(M + 1)])
        rows = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        W = np.column_stack([W[rows], np.repeat(np.arange(M + 1), count)])
    run, denom = np.ones(len(W)), np.ones(len(W))  # run: equal entries up to column j
    for j in range(1, d):
        run = np.where(W[:, j] == W[:, j - 1], run + 1.0, 1.0)
        denom *= run
    return W, math.factorial(d) / denom


# ---------------------------------------------------------------------------
# grid domain

@dataclass
class GridDomain:
    """Lattice discretization of a shape with the double boundary-layer classification.

    Points are stored as integer lattice coordinates k (physical position
    x = k*h), ordered lexicographically.  `classes` holds one of CLASS_BH,
    CLASS_BHSTAR, CLASS_RHSTAR per point.  `rh_points`/`rh_index` give the
    bijection between R_h points and matrix row indices.
    """

    shape: ShapePredicate
    h: float
    points: np.ndarray          # (n, d) int64, all of V_h, lexicographic
    classes: np.ndarray         # (n,) int8
    origin: np.ndarray          # (d,) int64: lattice coord of mask[0,...,0]
    mask_shape: Tuple[int, ...]
    inside_mask: np.ndarray     # boolean over bounding grid (V_h)
    rh_mask: np.ndarray
    rhstar_mask: np.ndarray
    empty_interior: bool = False

    @property
    def d(self) -> int:
        return self.shape.dimension

    @property
    def kappa(self) -> float:
        return kappa(self.d)

    def __post_init__(self):
        rh = self.classes != CLASS_BH
        self.rh_points = self.points[rh]
        # map lattice coords -> row index over the bounding grid
        idx = -np.ones(self.mask_shape, dtype=np.int64)
        loc = tuple((self.rh_points - self.origin).T)
        idx[loc] = np.arange(len(self.rh_points))
        self.rh_index_grid = idx

    @property
    def n_vh(self) -> int:
        return len(self.points)

    @property
    def n_rh(self) -> int:
        return len(self.rh_points)

    def rh_coordinates(self) -> np.ndarray:
        """Physical coordinates of the R_h points, shape (n_rh, d)."""
        return self.rh_points * self.h

    def rh_index_of(self, point: Sequence[int]) -> int:
        """Row index of an integer lattice point; -1 if not in R_h."""
        return int(self.rh_indices(point))

    def rh_indices(self, points) -> np.ndarray:
        """Row indices of integer lattice points of shape (..., d); -1 off R_h.

        An empty list is no points; points whose last axis is not d raise
        ValueError.
        """
        p = np.asarray(points, dtype=np.int64)
        if p.shape == (0,):
            p = p.reshape(0, self.d)
        if p.shape[-1:] != (self.d,):
            raise ValueError(f"lattice points of shape {p.shape}: the last axis must have length d = {self.d}")
        p = p - self.origin
        inside = np.all((p >= 0) & (p < np.array(self.mask_shape)), axis=-1)
        idx = np.full(inside.shape, -1, dtype=np.int64)
        idx[inside] = self.rh_index_grid[tuple(np.moveaxis(p[inside], -1, 0))]
        return idx

    def counts(self) -> Dict[str, int]:
        return {
            "V_h": self.n_vh,
            "B_h": int(np.sum(self.classes == CLASS_BH)),
            "B_h*": int(np.sum(self.classes == CLASS_BHSTAR)),
            "R_h*": int(np.sum(self.classes == CLASS_RHSTAR)),
            "R_h": self.n_rh,
        }

    def export_csv(self, path) -> None:
        """Write x_1..x_d,class rows for every V_h point."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x_{i+1}" for i in range(self.d)] + ["class"])
            for p, c in zip(self.points, self.classes):
                w.writerow([f"{v * self.h:.17g}" for v in p] + [CLASS_NAMES[int(c)]])


def _shifted_slices(offset: Offset, side: Tuple[int, ...]):
    """Slice tuples (src, dst) that pair each position y of dst with y + offset.

    Positions whose partner y + offset falls off the array are left out of dst;
    an offset at least as long as its side pairs nothing.
    """
    src = []
    dst = []
    for o, n in zip(offset, side):
        o = max(-n, min(o, n))
        if o >= 0:
            src.append(slice(o, n))
            dst.append(slice(0, n - o))
        else:
            src.append(slice(0, n + o))
            dst.append(slice(-o, n))
    return tuple(src), tuple(dst)


def classify(shape: ShapePredicate, h: float) -> GridDomain:
    """Discretize a shape at spacing h and classify every grid point.

    Raises ValueError on an empty V_h ("degenerate discretization").  An
    empty R_h is flagged, not fatal.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    d = shape.dimension
    lo, hi = shape.bounding_box()
    kmin = np.floor(lo / h - 0.5).astype(np.int64)
    kmax = np.ceil(hi / h + 0.5).astype(np.int64)
    # pad by 2 cells so the neighbourhood test never leaves the array
    kmin -= 2
    kmax += 2
    shape_grid = tuple(int(b - a + 1) for a, b in zip(kmin, kmax))
    axes = [np.arange(a, b + 1) for a, b in zip(kmin, kmax)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack(mesh, axis=-1).astype(float) * h
    inside = shape.contains(coords)
    if not inside.any():
        raise ValueError("degenerate discretization: V_h is empty")

    # a point left out of dst by a shift lies in the 2-cell pad, which is
    # already false in both masks
    offs = neighborhood_offsets(d)
    rh = inside.copy()
    for o in offs:
        src, dst = _shifted_slices(o, shape_grid)
        rh[dst] &= inside[src]
    rhstar = rh.copy()
    for o in offs:
        src, dst = _shifted_slices(o, shape_grid)
        rhstar[dst] &= rh[src]

    pts_idx = np.argwhere(inside)  # lexicographic (C order)
    points = pts_idx + kmin
    cls = np.zeros(len(points), dtype=np.int8)
    rh_flat = rh[tuple(pts_idx.T)]
    rhstar_flat = rhstar[tuple(pts_idx.T)]
    cls[rh_flat & ~rhstar_flat] = CLASS_BHSTAR
    cls[rhstar_flat] = CLASS_RHSTAR

    return GridDomain(
        shape=shape,
        h=float(h),
        points=points,
        classes=cls,
        origin=kmin,
        mask_shape=shape_grid,
        inside_mask=inside,
        rh_mask=rh,
        rhstar_mask=rhstar,
        empty_interior=not rh.any(),
    )


# ---------------------------------------------------------------------------
# stencils

def stencil_weights(variant: str, d: int) -> Stencil:
    """Exact rational stencil for the named operator variant, before h-scaling.

    deltah is the nearest-neighbour difference (centre -2d, +-e_i -> 1) and
    delta1 is kappa times it; bilaplacian and bilap1 compose each with itself
    (offsets add, coefficients multiply).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if variant in ("bilaplacian", "bilap1"):
        half = stencil_weights("deltah" if variant == "bilaplacian" else "delta1", d)
        st: Stencil = {}
        for oa, ca in half.items():
            for ob, cb in half.items():
                o = tuple(x + y for x, y in zip(oa, ob))
                st[o] = st.get(o, 0) + ca * cb
        return st
    if variant not in ("delta1", "deltah"):
        raise ValueError(f"unknown operator variant: {variant!r}")
    unit = Fraction(1, 2 * d) if variant == "delta1" else Fraction(1)
    st = {(0,) * d: -2 * d * unit}
    for i in range(d):
        for s in (1, -1):
            st[tuple(s * (k == i) for k in range(d))] = unit
    return st


def apply_stencil_array(field: np.ndarray, stencil: Stencil, scale: float = 1.0) -> np.ndarray:
    """Apply a stencil to an nd-array, treating values outside the array as zero."""
    out = np.zeros_like(field, dtype=float)
    for o, c in stencil.items():
        src, dst = _shifted_slices(o, field.shape)
        out[dst] += float(c) * field[src]
    return out * scale


def assemble(domain: GridDomain, stencil: Stencil) -> sp.csr_matrix:
    """The stencil's matrix on R_h with zero extension.

    Rows and columns follow the R_h ordering of `domain.rh_points`; stencil
    arms that reach outside R_h are dropped, which is the zero field there.
    The CSR arrays are built directly: R_h rows are in C order on a grid
    padded by 2 cells, so an arm of at most 2 steps per axis is a fixed
    shift of the flat grid index, and arms sorted by that shift give sorted
    columns in every row.
    """
    offsets = np.array(list(stencil), dtype=np.int64).reshape(len(stencil), domain.d)
    if np.abs(offsets).max(initial=0) > 2:
        raise ValueError("stencil arms reach more than 2 steps along an axis")
    grid = domain.rh_index_grid
    shift = offsets @ np.array(grid.strides) // grid.itemsize
    order = np.argsort(shift)
    coeffs = np.array([float(c) for c in stencil.values()])[order]
    cols = grid.reshape(-1)[np.flatnonzero(grid >= 0)[:, None] + shift[order]]
    keep = cols >= 0
    n = domain.n_rh
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((np.broadcast_to(coeffs, cols.shape)[keep], cols[keep], indptr), shape=(n, n))


def inf_norm(X: sp.spmatrix) -> float:
    """||X||_inf, the largest absolute row sum of a sparse matrix, reduced
    over its CSR data without the copy that abs(X) makes (another format is
    converted first); an empty row sums to 0."""
    X = X.tocsr()
    start, stop = X.indptr[:-1], X.indptr[1:]
    full = start < stop  # reduceat gives data[i] for an empty segment, not 0
    if not full.any():
        return 0.0
    return float(np.add.reduceat(np.abs(X.data[:X.indptr[-1]]), start[full]).max())


def field_on_grid(domain: GridDomain, values_rh: np.ndarray) -> np.ndarray:
    """Embed R_h values into the domain's bounding grid with zeros elsewhere."""
    g = np.zeros(domain.mask_shape, dtype=float)
    g[tuple((domain.rh_points - domain.origin).T)] = values_rh
    return g


# ---------------------------------------------------------------------------
# B2* verifier

@dataclass
class B2StarReport:
    passed: bool
    K: int
    n_checked: int
    witnesses: dict            # point tuple -> (axis, direction, step of first of the pair)
    failures: list             # points with no axis witness within K steps


def verify_b2star(domain: GridDomain, K: int = 4) -> B2StarReport:
    """Check that every B_h* point sees two consecutive B_h points along some axis ray.

    Only the 2d axis rays are searched, within K steps.  A point's witness is
    its first ray in the order (axis, direction, step): the B_h mask is read
    at y + step e and y + (step + 1) e through `_shifted_slices`, and the rays
    are written last to first so that the first one stays.  Vacuously true
    when B_h* is empty.  A witness pair ends at step t + 1 <= K, so K must be
    at least 2.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    d = domain.d
    bstar_pts = domain.points[domain.classes == CLASS_BHSTAR]
    loc = tuple((bstar_pts - domain.origin).T)
    bh_mask = domain.inside_mask & ~domain.rh_mask
    rays = [(axis, direction, step) for axis in range(d) for direction in (1, -1) for step in range(1, K)]
    first = np.full(len(bstar_pts), -1)
    for r in reversed(range(len(rays))):
        axis, direction, step = rays[r]
        pair = np.ones_like(bh_mask)
        for s in (step, step + 1):
            src, dst = _shifted_slices(tuple(direction * s * (k == axis) for k in range(d)), bh_mask.shape)
            seen = np.zeros_like(bh_mask)
            seen[dst] = bh_mask[src]
            pair &= seen
        first[pair[loc]] = r
    found = first >= 0
    return B2StarReport(
        passed=bool(found.all()),
        K=K,
        n_checked=len(bstar_pts),
        witnesses=dict(zip(map(tuple, bstar_pts[found].tolist()), map(rays.__getitem__, first[found].tolist()))),
        failures=list(map(tuple, bstar_pts[~found].tolist())),
    )
