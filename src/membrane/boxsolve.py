"""Solvers for the field precision operator on centred boxes, in sine coefficients.

On a box Lambda = [-M, M]^d of lattice points with zero field outside, the
precision matrix (the quadratic form of the interface energy) splits exactly
as

    A = B^2 + kappa^2 * diag(c)

where B = kappa*J - I is the nearest-neighbour Dirichlet Laplacian on the box
(J the box adjacency) and c(x) counts the lattice neighbours of x that lie
outside the box.  The split holds because the only length-2 paths that leave
the box and return go out one step through a face and come straight back; on
a box every such exterior point has exactly one interior neighbour, so the
correction is diagonal with c(x) = #{i : x_i = -M or x_i = M} exterior steps
per extremal coordinate.

B is diagonalized by products of sines.  In the orthonormal sine basis
(DST-I per axis) the precision becomes

    A_hat = Lambda + kappa^2 * sum_i (v_- v_-^T + v_+ v_+^T) along axis i,

with Lambda = mu^2 the diagonal B^2 symbol (`lattice.mu_symbol` at the
angles theta_i = pi f_i / (2M+2) of the sine frequencies f) and v_-, v_+
the 1-D sine basis at the two end points -M and M.  `CenteredBoxSolver`
transforms the right-hand side to coefficients once, runs conjugate
gradients there with the diagonal preconditioner 1/Lambda (a few dozen
iterations regardless of size), and transforms back once.  An iteration
costs O(d n) for n unknowns: the face term is a rank-2 contraction and
expansion along each axis, with no transform inside the loop.

Functions that are even in every coordinate (a delta at the centre, symmetric
test functions) are spanned by the odd-frequency sine modes.  With
`even=True` the solver stores only the sector m_i = |x_i| in {0..M} and keeps
only those modes, where v_+ = v_-; by Parseval the inner product of two even
fields over the whole box is the plain dot product of their coefficients.
This is what makes the d=4 experiments desk-sized.

An even right-hand side that is also symmetric under the d! permutations
of the axes (the centre delta, a product test function) has symmetric
coefficients, and so has every CG iterate, since Lambda and the face term
commute with the permutations.  `wedge_solve` therefore runs the PCG on the
wedge f_0 <= .. <= f_{d-1} (`lattice.wedge`): C(M+d, d) unknowns in place of
(M+1)^d, 46,376 against 923,521 in d = 4 at M = 30.  The apply is
A_hat c = Lambda c + sum_i 2 v[f_i] s(f without f_i), with
s(g) = sum_a v[a] c[sort(g, a)] on the (d-1)-tuples, two gathers through
index tables built per call.  The iterate is y = sqrt(orbit) c, orbit(f)
the number of permutations of f, so that the plain dot product of y is the
sector's: the iterates, residuals and iteration counts are those of the
even-sector solve in exact arithmetic.  `centre_column` scatters the
result to the sector, once per permutation, and transforms it back by
`field`.  The pairing variance of `spectral.pairing_variance_study` needs
no field: it is the sector dot product of the coefficients of f and of
A^{-1} f, read off the wedge as sum_f orbit(f) cf(f) c(f).

That is one of 2^d parity sectors.  On the full box the face vectors obey
v_+(f) = (-1)^(f+1) v_-(f) at frequency f, so v_- v_-^T + v_+ v_+^T couples
only frequencies of equal parity, as 2 u u^T with u = v_- on them.  A_hat
therefore splits exactly into one block per choice of frequency parity along
each axis: Lambda_s plus a rank-1 term per axis, on (M+1)^a M^(d-a)
unknowns for a odd axes (the even-frequency sets are empty when M = 0).
Sectors that differ by a permutation of the axes have the same block up to
that permutation.  `parity_classes` groups the sectors by class
(`lattice.axis_classes`), `box_classes` keeps the nonempty classes with
their shapes, `sector_view` is a sector's part of the box's
coefficients, and `CenteredBoxSolver.sector_block` its dense block, which
the box spectra of `spectral.eigendecompose` hand to dense `eigh`.

In d = 2 and 3 each sector's face term has rank only about d L^(d-1)/2^(d-1)
(L = 2M+1 points per side), so `DirectBoxSolver` solves exactly instead of
iterating, by the capacitance (Woodbury) method of Buzbee, Dorr, George and
Golub (SIAM J. Numer. Anal. 8, 1971) applied to each sector.  Write the
sector block, of shape (n0, n1[, n2]), as Lambda_s + sum_a U_a U_a^T with
U_0 = w_0 (x) I, U_1 the same along axis 1 (and U_2 along axis 2), and
w_a = sqrt(2) u on the frequencies of axis a's parity.  Three eliminations
follow, each exact:

- Axis 0.  P = Lambda_s + U_0 U_0^T is one n0 x n0 block per line (q, r),
  diag(lam) + w_0 w_0^T, whose inverse E_qr = diag(1/lam) - a a^T / d0 is
  closed form (Sherman-Morrison).  By Woodbury about P, with V the axis-1
  and axis-2 terms, A_s^{-1} c = P^{-1} c - P^{-1} V K^{-1} V^T P^{-1} c and
  K = I + V^T P^{-1} V.
- Axis 1.  K's axis-1 block is block diagonal in r: B_r = I + sum_q
  w1_q^2 E_qr, n2 blocks of n0 x n0 (one block in d = 2, where K = B and
  nothing is left).  They are small and well conditioned (eigenvalues
  from 1 to about M/4), and are stored inverted.
- Axis 2 (d = 3).  The Schur complement S = C - X^T B^{-1} X on the n0 n1
  axis-2 terms is dense, with C_q = I + sum_r w2_r^2 E_qr and cross block
  X[(p, r), (s, q)] = w1_q w2_r E_qr[p, s]; it is Cholesky-factored.

Every block of K is a closed-form contraction of (w_a, 1/Lambda_s, d0), and
so is each product with V or P^{-1} in a solve: O(n) work per right-hand
side besides the B and S solves.  One factor set serves a whole permutation
class: 3 in d = 2 and 4 in d = 3, not 4 and 8.  The factors hold sum n0^2
entries in d = 2 (about 3 M^2) and sum n2 n0^2 + (n0 n1)^2 in d = 3 (about 4
(M+1)^4, `direct_fill`), built in O(M^6) work by one symmetric product
(`dsyrk`) and one Cholesky per class.  A solve maps the whole box to sine
coefficients and back with the orthonormal sine matrices of its
`CenteredBoxSolver` (`coefficients` and `field`: one dense product per axis,
as in box PCG), `CHUNK` right-hand sides at a time; in between each sector
is solved on a strided view of the coefficients (odd frequencies sit at even
indices), transposed into its representative's axis order.  That transpose
is the inverse of the sector's `axes`: in d = 3 a class holds sectors whose
axes are a 3-cycle of the representative's (sector (0,1,1) of class (1,1,0)
has axes (2,0,1)), and a 3-cycle is not its own inverse.
`DirectBoxSolver.sector_solve` is the solve on one sector's coefficients;
the box spectra of `spectral.eigendecompose` on a box that `green` solves
directly run their shift-invert eigensolves on it.

The transforms are dense products and not FFTs: a product by an L x L sine
matrix costs 2L flops a point and axis, and an FFT of the period 2M + 2 is
slow when that period has a large prime factor, as at the sizes used here
(190 = 2 * 5 * 19 at M = 94).  The contractions are `einsum` (no BLAS), so
a d = 2 solve uses numpy's OpenBLAS only, for the transforms.  A d = 3
solve also runs scipy's `dpotrs` on S, and scipy links its own OpenBLAS
with its own thread pool, so it switches pools twice per chunk.  The
factorizations and the build's one matrix product are scipy's.  README's
numerical notes hold the measurements behind these choices.

Every other R_h is solved on a periodic torus by
`torus.TorusCapacitanceSolver`, which takes its sector classes from
`parity_classes`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import Box, axis_classes, kappa, mu_symbol, wedge


@dataclass
class SolveInfo:
    iterations: int
    relative_residual: float


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, and 0 where b == 0 (a column whose residual is exactly zero)."""
    return np.divide(a, b, out=np.zeros_like(a), where=b != 0.0)


def _oriented(mat: np.ndarray) -> tuple:
    """mat as `_along` takes it: mat and mat.T, each C-contiguous."""
    return np.ascontiguousarray(mat), np.ascontiguousarray(mat.T)


def _along(a: np.ndarray, axis: int, mat: tuple) -> np.ndarray:
    """mat applied along one axis of a, as a new C-contiguous array.

    mat is `_oriented`: the last axis takes a @ mat.T, the others mat @ a,
    so that BLAS never gets a transposed view, on which a small product can
    stall for milliseconds with 2 numpy threads (README)."""
    left, right = mat
    pre = a.shape[:axis]
    if axis == a.ndim - 1:
        return (a.reshape(-1, a.shape[-1]) @ right).reshape(pre + (right.shape[1],))
    out = np.matmul(left, a.reshape(int(np.prod(pre)), a.shape[axis], -1))
    return out.reshape(pre + (len(left),) + a.shape[axis + 1:])


def block_pcg(apply_A, inv_diag: np.ndarray, B: np.ndarray, tol: float, maxiter: int):
    """CG on each slice B[j] of a batch, all slices in step, preconditioned
    by the diagonal inv_diag (broadcast over the batch).

    apply_A(P, out) writes A P into out.  Iterates are updated in place, and
    B is overwritten by the residual.  Iteration stops when every column's
    relative residual is at most tol, or when a residual is NaN.  Zero
    columns are solved by x = 0.  Returns (X, SolveInfo) with the worst
    column's residual; raises RuntimeError when that residual is above tol
    (or is NaN).
    """
    k = B.shape[0]
    col = (-1,) + (1,) * (B.ndim - 1)

    def dot(u, v):
        return np.einsum("ij,ij->i", u.reshape(k, -1), v.reshape(k, -1))

    X = np.zeros_like(B)
    R = B
    bnorm = np.sqrt(dot(B, B))
    if not bnorm.any():
        return X, SolveInfo(0, 0.0)
    bnorm[bnorm == 0.0] = 1.0
    Z = R * inv_diag
    P = Z.copy()
    AP = np.empty_like(B)
    rz = dot(R, Z)
    info = SolveInfo(0, 1.0)
    for it in range(1, maxiter + 1):
        apply_A(P, AP)
        alpha = _ratio(rz, dot(P, AP)).reshape(col)
        X += np.multiply(alpha, P, out=Z)
        R -= np.multiply(alpha, AP, out=Z)
        rel = np.sqrt(dot(R, R)) / bnorm
        info = SolveInfo(it, float(rel.max()))
        if not info.relative_residual > tol:  # converged, or NaN
            break
        np.multiply(R, inv_diag, out=Z)
        rz_new = dot(R, Z)
        P *= _ratio(rz_new, rz).reshape(col)
        P += Z
        rz = rz_new
    if not info.relative_residual <= tol:
        raise RuntimeError(
            f"box PCG stopped at relative residual {info.relative_residual:.3e} "
            f"after {info.iterations} iterations (tolerance {tol:.0e})"
        )
    return X, info


class CenteredBoxSolver:
    """PCG solver for A u = b on Lambda = [-M, M]^d in sine coefficients.

    Right-hand sides are flat over the stored grid, (n,) or (n, k): the full
    box (2M+1)^d, or with even=True the sector {0..M}^d of a field that is
    even in every coordinate (value at x stored at |x|).
    """

    def __init__(self, d: int, M: int, even: bool = False):
        if M < 0:
            raise ValueError("M must be >= 0")
        self.d = int(d)
        self.M = int(M)
        period = 2 * M + 2
        if even:
            x = np.arange(M + 1)
            freq = 2 * x + 1  # odd sine frequencies carry even functions
            mult = np.where(x == 0, 1.0, 2.0)  # box points x_i with |x_i| = m
        else:
            x = np.arange(-M, M + 1)
            freq = x + M + 1
            mult = np.ones(len(x))
        self.L = len(x)
        self.n = self.L**self.d

        def sines(points):  # orthonormal DST-I basis, (modes, points)
            return np.sqrt(2.0 / period) * np.sin(np.pi * np.outer(freq, points + M + 1) / period)

        basis = sines(x)
        self._faces = kappa(d) * sines(np.array([-M, M]))  # (modes, 2)
        self._to_coef, self._to_field = _oriented(basis * mult), _oriented(basis.T)
        self._face_in, self._face_out = _oriented(self._faces.T), _oriented(self._faces)
        self._lam = mu_symbol(np.ix_(*[np.pi * freq / period] * d)) ** 2  # B^2 in the sine basis
        self._inv_lam = 1.0 / self._lam

    def _transform(self, a: np.ndarray, mat: np.ndarray) -> np.ndarray:
        for ax in range(a.ndim - self.d, a.ndim):
            a = _along(a, ax, mat)
        return a

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Sine coefficients of stored fields of shape grid or (k,) + grid."""
        return self._transform(u, self._to_coef)

    def field(self, c: np.ndarray) -> np.ndarray:
        """Stored field values of sine coefficients (inverse of `coefficients`)."""
        return self._transform(c, self._to_field)

    def apply(self, c: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """A_hat c for coefficient arrays of shape grid or (k,) + grid."""
        out = np.multiply(c, self._lam, out=out)
        for ax in range(c.ndim - self.d, c.ndim):
            out += _along(_along(c, ax, self._face_in), ax, self._face_out)
        return out

    def operator(self, u: np.ndarray) -> np.ndarray:
        """A u for a flat stored field u, through the coefficient-space apply."""
        return self.field(self.apply(self.coefficients(u.reshape((self.L,) * self.d)))).reshape(-1)

    def sector_block(self, parity: tuple) -> np.ndarray:
        """Dense block of A_hat on one parity sector of the full box, in C
        order over the sector's frequencies: Lambda_s plus 2 u u^T along each
        axis, with u the face vector v_- on that axis's frequencies."""
        cell = sector_cell(parity)
        lam = self._lam[cell]
        block = np.diag(lam.reshape(-1))
        rows = np.arange(len(block)).reshape(lam.shape)
        for ax, i in enumerate(cell):
            r = np.moveaxis(rows, ax, -1)[..., :, None]
            u = self._faces[i, 0]
            block[r, np.swapaxes(r, -1, -2)] += 2.0 * np.outer(u, u)
        return block

    def solve(self, b: np.ndarray, tol: float = 1e-10, maxiter: int = 400):
        """Solve A x = b for flat right-hand sides (n,) or (n, k).

        Returns (x, SolveInfo), x of b's shape; raises RuntimeError when the
        worst relative residual stays above tol (or is NaN).
        """
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        cols = 1 if single else b.shape[1]
        rhs = self.coefficients((b[None, :] if single else b.T).reshape((cols,) + (self.L,) * self.d))
        C, info = block_pcg(self.apply, self._inv_lam, rhs, tol, maxiter)
        out = self.field(C).reshape(cols, -1).T
        return (out[:, 0] if single else out), info


def wedge_solve(box: CenteredBoxSolver, F: np.ndarray, orbit: np.ndarray, rhs: np.ndarray,
                tol: float = 1e-10, maxiter: int = 400):
    """c with A_hat c = rhs on the permutation wedge of the even sector, and
    its SolveInfo; raises RuntimeError like box PCG when the residual stays
    above tol.

    box is `CenteredBoxSolver(d, M, even=True)` and (F, orbit) is
    `wedge(d, M)`.  rhs holds the sector coefficients of a right-hand side
    symmetric under the axis permutations, at the rows F; c is the solution's
    coefficients there (module docstring).
    """
    d, n = box.d, box.M + 1
    binom = np.array([[math.comb(a, r) for r in range(d + 1)] for a in range(n + d)])

    def rank(cols, shape):  # wedge rows of sorted tuples, given column by column
        return sum((binom[f + i, i + 1] for i, f in enumerate(cols)), np.zeros(shape, dtype=np.intp))

    G = wedge(d - 1, box.M)[0]
    # ins[g, a] is the row of sort(g, a): a inserted into g by d - 1 min/max steps
    carry, cols = np.broadcast_to(np.arange(n), (len(G), n)), []
    for j in range(d - 1):
        cols.append(np.minimum(G[:, j, None], carry))
        carry = np.maximum(G[:, j, None], carry)
    ins = rank(cols + [carry], carry.shape)
    # drop[f, i] is the row of f without f_i in G
    drop = np.stack([rank([F[:, j] for j in range(d) if j != i], len(F)) for i in range(d)], axis=1)
    root = np.sqrt(orbit)
    v = box._faces[:, 0]  # = v_+ on the odd frequencies
    lam = box._lam[tuple(F.T)]
    w_ins, w_drop = v / root[ins], 2.0 * v[F] * root[:, None]

    def apply(p, out):  # root * A_hat(p / root), with s(g) = sum_a v_a c[sort(g, a)]
        s = np.einsum("ga,ga->g", p[0][ins], w_ins)
        np.multiply(p, lam, out=out)
        out[0] += np.einsum("fi,fi->f", s[drop], w_drop)

    # block_pcg overwrites its right-hand side, so it gets a fresh array
    Y, info = block_pcg(apply, 1.0 / lam, (root * rhs)[None], tol, maxiter)
    return Y[0] / root, info


def centre_column(d: int, M: int, tol: float = 1e-10, maxiter: int = 400):
    """x with A x = e_0 on [-M, M]^d, as `CenteredBoxSolver(d, M, even=True)`
    stores it (flat over {0..M}^d), and its SolveInfo; raises RuntimeError
    like box PCG when the residual stays above tol.

    Box PCG on the permutation wedge of the even sector (module docstring).
    """
    box = CenteredBoxSolver(d, M, even=True)
    n = M + 1
    F, orbit = wedge(d, M)
    # the coefficients of e_0 are prod_i fwd[f_i, 0]
    c, info = wedge_solve(box, F, orbit, np.prod(box._to_coef[0][F, 0], axis=1), tol, maxiter)
    # c at every permutation of each wedge tuple: place[j][i] puts column i on axis j
    sector = np.empty(n**d)
    place = [[F[:, i] * n ** (d - 1 - j) for i in range(d)] for j in range(d)]
    for perm in itertools.permutations(range(d)):
        sector[sum(place[j][i] for j, i in enumerate(perm))] = c
    return box.field(sector.reshape((n,) * d)).reshape(-1), info


def parity_classes(d: int, blocks: list = None) -> list:
    """The 2^d parity sectors of d axes, by class under the permutations of
    the axes within each block of `blocks` (lists of axes; by default one
    block of all d, as on a box).

    One entry per class: its representative rep, odd on the first a axes of
    each block for a = len(block), ..., 0 (the first block slowest), and the
    class's sectors as (parity, axes) with parity[j] = rep[axes[j]], so that
    an array over the representative's frequencies, transposed by `axes`,
    is the same array over the sector's.  Within a block the axes are
    `lattice.axis_classes`.  The order of the list is the sector order.
    """
    blocks = [list(range(d))] if blocks is None else blocks
    classes = []
    for counts in itertools.product(*(range(len(b), -1, -1) for b in blocks)):
        rep = [0] * d
        for b, a in zip(blocks, counts):
            for j in b[:a]:
                rep[j] = 1
        sectors = []
        for perms in itertools.product(*(axis_classes(len(b))[a] for b, a in zip(blocks, counts))):
            axes = list(range(d))
            for b, perm in zip(blocks, perms):
                for j, x in zip(b, perm):
                    axes[j] = b[x]
            sectors.append((tuple(rep[x] for x in axes), tuple(axes)))
        classes.append((tuple(rep), sectors))
    return classes


def box_classes(d: int, M: int) -> list:
    """The nonempty classes of `parity_classes(d)` on [-M, M]^d, as (rep,
    sectors, shape): a sector has M + p frequencies along an axis of parity
    p, so the even sectors of M = 0 are empty."""
    return [(rep, sectors, shape) for rep, sectors in parity_classes(d)
            for shape in [tuple(M + p for p in rep)] if math.prod(shape)]


def sector_cell(parity: tuple) -> tuple:
    """Slices of one parity sector in the sine coefficients of the full box:
    along each axis, the frequencies of parity p sit at indices 1-p, 3-p, ..."""
    return tuple(slice(1 - p, None, 2) for p in parity)


def sector_view(c: np.ndarray, parity: tuple, axes: tuple) -> np.ndarray:
    """The strided view of one sector of `parity_classes` in coefficients c
    of shape (k,) + box, in its representative's axis order: the inverse of
    axes (a 3-cycle in d = 3 is not its own inverse)."""
    return c[(slice(None),) + sector_cell(parity)].transpose(0, *(1 + np.argsort(axes)))


def direct_fill(d: int, M: int) -> int:
    """Entries of the factors that `DirectBoxSolver(M, d)` holds, by arithmetic:
    per class n0^2 in d = 2, and n2 n0^2 + (n0 n1)^2 in d = 3."""
    fill = 0
    for _, _, shape in box_classes(d, M):
        n0, n1, n2 = shape + (1,) * (3 - d)
        fill += n2 * n0 * n0 + (0 if d == 2 else (n0 * n1) ** 2)
    return fill


def _cholesky(a: np.ndarray, lower: bool = True) -> np.ndarray:
    """Cholesky factor of a symmetric positive definite matrix (LAPACK dpotrf,
    which reads one triangle); raises LinAlgError when a is not one."""
    c, info = scipy.linalg.lapack.dpotrf(a, lower=lower, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK info {info})")
    return c


class _SectorSolve:
    """The inverse of the block Lambda_s + sum_a w_a w_a^T (along axis a) of
    one parity sector, by the eliminations of the module docstring.

    Coefficients are (k, n0, n1, n2) arrays in the representative's axis
    order; in d = 2, n2 = 1 and there is no axis-2 term.  Every contraction
    is an `einsum` (no BLAS), and every factor solve a scipy LAPACK call.
    """

    def __init__(self, inv_lam: np.ndarray, w: list):
        self.d, self.w = inv_lam.ndim, w
        self.inv = inv = inv_lam.reshape(inv_lam.shape + (1,) * (3 - self.d))
        n0, n1, n2 = inv.shape
        w0, w1 = w[:2]
        # P = Lambda_s + the axis-0 term is one block per line (q, r), with
        # inverse E_qr = diag(inv) - a a^T / d0 (Sherman-Morrison)
        self.a = w0[:, None, None] * inv
        self.d0 = 1.0 + np.einsum("p,pqr->qr", w0, self.a)
        ad = self.a / np.sqrt(self.d0)
        self.aw1, self.iw1 = self.a * w1[:, None], inv * w1[:, None]
        i = np.arange(n0)
        # the axis-1 block of K = I + V^T P^-1 V: B_r = I + sum_q w1_q^2 E_qr,
        # with Cholesky factors L_r, stored inverted
        B = -np.einsum("pqr,sqr->rps", ad * (w1 * w1)[:, None], ad)
        B[:, i, i] += 1.0 + np.einsum("q,pqr->rp", w1 * w1, inv)
        L = [_cholesky(b) for b in B]
        L_inv = np.stack([scipy.linalg.lapack.dtrtri(l, lower=1)[0] for l in L])
        self.b_inv = np.einsum("rji,rjk->rik", L_inv, L_inv)  # B^-1 = L^-T L^-1
        self.fill = self.b_inv.size
        if self.d == 2:
            return
        w2 = w[2]
        self.aw2, self.iw2, self.iw12 = self.a * w2, inv * w2, self.iw1 * w2
        # the axis-2 block C_q = I + sum_r w2_r^2 E_qr, the cross block
        # X[r, p, s, q] = w1_q w2_r E_qr[p, s], and the Schur complement
        # S = C - G^T G on the n0 n1 axis-2 terms, with G_r = L_r^-1 X_r
        X = -np.einsum("pqr,sqr->rpsq", ad * w1[:, None] * w2, ad)
        X[:, i, i, :] += np.einsum("q,r,pqr->rpq", w1, w2, inv)
        G = np.stack([scipy.linalg.lapack.dtrtrs(l, x.reshape(n0, -1), lower=1)[0] for l, x in zip(L, X)])
        S = scipy.linalg.blas.dsyrk(-1.0, G.reshape(n2 * n0, -1).T)  # upper triangle
        C = -np.einsum("pqr,sqr->qps", ad * w2 * w2, ad)
        C[:, i, i] += 1.0 + np.einsum("r,pqr->qp", w2 * w2, inv)
        q = np.arange(n1)
        S.T.reshape(n0, n1, n0, n1)[:, q, :, q] += C
        self.schur = _cholesky(S, lower=False)
        self.fill += S.size

    def solve(self, c: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The block's inverse applied to c of shape (k, n0, n1, n2); out may be c.

        Woodbury over V = [U1, U2] about P: x = P^-1 (c - U1 z1 - U2 z2), with
        K [z1; z2] = V^T P^-1 c solved by eliminating the block-diagonal B.
        P^-1 u = inv u - a s with s = (a . u) / d0 along axis 0, and each
        P^-1 U_i z is contracted in closed form."""
        a, aw1, d0 = self.a, self.aw1, self.d0
        y = c * self.inv
        s = np.einsum("p,kpqr->kqr", self.w[0], y) / d0  # P^-1 c = y - a s
        h1 = np.einsum("kpqr,q->kpr", y, self.w[1]) - np.einsum("pqr,kqr->kpr", aw1, s)
        z1 = np.einsum("rps,ksr->kpr", self.b_inv, h1)  # B^-1 U1^T P^-1 c
        if self.d == 3:
            # z2 = S^-1 (U2^T P^-1 c - X^T z1), then z1 -= B^-1 X z2
            aw2 = self.aw2
            t = np.einsum("kpqr,r->kpq", y, self.w[2]) - np.einsum("pqr,kqr->kpq", aw2, s)
            t -= np.einsum("pqr,kpr->kpq", self.iw12, z1)
            t += np.einsum("pqr,kqr->kpq", aw2, np.einsum("pqr,kpr->kqr", aw1, z1) / d0)
            k, n0, n1 = t.shape
            z2 = scipy.linalg.lapack.dpotrs(self.schur, t.reshape(k, n0 * n1).T)[0].T.reshape(k, n0, n1)
            s2 = np.einsum("pqr,kpq->kqr", aw2, z2) / d0
            xz = np.einsum("pqr,kpq->kpr", self.iw12, z2) - np.einsum("pqr,kqr->kpr", aw1, s2)
            z1 -= np.einsum("rps,ksr->kpr", self.b_inv, xz)
            s -= s2
        s -= np.einsum("pqr,kpr->kqr", aw1, z1) / d0
        # x = y - a s - inv (U1 z1 + U2 z2), s now net of the P^-1 U_i z_i terms
        corr = a * s[:, None]
        corr += self.iw1 * z1[:, :, None]
        if self.d == 3:
            corr += self.iw2 * z2[..., None]
        return np.subtract(y, corr, out=out)


# right-hand sides that `DirectBoxSolver.solve` takes through the sine
# transforms and sector solves at once
CHUNK = 8


class DirectBoxSolver:
    """Direct solver for A u = b on the box [-M, M]^d, d in {2, 3}
    (capacitance method per parity sector).

    Uses the symbol and face vectors of `box`, the `CenteredBoxSolver(d, M)`
    it keeps; right-hand sides are flat over the box, (n,) or (n, k).
    `sector_solve` acts on the sine coefficients of one sector, named by the
    representative of its class in `parity_classes(d)`, of shape
    (n0, .., n_{d-1}) or (k, n0, .., n_{d-1}).
    """

    def __init__(self, M: int, d: int = 2):
        if d not in (2, 3):
            raise ValueError("the direct box solve takes d = 2 or 3")
        self.box = box = CenteredBoxSolver(d, M)
        self.d, self.L, self.n = d, box.L, box.n
        self._classes = box_classes(d, M)
        self._sectors = {
            rep: _SectorSolve(box._inv_lam[sector_cell(rep)],
                              [np.sqrt(2.0) * box._faces[sector_cell((p,))[0], 0] for p in rep])
            for rep, _, _ in self._classes
        }
        self.fill = sum(s.fill for s in self._sectors.values())  # entries of the factors

    def _blocks(self, c: np.ndarray) -> np.ndarray:
        """Sector coefficients as the (k, n0, n1, n2) view the sector solve takes."""
        c = c if c.ndim > self.d else c[None]
        return c if self.d == 3 else c[..., None]

    def sector_solve(self, rep: tuple, c: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """A_hat^{-1} c on the sector rep; out may be c."""
        x = self._sectors[rep].solve(self._blocks(c), None if out is None else self._blocks(out))
        return x.reshape(c.shape) if out is None else out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b for flat right-hand sides (n,) or (n, k), x of b's shape.

        CHUNK right-hand sides at a time are mapped to sine coefficients by
        `box`, solved sector by sector in place, and mapped back into one
        preallocated output, so temporaries follow the chunk, not the batch."""
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        B = b[None, :] if single else b.T
        k = len(B)
        out = np.empty((k, self.n))
        for j in range(0, k, CHUNK):
            y = self.box.coefficients(B[j:j + CHUNK].reshape((-1,) + (self.L,) * self.d))
            for rep, sectors, _ in self._classes:
                for parity, axes in sectors:
                    view = sector_view(y, parity, axes)
                    self.sector_solve(rep, view, out=view)
            out[j:j + CHUNK] = self.box.field(y).reshape(len(y), self.n)
        out = out.T
        return out[:, 0] if single else out


def centered_box_halfwidth(domain) -> int:
    """M such that R_h of the domain is exactly [-M, M]^d, or -1."""
    shape = domain.shape
    if not isinstance(shape, Box) or not shape.is_symmetric():
        return -1
    pts = domain.rh_points
    if len(pts) == 0:
        return -1
    M = int(pts.max())
    if len(pts) == (2 * M + 1) ** domain.d and int(pts.min()) == -M:
        return M
    return -1
