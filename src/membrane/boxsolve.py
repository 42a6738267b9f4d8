"""Fast solvers for the field precision operator: centred boxes, and other domains on a torus.

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
wedge f_0 <= .. <= f_{d-1} (`wedge`): C(M+d, d) unknowns in place of
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
(`lattice.axis_classes`), `sector_view` is a sector's part of the box's
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
  from 1 to about M/4: 25 at M = 94 in d = 2, 10 at M = 46 in d = 3), and
  are stored inverted.
- Axis 2 (d = 3).  The Schur complement S = C - X^T B^{-1} X on the n0 n1
  axis-2 terms is dense, with C_q = I + sum_r w2_r^2 E_qr and cross block
  X[(p, r), (s, q)] = w1_q w2_r E_qr[p, s]; it is Cholesky-factored.

Every block of K is a closed-form contraction of (w_a, 1/Lambda_s, d0), and
so is each product with V or P^{-1} in a solve: O(n) work per right-hand
side besides the B and S solves.  One factor set serves a whole permutation
class: 3 in d = 2 and 4 in d = 3, not 4 and 8.  The factors hold
sum n0^2 entries in d = 2 (about 3 M^2) and sum n2 n0^2 + (n0 n1)^2 in
d = 3 (about 4 (M+1)^4; 0.41 M entries at M = 17, 3.6 M at M = 30), built
in O(M^6) work by one symmetric product (`dsyrk`) and one Cholesky per
class.  A solve maps the whole box to sine coefficients and back with the
orthonormal sine matrices of its `CenteredBoxSolver` (`coefficients` and
`field`: one dense product per axis, as in box PCG), `CHUNK` right-hand
sides at a time; in between each sector is solved on a strided view of the
coefficients (odd frequencies sit at even indices), transposed into its
representative's axis order.  That transpose is the inverse of the sector's
`axes`: in d = 3 a class holds sectors whose axes are a 3-cycle of the
representative's (sector (0,1,1) of class (1,1,0) has axes (2,0,1)), and a
3-cycle is not its own inverse.  `DirectBoxSolver.sector_solve` is the
solve on one sector's coefficients; the box spectra of
`spectral.eigendecompose` on a box that `green` solves directly run their
shift-invert eigensolves on it.

A product by an L x L sine matrix costs 2L flops a point and axis, and an
FFT of the period 2M + 2 is slow when that period has a large prime factor,
as at the sizes used here (190 = 2 * 5 * 19 at M = 94, 94 = 2 * 47 at
M = 46).  On 2 cores, 200 right-hand sides at M = 46 took 46-58 ms by the
products against 92-143 ms by `scipy.fft.dstn`, and 49 at M = 94 took 63-93
against 90-105 ms (medians of 9 solves in each of three processes); the
two agree to about 3e-15 relative.

numpy and scipy each link their own OpenBLAS, with a thread pool each, and
with 2 threads a switch between the two pools costs milliseconds: on a
2-core machine, four alternations of a scipy `cho_solve` (648 x 648 factor,
8 columns) with a numpy product of the same shape took 32 ms with 2 threads
against 5.1 ms with 1.  The contractions are `einsum` (no BLAS), so a d = 2
solve uses numpy's BLAS only, for the transforms.  A d = 3 solve also runs
scipy's `dpotrs` on S, and so switches twice per chunk.  Storing S^-1 (one
`dpotri` per class) and applying it by a numpy product took 8 right-hand
sides at M = 17 from 40-103 to 33-40 ms and at M = 30 from 139-198 to
132-154 ms (medians of 9 solves in each of three processes, 2 cores, with a
neighbour's load), but made the builds slower, and the d3d4-box benchmark
could not tell the two apart (0.283 s with `dpotrs` against 0.291 s,
medians of 10 pairs), so the solve keeps `dpotrs`.  The factorizations and
the build's one matrix product are scipy's.

Any other R_h (a disk, a ball, an off-centre box) is solved directly by
`TorusCapacitanceSolver`, the capacitance-matrix method of Buzbee, Dorr,
George and Golub (1971) and of Proskurowski and Widlund (Math. Comp. 30,
1976) on a periodic torus.  With P_i >= extent_i + 4 points per axis
(`scipy.fft.next_fast_len`), A is exactly the principal submatrix on R_h of
the periodic operator T = kappa^2 S_T, whose FFT symbol is mu(theta)^2
(`lattice.mu_symbol` at theta_i = 2 pi f_i / P_i).  T is singular on the
constants; G+ is its pseudo-inverse.  Let Gamma be the m torus points
outside R_h that the bilaplacian stencil couples to R_h (a layer two points
deep).  Then C = G+[Gamma, Gamma], gathered from one inverse FFT of the
pseudo-inverse symbol, is symmetric positive definite (no vector supported
on Gamma is constant), and is Cholesky-factored once, by sector.  A solve
extends b by zero, computes x0 = G+ b, and finds w on Gamma and a constant
c with

    C w + c 1 = -x0|Gamma,    1^T w = -sum(b),

by Cholesky solves and a rank-1 border.  Then x = G+(b + w) + c vanishes
on Gamma and T x = b + w, so x restricted to R_h solves A x = b.

C is factored by the symmetry of R_h (the group reduction of Allgower,
Boehmer, Georg and Miranda, SIAM J. Numer. Anal. 29, 1992).  The group is
read off the point set: the axes i whose mirror y_i -> s_i - y_i (about the
midpoint of R_h's extent, x_i -> -x_i for a domain centred at 0) maps R_h to
itself, and the swaps among those axes that keep R_h, where the extents
agree.  The torus, Gamma and G+ (even in each coordinate) are invariant too,
so C commutes with the group.  With k mirror axes, Gamma splits into the 2^k
parity sectors s (the odd axes), with the orthonormal basis
u_a = 2^(-(k+z_a)/2) sum_e chi_s(e) delta(e a) over the points a of the
folded layer F = Gamma cap {y_i >= s_i / 2 on the mirror axes}: z_a counts
a's coordinates on a mirror, chi_s(e) = -1 when e flips an odd number of
the odd axes, and a point on the mirror of an odd axis of s drops out of
sector s.  C is block diagonal in this basis, with blocks

    C_s[a, b] = 2^(-(z_a+z_b)/2) sum_e chi_s(e) G+(a - e b).

The constants on Gamma lie in the all-even sector, as the vector
2^((k-z_a)/2), so the border lives only there.  A swap of two axes carries
sector s onto the sector with the two parities swapped, and its block onto
that sector's block by a permutation of F, so one factor serves a
permutation class of sectors, as on the box (`parity_classes`): a unit ball
has d+1 factors of about m / 2^d rows, not one of m.  The blocks are
gathered one class at a time from a 2P-periodic tiling of G+ with int32
flat indices, and the 2^k reflection blocks are never held at once.  A solve
maps -x0|Gamma to the sector coefficients and back by a Walsh-Hadamard sum
over the 2^k images of each point of F, and solves each class's sectors
together by one Cholesky solve.  A domain without a mirror (an off-centre
disk, most `--domain` specs) is the trivial group: one factor over the
whole of Gamma, by the same code.

The build is O(m^3) work, and a solve is two FFT pairs on the torus plus
O(m^2).  In d = 3, m grows like n^(2/3), and the whole-Gamma factor loses
to SuperLU on a ball, but the class factors win: on the unit ball at
h = 1/20 (m = 7,784; rows 892 to 1,057) they build in about 0.3 s, against
about 15 s for SuperLU's build and one solve (README).  `green` routes a d >= 3
domain here when it has a mirror and 8 x (class factor entries) fits in
`green.DIRECT_FACTOR_BUDGET` bytes, and to SuperLU otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lattice import WORKERS, Box, axis_classes, kappa, mu_symbol, neighborhood_offsets


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
    so that BLAS never gets a transposed view.  With 2 numpy threads on 2
    cores, a 93 x 93 product by a transposed view took about 16 ms in 2 of
    20 fresh processes, against 0.05 ms by a C-contiguous copy."""
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
    column's residual.
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
        _raise_if_short(info, tol)
        out = self.field(C).reshape(cols, -1).T
        return (out[:, 0] if single else out), info


def _raise_if_short(info: SolveInfo, tol: float):
    if not info.relative_residual <= tol:
        raise RuntimeError(
            f"box PCG stopped at relative residual {info.relative_residual:.3e} "
            f"after {info.iterations} iterations (tolerance {tol:.0e})"
        )


def wedge(d: int, M: int):
    """The permutation wedge of {0..M}^d: the sorted tuples f_0 <= .. <= f_{d-1},
    one per row in colex order (f at row sum_i C(f_i + i, i + 1)), and the
    orbit of each, the number of its permutations d! / prod_v (mult. of v)!."""
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
    _raise_if_short(info, tol)
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


def parity_classes(d: int) -> list:
    """The 2^d parity sectors of a d-dimensional box, by permutation class.

    One entry per count a = d, ..., 0 of odd-frequency axes: the class
    representative (1,)*a + (0,)*(d-a) and the class's sectors as
    (parity, axes) with parity[j] = rep[axes[j]], so that an array over the
    representative's frequencies, transposed by `axes`, is the same array
    over the sector's.  The axes are `lattice.axis_classes(d)[a]`.  The
    order of the list is the sector order.
    """
    return [
        ((1,) * a + (0,) * (d - a), [(tuple(int(x < a) for x in axes), axes) for axes in perms])
        for a, perms in reversed(list(enumerate(axis_classes(d))))
    ]


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
    per nonempty class n0^2 in d = 2, and n2 n0^2 + (n0 n1)^2 in d = 3."""
    fill = 0
    for rep, _ in parity_classes(d):
        n0, n1, n2 = [M + p for p in rep] + [1] * (3 - d)
        if n0 * n1 * n2:
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
        self._classes = parity_classes(d)
        self._sectors = {}
        for rep, _ in self._classes:
            inv_lam = box._inv_lam[sector_cell(rep)]
            if inv_lam.size:  # the even sectors of M = 0 are empty
                w = [np.sqrt(2.0) * box._faces[sector_cell((p,))[0], 0] for p in rep]
                self._sectors[rep] = _SectorSolve(inv_lam, w)
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
            for rep, sectors in self._classes:
                for parity, axes in sectors:
                    if rep in self._sectors:
                        view = sector_view(y, parity, axes)
                        self.sector_solve(rep, view, out=view)
            out[j:j + CHUNK] = self.box.field(y).reshape(len(y), self.n)
        out = out.T
        return out[:, 0] if single else out


def _sector_classes(blocks: list, k: int) -> list:
    """`parity_classes` over k symmetric axes, with the axes of each block
    (positions in 0..k-1) interchangeable: the product of each block's
    classes, as (rep, [(parity, axes), ...]) with parity[j] = rep[axes[j]]."""
    classes = []
    for choice in itertools.product(*(parity_classes(len(b)) for b in blocks)):
        rep = [0] * k
        for b, (rep_b, _) in zip(blocks, choice):
            for j, p in zip(b, rep_b):
                rep[j] = p
        sectors = []
        for combo in itertools.product(*(sec for _, sec in choice)):
            axes = list(range(k))
            for b, (_, axes_b) in zip(blocks, combo):
                for j, a in zip(b, axes_b):
                    axes[j] = b[a]
            sectors.append((tuple(rep[a] for a in axes), tuple(axes)))
        classes.append((tuple(rep), sectors))
    return classes


class TorusCapacitanceSolver:
    """Direct solver for A u = b on any R_h, embedded in a periodic torus
    (capacitance method), with one factor per class of reflection-parity
    sectors.

    Right-hand sides are flat over R_h in its row order, (n,) or (n, k).
    `operator` needs only the torus; `factorize` builds the class factors,
    which `solve` uses.  Known before `factorize`: `axes`, the axes whose
    mirror maps R_h to itself (given axes must be among them; () gives the
    trivial group, one factor over the whole of Gamma); `class_sizes`, the
    rows of each class factor in `parity_classes` order (all-odd first);
    `fill`, their entries.
    """

    def __init__(self, domain, axes: tuple = None):
        import scipy.fft  # only this route transforms by FFT: a centred box never loads it

        d = domain.d
        pts = domain.rh_points
        self.n = len(pts)
        lo = pts.min(axis=0)
        ext = pts.max(axis=0) - lo + 1
        self.shape = tuple(scipy.fft.next_fast_len(int(e) + 4, real=True) for e in ext)
        self._axes = tuple(range(-d, 0))
        self._inside = np.ravel_multi_index(tuple((pts - lo + 2).T), self.shape)
        mask = np.zeros(self.shape, dtype=bool)
        mask.flat[self._inside] = True
        near = np.zeros_like(mask)
        for off in neighborhood_offsets(d):
            near |= np.roll(mask, off, axis=self._axes)
        self._gamma = np.flatnonzero(near & ~mask)  # the boundary layer
        self.m = len(self._gamma)
        freq = [np.arange(P) for P in self.shape[:-1]] + [np.arange(self.shape[-1] // 2 + 1)]
        self._symbol = mu_symbol(np.ix_(*(2 * np.pi * f / P for f, P in zip(freq, self.shape)))) ** 2
        self._pinv = np.divide(1.0, self._symbol, out=np.zeros_like(self._symbol), where=self._symbol > 0)
        self._factors = None
        # the group: the mirrors y_i -> s_i - y_i of torus coordinates that
        # keep R_h (flip, then roll by s_i + 1 - P_i), and the swaps among
        # those axes that keep it
        self._mirror = ext + 3
        self.axes = tuple(
            i for i in (range(d) if axes is None else axes)
            if np.array_equal(mask, np.roll(np.flip(mask, i), int(self._mirror[i]) + 1 - self.shape[i], axis=i))
        )
        if axes is not None and self.axes != tuple(axes):
            raise ValueError(f"R_h is not symmetric in every axis of {tuple(axes)}")
        blocks = []  # positions in axes; swaps within a block keep R_h
        for j, i in enumerate(self.axes):
            b = next((b for b in blocks if ext[self.axes[b[0]]] == ext[i]
                      and np.array_equal(mask, mask.swapaxes(self.axes[b[0]], i))), None)
            blocks.append([j]) if b is None else b.append(j)
        k, sym = len(self.axes), list(self.axes)
        pos = np.array(np.unravel_index(self._gamma, self.shape))
        u = 2 * pos[sym] - self._mirror[sym, None]  # centred coordinates of the symmetric axes
        fold = np.flatnonzero((u >= 0).all(axis=0))
        self._pos, u = pos[:, fold], u[:, fold]  # the folded layer F
        z = (u == 0).sum(axis=0)  # coordinates on a mirror
        # reflection e flips the axes set in flips[e]; the character of sector
        # s (odd axes set in the bits of s, axes[0] highest) there is H[s, e]
        self._flips = list(itertools.product((False, True), repeat=k))
        self._hadamard = np.array([[(-1) ** np.dot(p, f) for f in self._flips]
                                   for p in itertools.product((0, 1), repeat=k)], dtype=float)
        self._img = np.stack([np.searchsorted(self._gamma, self._flat(self._reflect(f), self.shape))
                              for f in self._flips], axis=1)
        self._to_sector = 2.0 ** (-0.5 * (k + z))[:, None]
        self._from_sector = 2.0 ** (0.5 * (z - k))[:, None]
        self._border = 2.0 ** (0.5 * (k - z))  # the constants on Gamma, in the all-even sector
        self._z = z
        # one factor per class; sector (s, rows) of a class solves its
        # coefficients at rows, the points of F that its swap carries onto
        # keep, the points of F off the mirrors of the class's odd axes
        self._classes = []
        flat, bit = self._gamma[fold], 1 << np.arange(k)[::-1]
        for rep, sectors in _sector_classes(blocks, k):
            keep = np.flatnonzero(~(u[np.array(rep, dtype=bool)] == 0).any(axis=0))
            rows = []
            for parity, ax in sectors:
                image = self._pos.copy()
                image[[sym[a] for a in ax]] = self._pos[sym]
                to = np.empty(len(fold), dtype=np.intp)  # to[point of F] = its preimage
                to[np.searchsorted(flat, self._flat(image, self.shape))] = np.arange(len(fold))
                rows.append((int(np.dot(parity, bit)), to[keep]))
            self._classes.append((int(np.dot(rep, bit)), keep, rows))
        self.class_sizes = [len(keep) for _, keep, _ in self._classes]
        self.fill = sum(r * r for r in self.class_sizes)

    @staticmethod
    def _flat(coords: np.ndarray, shape: tuple) -> np.ndarray:
        return np.ravel_multi_index(tuple(coords), shape)

    def _reflect(self, flip: tuple) -> np.ndarray:
        """Torus coordinates (d, |F|) of the folded layer under the mirrors of
        the symmetric axes flagged in flip."""
        image = self._pos.copy()
        for i, f in zip(self.axes, flip):
            if f:
                image[i] = self._mirror[i] - image[i]
        return image

    def _fft(self, grid: np.ndarray) -> np.ndarray:
        return scipy.fft.rfftn(grid, axes=self._axes, workers=WORKERS)

    def _ifft(self, coef: np.ndarray) -> np.ndarray:
        return scipy.fft.irfftn(coef, s=self.shape, axes=self._axes, workers=WORKERS)

    def _embed(self, values: np.ndarray, where: np.ndarray) -> np.ndarray:
        """Torus grids (k,) + shape that hold values (k, len(where)) at flat
        positions where and zero elsewhere."""
        grid = np.zeros((len(values), int(np.prod(self.shape))))
        grid[:, where] = values
        return grid.reshape((len(values),) + self.shape)

    def operator(self, u: np.ndarray) -> np.ndarray:
        """A u for a flat field u: the torus operator on u extended by zero,
        restricted to R_h."""
        grid = self._embed(u[None, :], self._inside)
        return self._ifft(self._fft(grid) * self._symbol).reshape(-1)[self._inside]

    def factorize(self) -> "TorusCapacitanceSolver":
        """Cholesky-factor each class's block C_s of C = G+[Gamma, Gamma],
        gathered from G+(x - e y) over the torus one class at a time, and
        store C_0^{-1} applied to the border of the all-even sector."""
        # G+(x - y) sits at x + (P - y) of the 2P-periodic tiling of G+, each
        # coordinate in [1, 2P - 1]: one sum of flat indices per entry, no modulo
        tiled = np.tile(self._ifft(self._pinv), (2,) * len(self.shape)).reshape(-1)
        big = tuple(2 * P for P in self.shape)
        dtype = np.int32 if tiled.size <= np.iinfo(np.int32).max else np.int64
        x = self._flat(self._pos, big).astype(dtype)
        ys = [self._flat(np.subtract(self.shape, self._reflect(f).T).T, big).astype(dtype) for f in self._flips]
        self._factors = []
        for rep, keep, _ in self._classes:
            # C_s[a, b] = 2^{-(z_a + z_b)/2} sum_e H[s, e] G+(x_a - e x_b)
            acc = np.empty((len(keep),) * 2)
            idx, buf = np.empty(acc.shape, dtype=dtype), np.empty_like(acc)
            for e, y in enumerate(ys):
                np.add(x[keep, None], y[keep], out=idx)
                np.take(tiled, idx, out=buf if e else acc, mode="clip")
                if e:
                    (np.add if self._hadamard[rep, e] > 0 else np.subtract)(acc, buf, out=acc)
            g = 2.0 ** (-0.5 * self._z[keep])
            acc *= g[:, None]
            acc *= g
            self._factors.append(scipy.linalg.cho_factor(acc, overwrite_a=True, check_finite=False))
        self._ones = scipy.linalg.cho_solve(self._factors[-1], self._border, check_finite=False)
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b for flat right-hand sides (n,) or (n, k), x of b's shape."""
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        B = b[None, :] if single else b.T
        k = len(B)
        coef = self._fft(self._embed(B, self._inside))
        x0 = self._ifft(coef * self._pinv).reshape(k, -1)[:, self._gamma]
        # C w + c 1 = -x0 on Gamma and 1^T w = -sum(b): x then vanishes on
        # Gamma, and the torus operator gives back b on R_h.  Per sector, in
        # the orthonormal sector coordinates of F; 1 is all-even.
        r = np.einsum("kfe,se->kfs", x0[:, self._img], self._hadamard) * self._to_sector
        w = np.zeros_like(r)
        for (rep, keep, rows), factor in zip(self._classes, self._factors):
            z = scipy.linalg.cho_solve(factor, np.concatenate([r[:, at, s].T for s, at in rows], axis=1),
                                       check_finite=False)
            if rep == 0:  # the all-even class, last, with the border
                c = (B.sum(axis=1) - self._border @ z) / (self._border @ self._ones)
                z += np.outer(self._ones, c)
            for j, (s, at) in enumerate(rows):
                w[:, at, s] = -z[:, j * k:(j + 1) * k].T
        wg = np.empty((k, self.m))
        wg[:, self._img] = np.einsum("kfs,se->kfe", w, self._hadamard) * self._from_sector
        coef += self._fft(self._embed(wg, self._gamma))
        x = self._ifft(coef * self._pinv).reshape(k, -1)[:, self._inside] + c[:, None]
        return x[0] if single else x.T


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
