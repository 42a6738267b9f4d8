"""Fast solver for the field precision operator on centred box domains.

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

with Lambda the diagonal B^2 symbol and v_-, v_+ the 1-D sine basis at the
two end points -M and M.  `CenteredBoxSolver` transforms the right-hand side
to coefficients once, runs conjugate gradients there with the diagonal
preconditioner 1/Lambda (a few dozen iterations regardless of size), and
transforms back once.  An iteration costs O(d n) for n unknowns: the face
term is a rank-2 contraction and expansion along each axis, with no
transform inside the loop.

Functions that are even in every coordinate (a delta at the centre, symmetric
test functions) are spanned by the odd-frequency sine modes.  With
`even=True` the solver stores only the sector m_i = |x_i| in {0..M} and keeps
only those modes, where v_+ = v_-; by Parseval the inner product of two even
fields over the whole box is the plain dot product of their coefficients.
This is what makes the d=4 experiments desk-sized.

In d = 2 the face term has rank only 4L for L = 2M+1 points per side, so
`DirectBoxSolver` solves exactly instead of iterating, by the capacitance
(Woodbury) method of Buzbee, Dorr, George and Golub (SIAM J. Numer. Anal. 8,
1971).  Writing A_hat = Lambda + U U^T, with U the 4L columns
f_a (x) e_q and e_p (x) f_a (f_- and f_+ the face vectors along one axis),

    A_hat^{-1} c = Lambda^{-1} c - Lambda^{-1} U K^{-1} U^T Lambda^{-1} c,
    K = I + U^T Lambda^{-1} U,

with K symmetric positive definite, 4L x 4L and Cholesky-factored once
(O(L^3) = O(n^1.5) work, 16 n floats).  A solve is two orthonormal DST-Is
(`scipy.fft`) and O(n + L^2) further work per right-hand side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

# Threads of the DSTs: the cores this process may use.  A batch of right-hand
# sides splits across them, each line transformed alike, so the results do
# not depend on the count.
FFT_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class SolveInfo:
    iterations: int
    relative_residual: float


def _axis_sum(a: np.ndarray, d: int) -> np.ndarray:
    """sum_i a[x_i] on the grid (len(a),)^d, one broadcast term per axis."""
    total = np.zeros((len(a),) * d)
    for ax in range(d):
        total = total + a.reshape((-1,) + (1,) * (d - 1 - ax))
    return total


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, and 0 where b == 0 (a column whose residual is exactly zero)."""
    return np.divide(a, b, out=np.zeros_like(a), where=b != 0.0)


def _along(a: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    """mat applied along one axis of a, as a new C-contiguous array."""
    pre = a.shape[:axis]
    if axis == a.ndim - 1:
        return (a.reshape(-1, a.shape[-1]) @ mat.T).reshape(pre + (len(mat),))
    out = np.matmul(mat, a.reshape(int(np.prod(pre)), a.shape[axis], -1))
    return out.reshape(pre + (len(mat),) + a.shape[axis + 1:])


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
        self._fwd = np.ascontiguousarray(basis * mult)
        self._inv = np.ascontiguousarray(basis.T)
        kappa = 1.0 / (2 * d)
        self._faces = kappa * sines(np.array([-M, M]))  # (modes, 2)
        symbol = _axis_sum(2.0 * np.sin(np.pi * freq / (2 * period)) ** 2, self.d) / self.d
        self._lam = symbol**2  # B^2 in the sine basis, the sin^2 form stable near zero
        self._inv_lam = 1.0 / self._lam

    def _transform(self, a: np.ndarray, mat: np.ndarray) -> np.ndarray:
        for ax in range(a.ndim - self.d, a.ndim):
            a = _along(a, ax, mat)
        return a

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Sine coefficients of stored fields of shape grid or (k,) + grid."""
        return self._transform(u, self._fwd)

    def field(self, c: np.ndarray) -> np.ndarray:
        """Stored field values of sine coefficients (inverse of `coefficients`)."""
        return self._transform(c, self._inv)

    def apply(self, c: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """A_hat c for coefficient arrays of shape grid or (k,) + grid."""
        out = np.multiply(c, self._lam, out=out)
        for ax in range(c.ndim - self.d, c.ndim):
            out += _along(_along(c, ax, self._faces.T), ax, self._faces)
        return out

    def operator(self, u: np.ndarray) -> np.ndarray:
        """A u for a flat stored field u, through the coefficient-space apply."""
        return self.field(self.apply(self.coefficients(u.reshape((self.L,) * self.d)))).reshape(-1)

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
        if not info.relative_residual <= tol:
            raise RuntimeError(
                f"box PCG stopped at relative residual {info.relative_residual:.3e} "
                f"after {info.iterations} iterations (tolerance {tol:.0e})"
            )
        out = self.field(C).reshape(cols, -1).T
        return (out[:, 0] if single else out), info


class DirectBoxSolver:
    """Direct solver for A u = b on the d=2 box [-M, M]^2 (capacitance method).

    Uses the symbol and face vectors of `CenteredBoxSolver(2, M)`; right-hand
    sides are flat over the box, (n,) or (n, k).
    """

    def __init__(self, M: int):
        box = CenteredBoxSolver(2, M)
        self.L, self.n = box.L, box.n
        self._apply = box.apply
        self._faces = F = box._faces        # (L, 2): f_-, f_+ along one axis
        self._inv_lam = inv_lam = box._inv_lam
        L = self.L
        # K in the order (axis, face, line): f_a (x) e_q for axis 0, then
        # e_p (x) f_a for axis 1.  Lambda is symmetric in (p, q), so the two
        # same-axis blocks are equal: 2 x 2 per grid line.
        lines = np.arange(L)
        same = np.zeros((2, L, 2, L))
        same[:, lines, :, lines] = np.einsum("pa,pb,pq->qab", F, F, inv_lam) + np.eye(2)
        same = same.reshape(2 * L, 2 * L)
        cross = np.einsum("pa,qb,pq->aqbp", F, F, inv_lam).reshape(2 * L, 2 * L)
        K = np.block([[same, cross], [cross.T, same]])
        self._chol = scipy.linalg.cho_factor(K, check_finite=False)

    @staticmethod
    def _dst(a: np.ndarray) -> np.ndarray:
        """Orthonormal DST-I over the last two axes (its own inverse)."""
        return scipy.fft.dstn(a, type=1, norm="ortho", axes=(-2, -1), workers=FFT_WORKERS)

    def operator(self, u: np.ndarray) -> np.ndarray:
        """A u for a flat field u, through the coefficient-space apply."""
        return self._dst(self._apply(self._dst(u.reshape(self.L, self.L)))).reshape(-1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b for flat right-hand sides (n,) or (n, k), x of b's shape."""
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        k, L, F = (1 if single else b.shape[1]), self.L, self._faces
        y = self._dst((b[None, :] if single else b.T).reshape(k, L, L)) * self._inv_lam
        t = np.concatenate([F.T @ y, (y @ F).transpose(0, 2, 1)], axis=1).reshape(k, 4 * L)
        s = scipy.linalg.cho_solve(self._chol, t.T, check_finite=False).T.reshape(k, 4, L)
        y -= self._inv_lam * (F @ s[:, :2] + s[:, 2:].transpose(0, 2, 1) @ F.T)
        out = self._dst(y).reshape(k, -1).T
        return out[:, 0] if single else out


def centered_box_halfwidth(domain) -> int:
    """M such that R_h of the domain is exactly [-M, M]^d, or -1."""
    from .lattice import Box

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
