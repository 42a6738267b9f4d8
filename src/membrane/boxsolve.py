"""Fast solvers for the field precision operator on centred box domains.

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

B is diagonalized by products of sines, so B^2 is an ideal preconditioner:
conjugate gradients on A with the B^{-2} preconditioner converges in a few
dozen iterations regardless of size.

Two solvers share one block-PCG loop (`block_pcg`).  `CenteredBoxSolver`
takes arbitrary batched right-hand sides on the full grid, with DST-I
transforms.  `SymmetricBoxSolver` takes right-hand sides that are even in
every coordinate (a delta at the centre, symmetric test functions) and folds
the solve onto the quarter/16-th grid m_i = |x_i| in {0..M}: even functions
are spanned by the odd-frequency sine modes, and the per-axis half transforms
are small dense matrices applied with BLAS.  This is what makes the d=4
experiments desk-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _b_squared(freq: np.ndarray, n: int, d: int) -> np.ndarray:
    """Eigenvalues of B^2 on the grid of sine frequencies freq (period 2n):
    (sum_i 2 sin^2(pi k_i / 2n) / d)^2, the sin^2 form being stable near zero."""
    return (_axis_sum(2.0 * np.sin(np.pi * freq / (2 * n)) ** 2, d) / d) ** 2


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, and 0 where b == 0 (a column whose residual is exactly zero)."""
    return np.divide(a, b, out=np.zeros_like(a), where=b != 0.0)


def block_pcg(apply_A, precondition, B: np.ndarray, tol: float, maxiter: int, weight=None):
    """Preconditioned CG on each slice B[j] of a batch, all slices in step.

    The inner product is sum(weight * u * v) over the non-batch axes (plain
    sum when weight is None).  Iteration stops when every column's relative
    residual is at most tol, or when a residual is NaN.  Zero columns are
    solved by x = 0.  Returns (X, SolveInfo) with the worst column's residual.
    """
    axes = tuple(range(1, B.ndim))
    col = (-1,) + (1,) * (B.ndim - 1)

    def dot(u, v):
        return np.sum(u * v if weight is None else weight * u * v, axis=axes)

    X = np.zeros_like(B)
    R = B.copy()
    bnorm = np.sqrt(dot(B, B))
    if not bnorm.any():
        return X, SolveInfo(0, 0.0)
    bnorm[bnorm == 0.0] = 1.0
    Z = precondition(R)
    P = Z.copy()
    rz = dot(R, Z)
    info = SolveInfo(0, 1.0)
    for it in range(1, maxiter + 1):
        AP = apply_A(P)
        alpha = _ratio(rz, dot(P, AP)).reshape(col)
        X += alpha * P
        R -= alpha * AP
        rel = np.sqrt(dot(R, R)) / bnorm
        info = SolveInfo(it, float(rel.max()))
        if not info.relative_residual > tol:  # converged, or NaN
            break
        Z = precondition(R)
        rz_new = dot(R, Z)
        P = Z + _ratio(rz_new, rz).reshape(col) * P
        rz = rz_new
    return X, info


class SymmetricBoxSolver:
    """PCG solver for A u = b on Lambda = [-M, M]^d, restricted to inputs that
    are even in every coordinate.  Works in folded coordinates (M+1,)*d.
    """

    def __init__(self, d: int, M: int):
        if M < 0:
            raise ValueError("M must be >= 0")
        self.d = int(d)
        self.M = int(M)
        self.kappa2 = 1.0 / (2 * d) ** 2
        n = 2 * M + 2
        m = np.arange(M + 1)
        q = 2 * m + 1  # odd sine frequencies carry even functions
        psi = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(q, (M + m + 1)) / n)
        w = np.where(m == 0, 1.0, 2.0)  # fold multiplicity per axis
        self._fwd = np.ascontiguousarray(psi * w)
        self._inv = np.ascontiguousarray(psi.T)
        self._mu2 = _b_squared(q, n, d)
        faces = (m == M).astype(float) + (m == -M)  # both faces of x_i = m when M == 0
        self._kc = self.kappa2 * _axis_sum(faces, d)
        self._wfold = 2.0 ** _axis_sum((m > 0).astype(float), d)

    # -- folded linear algebra -------------------------------------------------

    def _transform(self, a: np.ndarray, mat: np.ndarray) -> np.ndarray:
        for ax in range(a.ndim - self.d, a.ndim):
            a = np.moveaxis(np.tensordot(mat, a, axes=([1], [ax])), 0, ax)
        return a

    def apply_precision(self, u: np.ndarray) -> np.ndarray:
        """A u for a folded even field u (or a batch of them)."""
        spectral = self._transform(self._transform(u, self._fwd) * self._mu2, self._inv)
        return spectral + self._kc * u

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        return self._transform(self._transform(r, self._fwd) / self._mu2, self._inv)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Inner product of the unfolded fields of two folded fields."""
        return float(np.sum(self._wfold * u * v))

    def solve(self, b: np.ndarray, tol: float = 1e-10, maxiter: int = 800):
        """Solve A u = b (folded, even input).  Returns (u, SolveInfo)."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.M + 1,) * self.d:
            raise ValueError("folded right-hand side has wrong shape")
        x, info = block_pcg(
            self.apply_precision, self._precondition, b[None], tol, maxiter, weight=self._wfold
        )
        return x[0], info

    # -- folding helpers ---------------------------------------------------------

    def fold(self, full: np.ndarray) -> np.ndarray:
        """Restrict a full (2M+1,)^d even field to folded coordinates."""
        M = self.M
        sl = tuple(slice(M, 2 * M + 1) for _ in range(self.d))
        return np.ascontiguousarray(full[sl], dtype=float)

    def unfold(self, folded: np.ndarray) -> np.ndarray:
        """Reflect a folded field back to the full box."""
        out = folded
        for ax in range(self.d):
            mirror = np.flip(out, axis=ax)
            mirror = np.delete(mirror, -1, axis=ax)  # drop duplicated centre slice
            out = np.concatenate([mirror, out], axis=ax)
        return out

    def center_delta(self) -> np.ndarray:
        b = np.zeros((self.M + 1,) * self.d)
        b[(0,) * self.d] = 1.0
        return b

    def solve_center_column(self, tol: float = 1e-10):
        """Covariance column G(0, .) in folded coordinates (value at |y|)."""
        return self.solve(self.center_delta(), tol=tol)


class CenteredBoxSolver:
    """Block-PCG solver for A u = b on Lambda = [-M, M]^d, arbitrary right-hand
    sides, preconditioned by the sine-diagonalized B^2 part (full grid, batched
    transforms).  Complements the folded solver when sources are not
    symmetric; scales to grids far beyond what sparse factorization fill
    allows in d >= 3.
    """

    def __init__(self, d: int, M: int):
        import scipy.fft as sfft

        self._sfft = sfft
        self.d = int(d)
        self.M = int(M)
        self.L = 2 * M + 1
        self.n = self.L**d
        self.kappa2 = 1.0 / (2 * d) ** 2
        k = np.arange(self.L)
        self._mu2 = _b_squared(k + 1, self.L + 1, d)
        faces = (k == 0).astype(float) + (k == self.L - 1)  # 2 when L == 1
        self._kc = self.kappa2 * _axis_sum(faces, d)

    def _dst(self, x):
        axes = tuple(range(x.ndim - self.d, x.ndim))
        return self._sfft.dstn(x, type=1, norm="ortho", axes=axes)

    def apply_precision(self, u: np.ndarray) -> np.ndarray:
        return self._dst(self._dst(u) * self._mu2) + self._kc * u

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        return self._dst(self._dst(r) / self._mu2)

    def solve(self, b: np.ndarray, tol: float = 1e-10, maxiter: int = 400):
        """Solve for flat right-hand sides (n,) or (n, k); returns same shape."""
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        cols = 1 if single else b.shape[1]
        B = (b[None, :] if single else b.T).reshape((cols,) + (self.L,) * self.d)
        X, info = block_pcg(self.apply_precision, self._precondition, B, tol, maxiter)
        out = X.reshape(cols, -1).T
        return (out[:, 0] if single else out), info


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
