"""Direct solver for the field precision on any R_h, embedded in a periodic torus.

`TorusCapacitanceSolver` is the capacitance-matrix method of Buzbee, Dorr,
George and Golub (SIAM J. Numer. Anal. 8, 1971) and of Proskurowski and
Widlund (Math. Comp. 30, 1976) on a periodic torus.  With P_i >= extent_i + 4
points per axis (`scipy.fft.next_fast_len`), A is exactly the principal
submatrix on R_h of the periodic operator T = kappa^2 S_T, whose FFT symbol
is mu(theta)^2 (`lattice.mu_symbol` at theta_i = 2 pi f_i / P_i).  T is
singular on the constants; G+ is its pseudo-inverse.  Let Gamma be the m
torus points outside R_h that the bilaplacian stencil couples to R_h (a
layer two points deep).  Then C = G+[Gamma, Gamma], gathered from one
inverse FFT of the pseudo-inverse symbol, is symmetric positive definite (no
vector supported on Gamma is constant), and is Cholesky-factored once, by
sector.  A solve extends b by zero, computes x0 = G+ b, and finds w on Gamma
and a constant c with

    C w + c 1 = -x0|Gamma,    1^T w = -sum(b),

by Cholesky solves and a rank-1 border.  Then x = G+(b + w) + c vanishes on
Gamma and T x = b + w, so x restricted to R_h solves A x = b.

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
permutation class of sectors, as on the box (`boxsolve.parity_classes`): a
unit ball has d+1 factors of about m / 2^d rows, not one of m.  The blocks
are gathered one class at a time from a 2P-periodic tiling of G+ with int32
flat indices, and the 2^k reflection blocks are never held at once.  A
solve maps -x0|Gamma to the sector coefficients and back by a Walsh-Hadamard
sum over the 2^k images of each point of F, and solves each class's sectors
together by one Cholesky solve.  A domain without a mirror (an off-centre
disk, most `--domain` specs) is the trivial group: one factor over the
whole of Gamma, by the same code.

The build is O(m^3) work, and a solve is two FFT pairs on the torus plus
O(m^2); in d = 3, m grows like n^(2/3).  `green` takes this route, in every
d, for a domain that is not a centred box and whose class factors take at
most `green.DIRECT_FACTOR_BUDGET` bytes, once a probe has matched
`operator` to the assembled matrix.  It imports this module only for a
domain that is not a centred box, so a centred box never loads `scipy.fft`.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.fft
import scipy.linalg

from .boxsolve import parity_classes
from .lattice import WORKERS, mu_symbol, neighborhood_offsets


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
    `fill`, their entries; `sectors`, the axes and class sizes as the
    manifest records them.
    """

    def __init__(self, domain, axes: tuple = None):
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
        for rep, sectors in parity_classes(k, blocks):
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
        self.sectors = {"symmetric_axes": list(self.axes), "class_sizes": self.class_sizes}

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

