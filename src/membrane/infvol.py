"""Infinite-volume covariance in d >= 5: Fourier quadrature vs random walks.

The translation-invariant covariance of the interface on the full lattice is

    G(0, x) = (2 pi)^-d  int_{[-pi,pi]^d}  mu(theta)^-2 exp(-i <x, theta>) dtheta,

with mu = (2/d) sum_i sin^2(theta_i / 2) the symbol of -Delta_1, defined in
`lattice.mu_symbol`.  The integrand has a ||theta||^-4 singularity at the
origin, integrable only for d >= 5.  Quadrature uses dyadic shells toward the
origin: the cube [0, rho]^d splits into the sub-cube [0, rho/2]^d and 2^d - 1
boxes on which the integrand is smooth; recursing on the sub-cube gives
shells whose contribution scales like (2^-k rho)^(d-4), so a few dozen levels
push the unresolved centre below any tolerance.  Evenness in every coordinate
folds the domain to the positive orthant (factor 2^d) and replaces the
exponential by a product of cosines.  The integrands are symmetric under
swaps of axes that carry the same Gauss rule (the cosine product once those
axes share one frequency set), so each level evaluates one box per
permutation class and adds the rest of the class as transposes
(`shell_quadrature`).  Within a box, axes on the same half and rule get
equal node arrays, so an integrand that is symmetric in them may also sum
once per orbit of their nodes, as the scaling variance does.

The independent check is Monte Carlo over simple random walks:

    G(x, y) = sum_{m >= 0} (m + 1) P_x[ S_m = y ],

truncated at m <= M; the tail past M is bounded in closed form by the
return-probability envelope P[S_m = x] <= 2 i0e(2 floor(m/2) / d)^d (see
`walk_tail_bound`), which needs nothing from the walks.  A walk carries one
hashed integer key of its position: its index in a base wide enough for
every point it can reach and every target, times an odd constant mod 2^64.
A step adds a table entry to it, and the key's top bits are its slot in a
hash of the target keys, read one flat probe column at a time, so a step
costs the same whatever the box size.  A hit is kept as a (walk, target)
pair, so memory follows the targets and the hits, never the box or
walks x targets.  A batch draws its moves a few steps at a time
from one stream per (seed, batch), and its walks are split into slices that
the cores step in parallel; every tally is an integer, so the output is the
same for any number of threads (`walk_estimate`).

The rescaled test-function variance uses the same symbol:

    Var(psi_N, f) = kappa^2 N^-4 / (2 pi)^d
        int_{[-N pi, N pi]^d} mu(theta/N)^-2 | L_N f (theta) |^2 dtheta

with L_N the lattice Fourier sum over (1/N) Z^d, equal to (2 pi)^{d/2}
(fhat + Riemann-sum error); by the sine bound the kernel dominates
||theta||^-4 and converges to it, so the variance is evaluated as the exact
radial ||theta||^-4 part plus a shell quadrature of the nonnegative kernel
excess, with the Riemann-sum and truncation terms carried in an error budget.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from operator import methodcaller
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import i0e

from .lattice import WORKERS, axis_classes, kappa, mu_symbol, unit_ball_volume, wedge

TWO_PI = 2.0 * np.pi
RHO0 = np.pi  # outer edge of the folded Brillouin zone [0, pi]^d


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d, d omega_d."""
    return d * unit_ball_volume(d)


# ---------------------------------------------------------------------------
# dyadic shell quadrature over [0, outer]^d \ {0}, integrand even-folded

def _gauss(a: float, b: float, rule: Tuple[np.ndarray, np.ndarray]):
    x, w = rule
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def shell_quadrature(
    d: int,
    outer: float,
    levels: int,
    integrand: Callable[[List[np.ndarray], List[np.ndarray]], np.ndarray],
    order: int = 8,
    order_axis0: Optional[int] = None,
):
    """Sum integrand over dyadic shells of [0, outer]^d.

    Level k is [0, a]^d minus [0, a/2]^d, a = outer 2^-k: the 2^d - 1 tensor
    boxes that take the upper half [a/2, a] on at least one axis, each with
    `order` Gauss nodes per axis.  order_axis0 overrides the order along the
    first axis on the first 12 levels (for oscillatory factors).

    integrand(nodes, weights) gets each axis's Gauss nodes and weights as 1-D
    arrays shaped to broadcast along that axis, (1, .., p, .., 1), so it builds
    d-dimensional tensors from per-axis tables (sum factorization) instead of a
    mesh.  It returns a scalar or an array with one dimension per axis.

    Class sum.  The integrand must be invariant under a swap of two axes that
    carry the same rule, up to the matching transpose of an array result
    (which needs the same table, e.g. one frequency set, on those axes).  All
    axes share a rule, or with order_axis0 axes 1..d-1 do; a box is then
    fixed up to permutation by the number j of those axes on their upper half
    (and, with order_axis0, the half of axis 0).  Each level evaluates one
    box per class, d boxes (2d - 1 with order_axis0) in place of 2^d - 1,
    and adds its orbit: C(d', j) times a scalar, or the sum of the C(d', j)
    transposes of an array (`lattice.axis_classes`), d' the number of
    permuting axes.

    Within a box, axes on the same half and rule get equal node and weight
    arrays, and the representative puts the upper halves first, so those
    axes form runs of consecutive axes.  A scalar integrand that is
    symmetric in them may therefore sum once per orbit of their nodes
    (`scaling_variance`).
    """
    rules = {p: np.polynomial.legendre.leggauss(p) for p in (order, order_axis0) if p}
    first = 1 if order_axis0 else 0
    orbits = axis_classes(d, first)
    total = 0.0
    for k in range(levels):
        a = outer * (0.5**k)
        halves = []
        for ax in range(d):
            rule = rules[order_axis0 if (order_axis0 and ax == 0 and k < 12) else order]
            shape = [1] * d
            shape[ax] = -1
            halves.append(
                [[v.reshape(shape) for v in _gauss(lo, hi, rule)] for lo, hi in ((0.0, a / 2), (a / 2, a))]
            )
        for top0 in range(first + 1):
            for j, perms in enumerate(orbits):
                if not (top0 or j):
                    continue  # the sub-cube [0, a/2]^d, resolved at level k + 1
                upper = [top0] * first + [1] * j + [0] * (d - first - j)
                box = [halves[ax][upper[ax]] for ax in range(d)]
                value = integrand([x for x, _ in box], [w for _, w in box])
                if np.ndim(value) == 0:
                    total = total + len(perms) * value
                else:
                    total = total + sum(np.transpose(value, sigma) for sigma in perms)
    return total


def _contract(tensor: np.ndarray, tables: List[np.ndarray]) -> np.ndarray:
    """sum_i tensor[i_0, .., i_{d-1}] prod_ax tables[ax][i_ax, f_ax], one axis at a time.

    Returns the array over (f_0, .., f_{d-1}).
    """
    out = tensor
    for tab in tables:
        out = out.reshape(len(tab), -1).T @ tab
    return out.reshape([tab.shape[1] for tab in tables])


# ---------------------------------------------------------------------------
# Fourier route

@dataclass
class FourierCovariance:
    """Quadrature plan for the singular covariance integral."""

    d: int
    levels: int = 30
    order: int = 6

    def __post_init__(self):
        if self.d <= 4:
            raise ValueError("integral diverges for d <= 4; defined only for d >= 5")

    def refined(self) -> "FourierCovariance":
        return FourierCovariance(d=self.d, levels=self.levels + 4, order=self.order + 2)

    def center_constant(self) -> float:
        """c with mu(theta)^-2 <= c ||theta||^-4 on the unresolved centre cube
        [0, eps]^d, eps = RHO0 2^-levels: sin(t/2) >= (t/2)(1 - t^2/24) for
        t <= eps gives c = 4 d^2 (1 - eps^2/24)^-4."""
        eps = RHO0 * 0.5**self.levels
        return 4.0 * self.d**2 / (1.0 - eps * eps / 24.0) ** 4

    def center_cube_bound(self) -> float:
        """Bound on the unresolved centre-cube mass: integrand <= c ||theta||^-4."""
        eps = RHO0 * 0.5**self.levels
        d = self.d
        # int_{[0,eps]^d} ||theta||^-4 <= surf/(2^d) * int_0^{eps sqrt(d)} r^{d-5} dr
        return self.center_constant() * sphere_area(d) / 2**d * (eps * math.sqrt(d)) ** (d - 4) / (d - 4)


@dataclass
class FourierValue:
    value: float
    quadrature_error: float
    center_bound: float

    @property
    def error(self) -> float:
        return self.quadrature_error + self.center_bound


def _lattice_points(targets) -> np.ndarray:
    """targets as an int64 array; an empty list, or a coordinate that is not
    an integer (which the cast would truncate), raises ValueError."""
    points = np.asarray(targets, dtype=np.int64)
    if not len(points):
        raise ValueError("no targets")
    if not np.array_equal(points, targets):
        raise ValueError("a target coordinate is not an integer")
    return points


def _green_integrand(targets: np.ndarray, d: int, order_axis0: Optional[int]):
    """Weighted sums of mu^-2 prod_i cos(f_i theta_i) over one box, on a frequency grid.

    The kernel tensor w / mu^2 is contracted axis by axis against the table
    cos(f theta_i) over one frequency set F, the distinct |x_i| of all
    targets, on every axis that shares a Gauss rule (axis 0 keeps its own set
    under order_axis0), so the F^d result transposes with the axes as
    `shell_quadrature`'s class sum needs.  Returns the integrand and the
    index of each target in that result.
    """
    cols = np.abs(np.asarray(targets)).T
    first = 1 if order_axis0 else 0
    freqs = [np.unique(cols[0])] * first + [np.unique(cols[first:])] * (d - first)
    index = tuple(np.searchsorted(f, col) for f, col in zip(freqs, cols))

    def integrand(nodes, weights):
        mu = mu_symbol(nodes)
        tables = [w.reshape(-1, 1) * np.cos(t.reshape(-1, 1) * f) for t, w, f in zip(nodes, weights, freqs)]
        return _contract(1.0 / (mu * mu), tables)

    return integrand, index


def green_infinite_fourier(x: Sequence[int], plan: Optional[FourierCovariance] = None) -> FourierValue:
    """G(0, x) by dyadic-shell quadrature; returns value with an error estimate.

    The integrand is even in every coordinate, so the imaginary part vanishes
    identically and the value depends only on |x| componentwise.
    """
    vals = green_infinite_fourier_many([x], plan=plan)
    return vals[0]


def green_infinite_fourier_many(
    targets: Sequence[Sequence[int]],
    plan: Optional[FourierCovariance] = None,
    order_axis0: Optional[int] = None,
) -> List[FourierValue]:
    """G(0, x) for every target from one pass of the shell quadrature.

    d is the length of the targets; the default plan is FourierCovariance(d).
    An empty target list, or targets whose length is not plan.d, raises
    ValueError before any quadrature, as does a coordinate that is not an
    integer.
    """
    targets = _lattice_points(targets)
    if plan is None:
        plan = FourierCovariance(d=targets.shape[-1])
    d = plan.d
    if targets.ndim != 2 or targets.shape[1] != d:
        raise ValueError(f"targets of shape {targets.shape} are not points of Z^{d}")
    integ, index = _green_integrand(targets, d, order_axis0)
    coarse = shell_quadrature(d, RHO0, plan.levels, integ, order=plan.order, order_axis0=order_axis0)
    fine_plan = plan.refined()
    p0 = order_axis0 + 2 if order_axis0 else None
    fine = shell_quadrature(d, RHO0, fine_plan.levels, integ, order=fine_plan.order, order_axis0=p0)
    scale = 2.0**d / TWO_PI**d
    center = fine_plan.center_cube_bound() * 2.0**d / TWO_PI**d
    out = []
    for v1, v2 in zip(coarse[index], fine[index]):
        out.append(
            FourierValue(
                value=float(v2) * scale,
                quadrature_error=abs(float(v2) - float(v1)) * scale,
                center_bound=center,
            )
        )
    return out


def riesz_constant(d: int) -> float:
    """lim G(0, x) |x|^{d-4} = kappa^-2 Gamma(d/2 - 2) / (16 pi^{d/2}), d >= 5.

    Gamma(d/2 - 2) / (16 pi^{d/2}) |x|^{4-d} is the Riesz kernel of Delta^2
    on R^d (Stein, *Singular Integrals*, 1970, ch. V §1); the factor
    kappa^-2 = (2d)^2 comes from Delta_1 = kappa Delta.  For d = 5 it is
    100 / (16 pi^2) = 0.633257.
    """
    if d <= 4:
        raise ValueError("the Riesz kernel of Delta^2 needs d >= 5")
    return math.gamma(d / 2.0 - 2.0) / (16.0 * math.pi ** (d / 2.0) * kappa(d) ** 2)


@dataclass
class Eta2Trend:
    radii: np.ndarray
    greens: np.ndarray
    ratios: np.ndarray         # G(0, r e_1) * r^{d-4}
    flatness: float            # max relative spread over the top half of radii
    quadrature_spread: float   # max relative change under refinement
    limit: float               # riesz_constant(d), the limit of the ratios


def eta2_trend(radii: Sequence[int], d: int = 5, plan: Optional[FourierCovariance] = None) -> Eta2Trend:
    """Ratio G(0, r e_1) r^{d-4} along increasing radii.

    Its limit is `riesz_constant(d)`, 0.633257 for d = 5; the ratio
    approaches it from above, with r^2 (ratio / limit - 1) near 0.5-0.6 for
    r = 5..15 in d = 5.
    """
    radii = np.asarray(sorted(radii), dtype=int)
    targets = [[r] + [0] * (d - 1) for r in radii]
    if plan is None:
        plan = FourierCovariance(d=d, order=8, levels=30)
    # oscillation cos(r theta_1) needs extra nodes along the first axis
    p0 = max(plan.order, int(2 * radii.max() * RHO0 / np.pi / 2) + 8)
    vals = green_infinite_fourier_many(targets, plan=plan, order_axis0=p0)
    g = np.array([v.value for v in vals])
    qerr = np.array([v.error for v in vals])
    ratios = g * radii.astype(float) ** (d - 4)
    top = ratios[len(ratios) // 2 :]
    flat = float((top.max() - top.min()) / np.abs(top).mean())
    spread = float(np.max(qerr / np.maximum(np.abs(g), 1e-300)))
    if not np.all(qerr <= 0.1 * np.abs(g)):
        raise RuntimeError("quadrature error exceeds 10% of the ratio scale")
    return Eta2Trend(
        radii=radii, greens=g, ratios=ratios, flatness=flat, quadrature_spread=spread,
        limit=riesz_constant(d),
    )


# ---------------------------------------------------------------------------
# random-walk oracle

@dataclass
class WalkOracle:
    """Monte Carlo plan for the walk representation, truncated at M steps; a
    plan of no walks, an empty batch or a negative M raises ValueError."""

    d: int = 5
    n_walks: int = 1_000_000
    max_steps: int = 200
    seed: int = 2024
    batch: int = 200_000

    def __post_init__(self):
        if self.d <= 4:
            raise ValueError("the infinite-volume field needs d >= 5")
        if self.n_walks < 1 or self.batch < 1 or self.max_steps < 0:
            raise ValueError(f"{self}: n_walks and batch must be >= 1, max_steps >= 0")


@dataclass
class WalkEstimate:
    targets: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    tail_bounds: np.ndarray
    n_walks: int
    max_steps: int


def walk_tail_bound(M: int, d: int, parity: int) -> float:
    """Bound on sum_{m > M, m = parity mod 2} (m + 1) P[S_m = x], for every x
    with sum_i |x_i| = parity mod 2 (P[S_m = x] = 0 at the other parity).

    Envelope.  With phi(theta) = (1/d) sum_i cos(theta_i) and n = floor(m/2),

        P[S_m = x] = (2 pi)^-d int_{[-pi,pi]^d} cos<x, theta> phi^m dtheta
                  <= (2 pi)^-d int |phi|^m  <=  (2 pi)^-d int phi^{2n}

    because |phi| <= 1 and m >= 2n.  Since log t <= t - 1, |phi|^{2n} <=
    exp(-2n (1 - |phi|)) <= exp(-2n (1 - phi)) + exp(-2n (1 + phi)), and each
    exponential is a product of I_0 factors: (2 pi)^-1 int exp(+-(2n/d) cos t)
    dt = I_0(2n/d).  Hence P[S_m = x] <= 2 (e^{-2n/d} I_0(2n/d))^d =
    2 i0e(2n/d)^d, asymptotically 2 (d / (4 pi n))^{d/2}, the local CLT value
    of P[S_{2n} = 0] (Lawler & Limic, Random Walk: A Modern Introduction,
    2010, ch. 2); so the bound is tight for large M.

    Sum.  The terms (m + 1) 2 i0e(2n/d)^d are added up to n0 =
    max(floor(M/2) + 1, 5000, d).  i0e(z) sqrt(z) decreases for z >= 0.79
    (checked numerically on [0.8, 1e7]; its peak is at z = 0.790), and z0 =
    2 n0 / d >= 2, so for n > n0 each term is at most (2n + 2) A n^{-d/2} with
    A = 2 (i0e(z0) sqrt(z0))^d (d/2)^{d/2}.  That summand decreases, so the
    rest is at most its integral from n0,
    A (2 n0^{2-d/2} / (d/2 - 2) + 2 n0^{1-d/2} / (d/2 - 1)), finite for d >= 5.
    """
    if d <= 4:
        raise ValueError("the walk sum converges only for d >= 5")
    half = d / 2.0
    n0 = max(M // 2 + 1, 5000, d)
    n = np.arange((M - parity) // 2 + 1, n0 + 1, dtype=float)
    head = float(np.sum((2.0 * n + parity + 1.0) * 2.0 * i0e(n / half) ** d))
    z0 = n0 / half
    A = 2.0 * (i0e(z0) * math.sqrt(z0)) ** d * half**half
    return head + A * (2.0 * n0 ** (2.0 - half) / (half - 2.0) + 2.0 * n0 ** (1.0 - half) / (half - 1.0))


# steps drawn per rng call: a (CHUNK, nw) int64 array, two of them alive while
# the next is drawn (at nw = 100,000 the walk's tracemalloc peak is 9.5 MB,
# and 29 MB with 16)
CHUNK = 4
# odd multiplier of the key hash (2^64 / golden ratio), as a signed int64
_HASH = 0x9E3779B97F4A7C15 - (1 << 64)
# slots from which the target hash stops doubling for a window of one slot
# (its keys then take 64 KiB)
_WIDE = 1 << 13


def _encode(pos: np.ndarray, R: int, d: int) -> np.ndarray:
    """The hashed key of each row of pos: its index in base 2 R + 1 times
    _HASH, mod 2^64 as int64.  _HASH is odd, so keys stay distinct."""
    key = np.zeros(pos.shape[0], dtype=np.int64)
    base = 2 * R + 1
    for k in range(d):
        key = key * base + (pos[:, k].astype(np.int64) + R)
    return key * _HASH  # int64 products wrap mod 2^64


class _TargetHash:
    """Linear-probing hash of the targets' hashed keys (`_encode`): 2^b
    slots, each key in the slot of its top b bits (as uint64) or, taken, in
    the next free one.  2^b >= 2 ntar, doubled at most 8 times while some
    key sits past its own slot, or, from _WIDE slots on, more than 3 past
    (structured keys can cluster), so the size follows the targets, not the
    box they span.  A small table thus finds a key with one read per walk,
    and a large one keeps a window of up to 4 slots in place of growing.
    The window is held as one column per probe offset p, whose row s is
    slot s + p, so a lookup reads each column with one flat gather."""

    def __init__(self, hkey: np.ndarray):
        self.ntar = len(hkey)
        empty = -_HASH  # the hashed key of -1, which no key in [0, 2^63) has
        least = (2 * self.ntar - 1).bit_length()
        for bits in range(least, least + 9):
            self.shift, mask = np.uint64(64 - bits), (1 << bits) - 1
            keys = np.full(1 << bits, empty, dtype=np.int64)
            target = np.zeros(1 << bits, dtype=np.int32)
            probes = 0  # the longest probe of any key
            for t, slot in enumerate(self.slots(hkey)):
                p = 0
                while keys[(slot + p) & mask] != empty:
                    p += 1
                keys[(slot + p) & mask], target[(slot + p) & mask] = hkey[t], t
                probes = max(probes, p)
            if probes <= (3 if 1 << bits >= _WIDE else 0):
                break
        ring = (np.arange(probes + 1)[:, None] + np.arange(1 << bits)) & mask
        self.keys, self.target = keys[ring], target[ring]  # (probe offsets, slots)

    def slots(self, hkey: np.ndarray) -> np.ndarray:
        return (hkey.view(np.uint64) >> self.shift).view(np.int64)  # below 2^63

    def find(self, hkey: np.ndarray):
        """(i, t) with hkey[i] the hashed key of target t, for every key that
        is one, i ascending."""
        slot = self.slots(hkey)
        i = [np.flatnonzero(keys.take(slot) == hkey) for keys in self.keys]
        t = [target.take(slot.take(h)) for target, h in zip(self.target, i)]
        if len(i) == 1:
            return i[0], t[0]
        i, t = np.concatenate(i), np.concatenate(t)
        order = np.argsort(i)  # a key sits in one column at most
        return i[order], t[order]


class _Walks:
    """Walks lo..hi-1 of one batch, started at the origin: one hashed key per
    walk, of its position in base 2 R + 1 (`_encode`), and the hit list,
    (walk - lo, target) as int32 with the value m + 1 of its step.  A step
    is a gather and an add on the keys, then one `find`."""

    def __init__(self, lo: int, hi: int, d: int, R: int, table: _TargetHash):
        self.lo, self.hi, self.table = lo, hi, table
        # move k steps axis k >> 1 by -1 (k even) or +1 (k odd): the index in
        # base 2 R + 1 by that times (2 R + 1)^(d - 1 - (k >> 1)), and the
        # hashed key by key_of[k], that times _HASH
        self.key_of = np.tile([-1, 1], d) * np.repeat((2 * R + 1) ** np.arange(d - 1, -1, -1), 2) * _HASH
        self.key = np.repeat(_encode(np.zeros((1, d)), R, d), hi - lo)  # the origin's
        self.walks, self.targets, self.values = [], [], []
        self.record(0)

    def record(self, m: int) -> None:
        i, t = self.table.find(self.key)
        # a walk is at one point, so no (walk, target) pair repeats within a step
        self.walks.append(i.astype(np.int32))
        self.targets.append(t)
        self.values.append(m + 1)

    def walk(self, moves: np.ndarray, m0: int) -> None:
        """Steps m0, m0 + 1, ... by this slice's columns of the chunk `moves`."""
        for r, move in enumerate(moves[:, self.lo : self.hi]):  # a row slice is contiguous
            self.key += self.key_of.take(move)
            self.record(m0 + r)

    def tallies(self):
        """Per-target sums of the walks' tallies and of their squares, exact
        (integers below 2^53) from the hit list."""
        ntar = self.table.ntar
        codes = np.concatenate(self.walks).astype(np.int64) * ntar + np.concatenate(self.targets)
        pairs, inverse = np.unique(codes, return_inverse=True)
        tally = np.bincount(inverse, np.repeat(self.values, [len(w) for w in self.walks]))
        target = pairs % ntar
        return np.bincount(target, tally, ntar), np.bincount(target, tally * tally, ntar)


def _share(pool: ThreadPoolExecutor, work: Callable, items: list, first: Optional[Callable] = None):
    """work(item) for every item, on this thread and WORKERS - 1 threads of
    the pool, each taking the next item when it is free.  first(), if given,
    runs on this thread before it joins in, and its value is returned.  The
    pool's jobs are done when this returns, and an exception in one is
    raised here."""
    queue = iter(items)  # a list iterator hands each item to one thread

    def drain():
        for item in queue:
            work(item)

    jobs = [pool.submit(drain) for _ in range(WORKERS - 1)]
    try:
        value = first() if first else None
        drain()
    finally:
        for job in jobs:
            job.result()
    return value


def walk_estimate(oracle: WalkOracle, targets: Sequence[Sequence[int]]) -> WalkEstimate:
    """Per-target tally averages of sum_{m<=M} (m+1) 1{S_m = x} with standard
    errors from per-walk tallies, plus the closed-form tail bound
    `walk_tail_bound` of the terms past M at the parity of x.

    Walks start at the origin, so this estimates G(0, x); G(y, x) is
    G(0, x - y) by translation invariance.  An empty target list, a target
    listed twice, a target whose length is not oracle.d, a coordinate that
    is not an integer, or keys that do not fit int64 (below) raise
    ValueError before any walk.

    Each step costs one flat pass of array work over the walks: every walk
    carries the hashed key of its position (`_encode`), its index in base
    2 R + 1, R = max(span, M) with span the largest |coordinate| of the
    targets, times the odd _HASH mod 2^64, and a move adds its table entry,
    the move's change of the index times _HASH.  A walk of M steps stays in
    [-R, R]^d, so the index is exact, and multiplying by an odd number mod
    2^64 is one-to-one, so a hashed key is a position too.  Its top bits
    are its slot in a linear-probing hash of the targets' hashed keys
    (`_TargetHash`), whose size follows the number of targets; the lookup
    is one shift, then per probe column a gather, a compare and
    `np.flatnonzero`.  The indices are below 2^63: (2 R + 1)^d <= 2^63 - 1
    allows R up to 3,103 in d = 5, 723 in d = 6, 255 in d = 7 and 116 in
    d = 8.  A hit is kept as its (walk, target) pair and value
    m + 1, and a batch reduces these to per-walk tallies by `np.unique` and
    `np.bincount`, so no (walks x targets) array is held.

    The random stream is one rng.integers(0, 2d) draw per step and batch,
    from (seed, batch); a batch draws CHUNK steps at a time as one
    (CHUNK, nw) array, which gives the same values.  The batch's walks are
    cut into 2 WORKERS contiguous slices (`lattice.WORKERS`, the cores this
    process may use).  WORKERS - 1 pool threads step slices through a chunk
    while this thread draws the next chunk and then steps the slices left
    (`_share`), so the thread that draws takes fewer.  The tallies, their
    squares and their sums are integers below 2^53, so every sum is exact in
    any order, and the output does not depend on the number of threads.
    The pool ends with the call, and an exception on one of its threads is
    raised here.
    """
    d = oracle.d
    M = oracle.max_steps
    targets = _lattice_points(targets)
    if targets.ndim != 2 or targets.shape[1] != d:
        raise ValueError(f"targets of shape {targets.shape} are not points of Z^{d}")
    ntar = len(targets)
    R = max(int(np.abs(targets).max()), M)
    if (2 * R + 1) ** d > 2**63 - 1:
        raise ValueError(f"R = max(span, max_steps) = {R}: keys in base 2 R + 1 overflow int64 in d = {d}")
    tkey = _encode(targets, R, d)
    if len(np.unique(tkey)) < ntar:
        raise ValueError("a walk target is listed twice")
    table = _TargetHash(tkey)

    sums = np.zeros(ntar)
    sqs = np.zeros(ntar)
    done = 0
    batch_index = 0
    with ThreadPoolExecutor(max(WORKERS - 1, 1)) as pool:  # this thread steps slices too
        while done < oracle.n_walks:
            nw = min(oracle.batch, oracle.n_walks - done)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=oracle.seed, spawn_key=(batch_index,))
            )

            def draw(m):  # the moves of steps m, m + 1, ..., at most CHUNK and none past M
                return rng.integers(0, 2 * d, size=(min(CHUNK, M + 1 - m), nw))

            edges = [nw * k // (2 * WORKERS) for k in range(2 * WORKERS + 1)]
            slices = [_Walks(lo, hi, d, R, table) for lo, hi in zip(edges, edges[1:]) if hi > lo]
            m, moves = 1, draw(1)
            while len(moves):
                ahead = m + len(moves)
                moves = _share(pool, methodcaller("walk", moves, m), slices, first=partial(draw, ahead))
                m = ahead
            parts = []
            _share(pool, lambda w: parts.append(w.tallies()), slices)
            for part_sums, part_sqs in parts:
                sums += part_sums
                sqs += part_sqs
            done += nw
            batch_index += 1

    mean = sums / done
    var = np.maximum(sqs / done - mean**2, 0.0)
    se = np.sqrt(var / done)
    parity = np.abs(targets).sum(axis=1) % 2
    tails = np.array([walk_tail_bound(M, d, p) for p in (0, 1)])[parity]
    return WalkEstimate(
        targets=targets,
        estimates=mean,
        standard_errors=se,
        tail_bounds=tails,
        n_walks=done,
        max_steps=M,
    )


def symmetry_classes(span: int, d: int) -> dict:
    """The classes of the points with ||x||_inf <= span under the signed
    permutations of the axes: representative (sorted |x|, a row of
    `lattice.wedge(d, span)`) -> class size, the row's wedge orbit times 2
    per nonzero entry.  A negative span raises ValueError."""
    if span < 0:
        raise ValueError(f"span={span} is negative")
    reps, orbit = wedge(d, span)
    sizes = orbit * 2.0 ** np.count_nonzero(reps, axis=1)
    return {tuple(map(int, r)): int(n) for r, n in zip(reps, sizes)}


# ---------------------------------------------------------------------------
# Schwartz test functions (separable, radial transform)

@dataclass
class SchwartzTest:
    """Rapidly decaying separable test function with a closed-form transform.

    f(x) = amplitude * prod_i g(x_i); fhat in the symmetric convention
    fhat(theta) = (2 pi)^{-d/2} int exp(-i<x,theta>) f(x) dx, radial here.
    """

    name: str
    d: int
    sigma: float = 1.0
    amplitude: float = 1.0

    def f(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-np.sum(x * x, axis=-1) / (2.0 * self.sigma**2))

    def f_1d(self, t: np.ndarray) -> np.ndarray:
        # amplitude rides on the full product once, not per factor
        return np.exp(-np.asarray(t, dtype=float) ** 2 / (2.0 * self.sigma**2))

    def fhat_radial(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.amplitude * self.sigma**self.d * np.exp(-self.sigma**2 * r * r / 2.0)

    def fhat(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return self.fhat_radial(np.sqrt(np.sum(theta * theta, axis=-1)))

    def support_radius(self) -> float:
        """|f_1d| < 1e-16 beyond this radius."""
        return self.sigma * math.sqrt(-2.0 * math.log(1e-16))

    def fhat_radius(self, floor: float = 1e-30) -> float:
        amp = abs(self.amplitude)
        if amp == 0.0:
            return 1.0
        return math.sqrt(max(-2.0 * math.log(floor / (amp * self.sigma**self.d)), 1.0)) / self.sigma


def gaussian_test(d: int = 5, sigma: float = 1.0) -> SchwartzTest:
    return SchwartzTest(name=f"gaussian(sigma={sigma})", d=d, sigma=sigma)


def inv_laplacian_norm(test: SchwartzTest) -> float:
    """|| (-Lap)^{-1} f ||_{L^2}^2 = int ||theta||^-4 |fhat|^2 dtheta by radial quadrature."""
    from scipy.integrate import quad

    d = test.d
    if d <= 4:
        raise ValueError("needs d >= 5")
    area = sphere_area(d)

    def radial(r):
        return r ** (d - 5) * test.fhat_radial(r) ** 2

    hi = test.fhat_radius() * 1.2
    v, err = quad(radial, 0.0, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return area * v


def riemann_sum_error(test: SchwartzTest, theta: Sequence[float], N: int) -> float:
    """| (2 pi)^{-d/2} N^{-d} sum_x exp(-i <x/N, theta>) f(x/N)  -  fhat(theta) |.

    Separable f makes the lattice sum a product of 1-D sums, truncated where
    |f| < 1e-16.
    """
    theta = np.asarray(theta, dtype=float)
    d = test.d
    R = int(math.ceil(test.support_radius() * N)) + 2
    k = np.arange(-R, R + 1)
    prod_re = 1.0
    prod_im = 0.0
    for ax in range(d):
        vals = test.f_1d(k / N)
        ang = k * theta[ax] / N
        re = float(np.sum(vals * np.cos(ang))) / N
        im = float(np.sum(vals * -np.sin(ang))) / N
        prod_re, prod_im = prod_re * re - prod_im * im, prod_re * im + prod_im * re
    lattice = test.amplitude * complex(prod_re, prod_im) / TWO_PI ** (d / 2.0)
    return abs(lattice - complex(test.fhat(theta)))


@dataclass
class ScalingVariance:
    N: int
    value: float
    radial_part: float
    kernel_excess: float
    error_budget: float
    budget_detail: dict


def scaling_variance(
    test: SchwartzTest,
    N: int,
    levels: int = 16,
    order: int = 8,
    budget_cap: float = 0.05,
) -> ScalingVariance:
    """Var(psi_N, f) through the symbol representation.

    Splits the kernel into the exact ||theta||^-4 radial part (the limit
    functional) plus the nonnegative excess kappa^2 N^-4 mu(theta/N)^-2 -
    ||theta||^-4 integrated by dyadic shells; the Riemann-sum replacement of
    the lattice transform by fhat and all truncations go into the budget.

    Orbit sum.  The excess times |fhat|^2 depends on theta only through
    mu(theta/N) and ||theta||^2, sums over the axes, so on one box of
    `shell_quadrature` it is symmetric under swaps of axes with equal node
    arrays: a run of j upper axes and one of d - j lower ones.  Each run
    sums over its multisets of node indices (`lattice.wedge`), each once
    with its orbit, the number of its permutations: C(p + j - 1, j)
    C(p + d - j - 1, d - j) points in place of the p^d of the Gauss tensor.
    The sums of sin^2(theta_i / 2N) and of theta_i^2 are taken per run and
    multiset and added as outer sums, and the weights are orbit(u)
    orbit(l) prod w.  The multisets are enumerated once per (p, run
    length) and call.
    """
    d = test.d
    if d <= 4:
        raise ValueError("needs d >= 5")
    if N < 2:
        raise ValueError("N must be >= 2")
    kappa2 = kappa(d) ** 2
    from scipy.integrate import quad

    radial = inv_laplacian_norm(test)

    theta_max = min(N * np.pi, test.fhat_radius(1e-34))

    multisets = cache(lambda p, k: wedge(k, p - 1))

    def excess(nodes, weights):
        # one axis per run of equal node arrays, over the run's multisets
        nodes, weights = [t.ravel() for t in nodes], [w.ravel() for w in weights]
        cut = [0] + [ax for ax in range(1, d) if (nodes[ax] != nodes[ax - 1]).any()] + [d]
        sin2, sq, tables = 0.0, 0.0, []
        for r, (lo, hi) in enumerate(zip(cut, cut[1:])):
            t, w = nodes[lo], weights[lo]
            rows, orbit = multisets(len(t), hi - lo)
            shape = [1] * (len(cut) - 1)
            shape[r] = -1
            sin2 = sin2 + (np.sin(0.5 * (t / N)) ** 2)[rows].sum(axis=1).reshape(shape)
            sq = sq + (t * t)[rows].sum(axis=1).reshape(shape)
            tables.append((orbit * w[rows].prod(axis=1)).reshape(-1, 1))
        mu = (2.0 / d) * sin2
        ker = kappa2 / (N**4 * mu * mu) - 1.0 / (sq * sq)
        fh = test.fhat_radial(np.sqrt(sq))
        return _contract(ker * fh * fh, tables).item()

    v1 = shell_quadrature(d, theta_max, levels, excess, order=order)
    v2 = shell_quadrature(d, theta_max, levels + 4, excess, order=order + 2)
    fold = 2.0**d
    excess_val = v2 * fold
    quad_err = abs(v2 - v1) * fold

    # centre cube of the excess: kernel excess <= c ||theta||^-2 / N^2 near 0,
    # against the peak of |fhat|^2
    eps = theta_max * 0.5 ** (levels + 4)
    center = (
        (4 * d**2 / (6.0 * N**2))
        * sphere_area(d)
        * (eps * math.sqrt(d)) ** (d - 2)
        / (d - 2)
        * float(test.fhat_radial(0.0)) ** 2
    )
    # |fhat|^2 mass outside the resolved cube, against the full kernel
    def outer_radial(r):
        return r ** (d - 5) * test.fhat_radial(r) ** 2

    out_tail, _ = quad(outer_radial, theta_max, theta_max * 4 + 10, limit=200)
    out_tail *= sphere_area(d) * 2.0  # kernel <= 2 ||theta||^-4 out there

    # Riemann-sum (Poisson) correction: |L_N|^2 vs |fhat|^2
    eps_pois = (3**d) * test.fhat_radial(np.pi * N)  # coarse sup bound
    # integral of kernel * (2 |fhat| eps + eps^2) <= eps * (2 * int kernel |fhat| + ...)
    def kernel_fhat(r):
        return r ** (d - 5) * test.fhat_radial(r)

    kf, _ = quad(kernel_fhat, 0.0, theta_max, limit=200)
    poisson = float(eps_pois) * (2.0 * sphere_area(d) * kf + float(eps_pois) * theta_max**d)

    budget = quad_err + center + out_tail + poisson
    value = radial + excess_val
    if not budget <= budget_cap * value:
        raise RuntimeError(
            f"error budget {budget:.3e} exceeds {budget_cap:.0%} of value {value:.6f}"
        )
    return ScalingVariance(
        N=N,
        value=value,
        radial_part=radial,
        kernel_excess=excess_val,
        error_budget=budget,
        budget_detail={
            "quadrature": quad_err,
            "center_cube": center,
            "outer_tail": out_tail,
            "poisson": poisson,
        },
    )


def sine_bound_check(d: int, N: int, n_points: int, seed: int = 3):
    """Spot-check ||w||^-4 <= N^-4 (sum sin^2(w_i/N))^-2 <= (||w||^-2 + c N^-2)^2.

    Returns (holds_lower, fitted c) over random w in [-N pi/2, N pi/2]^d.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(-N * np.pi / 2, N * np.pi / 2, size=(n_points, d))
    w = w[np.linalg.norm(w, axis=1) > 1e-9]
    s = np.sum(np.sin(w / N) ** 2, axis=1)
    mid = 1.0 / (N**4 * s * s)
    r2 = np.sum(w * w, axis=1)
    lower_ok = bool(np.all(r2 * r2 * mid >= 1.0 - 1e-12))
    # smallest c making the upper bound hold at every sample
    c_fit = float(np.max((np.sqrt(mid) - 1.0 / r2) * N**2))
    return lower_ok, max(c_fit, 0.0)
