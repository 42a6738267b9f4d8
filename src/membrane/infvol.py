"""Infinite-volume covariance in d >= 5: Fourier quadrature vs random walks.

The translation-invariant covariance of the interface on the full lattice is

    G(0, x) = (2 pi)^-d  int_{[-pi,pi]^d}  mu(theta)^-2 exp(-i <x, theta>) dtheta,
    mu(theta) = (1/d) sum_i (1 - cos theta_i) = (2/d) sum_i sin^2(theta_i / 2),

whose integrand has a ||theta||^-4 singularity at the origin, integrable only
for d >= 5.  Quadrature uses dyadic shells toward the origin: the cube
[0, rho]^d splits into the sub-cube [0, rho/2]^d and 2^d - 1 boxes on which
the integrand is smooth; recursing on the sub-cube gives shells whose
contribution scales like (2^-k rho)^(d-4), so a few dozen levels push the
unresolved centre below any tolerance.  Evenness in every coordinate folds
the domain to the positive orthant (factor 2^d) and replaces the exponential
by a product of cosines.

The independent check is Monte Carlo over simple random walks:

    G(x, y) = sum_{m >= 0} (m + 1) P_x[ S_m = y ],

truncated at m <= M with the tail bounded by the fitted local-CLT decay
c m^{-d/2}.

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
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * np.pi


def mu_symbol(theta: np.ndarray, d: Optional[int] = None) -> np.ndarray:
    """mu(theta) = (2/d) sum_i sin^2(theta_i/2); 0 <= mu <= 2, zero only at 0."""
    theta = np.asarray(theta, dtype=float)
    if d is None:
        d = theta.shape[-1]
    return (2.0 / d) * np.sum(np.sin(0.5 * theta) ** 2, axis=-1)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d."""
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


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
    mesh; its results, scalar or array, are summed.
    """
    rules = {p: np.polynomial.legendre.leggauss(p) for p in (order, order_axis0) if p}
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
        for combo in range(1, 2**d):
            box = [halves[ax][(combo >> ax) & 1] for ax in range(d)]
            total = total + integrand([x for x, _ in box], [w for _, w in box])
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
    rho0: float = np.pi

    def __post_init__(self):
        if self.d <= 4:
            raise ValueError("integral diverges for d <= 4; defined only for d >= 5")

    def refined(self) -> "FourierCovariance":
        return FourierCovariance(
            d=self.d, levels=self.levels + 4, order=self.order + 2, rho0=self.rho0
        )

    def center_cube_bound(self) -> float:
        """Bound on the unresolved centre-cube mass: integrand <= 4 d^2 ||theta||^-4."""
        eps = self.rho0 * 0.5**self.levels
        d = self.d
        # int_{[0,eps]^d} ||theta||^-4 <= surf/(2^d) * int_0^{eps sqrt(d)} r^{d-5} dr
        return (
            4.0
            * d**2
            * sphere_area(d)
            / 2**d
            * (eps * math.sqrt(d)) ** (d - 4)
            / (d - 4)
        )


@dataclass
class FourierValue:
    value: float
    quadrature_error: float
    center_bound: float

    @property
    def error(self) -> float:
        return self.quadrature_error + self.center_bound


def _green_integrand(targets: np.ndarray, d: int):
    """Weighted sums of mu^-2 prod_i cos(x_i theta_i) over one box, all targets at once.

    The kernel tensor w / mu^2 is contracted axis by axis against the table
    cos(j theta_i) over the distinct |x_i| on axis i; each target is read
    from the resulting table of prod_i |F_i| entries.
    """
    freqs, index = zip(*(np.unique(np.abs(col), return_inverse=True) for col in np.asarray(targets).T))

    def integrand(nodes, weights):
        mu = sum(2.0 * np.sin(0.5 * t) ** 2 for t in nodes) / d
        tables = [w.reshape(-1, 1) * np.cos(t.reshape(-1, 1) * f) for t, w, f in zip(nodes, weights, freqs)]
        return _contract(1.0 / (mu * mu), tables)[index]

    return integrand


def green_infinite_fourier(
    x: Sequence[int], plan: Optional[FourierCovariance] = None, d: int = 5
) -> FourierValue:
    """G(0, x) by dyadic-shell quadrature; returns value with an error estimate.

    The integrand is even in every coordinate, so the imaginary part vanishes
    identically and the value depends only on |x| componentwise.
    """
    vals = green_infinite_fourier_many([x], plan=plan, d=d)
    return vals[0]


def green_infinite_fourier_many(
    targets: Sequence[Sequence[int]],
    plan: Optional[FourierCovariance] = None,
    d: int = 5,
    order_axis0: Optional[int] = None,
) -> List[FourierValue]:
    """G(0, x) for every target from one pass of the shell quadrature."""
    if plan is None:
        plan = FourierCovariance(d=d)
    d = plan.d
    targets = np.asarray(targets, dtype=np.int64)
    integ = _green_integrand(targets, d)
    coarse = shell_quadrature(
        d, plan.rho0, plan.levels, integ, order=plan.order, order_axis0=order_axis0
    )
    fine_plan = plan.refined()
    p0 = order_axis0 + 2 if order_axis0 else None
    fine = shell_quadrature(
        d, fine_plan.rho0, fine_plan.levels, integ, order=fine_plan.order, order_axis0=p0
    )
    scale = 2.0**d / TWO_PI**d
    center = fine_plan.center_cube_bound() * 2.0**d / TWO_PI**d
    out = []
    for v1, v2 in zip(np.atleast_1d(coarse), np.atleast_1d(fine)):
        out.append(
            FourierValue(
                value=float(v2) * scale,
                quadrature_error=abs(float(v2) - float(v1)) * scale,
                center_bound=center,
            )
        )
    return out


@dataclass
class Eta2Trend:
    radii: np.ndarray
    greens: np.ndarray
    ratios: np.ndarray         # G(0, r e_1) * r^{d-4}
    flatness: float            # max relative spread over the top half of radii
    quadrature_spread: float   # max relative change under refinement


def eta2_trend(radii: Sequence[int], d: int = 5, plan: Optional[FourierCovariance] = None) -> Eta2Trend:
    """Ratio G(0, r e_1) r^{d-4} along increasing radii (its limit is the
    covariance asymptotic constant, which has no closed numeric value here)."""
    radii = np.asarray(sorted(radii), dtype=int)
    targets = [[r] + [0] * (d - 1) for r in radii]
    if plan is None:
        plan = FourierCovariance(d=d, order=8, levels=30)
    # oscillation cos(r theta_1) needs extra nodes along the first axis
    p0 = max(plan.order, int(2 * radii.max() * plan.rho0 / np.pi / 2) + 8)
    vals = green_infinite_fourier_many(targets, plan=plan, d=d, order_axis0=p0)
    g = np.array([v.value for v in vals])
    qerr = np.array([v.error for v in vals])
    ratios = g * radii.astype(float) ** (d - 4)
    top = ratios[len(ratios) // 2 :]
    flat = float((top.max() - top.min()) / np.abs(top).mean())
    spread = float(np.max(qerr / np.maximum(np.abs(g), 1e-300)))
    if not np.all(qerr <= 0.1 * np.abs(g)):
        raise RuntimeError("quadrature error exceeds 10% of the ratio scale")
    return Eta2Trend(
        radii=radii, greens=g, ratios=ratios, flatness=flat, quadrature_spread=spread
    )


# ---------------------------------------------------------------------------
# random-walk oracle

@dataclass
class WalkOracle:
    """Monte Carlo plan for the walk representation, truncated at M steps."""

    d: int = 5
    n_walks: int = 1_000_000
    max_steps: int = 200
    seed: int = 2024
    batch: int = 200_000

    def __post_init__(self):
        if self.d <= 4:
            raise ValueError("the infinite-volume field needs d >= 5")


@dataclass
class WalkEstimate:
    targets: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    tail_bounds: np.ndarray
    n_walks: int
    max_steps: int


def _encode(pos: np.ndarray, span: int, d: int) -> np.ndarray:
    key = np.zeros(pos.shape[0], dtype=np.int64)
    base = 2 * span + 1
    for k in range(d):
        key = key * base + (pos[:, k].astype(np.int64) + span)
    return key


def walk_estimate(
    oracle: WalkOracle,
    targets: Sequence[Sequence[int]],
    tail_tolerance: Optional[float] = None,
    start: Optional[Sequence[int]] = None,
) -> WalkEstimate:
    """Per-target tally averages of sum_{m<=M} (m+1) 1{S_m = x} with standard
    errors from per-walk tallies, plus a fitted local-CLT tail bound.

    Walks start at `start` (origin by default); with a nonzero start this
    estimates G(start, x), which by translation invariance equals
    G(0, x - start).
    """
    d = oracle.d
    M = oracle.max_steps
    targets = np.asarray(targets, dtype=np.int64)
    start_vec = np.zeros(d, dtype=np.int16)
    if start is not None:
        start_vec = np.asarray(start, dtype=np.int16)
    ntar = len(targets)
    span = int(max(np.abs(targets).max() if targets.size else 0, np.abs(start_vec).max()))
    tkey = _encode(targets, span, d)
    order = np.argsort(tkey)
    tkey_sorted = tkey[order]
    r2_start = int(np.dot(start_vec.astype(np.int64), start_vec))

    sums = np.zeros(ntar)
    sqs = np.zeros(ntar)
    mhits = np.zeros((ntar, M + 1))
    done = 0
    batch_index = 0
    while done < oracle.n_walks:
        nw = min(oracle.batch, oracle.n_walks - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=oracle.seed, spawn_key=(batch_index,))
        )
        pos = np.tile(start_vec, (nw, 1))
        flat = pos.reshape(-1)
        rows = np.arange(0, nw * d, d)
        # running ||pos||^2: ||pos||_inf <= span needs ||pos||^2 <= d span^2,
        # so the exact test runs on those walks alone
        r2 = np.full(nw, r2_start, dtype=np.int64)
        tally = np.zeros((nw, ntar), dtype=np.float64)
        at_start = np.nonzero(
            tkey_sorted == _encode(start_vec[None, :].astype(np.int64), span, d)[0]
        )[0]
        if at_start.size:
            ti = order[at_start[0]]
            tally[:, ti] += 1.0
            mhits[ti, 0] += nw
        for m in range(1, M + 1):
            move = rng.integers(0, 2 * d, size=nw)
            cell = rows + (move >> 1)
            sgn = (2 * (move & 1) - 1).astype(np.int16)
            old = flat[cell]
            flat[cell] = old + sgn
            r2 += 2 * sgn * old + 1
            cand = np.flatnonzero(r2 <= d * span * span)
            idx = cand[np.max(np.abs(pos[cand]), axis=1) <= span]
            if idx.size:
                key = _encode(pos[idx], span, d)
                j = np.searchsorted(tkey_sorted, key)
                j = np.clip(j, 0, ntar - 1)
                ok = tkey_sorted[j] == key
                if ok.any():
                    widx = idx[ok]
                    tj = order[j[ok]]
                    np.add.at(tally, (widx, tj), float(m + 1))
                    np.add.at(mhits[:, m], tj, 1.0)
        sums += tally.sum(axis=0)
        sqs += np.sum(tally * tally, axis=0)
        done += nw
        batch_index += 1

    mean = sums / done
    var = np.maximum(sqs / done - mean**2, 0.0)
    se = np.sqrt(var / done)
    tails = _tail_bounds(mhits, targets - start_vec.astype(np.int64), done, M, d)
    if tail_tolerance is not None and np.any(tails > tail_tolerance):
        raise RuntimeError(
            f"tail bound {tails.max():.3e} above tolerance; increase max_steps"
        )
    return WalkEstimate(
        targets=targets,
        estimates=mean,
        standard_errors=se,
        tail_bounds=tails,
        n_walks=done,
        max_steps=M,
    )


def _tail_bounds(mhits: np.ndarray, targets: np.ndarray, n: int, M: int, d: int) -> np.ndarray:
    """Upper bounds on sum_{m>M} (m+1) P[S_m=x] from fitted m^{-d/2} returns.

    The observed frequencies follow the local CLT level c m^{-d/2}
    exp(-d|x|^2/2m) (matching parity); the Gaussian displacement factor is
    divided out before fitting so the level c is unbiased also for far
    targets, and left out of the tail sum, which therefore over-covers.  The
    fitted level is further inflated by twice its standard error.
    """
    out = np.zeros(len(targets))
    ms = np.arange(M + 1)
    for i, x in enumerate(targets):
        parity = int(np.abs(x).sum()) % 2
        x2 = float(np.dot(x, x))
        window = ms[(ms >= max(M // 3, 2)) & (ms % 2 == parity) & (ms > 0)]
        if len(window) == 0:
            continue
        hits = mhits[i, window]
        if hits.sum() < 20 and M > 12:
            window = ms[(ms >= max(M // 6, 2)) & (ms % 2 == parity) & (ms > 0)]
            hits = mhits[i, window]
        freqs = hits / n
        mw = window.astype(float)
        chat_samples = freqs * mw ** (d / 2.0) * np.exp(d * x2 / (2.0 * mw))
        chat = float(np.mean(chat_samples))
        spread = float(np.std(chat_samples) / max(np.sqrt(len(window)), 1.0))
        c_bound = chat + 2.0 * spread
        mm = np.arange(M + 1 + (M + 1) % 2 + (1 - parity) % 2, 200_000, 2, dtype=float)
        mm = mm[mm > M]
        tail = float(np.sum((mm + 1.0) * c_bound * mm ** (-d / 2.0)))
        mend = mm[-1]
        tail += c_bound * 0.5 * (mend ** (1 - d / 2.0) / (d / 2.0 - 1) + 2 * mend ** (-d / 2.0))
        out[i] = tail
    return out


def symmetry_classes(span: int, d: int):
    """Representatives (sorted |x|) and class members for all ||x||_inf <= span."""
    import itertools

    reps = {}
    for x in itertools.product(range(-span, span + 1), repeat=d):
        key = tuple(sorted(abs(v) for v in x))
        reps.setdefault(key, []).append(x)
    return reps


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

    def support_radius(self, floor: float = 1e-16) -> float:
        """|f_1d| < floor beyond this radius."""
        return self.sigma * math.sqrt(-2.0 * math.log(floor))

    def fhat_radius(self, floor: float = 1e-30) -> float:
        amp = abs(self.amplitude)
        if amp == 0.0:
            return 1.0
        return math.sqrt(max(-2.0 * math.log(floor / (amp * self.sigma**self.d)), 1.0)) / self.sigma


def gaussian_test(d: int = 5, sigma: float = 1.0) -> SchwartzTest:
    return SchwartzTest(name=f"gaussian(sigma={sigma})", d=d, sigma=sigma)


def inv_laplacian_norm(test: SchwartzTest, rel_tol: float = 1e-12) -> float:
    """|| (-Lap)^{-1} f ||_{L^2}^2 = int ||theta||^-4 |fhat|^2 dtheta by radial quadrature."""
    d = test.d
    if d <= 4:
        raise ValueError("needs d >= 5")
    area = sphere_area(d)

    def radial(r):
        return r ** (d - 5) * test.fhat_radial(r) ** 2

    hi = test.fhat_radius() * 1.2
    v, err = quad(radial, 0.0, hi, epsabs=0.0, epsrel=rel_tol, limit=400)
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
    """
    d = test.d
    if d <= 4:
        raise ValueError("needs d >= 5")
    if N < 2:
        raise ValueError("N must be >= 2")
    kappa2 = 1.0 / (2 * d) ** 2
    if test.amplitude == 0.0:
        return ScalingVariance(
            N=N, value=0.0, radial_part=0.0, kernel_excess=0.0, error_budget=0.0,
            budget_detail={},
        )
    radial = inv_laplacian_norm(test)

    theta_max = min(N * np.pi, test.fhat_radius(1e-34))

    def excess(nodes, weights):
        mu = sum(2.0 * np.sin(0.5 * t / N) ** 2 for t in nodes) / d
        r2 = sum(t * t for t in nodes)
        ker = kappa2 / (N**4 * mu * mu) - 1.0 / (r2 * r2)
        fh = test.fhat_radial(np.sqrt(r2))
        return _contract(ker * fh * fh, [w.reshape(-1, 1) for w in weights]).item()

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
    eps_pois = (3**d) * test.fhat_radial(np.pi * N * test.sigma**0)  # coarse sup bound
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
