import math

import numpy as np
import pytest
from scipy.integrate import quad

from membrane.infvol import (
    FourierCovariance,
    SchwartzTest,
    WalkOracle,
    eta2_trend,
    gaussian_test,
    green_infinite_fourier,
    green_infinite_fourier_many,
    inv_laplacian_norm,
    mu_symbol,
    riemann_sum_error,
    scaling_variance,
    sine_bound_check,
    sphere_area,
    symmetry_classes,
    walk_estimate,
    _tail_bounds,
)


def test_mu_properties_exact():
    d = 5
    assert mu_symbol(np.zeros(d)) == 0.0
    assert mu_symbol(np.full(d, np.pi)) == pytest.approx(2.0, abs=1e-15)
    rng = np.random.default_rng(0)
    th = rng.uniform(-np.pi, np.pi, size=(50, d))
    assert np.all(mu_symbol(th) >= 0.0)
    assert np.all(mu_symbol(th) <= 2.0)
    assert np.allclose(mu_symbol(th), mu_symbol(-th))
    for ax in range(d):
        flip = th.copy()
        flip[:, ax] *= -1
        assert np.allclose(mu_symbol(th), mu_symbol(flip))


def test_fourier_rejects_low_dimension():
    with pytest.raises(ValueError):
        FourierCovariance(d=4)


def bessel_reference(x, d=5):
    # independent 1-D representation: G(0,x) = int_0^inf t e^{-t} prod_i I_{x_i}(t/d) dt
    from scipy.special import ive

    def f(t):
        return t * np.prod([ive(abs(int(v)), t / d) for v in x])

    v1, _ = quad(f, 0, 60, limit=300)
    v2, _ = quad(f, 60, np.inf, limit=300)
    return v1 + v2


@pytest.mark.parametrize("x", [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 1, 0, 0, 0)])
def test_fourier_against_bessel_identity(x):
    got = green_infinite_fourier(x)
    ref = bessel_reference(x)
    assert abs(got.value - ref) <= max(5 * got.error, 1e-8)


def test_fourier_value_at_origin_at_least_one():
    v = green_infinite_fourier((0, 0, 0, 0, 0))
    assert v.value >= 1.0


def test_fourier_even_symmetry():
    a = green_infinite_fourier((1, -2, 0, 0, 0)).value
    b = green_infinite_fourier((-1, 2, 0, 0, 0)).value
    assert a == pytest.approx(b, abs=1e-12)


def test_fourier_refinement_self_consistency():
    coarse = green_infinite_fourier_many([(1, 1, 1, 0, 0)], plan=FourierCovariance(d=5, order=5, levels=24))[0]
    fine = green_infinite_fourier_many([(1, 1, 1, 0, 0)], plan=FourierCovariance(d=5, order=8, levels=32))[0]
    assert abs(coarse.value - fine.value) <= 0.01 * abs(fine.value)


def dense_shell_sum(d, outer, levels, order, integrand, order_axis0=None):
    """The dyadic shell rule on full meshes: integrand(theta (..., d), weights)."""
    total = 0.0
    for k in range(levels):
        a = outer * 0.5**k
        for combo in range(1, 2**d):
            nodes, weights = [], []
            for ax in range(d):
                x, w = np.polynomial.legendre.leggauss(order_axis0 if (order_axis0 and ax == 0 and k < 12) else order)
                lo = a / 2 if (combo >> ax) & 1 else 0.0
                nodes.append(lo + a / 4 * (x + 1))
                weights.append(a / 4 * w)
            theta = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
            wt = np.prod(np.stack(np.meshgrid(*weights, indexing="ij")), axis=0)
            total = total + integrand(theta, wt)
    return total


@pytest.mark.parametrize("order_axis0", [None, 6])
def test_fourier_matches_dense_mesh_reference(order_axis0):
    d = 5
    targets = [list(x) for x in sorted(symmetry_classes(2, d))]
    targets += [[3, 0, 0, 0, 0], [0, 0, 0, 0, -5], [0, 2, -1, 0, 1], [4, 1, 0, 0, 0]]
    plan = FourierCovariance(d=d, levels=9, order=3)  # refined: 13 levels, past the 12 of order_axis0
    got = green_infinite_fourier_many(targets, plan=plan, order_axis0=order_axis0)

    def integrand(theta, wt):
        ker = wt / mu_symbol(theta) ** 2
        return np.array([np.sum(ker * np.prod(np.cos(theta * np.abs(x)), axis=-1)) for x in targets])

    scale = 2.0**d / (2 * np.pi) ** d
    coarse = dense_shell_sum(d, np.pi, 9, 3, integrand, order_axis0) * scale
    fine = dense_shell_sum(d, np.pi, 13, 5, integrand, order_axis0 and order_axis0 + 2) * scale
    values = np.array([v.value for v in got])
    assert np.all(np.abs(values - fine) <= 1e-13 * np.abs(fine))
    qerr = np.array([v.quadrature_error for v in got])
    assert np.all(np.abs(qerr - np.abs(fine - coarse)) <= 1e-13 * np.abs(fine))


# ---------------------------------------------------------------------------
# walks

def test_walk_zero_length_tally():
    oracle = WalkOracle(d=5, n_walks=3, max_steps=0, seed=1, batch=2)
    est = walk_estimate(oracle, [(0, 0, 0, 0, 0)])
    assert est.estimates[0] == pytest.approx(1.0)
    assert est.standard_errors[0] == 0.0


def test_walk_rejects_low_dimension():
    with pytest.raises(ValueError):
        WalkOracle(d=4)


def test_walk_permutation_symmetry():
    oracle = WalkOracle(d=5, n_walks=150_000, max_steps=60, seed=5)
    est = walk_estimate(oracle, [(2, 1, 0, 0, 0), (0, 1, 0, 2, 0)])
    joint = math.hypot(est.standard_errors[0], est.standard_errors[1])
    assert abs(est.estimates[0] - est.estimates[1]) <= 3 * joint


def test_walk_standard_error_small_at_volume():
    oracle = WalkOracle(d=5, n_walks=200_000, max_steps=100, seed=6)
    est = walk_estimate(oracle, [(0, 0, 0, 0, 0)])
    assert est.standard_errors[0] <= 0.01 * est.estimates[0]


def test_walk_agrees_with_fourier_within_budget():
    oracle = WalkOracle(d=5, n_walks=200_000, max_steps=200, seed=7)
    targets = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)]
    est = walk_estimate(oracle, targets)
    four = green_infinite_fourier_many(targets)
    for i in range(len(targets)):
        tol = 3 * est.standard_errors[i] + four[i].error + est.tail_bounds[i]
        assert abs(four[i].value - est.estimates[i]) <= tol


def test_walk_matches_per_walk_reference_loop():
    # the same (seed, batch) streams and rng.integers calls, one walk at a time
    oracle = WalkOracle(d=5, n_walks=300, max_steps=30, seed=12, batch=200)
    start = (1, 0, -1, 0, 0)
    targets = [(1, 0, -1, 0, 0), (2, 0, -1, 0, 0), (0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (-1, 0, -1, 1, 0)]
    est = walk_estimate(oracle, targets, start=start)

    d, M = oracle.d, oracle.max_steps
    tallies = []
    mhits = np.zeros((len(targets), M + 1))
    done = batch = 0
    while done < oracle.n_walks:
        nw = min(oracle.batch, oracle.n_walks - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=oracle.seed, spawn_key=(batch,)))
        moves = [rng.integers(0, 2 * d, size=nw) for _ in range(M)]
        for w in range(nw):
            pos = list(start)
            tally = [0.0] * len(targets)
            for m in range(M + 1):
                if m:
                    pos[moves[m - 1][w] >> 1] += 1 if moves[m - 1][w] & 1 else -1
                if tuple(pos) in targets:
                    i = targets.index(tuple(pos))
                    tally[i] += m + 1
                    mhits[i, m] += 1
            tallies.append(tally)
        done += nw
        batch += 1
    tallies = np.array(tallies)
    mean = tallies.sum(axis=0) / done
    se = np.sqrt(np.maximum(np.sum(tallies * tallies, axis=0) / done - mean**2, 0.0) / done)
    tails = _tail_bounds(mhits, np.array(targets) - np.array(start), done, M, d)
    assert batch == 2 and est.n_walks == 300
    assert np.array_equal(est.estimates, mean)
    assert np.array_equal(est.standard_errors, se)
    assert np.array_equal(est.tail_bounds, tails)


def test_walk_tail_tolerance_error():
    oracle = WalkOracle(d=5, n_walks=50_000, max_steps=40, seed=8)
    with pytest.raises(RuntimeError):
        walk_estimate(oracle, [(0, 0, 0, 0, 0)], tail_tolerance=1e-6)


def test_symmetry_classes_cover_span():
    reps = symmetry_classes(1, 3)
    total = sum(len(v) for v in reps.values())
    assert total == 27
    assert set(reps) == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}


# ---------------------------------------------------------------------------
# eta2 trend

def test_eta2_trend_quick():
    trend = eta2_trend(range(3, 9), d=5, plan=FourierCovariance(d=5, order=7, levels=26))
    assert np.all(trend.ratios > 0)
    assert trend.flatness <= 0.2
    # ratio sequence flattens: successive changes shrink
    diffs = np.abs(np.diff(trend.ratios))
    assert diffs[-1] <= diffs[0]


def test_eta2_trend_full_range():
    # the asymptotic-constant ratio over r = 5..15: top-half spread within 10%
    trend = eta2_trend(range(5, 16), d=5)
    assert trend.flatness <= 0.10
    assert np.all(trend.ratios > 0)
    assert trend.quadrature_spread <= 0.01


def test_translation_invariance_via_shifted_walks():
    # walks started at x tallying y estimate G(x, y) = G(0, y - x)
    oracle = WalkOracle(d=5, n_walks=120_000, max_steps=120, seed=31)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.integers(-1, 2, size=5)
        y = x + np.array([1, 0, 0, 0, 0]) * rng.choice([1, 2])
        est = walk_estimate(oracle, [y.tolist()], start=x.tolist())
        ref = green_infinite_fourier((y - x).tolist())
        tol = 3 * est.standard_errors[0] + ref.error + est.tail_bounds[0]
        assert abs(est.estimates[0] - ref.value) <= tol


# ---------------------------------------------------------------------------
# Schwartz machinery

def test_fhat_matches_numeric_transform():
    test = gaussian_test(5)
    rng = np.random.default_rng(2)
    thetas = rng.uniform(-2, 2, size=(10, 5))
    for th in thetas:
        # separable: product of 1-D transforms (2pi)^{-1/2} int e^{-i t w} f(t) dt
        val = 1.0
        for w in th:
            re, _ = quad(lambda t, w=w: math.exp(-t * t / 2) * math.cos(w * t), -12, 12, limit=200)
            val *= re / math.sqrt(2 * math.pi)
        assert abs(val - test.fhat(th)) <= 1e-8


def test_inv_laplacian_norm_closed_form():
    # S_4 * int_0^inf e^{-r^2} dr = (8 pi^2 / 3) (sqrt(pi)/2) = 4 pi^{5/2} / 3
    test = gaussian_test(5)
    closed = sphere_area(5) * math.sqrt(math.pi) / 2.0
    assert closed == pytest.approx(4 * math.pi**2.5 / 3, rel=1e-15)
    assert inv_laplacian_norm(test) == pytest.approx(closed, rel=1e-8)


def test_inv_laplacian_norm_quadratic_scaling():
    base = gaussian_test(5)
    doubled = gaussian_test(5)
    doubled.amplitude = 2.0
    assert inv_laplacian_norm(doubled) == pytest.approx(4 * inv_laplacian_norm(base), rel=1e-10)


def test_riemann_sum_error_origin():
    test = gaussian_test(5)
    assert riemann_sum_error(test, [0.0] * 5, 8) < 1e-10


def test_riemann_sum_error_monotone_in_N():
    test = gaussian_test(5)
    e8 = riemann_sum_error(test, [0.7, -0.3, 0.1, 0.0, 0.2], 8)
    e16 = riemann_sum_error(test, [0.7, -0.3, 0.1, 0.0, 0.2], 16)
    assert e16 <= e8 + 1e-14


def test_riemann_sum_error_wide_function_far_frequency():
    # fhat concentrated inside ||theta|| <= 5; at theta = 6 e_1 the lattice sum
    # itself is the whole error and still tiny
    test = SchwartzTest(name="wide", d=5, sigma=2.0)
    err = riemann_sum_error(test, [6.0, 0, 0, 0, 0], 8)
    assert err < 1e-8


def test_sine_bound_spot_check():
    ok, c = sine_bound_check(5, 8, 10_000)
    assert ok
    assert 0 <= c < 10.0


# ---------------------------------------------------------------------------
# scaling variance

def test_scaling_variance_zero_function():
    test = gaussian_test(5)
    test.amplitude = 0.0
    sv = scaling_variance(test, 4)
    assert sv.value == 0.0


def test_scaling_variance_sequence_decreases_to_limit():
    test = gaussian_test(5)
    limit = inv_laplacian_norm(test)
    v4 = scaling_variance(test, 4)
    v8 = scaling_variance(test, 8)
    assert abs(v8.value - limit) < abs(v4.value - limit)
    assert v4.error_budget <= 0.05 * v4.value
    assert abs(v8.value - limit) <= 0.05 * limit


def test_scaling_variance_excess_matches_dense_mesh_reference():
    d, N, levels, order = 5, 4, 4, 3
    test = gaussian_test(d)
    sv = scaling_variance(test, N, levels=levels, order=order, budget_cap=1.0)
    kappa2 = 1.0 / (2 * d) ** 2

    def excess(theta, wt):
        r2 = np.sum(theta * theta, axis=-1)
        ker = kappa2 / (N**4 * mu_symbol(theta / N) ** 2) - 1.0 / r2**2
        return np.sum(wt * ker * test.fhat(theta) ** 2)

    outer = min(N * np.pi, test.fhat_radius(1e-34))
    ref = 2.0**d * dense_shell_sum(d, outer, levels + 4, order + 2, excess)
    assert abs(sv.kernel_excess - ref) <= 1e-12 * ref
    assert sv.value == sv.radial_part + sv.kernel_excess


def test_quadrature_and_budget_gates_fail_on_nan(monkeypatch):
    from membrane import infvol

    many = infvol.green_infinite_fourier_many

    def nan_error(*args, **kwargs):
        vals = many(*args, **kwargs)
        vals[1].quadrature_error = float("nan")
        return vals

    monkeypatch.setattr(infvol, "green_infinite_fourier_many", nan_error)
    with pytest.raises(RuntimeError, match="quadrature error"):
        eta2_trend(range(3, 6), d=5, plan=FourierCovariance(d=5, order=5, levels=12))
    monkeypatch.setattr(infvol, "shell_quadrature", lambda *args, **kwargs: float("nan"))
    with pytest.raises(RuntimeError, match="error budget"):
        scaling_variance(gaussian_test(5), 4)


def test_scaling_variance_rejects_small_N():
    with pytest.raises(ValueError):
        scaling_variance(gaussian_test(5), 1)
