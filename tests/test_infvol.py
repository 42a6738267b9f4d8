import hashlib
import itertools
import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e
from scipy.stats import binom

from membrane.infvol import (
    FourierCovariance,
    SchwartzTest,
    WalkOracle,
    _contract,
    eta2_trend,
    gaussian_test,
    green_infinite_fourier,
    green_infinite_fourier_many,
    inv_laplacian_norm,
    mu_symbol,
    riemann_sum_error,
    riesz_constant,
    scaling_variance,
    sine_bound_check,
    sphere_area,
    symmetry_classes,
    walk_estimate,
    walk_tail_bound,
)


def test_mu_properties_exact():
    d = 5
    assert mu_symbol(np.zeros(d)) == 0.0
    assert mu_symbol(np.full(d, np.pi)) == pytest.approx(2.0, abs=1e-15)
    rng = np.random.default_rng(0)
    th = rng.uniform(-np.pi, np.pi, size=(50, d))
    assert np.all(mu_symbol(th.T) >= 0.0)
    assert np.all(mu_symbol(th.T) <= 2.0)
    assert np.allclose(mu_symbol(th.T), mu_symbol(-th.T))
    for ax in range(d):
        flip = th.copy()
        flip[:, ax] *= -1
        assert np.allclose(mu_symbol(th.T), mu_symbol(flip.T))


def test_fourier_rejects_low_dimension():
    with pytest.raises(ValueError):
        FourierCovariance(d=4)


def test_fourier_rejects_an_empty_target_list():
    with pytest.raises(ValueError, match="no targets"):
        green_infinite_fourier_many([], FourierCovariance(d=5))


def test_targets_of_the_wrong_length_are_rejected_before_any_work(monkeypatch):
    from membrane import infvol

    def no_work(*args, **kwargs):
        raise AssertionError("work started on targets of the wrong length")

    monkeypatch.setattr(infvol, "shell_quadrature", no_work)
    monkeypatch.setattr(infvol, "_encode", no_work)
    with pytest.raises(ValueError, match="not points of Z\\^5"):
        green_infinite_fourier_many([[1, 0, 0, 0, 0, 7]], plan=FourierCovariance(d=5))
    with pytest.raises(ValueError, match="not points of Z\\^6"):
        green_infinite_fourier([1, 0, 0, 0, 0], plan=FourierCovariance(d=6))
    oracle = WalkOracle(d=5, n_walks=10**9, max_steps=200, seed=3)
    with pytest.raises(ValueError, match="not points of Z\\^5"):
        walk_estimate(oracle, [(1, 0, 0, 0, 0, 7)])


def test_fractional_targets_are_refused_before_any_work(monkeypatch):
    # np.asarray(..., dtype=np.int64) would truncate (0.5, 0, 0, 0, 0) to the origin
    from membrane import infvol

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a fractional target")

    monkeypatch.setattr(infvol, "shell_quadrature", no_work)
    monkeypatch.setattr(infvol, "_encode", no_work)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    targets = [(0, 0, 0, 0, 0), (0.5, 0, 0, 0, 0)]
    with pytest.raises(ValueError, match="not an integer"):
        green_infinite_fourier_many(targets, plan=FourierCovariance(d=5))
    with pytest.raises(ValueError, match="not an integer"):
        green_infinite_fourier(np.array([1.0, 0, 0, 0, 0.25]))
    with pytest.raises(ValueError, match="not an integer"):
        walk_estimate(WalkOracle(d=5, n_walks=2000, max_steps=10, seed=3), targets)


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


@pytest.mark.parametrize("d", [5, 6, 8])
def test_center_cube_constant_bounds_the_integrand(d):
    # levels=1: the centre cube is [0, pi/2]^d, where the small-angle bound
    # 4 d^2 ||theta||^-4 alone fails (by 1.52 at the corner in d=5)
    plan = FourierCovariance(d=d, levels=1)
    eps = np.pi / 2
    theta = np.vstack([np.random.default_rng(d).uniform(0.0, eps, size=(2000, d)), np.full(d, eps), np.ones(d)])
    integrand = mu_symbol(theta.T) ** -2.0
    scaled = integrand * np.sum(theta**2, axis=1) ** 2
    assert np.all(scaled <= plan.center_constant())
    assert scaled.max() > 4.0 * d**2
    # at the default plans the factor over 4 d^2 is 1 + O(4^-levels)
    assert FourierCovariance(d=d, levels=20).center_constant() / (4.0 * d**2) - 1.0 <= 3e-12


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


def check_fourier_against_dense_mesh(d, targets, levels, order, order_axis0):
    plan = FourierCovariance(d=d, levels=levels, order=order)
    got = green_infinite_fourier_many(targets, plan=plan, order_axis0=order_axis0)

    def integrand(theta, wt):
        ker = wt / mu_symbol(np.moveaxis(theta, -1, 0)) ** 2
        return np.array([np.sum(ker * np.prod(np.cos(theta * np.abs(x)), axis=-1)) for x in targets])

    scale = 2.0**d / (2 * np.pi) ** d
    coarse = dense_shell_sum(d, np.pi, levels, order, integrand, order_axis0) * scale
    fine = dense_shell_sum(d, np.pi, levels + 4, order + 2, integrand, order_axis0 and order_axis0 + 2) * scale
    values = np.array([v.value for v in got])
    assert np.all(np.abs(values - fine) <= 1e-13 * np.abs(fine))
    qerr = np.array([v.quadrature_error for v in got])
    assert np.all(np.abs(qerr - np.abs(fine - coarse)) <= 1e-13 * np.abs(fine))


@pytest.mark.parametrize("order_axis0", [None, 6])
def test_fourier_matches_dense_mesh_reference(order_axis0):
    d = 5
    targets = [list(x) for x in sorted(symmetry_classes(2, d))]
    targets += [[3, 0, 0, 0, 0], [0, 0, 0, 0, -5], [0, 2, -1, 0, 1], [4, 1, 0, 0, 0]]
    # refined: 13 levels, past the 12 of order_axis0
    check_fourier_against_dense_mesh(d, targets, levels=9, order=3, order_axis0=order_axis0)


@pytest.mark.parametrize("order_axis0", [None, 4])
def test_fourier_matches_dense_mesh_reference_d6(order_axis0):
    # unsorted, repeated coordinates: each box of a class reads the class
    # tensor through its own transpose, which these targets tell apart
    targets = [(1, 0, 2, 0, 0, 1), (0, 0, 1, 2, 1, 0), (2, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 2), (0, 3, 0, 1, 0, 0)]
    check_fourier_against_dense_mesh(6, targets, levels=5, order=2, order_axis0=order_axis0)


# ---------------------------------------------------------------------------
# walks

def test_walk_zero_length_tally():
    oracle = WalkOracle(d=5, n_walks=3, max_steps=0, seed=1, batch=2)
    est = walk_estimate(oracle, [(0, 0, 0, 0, 0)])
    assert est.estimates[0] == pytest.approx(1.0)
    assert est.standard_errors[0] == 0.0


def test_walk_rejects_repeated_targets():
    # a repeated target used to be tallied under one entry, the other reading 0 with SE 0
    oracle = WalkOracle(d=5, n_walks=20000, max_steps=40, seed=3)
    with pytest.raises(ValueError, match="twice"):
        walk_estimate(oracle, [(1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 0)])


def test_walk_rejects_an_empty_target_list():
    with pytest.raises(ValueError, match="no targets"):
        walk_estimate(WalkOracle(d=5, n_walks=10, max_steps=5, seed=3), [])


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


def check_walks_against_per_walk_loop(start, targets, M):
    # the same (seed, batch) streams and rng.integers calls, one walk at a
    # time from `start`; the library walks from the origin to targets - start,
    # so the two agree bit for bit only by translation invariance
    oracle = WalkOracle(d=5, n_walks=300, max_steps=M, seed=12, batch=200)
    est = walk_estimate(oracle, np.array(targets) - start)

    d = oracle.d
    tallies = []
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
                    tally[targets.index(tuple(pos))] += m + 1
            tallies.append(tally)
        done += nw
        batch += 1
    tallies = np.array(tallies)
    mean = tallies.sum(axis=0) / done
    se = np.sqrt(np.maximum(np.sum(tallies * tallies, axis=0) / done - mean**2, 0.0) / done)
    assert batch == 2 and est.n_walks == 300
    assert np.array_equal(est.estimates, mean)
    assert np.array_equal(est.standard_errors, se)
    for i, x in enumerate(targets):
        parity = sum(abs(a - b) for a, b in zip(x, start)) % 2
        assert est.tail_bounds[i] == walk_tail_bound(M, d, parity)
    return tallies


def test_walk_matches_per_walk_reference_loop():
    start = (1, 0, -1, 0, 0)
    targets = [(1, 0, -1, 0, 0), (2, 0, -1, 0, 0), (0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (-1, 0, -1, 1, 0)]
    check_walks_against_per_walk_loop(start, targets, 30)


def test_walk_matches_per_walk_reference_loop_leaving_the_box():
    # span 3 and a start off the origin: walks leave the target box and come
    # back, so a key must not alias outside the box
    start = (2, -1, 0, 1, 0)
    targets = [(3, 0, 0, 0, 0), (2, -1, 0, 1, 0), (0, 0, -3, 0, 0), (2, 0, 0, 1, 1), (1, -1, 0, 2, 0)]
    tallies = check_walks_against_per_walk_loop(start, targets, 40)
    assert np.all(tallies.sum(axis=0) > 0)


def test_walk_memory_does_not_grow_with_the_target_box():
    # span 15 in d=5: a dense table over the (2 span + 1)^d box would take 229 MB
    oracle = WalkOracle(d=5, n_walks=2000, max_steps=20, seed=8)
    tracemalloc.start()
    try:
        est = walk_estimate(oracle, [(15, 0, 0, 0, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert est.estimates[0] == 0.0  # no walk takes 15 of its 20 steps along +e_1


def per_walk_reference(oracle, targets, start):
    """Mean and SE of the tallies, one walk at a time on the same (seed, batch) streams."""
    index = {tuple(x): i for i, x in enumerate(targets)}
    d, M = oracle.d, oracle.max_steps
    tallies = []
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
                if tuple(pos) in index:
                    tally[index[tuple(pos)]] += m + 1
            tallies.append(tally)
        done += nw
        batch += 1
    tallies = np.array(tallies)
    mean = tallies.sum(axis=0) / done
    return mean, np.sqrt(np.maximum(np.sum(tallies * tallies, axis=0) / done - mean**2, 0.0) / done)


@pytest.mark.parametrize(
    "n_walks, batch, M",
    [
        (301, 97, 23),  # walks a multiple of neither the batch nor 2 or 3 workers; M = 5 CHUNK + 3
        (7, 5, 9),  # a last batch of 2 walks, fewer than 3 workers
        (11, 4, 0),  # M = 0: only the start is tallied
    ],
)
def test_walk_output_does_not_depend_on_the_worker_count(monkeypatch, n_walks, batch, M):
    start = (1, 0, -1, 0, 0)
    targets = [(1, 0, -1, 0, 0), (2, 0, -1, 0, 0), (0, 0, 0, 0, 0), (1, 1, -1, 0, 0), (0, 0, -1, 0, 0)]
    oracle = WalkOracle(d=5, n_walks=n_walks, max_steps=M, seed=21, batch=batch)
    mean, se = per_walk_reference(oracle, targets, start)
    assert np.count_nonzero(mean) >= (2 if M else 1)
    check_every_worker_count(monkeypatch, oracle, np.array(targets) - start, mean, se)


def check_every_worker_count(monkeypatch, oracle, targets, mean, se):
    """walk_estimate under 1, 2, 3 and 8 WORKERS gives the reference mean and SE bit for bit."""
    from membrane import infvol

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a slice stepped twice or not at all would show
    try:
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(infvol, "WORKERS", workers)
            est = walk_estimate(oracle, targets)
            assert np.array_equal(est.estimates, mean)
            assert np.array_equal(est.standard_errors, se)
            assert threading.active_count() == threads  # the pool ends with the call
    finally:
        sys.setswitchinterval(interval)


def test_walk_finds_every_point_of_the_span_2_box(monkeypatch):
    # walked from (3, 0, 0, 0, 0), the box is the library's targets shifted
    # to span 5; 14 steps key them in base 2 * 14 + 1 = 29, and in 65,536
    # slots some sit past their first slot, so lookups must probe, under
    # every worker count
    from membrane.infvol import _encode, _TargetHash

    targets = list(itertools.product(range(-2, 3), repeat=5))
    start = (3, 0, 0, 0, 0)
    shifted = np.array(targets) - start
    assert _TargetHash(_encode(shifted, 14, 5)).keys.shape == (4, 65536)  # (probe offsets, slots)
    oracle = WalkOracle(d=5, n_walks=100, max_steps=14, seed=4, batch=64)
    mean, se = per_walk_reference(oracle, targets, start)
    assert np.count_nonzero(mean) > 150
    check_every_worker_count(monkeypatch, oracle, shifted, mean, se)


def test_walk_output_on_the_benchmark_targets_is_pinned(monkeypatch):
    # the SHA-256 of the estimates, standard errors and tail bounds (float64,
    # little-endian) on the benchmark's 21 targets, as walks gave it when
    # they stepped unhashed keys; WORKERS 1, 2 and 3 cut the batch differently
    from membrane import infvol

    oracle = WalkOracle(d=5, n_walks=20_000, max_steps=200, seed=7)
    for workers in (1, 2, 3):
        monkeypatch.setattr(infvol, "WORKERS", workers)
        est = walk_estimate(oracle, sorted(symmetry_classes(2, 5)))
        digest = hashlib.sha256(np.concatenate([est.estimates, est.standard_errors, est.tail_bounds]).tobytes())
        assert digest.hexdigest() == "4fbf4835034df3395db16c4d27d3423d347a21af6698c9e6a277969d5330f925"


def test_walk_key_is_exact_beyond_the_steps_a_walk_can_take():
    # in base 2 M + 1 the key of (0, 2 M + 1, 0, 0, 0) is that of
    # (1, 0, 0, 0, 0); no walk of M steps reaches the first, and the second
    # must still get the per-walk tallies
    M = 6
    targets = [(1, 0, 0, 0, 0), (0, 2 * M + 1, 0, 0, 0), (0, 0, 0, 0, 0)]
    oracle = WalkOracle(d=5, n_walks=300, max_steps=M, seed=13, batch=200)
    mean, se = per_walk_reference(oracle, targets, (0,) * 5)
    est = walk_estimate(oracle, targets)
    assert est.estimates[1] == 0.0 and est.standard_errors[1] == 0.0
    assert mean[0] > 0
    assert np.array_equal(est.estimates, mean)
    assert np.array_equal(est.standard_errors, se)


def test_walk_keys_fit_int64_up_to_116_steps_in_d8():
    # 233^8 < 2^63 - 1 < 235^8
    targets = [(0,) * 8, (1,) + (0,) * 7, (0,) * 7 + (-2,)]
    oracle = WalkOracle(d=8, n_walks=40, max_steps=116, seed=5, batch=40)
    mean, se = per_walk_reference(oracle, targets, (0,) * 8)
    est = walk_estimate(oracle, targets)
    assert mean[0] >= 1.0
    assert np.array_equal(est.estimates, mean)
    assert np.array_equal(est.standard_errors, se)


@pytest.mark.parametrize(
    "d, M, target",
    [(8, 117, (1,) + (0,) * 7), (5, 200, (4000, 0, 0, 0, 0)), (5, 3104, (0,) * 5), (6, 724, (0,) * 6)],
)
def test_walk_keys_that_overflow_int64_are_refused_before_any_walk(monkeypatch, d, M, target):
    def no_rng(*args, **kwargs):
        raise AssertionError("walks started on keys that overflow int64")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    with pytest.raises(ValueError, match="overflow int64"):
        walk_estimate(WalkOracle(d=d, n_walks=10, max_steps=M, seed=1), [target])


def test_target_hash_finds_every_key_and_no_other():
    # the span-2 box keyed at span 14 clusters in 8,192 slots (a key 117
    # slots past its own), so the table grows until no key sits more than 3 past
    from membrane.infvol import _HASH, _encode, _TargetHash

    rng = np.random.default_rng(5)
    box = np.array(list(itertools.product(range(-2, 3), repeat=5)))
    for points, span in [(box, 2), (box, 3), (box, 14), (box[rng.choice(len(box), 40, replace=False)], 3)]:
        keys = _encode(points, span, 5)
        table = _TargetHash(keys)
        assert len(table.keys) <= 4 and table.keys.shape[1] < 32 * len(keys)
        i, t = table.find(keys)
        assert np.array_equal(i, np.arange(len(keys))) and np.array_equal(t, np.arange(len(keys)))
        others = np.setdiff1d(rng.integers(0, (2 * span + 1) ** 5, 20_000) * _HASH, keys)
        assert len(table.find(others)[0]) == 0


def test_target_hash_of_few_keys_reads_one_slot_per_key():
    # the 21 class representatives of the span-2 box (the benchmark's
    # targets): keyed at span 2 they share a slot in 64 and 128 slots, and
    # none does in 256; keyed at the benchmark's 200 steps none does in 2,048
    from membrane.infvol import _encode, _TargetHash

    targets = np.array(sorted(symmetry_classes(2, 5)))
    box = np.array(list(itertools.product(range(-2, 3), repeat=5)))
    for R, slots in [(2, 256), (200, 2048)]:
        keys = _encode(targets, R, 5)
        table = _TargetHash(keys)
        assert len(keys) == 21 and table.keys.shape == (1, slots)
        i, t = table.find(keys)
        assert np.array_equal(i, np.arange(21)) and np.array_equal(t, np.arange(21))
        others = np.setdiff1d(_encode(box, R, 5), keys)
        assert len(others) == 5**5 - 21 and len(table.find(others)[0]) == 0


def test_walk_raises_an_exception_from_a_pool_thread(monkeypatch):
    from membrane import infvol

    monkeypatch.setattr(infvol, "WORKERS", 2)
    caller = threading.get_ident()
    failed = threading.Event()
    walk = infvol._Walks.walk

    def fail_off_the_caller(self, moves, m0):
        if threading.get_ident() == caller:
            assert failed.wait(10)  # a pool thread fails first
            return walk(self, moves, m0)
        failed.set()
        raise RuntimeError("a pool thread failed")

    monkeypatch.setattr(infvol._Walks, "walk", fail_off_the_caller)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="a pool thread failed"):
        walk_estimate(WalkOracle(d=5, n_walks=400, max_steps=8, seed=2), [(0,) * 5])
    assert threading.active_count() == threads


def test_walk_memory_does_not_grow_with_walks_times_targets():
    # 375 targets and one batch of 20,000 walks: a dense (walks x targets)
    # float64 tally would take 60 MB
    targets = [(0, a) + rest for a in (-1, 0, 1) for rest in itertools.product(range(-2, 3), repeat=3)]
    oracle = WalkOracle(d=5, n_walks=20_000, max_steps=30, seed=9, batch=20_000)
    dense = oracle.n_walks * len(targets) * 8
    tracemalloc.start()
    try:
        est = walk_estimate(oracle, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 5 * peak < dense
    assert np.count_nonzero(est.estimates) == len(targets)


def test_walk_hits_of_a_dense_target_box_are_kept_as_int32():
    # every point of the span-2 box is a target, so about 3.7 million steps
    # of 200,000 walks land on one: the peak was 167 MB with int64 hit
    # indices and is 137 MB with int32 ones, most of it the batch's reduction
    targets = list(itertools.product(range(-2, 3), repeat=5))
    oracle = WalkOracle(d=5, n_walks=200_000, max_steps=50, seed=3, batch=200_000)
    tracemalloc.start()
    try:
        est = walk_estimate(oracle, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6
    assert np.count_nonzero(est.estimates) == len(targets)


def exact_walk_probabilities(x, M):
    """P[S_m = x] for m = 0..M of the simple random walk on Z^d, d = len(x).

    P[S_m = x] = m! [t^m] prod_i E_i(t), with E_i(t) = sum_k p_k(x_i) (t/d)^k / k!
    the exponential generating function of the 1-D walk (p_k(j) = P[k-step
    1-D walk ends at j]) whose steps come at rate 1/d.  Multiplying EGFs is a
    binomial convolution; folding in one axis at a time with binomial
    probabilities keeps every term in [0, 1].
    """
    m = np.arange(M + 1)
    gap = m[:, None] - m[None, :]                     # m - k
    probs = None
    for axes, xi in enumerate(x, start=1):
        one = np.where((m + xi) % 2 == 0, binom.pmf((m + abs(xi)) // 2, m, 0.5), 0.0)
        if probs is None:
            probs = one
            continue
        split = binom.pmf(m[None, :], m[:, None], 1.0 / axes)  # k of m steps on this axis
        rest = np.where(gap >= 0, probs[np.clip(gap, 0, M)], 0.0)
        probs = np.sum(split * one[None, :] * rest, axis=1)
    return probs


CLASSES = [tuple(c) for c in sorted(symmetry_classes(2, 5))]


@pytest.fixture(scope="module")
def class_greens():
    four = green_infinite_fourier_many(CLASSES)
    return np.array([v.value for v in four]), np.array([v.error for v in four])


def test_exact_walk_probabilities_match_enumeration():
    d, M = 3, 6
    counts = {}
    for steps in itertools.product(range(2 * d), repeat=M):
        pos = [0] * d
        for m, s in enumerate(steps, start=1):
            pos[s >> 1] += 1 if s & 1 else -1
            counts[(m, tuple(pos))] = counts.get((m, tuple(pos)), 0) + 1
    for x in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1), (0, -2, 0)]:
        got = exact_walk_probabilities(x, M)
        want = [float(x == (0, 0, 0))] + [counts.get((m, x), 0) / (2 * d) ** M for m in range(1, M + 1)]
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_return_envelope_dominates_every_walk_probability():
    d, M = 5, 200
    n = np.arange(M + 1) // 2
    envelope = 2.0 * i0e(2.0 * n / d) ** d
    for x in CLASSES:
        assert np.all(exact_walk_probabilities(x, M) <= envelope)


def test_envelope_decay_factor_is_monotone():
    # the remainder of walk_tail_bound rests on i0e(z) sqrt(z) decreasing for z >= 0.79
    z = np.geomspace(0.8, 1e7, 200_000)
    assert np.all(np.diff(i0e(z) * np.sqrt(z)) <= 0.0)


@pytest.mark.parametrize("d", [5, 6, 8])
@pytest.mark.parametrize("M", [40, 200])
def test_tail_bound_covers_the_envelope_sum(d, M):
    # the envelope summed term by term to m = 4e6 stays below the bound,
    # and the closed-form remainder adds little on top
    n = np.arange(2_000_001, dtype=float)
    env = 2.0 * i0e(2.0 * n / d) ** d
    for parity in (0, 1):
        m = 2 * n + parity
        direct = float(np.sum(((m + 1) * env)[m > M]))
        bound = walk_tail_bound(M, d, parity)
        assert direct <= bound <= direct + 1e-3


def test_tail_bound_rejects_low_dimension():
    with pytest.raises(ValueError):
        walk_tail_bound(200, 4, 0)


@pytest.mark.parametrize("M", [40, 200])
def test_tail_bound_covers_the_true_tail(class_greens, M):
    # G(0, x) - sum_{m<=M} (m+1) P[S_m = x] is the exact tail past M
    values, _ = class_greens
    weights = np.arange(M + 1) + 1.0
    ratios = []
    for x, g in zip(CLASSES, values):
        tail = g - float(np.sum(weights * exact_walk_probabilities(x, M)))
        ratios.append(walk_tail_bound(M, 5, sum(x) % 2) / tail)
    assert min(ratios) >= 1.0
    assert min(ratios) <= 1.04  # nearly attained: the envelope is the return probability


@pytest.mark.parametrize("seed", [1, 7, 9, 10])
def test_walk_agrees_with_fourier_on_every_class(class_greens, seed):
    # seeds on which the earlier tail bound, fitted to the walks' own hits,
    # fell short of the true tail
    values, errors = class_greens
    est = walk_estimate(WalkOracle(d=5, n_walks=100_000, max_steps=200, seed=seed), CLASSES)
    tol = 3 * est.standard_errors + errors + est.tail_bounds
    assert np.all(np.abs(values - est.estimates) <= tol)


def test_symmetry_classes_cover_span():
    reps = symmetry_classes(1, 3)
    assert sum(reps.values()) == 27
    assert set(reps) == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}


@pytest.mark.parametrize("d", range(1, 7))
def test_symmetry_classes_match_the_per_point_loop(d):
    for span in range(4):
        members = {}
        for x in itertools.product(range(-span, span + 1), repeat=d):
            members.setdefault(tuple(sorted(abs(v) for v in x)), []).append(x)
        sizes = symmetry_classes(span, d)
        assert sorted(sizes) == sorted(members)
        assert all(sizes[r] == len(xs) for r, xs in members.items())
        assert sum(sizes.values()) == (2 * span + 1) ** d


def test_symmetry_classes_reject_a_negative_span():
    with pytest.raises(ValueError, match="negative"):
        symmetry_classes(-1, 5)


# ---------------------------------------------------------------------------
# eta2 trend

def test_eta2_trend_quick():
    trend = eta2_trend(range(3, 9), d=5, plan=FourierCovariance(d=5, order=7, levels=26))
    assert np.all(trend.ratios > 0)
    assert trend.flatness <= 0.2
    # ratio sequence flattens: successive changes shrink
    diffs = np.abs(np.diff(trend.ratios))
    assert diffs[-1] <= diffs[0]


@pytest.fixture(scope="module")
def full_trend():
    return eta2_trend(range(5, 16), d=5)


def test_eta2_trend_full_range(full_trend):
    # the asymptotic-constant ratio over r = 5..15: top-half spread within 10%
    trend = full_trend
    assert trend.flatness <= 0.10
    assert np.all(trend.ratios > 0)
    assert trend.quadrature_spread <= 0.01
    assert abs(trend.ratios[-1] / riesz_constant(5) - 1.0) <= 0.01


def test_riesz_constant_closed_form():
    # (2d)^2 Gamma(d/2-2) / (16 pi^{d/2}): 100 / (16 pi^2) in d=5, 9 / pi^3 in d=6
    assert riesz_constant(5) == pytest.approx(100 / (16 * math.pi**2), rel=1e-15)
    assert riesz_constant(5) == pytest.approx(0.633257, abs=1e-6)
    assert riesz_constant(6) == pytest.approx(9 / math.pi**3, rel=1e-15)
    with pytest.raises(ValueError):
        riesz_constant(4)


def approach_in_band(trend, c):
    # r^2 (ratio / c - 1) read 0.60 at r=5 and 0.51 at r=15
    excess = trend.radii.astype(float) ** 2 * (trend.ratios / c - 1.0)
    return bool(np.all((excess >= 0.45) & (excess <= 0.65)))


def test_eta2_ratio_approaches_the_riesz_constant(full_trend):
    assert full_trend.limit == riesz_constant(5)
    assert approach_in_band(full_trend, full_trend.limit)
    assert not approach_in_band(full_trend, 1.02 * full_trend.limit)


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
    assert sv.error_budget == 0.0


def test_scaling_variance_sequence_decreases_to_limit():
    test = gaussian_test(5)
    limit = inv_laplacian_norm(test)
    v4 = scaling_variance(test, 4)
    v8 = scaling_variance(test, 8)
    assert abs(v8.value - limit) < abs(v4.value - limit)
    assert v4.error_budget <= 0.05 * v4.value
    assert abs(v8.value - limit) <= 0.05 * limit


def check_excess_against_dense_mesh(d, N, levels, order, rel):
    test = gaussian_test(d)
    sv = scaling_variance(test, N, levels=levels, order=order, budget_cap=1.0)
    kappa2 = 1.0 / (2 * d) ** 2

    def excess(theta, wt):
        r2 = np.sum(theta * theta, axis=-1)
        ker = kappa2 / (N**4 * mu_symbol(np.moveaxis(theta / N, -1, 0)) ** 2) - 1.0 / r2**2
        return np.sum(wt * ker * test.fhat(theta) ** 2)

    outer = min(N * np.pi, test.fhat_radius(1e-34))
    ref = 2.0**d * dense_shell_sum(d, outer, levels + 4, order + 2, excess)
    assert abs(sv.kernel_excess - ref) <= rel * ref
    assert sv.value == sv.radial_part + sv.kernel_excess


def test_scaling_variance_excess_matches_dense_mesh_reference():
    check_excess_against_dense_mesh(5, N=4, levels=4, order=3, rel=1e-12)


def test_scaling_variance_excess_matches_dense_mesh_reference_d6():
    check_excess_against_dense_mesh(6, N=4, levels=3, order=2, rel=1e-13)


def full_tensor_excess(test, N, nodes, weights):
    """The kernel excess of one box summed over its whole Gauss tensor, as
    scaling_variance summed it before the orbit sum, and the same sum of
    the terms' magnitudes times 1 + r^2 (the rounding of mu and r^2 moves a
    term by about eps times that)."""
    kappa2 = 1.0 / (2 * len(nodes)) ** 2
    mu = mu_symbol([t / N for t in nodes])
    r2 = sum(t * t for t in nodes)
    fh2 = test.fhat_radial(np.sqrt(r2)) ** 2
    tables = [w.reshape(-1, 1) for w in weights]
    value = _contract((kappa2 / (N**4 * mu * mu) - 1.0 / (r2 * r2)) * fh2, tables).item()
    scale = _contract((kappa2 / (N**4 * mu * mu) + 1.0 / (r2 * r2)) * (1.0 + r2) * fh2, tables).item()
    return value, scale


@pytest.mark.parametrize("d", [5, 6])
def test_excess_on_orbits_equals_the_full_tensor_sum(monkeypatch, d):
    from membrane import infvol

    N, test = 4, gaussian_test(d)
    calls = []
    monkeypatch.setattr(infvol, "shell_quadrature", lambda d, outer, levels, integrand, order: calls.append((outer, integrand)) or 0.0)
    scaling_variance(test, N, budget_cap=1.0)
    outer, excess = calls[0]
    for k in (0, 4, 8, 16):  # boxes of shell_quadrature's levels k
        a = outer * 0.5**k
        for p in range(2, 9):
            rule = np.polynomial.legendre.leggauss(p)
            for j in range(d + 1):  # axes 0..j-1 on the upper half [a/2, a]
                nodes, weights = [], []
                for ax in range(d):
                    shape = [1] * d
                    shape[ax] = -1
                    x, w = infvol._gauss(*((a / 2, a) if ax < j else (0.0, a / 2)), rule)
                    nodes.append(x.reshape(shape))
                    weights.append(w.reshape(shape))
                value, scale = full_tensor_excess(test, N, nodes, weights)
                assert abs(excess(nodes, weights) - value) <= 1e-14 * scale, (k, p, j)


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


def test_import_leaves_scipy_integrate_unloaded():
    # quad is imported where it is used, and the axis classes come from
    # lattice, so importing infvol stays cheap
    mods = ["scipy.integrate", "membrane.boxsolve", "scipy.fft"]
    code = f"import sys, membrane.infvol; print([m for m in {mods!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_scaling_variance_rejects_small_N():
    with pytest.raises(ValueError):
        scaling_variance(gaussian_test(5), 1)


@pytest.mark.parametrize("plan", [{"n_walks": 0}, {"batch": 0}, {"max_steps": -1}, {"max_steps": -3}])
def test_walk_oracle_rejects_an_empty_or_negative_plan(plan):
    """batch=0 would loop forever in walk_estimate and n_walks=0 would divide 0 by 0, so the plan is refused first."""
    with pytest.raises(ValueError):
        WalkOracle(d=5, **plan)
    assert WalkOracle(d=5, n_walks=1, batch=1, max_steps=0).max_steps == 0
