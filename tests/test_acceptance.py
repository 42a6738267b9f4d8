"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Each criterion also prints one machine-readable
line, `ACCEPTANCE-JSON {...}`, with its value, its bound as [low, high]
(null for an open side) and the seconds the test took.  Criterion 8 checks
Weyl's law through the leading coefficient of the counting function, since
the low clamped spectrum is dominated by the boundary term; criterion 11
runs the convergent arm of the random series above the paper's Sobolev
threshold s_d.  Both also check that a wrong spectrum (scaled, or flat)
would fail them.
"""

import json
import time

import numpy as np
import pytest

from membrane.green import (
    assemble_precision,
    green_full,
    log_correlation_slope,
    variance_growth_slope,
)
from membrane.lattice import Ball, classify, unit_box, verify_b2star
from membrane.sampler import max_scaling, moment_exponent, sample
from membrane.spectral import (
    boundary_condition_gap,
    bump_test_function,
    eigendecompose,
    expected_increment_ratio,
    pairing_variance_study,
    s_threshold,
    weyl_counting_fit,
    wiener_convergence_report,
)
from membrane.infvol import (
    WalkOracle,
    gaussian_test,
    green_infinite_fourier_many,
    inv_laplacian_norm,
    riemann_sum_error,
    scaling_variance,
    symmetry_classes,
    walk_estimate,
)

SEED = 20240613


_started = {}


@pytest.fixture(autouse=True)
def _clock():
    _started["t"] = time.perf_counter()


def report(num, name, passed, detail, value, bound):
    """Print the criterion's line and its JSON line, then assert it passed.

    value is a number or a dict of numbers; bound is [low, high], or a dict of
    them with value's keys."""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    line = {"criterion": num, "name": name, "passed": bool(passed), "value": value, "bound": bound}
    line["seconds"] = round(time.perf_counter() - _started["t"], 3)
    print("ACCEPTANCE-JSON " + json.dumps(line))
    assert passed, f"criterion {num} {name}: {detail}"


def test_01_green_bvp_exactness():
    dom = classify(unit_box(2), 1 / 32)
    prec = assemble_precision(dom)
    table = green_full(prec)
    resid = prec.matrix @ table.values - np.eye(prec.n)
    worst = float(np.abs(resid).max())
    ok_resid = worst <= 1e-8

    worst_rel = 0.0
    for shape, h in [(unit_box(2), 1 / 4), (Ball([0.0, 0.0], 1.0), 1 / 4)]:
        small = classify(shape, h)
        assert small.n_rh <= 64
        p = assemble_precision(small)
        t = green_full(p)
        dense = np.linalg.inv(p.matrix.toarray())
        worst_rel = max(worst_rel, float(np.abs(t.values - dense).max() / np.abs(dense).max()))
    ok_oracle = worst_rel <= 1e-9
    report(
        1,
        "green_bvp_exactness",
        ok_resid and ok_oracle,
        f"max residual {worst:.2e} (<=1e-8), dense-inverse rel {worst_rel:.2e} (<=1e-9)",
        {"residual": worst, "dense_inverse_rel": worst_rel},
        {"residual": [None, 1e-8], "dense_inverse_rel": [None, 1e-9]},
    )


def test_02_variance_growth():
    s2, v2 = variance_growth_slope(2, [8, 16, 32, 64])
    s3, v3 = variance_growth_slope(3, [6, 8, 12, 16])
    ok = (1.7 <= s2 <= 2.3) and (0.7 <= s3 <= 1.3)
    report(
        2,
        "variance_growth",
        ok,
        f"d=2 slope {s2:.3f} in [1.7,2.3]; d=3 slope {s3:.3f} in [0.7,1.3]",
        {"d2_slope": s2, "d3_slope": s3},
        {"d2_slope": [1.7, 2.3], "d3_slope": [0.7, 1.3]},
    )


def test_03_d4_log_correlations():
    target = 8.0 / np.pi**2
    rep = log_correlation_slope(48)
    rel = abs(rep.slope - target) / target
    report(
        3,
        "d4_log_correlations",
        rel <= 0.15,
        f"slope {rep.slope:.4f} vs {target:.4f}, rel {rel:.3f} (<=0.15), "
        f"{rep.n_pairs} bulk pairs, PCG {rep.solver_iterations} iters",
        rel,
        [None, 0.15],
    )


def test_04_increment_moment_bound():
    dom2 = classify(unit_box(2), 1 / 32)
    fit2 = moment_exponent(assemble_precision(dom2), 2, 32, n_pairs=200, seed=SEED)
    dom3 = classify(unit_box(3), 1 / 12)
    fit3 = moment_exponent(assemble_precision(dom3), 3, 12, n_pairs=200, seed=SEED)
    ok = (1.5 <= fit2.exponent <= 2.1) and (0.9 <= fit3.exponent <= 1.3)
    report(
        4,
        "increment_moment_bound",
        ok,
        f"d=2 exponent {fit2.exponent:.3f} in [1.5,2.1]; d=3 {fit3.exponent:.3f} in [0.9,1.3]",
        {"d2_exponent": fit2.exponent, "d3_exponent": fit3.exponent},
        {"d2_exponent": [1.5, 2.1], "d3_exponent": [0.9, 1.3]},
    )


def test_05_maximum_scaling():
    rep = max_scaling(2, [32, 64], count=500, seed=SEED)
    report(5, "maximum_scaling", rep.ks <= 0.1, f"KS(N=32 vs N=64) = {rep.ks:.4f} (<=0.1)", rep.ks, [None, 0.1])


def test_06_thomee_convergence():
    from membrane.thomee import convergence_study, manufactured_disk

    st = convergence_study(manufactured_disk(2), [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    errs = [r.error for r in st.rows]
    ok = st.monotone and st.fitted_order >= 0.5 and st.within_bound
    report(
        6,
        "thomee_convergence",
        ok,
        f"errors {['%.3f' % e for e in errs]}, order {st.fitted_order:.2f} (>=0.5), "
        f"bound constant {st.fitted_constant:.3e} holds: {st.within_bound}",
        st.fitted_order,
        [0.5, None],
    )


def test_07_b2star_property():
    results = []
    for h in (1 / 16, 1 / 32):
        for shape in (Ball([0.0, 0.0], 1.0), unit_box(2)):
            rep = verify_b2star(classify(shape, h), K=4)
            results.append(rep.passed)
    report(7, "b2star_property", all(results), f"disk+square at h=1/16,1/32: {results}", sum(results), [4, None])


def test_08_weyl_law():
    # N(lambda) = A lambda^{d/4} - B lambda^{(d-1)/4} + ...: at k <= 250 the
    # boundary term still dominates, so the log-log slope is far from 4/d
    # (1.72 and 1.01, stable under refinement) while the fitted A is close
    # to the Weyl coefficient A_W.  d=3 needs k=250 for the two-term law.
    fits = {}
    for d, h, k, tol in ((2, 1 / 40, 100, 0.10), (3, 1 / 16, 250, 0.15)):
        dom = classify(unit_box(d), h)
        lam = eigendecompose(assemble_precision(dom), k).lambdas
        fit = weyl_counting_fit(lam, d, dom.shape.volume())
        scaled = weyl_counting_fit(2.0 * lam, d, dom.shape.volume())
        fits[d] = (fit.ratio, scaled.ratio, tol)
    ok = all(abs(r - 1.0) <= tol and abs(r2 - 1.0) > tol for r, r2, tol in fits.values())
    report(
        8,
        "weyl_law",
        ok,
        "; ".join(
            f"d={d} A/A_W {r:.3f} (|.-1|<={tol}), eigenvalues x2 give {r2:.3f} (must fail)"
            for d, (r, r2, tol) in fits.items()
        ),
        {f"d{d}_ratio_gap": abs(r - 1.0) for d, (r, _, _) in fits.items()},
        {f"d{d}_ratio_gap": [None, tol] for d, (_, _, tol) in fits.items()},
    )


def test_09_boundary_condition_gap():
    dom = classify(unit_box(2), 1 / 32)
    rep = boundary_condition_gap(assemble_precision(dom))
    report(
        9,
        "eigenvalue_boundary_gap",
        rep.margin > 1e-6,
        f"bilaplacian {rep.bilaplacian_min:.3f} > squared Laplacian {rep.laplacian_min_squared:.3f}, "
        f"margin {rep.margin:.3f}",
        rep.margin,
        [1e-6, None],
    )


def test_10_pairing_variance_convergence():
    study = pairing_variance_study(4, [1 / 16, 1 / 32, 1 / 64], bump_test_function())
    gaps_ok = all(g <= 1e-8 for _, g in study.cross_checks)
    ok = study.cauchy_ratio < 0.7 and study.cross_checks and gaps_ok
    report(
        10,
        "pairing_variance_convergence",
        ok,
        f"variances {['%.3e' % v for v in study.variances]}, "
        f"difference ratio {study.cauchy_ratio:.3f} (<0.7), "
        f"cross-check gaps {['%.1e' % g for _, g in study.cross_checks]} (<=1e-8)",
        {"cauchy_ratio": study.cauchy_ratio, "cross_check_gap": max((g for _, g in study.cross_checks), default=None)},
        {"cauchy_ratio": [None, 0.7], "cross_check_gap": [None, 1e-8]},
    )


def test_11_wiener_series_norm():
    # d=5 surrogate spectrum on the finest box that is dense-solvable at desk
    # scale (h=1/4 on (-1,1)^5: 5 interior points per axis, 3125 modes);
    # schedule 50 -> 100 -> 200.  The convergent arm runs above the paper's
    # threshold s_d = 13/2; at s=1 the dyadic ratio cannot reach 0.8 even
    # under ideal growth lambda_j = j^{4/5}, so s=1 is reported only.
    s_conv = 7.0
    assert s_conv > s_threshold(5).s_d
    schedule = (50, 100, 200)
    dom = classify(unit_box(5), 1 / 4)
    prec = assemble_precision(dom)
    lam = eigendecompose(prec, 400).lambdas
    conv = wiener_convergence_report(lam, s=s_conv, trials=8, schedule=schedule, seed=SEED)
    ctrl = wiener_convergence_report(lam, s=-2.0, trials=8, schedule=schedule, seed=SEED)
    flat = wiener_convergence_report(np.full_like(lam, lam[0]), s=s_conv, trials=8, schedule=schedule, seed=SEED)
    grow = all(g[0] > 1.2 and g[1] > 1.2 for g in ctrl.growth_factors)
    ok = conv.mean_ratio < 0.8 and grow and flat.mean_ratio >= 0.8
    low = wiener_convergence_report(lam, s=1.0, trials=8, schedule=schedule, seed=SEED)
    ideal = np.arange(1.0, schedule[-1] + 1) ** 0.8
    report(
        11,
        "wiener_series_norm",
        ok,
        f"s={s_conv:g} increment ratio {conv.mean_ratio:.3f} (<0.8; expected "
        f"{expected_increment_ratio(lam, s_conv, schedule):.3f}), flat spectrum "
        f"{flat.mean_ratio:.3f} (must be >=0.8), control growth ok: {grow}; "
        f"diagnostic s=1 ratio {low.mean_ratio:.3f}, expected {expected_increment_ratio(lam, 1.0, schedule):.3f}, "
        f"{expected_increment_ratio(ideal, 1.0, schedule):.3f} under lambda_j = j^(4/5)",
        conv.mean_ratio,
        [None, 0.8],
    )


def test_12_infinite_volume_oracle_agreement():
    reps = sorted(symmetry_classes(2, 5))
    targets = [list(r) for r in reps]
    oracle = WalkOracle(d=5, n_walks=1_000_000, max_steps=200, seed=SEED)
    walk = walk_estimate(oracle, targets)
    four = green_infinite_fourier_many(targets)
    worst = ""
    ok = True
    worst_ratio = 0.0
    for i, t in enumerate(targets):
        tol = 3 * walk.standard_errors[i] + four[i].error + walk.tail_bounds[i]
        diff = abs(four[i].value - walk.estimates[i])
        worst_ratio = max(worst_ratio, diff / tol)
        if diff > tol:
            ok = False
            worst = f"x={t}: diff {diff:.4f} > tol {tol:.4f}"
    report(
        12,
        "infinite_volume_oracle_agreement",
        ok,
        worst or f"all {len(targets)} symmetry classes of ||x||_inf<=2 agree "
        f"(1e6 walks, M=200, covers all 3125 points by lattice symmetry)",
        worst_ratio,
        [None, 1.0],
    )


def test_13_scaling_variance_limit():
    test = gaussian_test(5)
    limit = inv_laplacian_norm(test)
    assert abs(limit - 23.3245) <= 5e-4  # frozen from the closed-form radial integral
    vals = [scaling_variance(test, N) for N in (4, 8, 16)]
    gaps = [abs(v.value - limit) for v in vals]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] <= 0.05 * limit
    report(
        13,
        "scaling_variance_limit",
        ok,
        f"gaps to {limit:.4f}: {['%.2e' % g for g in gaps]} decreasing={decreasing}, "
        f"final {gaps[-1] / limit:.2%} (<=5%)",
        gaps[-1] / limit,
        [None, 0.05],
    )


def test_14_poisson_summation_decay():
    test = gaussian_test(5)
    thetas = [np.zeros(5), np.array([0.9, -0.4, 0.2, 0.0, 0.1])]
    e8 = max(riemann_sum_error(test, th, 8) for th in thetas)
    e16 = max(riemann_sum_error(test, th, 16) for th in thetas)
    ok = e8 < 1e-10 and e16 <= e8 + 1e-14
    report(
        14,
        "poisson_summation_decay",
        ok,
        f"error N=8: {e8:.2e} (<1e-10), N=16: {e16:.2e} (non-increasing)",
        e8,
        [None, 1e-10],
    )


def test_15_sampler_law():
    dom = classify(unit_box(2), 1 / 16)
    prec = assemble_precision(dom)
    table = green_full(prec)
    n = 2000
    draws = sample(prec, seed=SEED, count=n)
    vals = np.stack([s.values for s in draws])
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(20):
        w = rng.standard_normal(dom.n_rh)
        exact = float(w @ table.values @ w)
        emp = float((vals @ w).var())
        worst = max(worst, abs(emp - exact) / (exact * np.sqrt(2.0 / n)))
    report(
        15,
        "sampler_law",
        worst <= 3.0,
        f"worst |z| over 20 random functionals: {worst:.2f} (<=3)",
        worst,
        [None, 3.0],
    )


def test_stress_large_sample_under_five_minutes():
    # reproduction of the large-lattice figure: ~250k unknowns, factorize + draw
    t0 = time.time()
    dom = classify(unit_box(2), 1 / 250)
    prec = assemble_precision(dom)
    draws = sample(prec, seed=SEED, count=1)
    elapsed = time.time() - t0
    assert dom.n_rh > 240_000
    assert len(draws) == 1 and np.isfinite(draws[0].values).all()
    print(f"STRESS d=2 N=250: factorize + 1 sample in {elapsed:.1f} s (< 300 s)")
    assert elapsed < 300.0
