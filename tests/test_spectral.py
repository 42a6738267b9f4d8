from fractions import Fraction

import numpy as np
import pytest

from membrane import green
from membrane.green import assemble_precision, green_full
from membrane.lattice import Box, classify, unit_box
from membrane.spectral import (
    SpectralBasis,
    WienerSeries,
    boundary_condition_gap,
    bump_test_function,
    dirichlet_laplacian_min,
    eigendecompose,
    expected_increment_ratio,
    hs_norm,
    pairing_value,
    pairing_variance,
    pairing_variance_study,
    s_threshold,
    weyl_constant,
    weyl_counting_fit,
    wiener_convergence_report,
    wiener_series,
)


@pytest.fixture(scope="module")
def basis16():
    dom = classify(unit_box(2), 1 / 16)
    prec = assemble_precision(dom)
    return dom, prec, eigendecompose(prec, 24)


def test_eigendecompose_contracts(basis16):
    dom, prec, basis = basis16
    lam = basis.lambdas
    assert lam[0] > 0
    assert np.all(np.diff(lam) >= -1e-9)
    ip = dom.h**dom.d * (basis.vectors.T @ basis.vectors)
    assert np.abs(ip - np.eye(basis.k)).max() <= 1e-8
    S = prec.raw
    h4 = dom.h**4
    for j in (0, 5, 23):
        r = S @ basis.vectors[:, j] - h4 * lam[j] * basis.vectors[:, j]
        assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(basis.vectors[:, j]) * max(
            h4 * lam[j], 1.0
        )


@pytest.mark.parametrize(
    "spoil,gate", [("value", "positive"), ("vector", "orthonormality"), ("negative", "positive")]
)
def test_eigendecompose_gates_fail_on_nan_or_nonpositive(monkeypatch, spoil, gate):
    import scipy.linalg

    eigh = scipy.linalg.eigh

    def spoiled(*args, **kwargs):
        w, v = eigh(*args, **kwargs)
        if spoil == "value":
            w[3] = np.nan
        elif spoil == "vector":
            v[0, 2] = np.nan
        else:
            w[0] = -w[0]
        return w, v

    monkeypatch.setattr(scipy.linalg, "eigh", spoiled)
    prec = assemble_precision(classify(unit_box(2), 1 / 8))
    with pytest.raises(RuntimeError, match=gate):
        eigendecompose(prec, 6)


def test_dense_and_sparse_paths_agree(monkeypatch):
    # the d=2 box is factorized; with the cap at 0 the d=3 box runs box PCG
    monkeypatch.setattr(green, "BOX_FFT_CAP_3D", 0)
    for d, N in [(2, 10), (3, 6)]:
        prec = assemble_precision(classify(unit_box(d), 1 / N))
        dense = eigendecompose(prec, 8, dense_cap=10_000)
        sparse = eigendecompose(prec, 8, dense_cap=1)
        assert np.allclose(dense.lambdas, sparse.lambdas, rtol=1e-9)
        assert prec._solver is None  # the eigensolve's own solver is cached nowhere


def test_k_exceeds_size_raises():
    dom = classify(unit_box(2), 1 / 4)
    prec = assemble_precision(dom)
    with pytest.raises(ValueError):
        eigendecompose(prec, prec.n + 1)


def test_lambda1_stabilizes_under_refinement():
    vals = {}
    for N in (32, 64):
        dom = classify(unit_box(2), 1.0 / N)
        prec = assemble_precision(dom)
        vals[N] = eigendecompose(prec, 1).lambdas[0]
    assert abs(vals[64] - vals[32]) / vals[32] <= 0.05


def _two_term_spectrum(d, a, b, k):
    # invert j - 1/2 = a mu^d - b mu^{d-1}, mu = lambda^{1/4}, by Newton from above
    target = np.arange(1, k + 1) - 0.5
    mu = (target / a) ** (1.0 / d) + b / a
    for _ in range(60):
        mu = mu - (a * mu**d - b * mu ** (d - 1) - target) / (d * a * mu ** (d - 1) - (d - 1) * b * mu ** (d - 2))
    return mu**4


def test_weyl_counting_fit_recovers_two_term_law():
    for d in (2, 3):
        a_w = weyl_constant(d, 2.0**d)
        lam = _two_term_spectrum(d, a_w, 0.7, 150)
        fit = weyl_counting_fit(lam, d, 2.0**d)
        assert fit.leading == pytest.approx(a_w, rel=1e-10)
        assert fit.boundary == pytest.approx(0.7, rel=1e-8)
        assert fit.ratio == pytest.approx(1.0, abs=1e-10)
        # a spectrum off by a factor 2 moves A by 2^{-d/4}: criterion 08 must fail
        scaled = weyl_counting_fit(2.0 * lam, d, 2.0**d)
        assert scaled.leading == pytest.approx(fit.leading * 2.0 ** (-d / 4.0), rel=1e-12)
        assert abs(scaled.ratio - 1.0) > 0.15
    with pytest.raises(ValueError):
        weyl_counting_fit(np.arange(1.0, 30.0), 2, 4.0, window=(10, 15))


# ---------------------------------------------------------------------------
# threshold arithmetic

def test_s_threshold_values():
    assert s_threshold(4).s_d == Fraction(6)
    assert s_threshold(5).s_d == Fraction(13, 2)
    assert s_threshold(6).s_d == Fraction(9)
    p4 = s_threshold(4)
    assert (p4.l0, p4.l5) == (1, 2)


def test_s_threshold_formula_property():
    import math

    for d in range(2, 13):
        p = s_threshold(d)
        for m, got in ((0, p.l0), (2, p.l2), (5, p.l5)):
            assert got == math.ceil((d // 2 + m + 1) / 4)
        assert p.s_d == Fraction(d, 2) + 2 * (p.l0 + p.l5 - 1)


# ---------------------------------------------------------------------------
# norms and series

def test_hs_norm_single_mode(basis16):
    _, _, basis = basis16
    s = 1.6
    c = np.zeros(basis.k)
    c[0] = 1.0
    assert hs_norm(c, basis.lambdas, s, sign=-1) == pytest.approx(
        basis.lambdas[0] ** (-s / 2)
    )


def test_hs_norm_s_zero_is_l2(basis16):
    _, _, basis = basis16
    rng = np.random.default_rng(0)
    c = rng.standard_normal(basis.k)
    assert hs_norm(c, basis.lambdas, 0.0) == pytest.approx(float(np.sum(c * c)), rel=1e-12)


def test_parseval_consistency(basis16):
    dom, _, basis = basis16
    rng = np.random.default_rng(1)
    coef = rng.standard_normal(basis.k)
    v = basis.vectors @ coef
    c = basis.coefficients(v)
    l2 = dom.h**dom.d * float(np.sum(v * v))
    assert hs_norm(c, basis.lambdas, 0.0) == pytest.approx(l2, rel=1e-10)


def test_wiener_partial_norm_identity(basis16):
    _, _, basis = basis16
    ws = wiener_series(basis.lambdas, s=1.2, seed=2)
    J = 15
    direct = float(np.sum(basis.lambdas[:J] ** (-1.2 / 2 - 1) * ws.xi[:J] ** 2))
    assert ws.partial_norm(J) == pytest.approx(direct, rel=1e-12)


def test_wiener_norm_two_routes_agree(basis16):
    # definition route vs coefficient route through hs_norm
    _, _, basis = basis16
    ws = wiener_series(basis.lambdas, s=0.8, seed=3)
    J = 20
    coeffs = basis.lambdas[:J] ** -0.5 * ws.xi[:J]
    via_hs = hs_norm(coeffs, basis.lambdas, 0.8, sign=-1)
    assert ws.partial_norm(J) == pytest.approx(via_hs, rel=1e-10)


def test_wiener_zero_noise_gives_zero():
    lam = np.arange(1.0, 101.0) ** 2
    ws = WienerSeries(lambdas=lam, xi=np.zeros(100), s=1.0)
    assert ws.partial_norm(50) == 0.0
    assert ws.partial_norm(100) == 0.0


def test_wiener_partial_sums_nondecreasing():
    lam = np.arange(1.0, 201.0) ** 2
    ws = wiener_series(lam, s=1.0, seed=12)
    vals = [ws.partial_norm(J) for J in (10, 25, 50, 100, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_wiener_report_converges_on_weyl_d2_spectrum():
    # synthetic exact power law, d=2-like: tail exponent 1 - 2*(3/2) = -2
    lam = np.arange(1.0, 501.0) ** 2
    rep = wiener_convergence_report(lam, s=1.0, trials=10, schedule=(50, 100, 200), seed=4)
    assert rep.mean_ratio < 0.5
    for S in rep.partial_sums:
        assert S[0] <= S[1] <= S[2]


def test_wiener_report_divergent_control():
    lam = np.arange(1.0, 501.0) ** (4.0 / 5.0)
    rep = wiener_convergence_report(lam, s=-2.0, trials=6, schedule=(50, 100, 200), seed=5)
    # terms are xi_j^2: partial sums keep growing roughly linearly in J
    for g in rep.growth_factors:
        assert g[0] > 1.5 and g[1] > 1.5


def test_expected_increment_ratio_flat_and_monte_carlo():
    # flat spectrum: I_1 ~ chi^2_50, I_2 ~ chi^2_100 and E[1/chi^2_n] = 1/(n-2)
    assert expected_increment_ratio(np.ones(200), s=1.0) == pytest.approx(100.0 / 48.0, rel=1e-10)
    lam = np.arange(1.0, 201.0) ** 0.8
    rep = wiener_convergence_report(lam, s=1.0, trials=4000, seed=6)
    se = np.std([r[0] for r in rep.increment_ratios]) / np.sqrt(4000)
    assert abs(rep.mean_ratio - expected_increment_ratio(lam, s=1.0)) <= 4 * se


def test_wiener_report_schedule_validation():
    with pytest.raises(ValueError):
        wiener_convergence_report(np.arange(1.0, 100.0), s=1.0, schedule=(50, 200))


# ---------------------------------------------------------------------------
# pairing

@pytest.fixture(scope="module")
def table8():
    dom = classify(unit_box(2), 1 / 8)
    prec = assemble_precision(dom)
    return dom, green_full(prec)


def test_pairing_zero_function(table8):
    dom, table = table8
    pv = pairing_variance(table, lambda x: np.zeros(x.shape[:-1]))
    assert pv.direct == 0.0
    assert pv.split == 0.0


def test_pairing_point_indicator(table8):
    dom, table = table8
    x0 = (1, -2)
    j = dom.rh_index_of(x0)

    def f(xs):
        out = np.zeros(xs.shape[:-1])
        target = np.array(x0) * dom.h
        out[np.all(np.isclose(xs, target, atol=dom.h / 4), axis=-1)] = 1.0
        return out

    pv = pairing_variance(table, f)
    d = dom.d
    expect = dom.kappa**2 * dom.h ** (d + 4) * table.values[j, j]
    assert pv.direct == pytest.approx(expect, rel=1e-12)
    assert pv.split == pytest.approx(expect, rel=1e-8)


def test_pairing_value_linearity(table8):
    dom, _ = table8
    rng = np.random.default_rng(6)
    phi = rng.standard_normal(dom.n_rh)
    f1 = rng.standard_normal(dom.n_rh)
    f2 = rng.standard_normal(dom.n_rh)
    a = pairing_value(phi, f1 + 3.0 * f2, dom)
    b = pairing_value(phi, f1, dom) + 3.0 * pairing_value(phi, f2, dom)
    assert a == pytest.approx(b, rel=1e-12)


def test_pairing_variance_split_matches_direct(table8):
    _, table = table8
    f = bump_test_function(scale=1.2)
    pv = pairing_variance(table, f)
    assert pv.direct > 0
    assert pv.relative_gap <= 1e-8


def test_pairing_study_cross_checks_d2():
    f = bump_test_function(scale=4.0)
    study = pairing_variance_study(2, [1 / 8, 1 / 16, 1 / 32], f)
    assert len(study.variances) == 3
    assert study.cross_checks, "small grids must run both solver routes"
    for _, gap in study.cross_checks:
        assert gap <= 1e-8
    assert all(v > 0 for v in study.variances)


def test_bump_function_support_and_values():
    f = bump_test_function(scale=4.0, power=6)
    x = np.array([[0.3, 0.0], [0.2, 0.0], [0.0, 0.0]])
    v = f(x)
    assert v[0] == 0.0
    assert v[1] == pytest.approx((1 - 0.8**2) ** 6, rel=1e-12)
    assert v[2] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# boundary-condition gap

def test_gap_positive_and_laplacian_closed_form():
    N = 16
    dom = classify(unit_box(2), 1.0 / N)
    prec = assemble_precision(dom)
    rep = boundary_condition_gap(prec)
    assert rep.margin > 1e-6
    # Dirichlet Laplacian min on the box has the product-sine closed form
    L = 2 * (N - 2) + 1
    closed = (4.0 / dom.h**2) * 2 * np.sin(np.pi / (2 * (L + 1))) ** 2
    assert dirichlet_laplacian_min(dom) == pytest.approx(closed, rel=1e-9)
