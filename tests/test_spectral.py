from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from membrane import boxsolve, green, spectral, torus
from membrane.green import assemble_precision, green_full
from membrane.lattice import Ball, Box, assemble, classify, stencil_weights, unit_box
from membrane.spectral import (
    SpectralBasis,
    WienerSeries,
    boundary_condition_gap,
    bump_test_function,
    dirichlet_laplacian_min,
    eigendecompose,
    expected_increment_ratio,
    hs_norm,
    pairing_variance_study,
    s_threshold,
    weyl_constant,
    weyl_counting_fit,
    wiener_convergence_report,
    wiener_series,
)
from membrane.thomee import solve_dirichlet


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

    eigh, eigsh = scipy.linalg.eigh, spectral.spla.eigsh

    def spoiled(w, v):
        if spoil == "value":
            w[3] = np.nan
        elif spoil == "vector":
            v[0, 2] = np.nan
        else:
            w[0] = -w[0]
        return w, v

    def spoiled_eigsh(*args, **kwargs):  # spoiled in ascending order, as eigh
        w, v = eigsh(*args, **kwargs)
        order = np.argsort(w)
        return spoiled(w[order], v[:, order])

    # the d=2 box sectors run eigsh, or eigh where a class is small
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kwargs: spoiled(*eigh(*args, **kwargs)))
    monkeypatch.setattr(spectral.spla, "eigsh", spoiled_eigsh)
    prec = assemble_precision(classify(unit_box(2), 1 / 8))
    with pytest.raises(RuntimeError, match=gate):
        eigendecompose(prec, 6)


@pytest.mark.parametrize("spoil,gate", [("negative", "positive"), ("vector", "orthonormality")])
def test_laplacian_min_gates_fail_on_nan_or_nonpositive(monkeypatch, spoil, gate):
    import scipy.linalg

    eigh = scipy.linalg.eigh

    def spoiled(*args, **kwargs):
        w, v = eigh(*args, **kwargs)
        if spoil == "vector":
            v[0, 0] = np.nan
        else:
            w[0] = -w[0]
        return w, v

    monkeypatch.setattr(scipy.linalg, "eigh", spoiled)
    with pytest.raises(RuntimeError, match=gate):
        dirichlet_laplacian_min(classify(unit_box(2), 1 / 8))


def test_dense_and_sparse_paths_agree(monkeypatch):
    # three routes: parity sectors (the default), shift-invert eigsh with the
    # cap at 1 (the d=4 box over box PCG; d=2 and d=3 boxes keep the sectors
    # at any size), and dense eigh of the assembled S here
    for d, N in [(2, 10), (3, 6), (4, 4)]:
        prec = assemble_precision(classify(unit_box(d), 1 / N))
        sectors = eigendecompose(prec, 8)
        with monkeypatch.context() as m:
            m.setattr(spectral, "DENSE_EIG_CAP", 1)
            sparse = eigendecompose(prec, 8)
        dense = scipy.linalg.eigh(prec.raw.toarray(), eigvals_only=True, subset_by_index=(0, 7))
        assert (sectors.route, sparse.route) == ("box-sectors", "box-sectors" if d <= 3 else "shift-invert")
        assert np.allclose(sectors.lambdas, sparse.lambdas, rtol=1e-9)
        assert np.allclose(sectors.lambdas, dense / prec.domain.h**4, rtol=1e-9)
        assert prec._solver is None  # the eigensolve's own solver is cached nowhere


@pytest.mark.parametrize("d,N,k", [(2, 8, 30), (3, 5, 40), (4, 4, 60), (5, 3, 50)])
def test_sector_eigenpairs_match_dense_eigh(d, N, k):
    prec = assemble_precision(classify(unit_box(d), 1 / N))
    w, V = scipy.linalg.eigh(prec.raw.toarray())
    # end the window at a gap, so both sides hold whole eigenspaces
    k = max(j for j in range(1, k + 1) if w[j] - w[j - 1] > 1e-8 * w[j])
    basis = eigendecompose(prec, k)
    assert basis.route == "box-sectors"
    h = prec.domain.h
    assert np.abs(basis.lambdas * h**4 - w[:k]).max() <= 1e-12 * w[k - 1]
    U = basis.vectors * h ** (d / 2.0)
    assert np.abs(U @ U.T - V[:, :k] @ V[:, :k].T).max() <= 1e-9
    again = eigendecompose(prec, k)
    assert np.array_equal(again.lambdas, basis.lambdas) and np.array_equal(again.vectors, basis.vectors)


def _refined_box_spectrum(prec, k):
    """The k smallest eigenvalues of S on a box to a few ulps: on a box
    S = L^2 + diag(c), with L the Dirichlet Laplacian and c >= 0, so the
    Rayleigh quotients of the dense eigenvectors can be summed as squares.
    The dense eigenvalues alone are off by up to eps ||S|| / w_1 (1e-11
    relative at w_1 for h=1/16)."""
    lap = assemble(prec.domain, stencil_weights("deltah", prec.domain.d))
    c = (prec.raw - lap @ lap).toarray()
    assert np.array_equal(c, np.diag(np.diag(c))) and np.diag(c).min() >= 0
    V = scipy.linalg.eigh(prec.raw.toarray(), subset_by_index=(0, k - 1))[1]
    return np.sort(np.linalg.norm(lap @ V, axis=0) ** 2 + np.diag(c) @ V**2)


@pytest.mark.parametrize("N,kmax", [(4, 25), (16, 60)])
def test_d2_box_spectrum_matches_dense_eigh_for_every_k(monkeypatch, N, kmax):
    # every k ends somewhere, also inside degenerate (0,1)/(1,0) pairs; at
    # h=1/4 (classes of 9, 6 and 4 unknowns) classes go to dense eigh
    prec = assemble_precision(classify(unit_box(2), 1 / N))
    w = _refined_box_spectrum(prec, kmax)
    h4 = prec.domain.h**4
    for k in range(1, kmax + 1):
        basis = eigendecompose(prec, k)
        assert basis.route == "box-sectors"
        assert np.abs(basis.lambdas * h4 - w[:k]).max() <= 1e-12 * w[k - 1]
    # the first counts hold every class's part here, so the growth of the
    # counts is run from a first count of 1
    calls = []
    eigsh = spectral.spla.eigsh
    monkeypatch.setattr(spectral, "_first_count", lambda k, n_c, n: 1)
    monkeypatch.setattr(spectral.spla, "eigsh", lambda *args, **kwargs: calls.append(kwargs["k"]) or eigsh(*args, **kwargs))
    for k in (2, 9, 22, 41, 60):
        basis = eigendecompose(prec, min(k, kmax))
        assert np.abs(basis.lambdas * h4 - w[: min(k, kmax)]).max() <= 1e-12 * w[min(k, kmax) - 1]
    assert calls.count(1) == 15 and max(calls) > 1  # three classes start at 1 for each k, and grow


def test_d3_box_spectrum_matches_dense_eigh_for_every_k(monkeypatch):
    # h=1/8: classes of 343, 294, 252 and 216 unknowns, each on eigsh over
    # its sector solve, for every k; no eigsh sees the whole box
    prec = assemble_precision(classify(unit_box(3), 1 / 8))
    kmax = 60
    w = _refined_box_spectrum(prec, kmax)
    h4 = prec.domain.h**4
    sizes = []
    eigsh = spectral.spla.eigsh

    def sector_eigsh(A, *args, **kwargs):
        if A.shape[0] == prec.n:
            pytest.fail("eigsh was handed every unknown of the box")
        sizes.append(A.shape[0])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", sector_eigsh)
    for k in range(1, kmax + 1):
        basis = eigendecompose(prec, k)
        assert basis.route == "box-sectors"
        assert np.abs(basis.lambdas * h4 - w[:k]).max() <= 1e-12 * w[k - 1]
    assert sorted(set(sizes)) == [216, 252, 294, 343]


@pytest.mark.parametrize("N", [40, 80])
def test_d2_box_spectra_run_eigsh_on_sectors_only(monkeypatch, N):
    prec = assemble_precision(classify(unit_box(2), 1 / N))
    # the whole-box shift-invert over box-direct, the route d=2 boxes took before
    solve = boxsolve.DirectBoxSolver(boxsolve.CenteredBoxSolver(2, N - 2)).solve
    full = spectral._shift_invert(lambda x: solve(x) / 16.0, prec.n, 100)[0]  # S = 16 A
    sizes = []
    eigsh = spectral.spla.eigsh

    def sector_eigsh(A, *args, **kwargs):
        if A.shape[0] == prec.n:
            pytest.fail("eigsh was handed every unknown of the box")
        sizes.append(A.shape[0])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", sector_eigsh)
    basis = eigendecompose(prec, 100)
    M = N - 2
    assert basis.route == "box-sectors" and sorted(set(sizes)) == [M * M, M * (M + 1), (M + 1) ** 2]
    assert np.abs(basis.lambdas * prec.domain.h**4 / full - 1).max() <= 1e-12


def test_d3_box_spectra_follow_the_factor_budget(monkeypatch):
    # below the fill of the h=1/8 cube, green takes box PCG, and so do the
    # spectra: dense eigh per class, with no direct factors built
    prec = assemble_precision(classify(unit_box(3), 1 / 8))
    monkeypatch.setattr(green, "DIRECT_FACTOR_BUDGET", 8 * boxsolve.direct_fill(3, 6) - 1)
    monkeypatch.setattr(boxsolve.DirectBoxSolver, "__init__", lambda *args: pytest.fail("direct factors built above the budget"))
    basis = eigendecompose(prec, 30)
    assert (basis.route, basis.route_reason) == ("box-sectors", "centred box, largest parity sector 343")
    dense = scipy.linalg.eigh(prec.raw.toarray(), eigvals_only=True, subset_by_index=(0, 29))
    assert np.abs(basis.lambdas * prec.domain.h**4 - dense).max() <= 1e-12 * dense[-1]


def test_shift_invert_repeats_bit_for_bit():
    # a d=2 box (eigsh per sector class) and a d=2 disk above the cap (eigsh
    # over the torus solve), each twice in one process
    for shape, k in [(unit_box(2), 20), (Ball([0.0, 0.0], 1.0), 4)]:
        prec = assemble_precision(classify(shape, 1 / 40))
        first, again = eigendecompose(prec, k), eigendecompose(prec, k)
        assert first.route == ("box-sectors" if k == 20 else "shift-invert")
        assert np.array_equal(first.lambdas, again.lambdas) and np.array_equal(first.vectors, again.vectors)


def test_perturbed_box_matrix_takes_the_general_route():
    dom = classify(unit_box(3), 1 / 6)
    raw = assemble_precision(dom).raw.tolil()
    raw[5, 5] += 1.0
    raw = raw.tocsr()
    prec = green.PrecisionMatrix(domain=dom, matrix=(raw / 36.0).tocsr(), raw=raw)
    basis = eigendecompose(prec, 6)
    assert basis.route == "dense"
    assert "probe mismatch" in basis.route_reason
    dense = scipy.linalg.eigh(raw.toarray(), eigvals_only=True, subset_by_index=(0, 5))
    assert np.allclose(basis.lambdas * dom.h**4, dense, rtol=1e-12)


def test_box_spectra_within_the_cap_need_no_eigsh_or_factorization(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no eigsh or factorization on a box within the cap")

    def sector_eigsh(A, *args, **kwargs):  # d=3 classes run eigsh on their own unknowns, d=4 none
        if d == 4 or A.shape[0] == prec.n:
            refuse()
        return eigsh(A, *args, **kwargs)

    eigsh = spectral.spla.eigsh
    monkeypatch.setattr(spectral.spla, "eigsh", sector_eigsh)
    monkeypatch.setattr(green, "factorize_spd", refuse)
    # 4,913 and 6,561 unknowns, above DENSE_EIG_CAP; largest sectors 729 and 625
    for d, N, k in [(3, 10, 60), (4, 6, 20)]:
        prec = assemble_precision(classify(unit_box(d), 1 / N))
        assert prec.n > spectral.DENSE_EIG_CAP
        basis = eigendecompose(prec, k)
        assert basis.route == "box-sectors"
        assert basis.route_reason == f"centred box, largest parity sector {(N - 1) ** d}"


def test_routes_above_the_cap(monkeypatch):
    # d=2 boxes above the cap take the sectors too (the d2-sample spectrum)
    monkeypatch.setattr(green, "factorize_spd", lambda A: pytest.fail("d=2 boxes are not factorized"))
    prec = assemble_precision(classify(unit_box(2), 1 / 40))
    assert prec.n == 5929
    basis = eigendecompose(prec, 4)
    assert (basis.route, basis.route_reason) == ("box-sectors", "centred box, largest parity sector 1521")
    # a d=2 disk above the cap goes to eigsh over torus-capacitance, not SuperLU
    built = []
    factorize = torus.TorusCapacitanceSolver.factorize
    monkeypatch.setattr(torus.TorusCapacitanceSolver, "factorize", lambda self: built.append(self.m) or factorize(self))
    prec = assemble_precision(classify(Ball([0.0, 0.0], 1.0), 1 / 40))
    assert spectral.DENSE_EIG_CAP < prec.n < 5000
    basis = eigendecompose(prec, 4)  # the eigen gates run inside
    assert (basis.route, basis.route_reason) == ("shift-invert", "not a centred box")
    assert len(built) == 1 and prec._solver is None
    monkeypatch.undo()
    # a d >= 4 box whose largest sector is above the cap goes to eigsh too
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 100)
    prec = assemble_precision(classify(unit_box(4), 1 / 5))
    basis = eigendecompose(prec, 4)
    assert (basis.route, basis.route_reason) == ("shift-invert", "largest parity sector 256 above DENSE_EIG_CAP")
    dense = scipy.linalg.eigh(prec.raw.toarray(), eigvals_only=True, subset_by_index=(0, 3))
    assert np.allclose(basis.lambdas * prec.domain.h**4, dense, rtol=1e-9)


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
    assert hs_norm(c, basis.lambdas, s) == pytest.approx(
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
    via_hs = hs_norm(coeffs, basis.lambdas, 0.8)
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


def pairing_variances(table, f):
    """Var(psi_h, f) two ways: kappa^2 h^(d+4) f^T G f over the full table,
    and the split form h^d H . f with Lap_h^2 H = f from the Thomee solver."""
    dom = table.domain
    d, h = dom.d, dom.h
    fv = np.asarray(f(dom.rh_coordinates()), dtype=float)
    direct = dom.kappa**2 * h ** (d + 4) * float(fv @ (table.values @ fv))
    split = h**d * float(solve_dirichlet(dom, fv).u_h @ fv)
    return direct, split


def test_pairing_zero_function(table8):
    _, table = table8
    assert pairing_variances(table, lambda x: np.zeros(x.shape[:-1])) == (0.0, 0.0)


def test_pairing_point_indicator(table8):
    dom, table = table8
    x0 = (1, -2)
    j = dom.rh_index_of(x0)

    def f(xs):
        out = np.zeros(xs.shape[:-1])
        target = np.array(x0) * dom.h
        out[np.all(np.isclose(xs, target, atol=dom.h / 4), axis=-1)] = 1.0
        return out

    direct, split = pairing_variances(table, f)
    d = dom.d
    expect = dom.kappa**2 * dom.h ** (d + 4) * table.values[j, j]
    assert direct == pytest.approx(expect, rel=1e-12)
    assert split == pytest.approx(expect, rel=1e-8)


def test_pairing_variance_split_matches_direct(table8):
    _, table = table8
    direct, split = pairing_variances(table, bump_test_function(scale=1.2))
    assert direct > 0
    assert abs(direct - split) <= 1e-8 * direct


def test_pairing_study_cross_checks_d2():
    f = bump_test_function(scale=4.0)
    study = pairing_variance_study(2, [1 / 8, 1 / 16, 1 / 32], f)
    assert len(study.variances) == 3
    assert study.cross_checks, "small grids must run both solver routes"
    for _, gap in study.cross_checks:
        assert gap <= 1e-8
    assert all(v > 0 for v in study.variances)


def test_pairing_study_solves_on_the_classified_grid(monkeypatch):
    # 0.5 / h = 8.75 at h = 2/35: R_h is [-6, 6]^2, and a rounded M solved on [-7, 7]^2
    study = pairing_variance_study(2, [2 / 35], bump_test_function())
    assert study.cross_checks[0][1] <= 1e-8
    monkeypatch.setattr(spectral, "centered_box_halfwidth", lambda dom: -1)
    with pytest.raises(ValueError, match=r"is not \[-6, 6\]\^2"):
        pairing_variance_study(2, [2 / 35], bump_test_function())


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


def test_laplacian_min_shift_invert_branch(monkeypatch):
    # the test domains sit below DENSE_EIG_CAP; lower it to reach eigsh over SuperLU
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 100)
    calls = []
    factorize = spectral.factorize_spd
    monkeypatch.setattr(spectral, "factorize_spd", lambda A: calls.append(A.shape) or factorize(A))
    N = 16
    dom = classify(unit_box(2), 1.0 / N)
    L = 2 * (N - 2) + 1
    closed = (4.0 / dom.h**2) * 2 * np.sin(np.pi / (2 * (L + 1))) ** 2
    assert dirichlet_laplacian_min(dom) == pytest.approx(closed, rel=1e-9)
    assert calls == [(dom.n_rh, dom.n_rh)]
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 10_000)
    assert dirichlet_laplacian_min(dom) == pytest.approx(closed, rel=1e-9)
    assert len(calls) == 1  # the dense branch builds no factorization
