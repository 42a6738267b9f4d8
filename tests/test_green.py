import numpy as np
import pytest

from membrane.boxsolve import SymmetricBoxSolver
from membrane.green import (
    assemble_precision,
    check_bounds,
    central_variance,
    green_columns,
    green_full,
    log_correlation_slope,
    solve_green_column,
    variance_growth_slope,
)
from membrane.lattice import Ball, Box, classify, unit_box


def test_single_point_domain():
    dom = classify(unit_box(2), 0.5)
    prec = assemble_precision(dom)
    assert prec.matrix.shape == (1, 1)
    assert prec.matrix[0, 0] == pytest.approx(1.25)
    g = solve_green_column(prec, (0, 0))
    assert g[0] == pytest.approx(0.8)
    table = green_full(prec)
    assert table.values[0, 0] == pytest.approx(0.8)


def test_precision_symmetry_and_sparsity():
    for shape, h in [(unit_box(2), 1 / 8), (Ball([0, 0, 0], 1.0), 1 / 5)]:
        dom = classify(shape, h)
        prec = assemble_precision(dom)
        A = prec.matrix
        assert (A != A.T).nnz == 0
        d = dom.d
        per_row = np.diff(A.indptr)
        assert per_row.max() <= 2 * d * d + 2 * d + 1


def test_spd_factorization_and_residual():
    dom = classify(unit_box(2), 1 / 8)
    prec = assemble_precision(dom)
    for p in [(0, 0), (3, -2), (6, 6)]:
        g = solve_green_column(prec, p)
        i = dom.rh_index_of(p)
        r = prec.matrix @ g
        r[i] -= 1.0
        assert np.abs(r).max() <= 1e-8


def test_center_variance_positive():
    dom = classify(unit_box(2), 1 / 16)
    prec = assemble_precision(dom)
    g = solve_green_column(prec, (0, 0))
    assert g[dom.rh_index_of((0, 0))] > 0


def test_solve_outside_rh_raises():
    dom = classify(unit_box(2), 1 / 4)
    prec = assemble_precision(dom)
    with pytest.raises(ValueError):
        solve_green_column(prec, (4, 4))  # a B_h point


@pytest.mark.parametrize(
    "shape,h",
    [
        (unit_box(2), 1 / 4),            # 5x5 interior = 25 points
        (Box([(-1, 1), (-1, 1)]), 1 / 3),
        (Ball([0.0, 0.0], 1.0), 1 / 4),
    ],
)
def test_dense_inverse_oracle_small_domains(shape, h):
    dom = classify(shape, h)
    assert dom.n_rh <= 64
    prec = assemble_precision(dom)
    table = green_full(prec)
    dense = np.linalg.inv(prec.matrix.toarray())
    rel = np.abs(table.values - dense).max() / np.abs(dense).max()
    assert rel <= 1e-9


def test_green_symmetry_and_positive_diagonal():
    dom = classify(unit_box(3), 1 / 6)
    prec = assemble_precision(dom)
    table = green_full(prec)
    assert np.abs(table.values - table.values.T).max() <= 1e-10 * np.abs(table.values).max()
    assert np.all(np.diag(table.values) > 0)


def test_green_full_cap():
    dom = classify(unit_box(2), 1 / 8)
    prec = assemble_precision(dom)
    with pytest.raises(ValueError):
        green_full(prec, cap=10)


def test_selected_columns_match_full():
    dom = classify(unit_box(2), 1 / 6)
    prec = assemble_precision(dom)
    full = green_full(prec)
    cols = green_columns(prec, [(0, 0), (1, 2)])
    i = dom.rh_index_of((0, 0))
    assert np.allclose(cols.values[0], full.values[i], rtol=1e-12)
    assert cols.at((1, 2), (0, 0)) == pytest.approx(full.at((1, 2), (0, 0)), rel=1e-12)
    # zero outside R_h by convention, for either argument
    assert cols.at((1, 2), (6, 6)) == 0.0
    assert cols.at((7, 7), (0, 0)) == full.at((7, 7), (0, 0)) == 0.0
    with pytest.raises(KeyError):
        cols.at((0, 1), (0, 0))


def test_box_route_raises_when_pcg_stops_short(monkeypatch):
    from membrane import boxsolve, green

    solve = boxsolve.CenteredBoxSolver.solve
    monkeypatch.setattr(green, "BOX_FFT_CAP_3D", 0)
    monkeypatch.setattr(
        boxsolve.CenteredBoxSolver, "solve", lambda self, b, tol: solve(self, b, tol=tol, maxiter=2)
    )
    prec = assemble_precision(classify(unit_box(3), 1 / 6))
    with pytest.raises(RuntimeError, match="box PCG"):
        solve_green_column(prec, (0, 0, 0))


def test_residual_gates_fail_on_nan(monkeypatch):
    from membrane import green

    dom = classify(unit_box(2), 1 / 6)
    prec = assemble_precision(dom)
    prec._solver = lambda rhs: np.full(np.shape(rhs), np.nan)
    with pytest.raises(RuntimeError, match="BVP residual"):
        solve_green_column(prec, (0, 0))
    assert np.isnan(green_columns(prec, [(0, 0), (1, 2)]).max_residual)
    with pytest.raises(RuntimeError, match="asymmetry"):
        green_full(prec)
    # the box route reports a NaN residual instead of passing it on
    monkeypatch.setattr(green, "BOX_FFT_CAP_3D", 0)
    box = assemble_precision(classify(unit_box(3), 1 / 6))
    rhs = np.zeros(box.n)
    rhs[0] = np.nan
    with pytest.raises(RuntimeError, match="box PCG"):
        box.solve(rhs)


def test_variance_growth_d2_quick():
    slope, vals = variance_growth_slope(2, [8, 16, 32])
    assert all(np.diff(vals) > 0)
    assert 1.7 <= slope <= 2.3


def test_central_variance_matches_table():
    dom = classify(unit_box(2), 1 / 8)
    prec = assemble_precision(dom)
    table = green_full(prec)
    assert central_variance(2, 8) == pytest.approx(table.at((0, 0), (0, 0)), rel=1e-12)


def test_bound_report_fitted_constants_stable_d2():
    fits = []
    for N in [8, 16, 32]:
        dom = classify(unit_box(2), 1.0 / N)
        prec = assemble_precision(dom)
        table = green_full(prec)
        fits.append(check_bounds(table, N))
    sup = [f.sup_g for f in fits]
    for a, b in zip(sup, sup[1:]):
        assert 0.5 <= b / a <= 2.0
    # d=2 increment variance grows like log N: the scaled value stays stable
    logfit = [f.sup_mixed_ratio for f in fits]
    for a, b in zip(logfit, logfit[1:]):
        assert 0.4 <= b / a <= 2.5


def test_bound_report_d3_increment_variance_bounded():
    vals = []
    for N in [6, 8]:
        dom = classify(unit_box(3), 1.0 / N)
        prec = assemble_precision(dom)
        table = green_full(prec)
        rep = check_bounds(table, N)
        vals.append(rep.max_increment_var)
    assert all(v < 10.0 for v in vals)
    assert 0.5 <= vals[1] / vals[0] <= 2.0


# ---------------------------------------------------------------------------
# folded symmetric box solver against the assembled operator

def test_folded_apply_matches_assembled_matrix():
    d, N = 2, 8
    M = N - 2
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    solver = SymmetricBoxSolver(d, M)
    rng = np.random.default_rng(5)
    L = 2 * M + 1
    g = rng.standard_normal((L, L))
    g = g + g[::-1, :]
    g = g + g[:, ::-1]
    yref = (prec.matrix @ g.reshape(-1)).reshape(L, L)
    yf = solver.apply_precision(solver.fold(g))
    assert np.abs(solver.unfold(yf) - yref).max() <= 1e-12 * np.abs(yref).max()


def test_folded_solve_matches_direct_column():
    d, N = 2, 10
    M = N - 2
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    g_direct = solve_green_column(prec, (0,) * d)
    L = 2 * M + 1
    gd = g_direct.reshape(L, L)
    solver = SymmetricBoxSolver(d, M)
    gf, info = solver.solve_center_column(tol=1e-12)
    assert info.relative_residual <= 1e-12
    assert np.abs(solver.unfold(gf) - gd).max() <= 1e-9 * np.abs(gd).max()


def test_folded_roundtrip():
    solver = SymmetricBoxSolver(2, 3)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((7, 7))
    g = g + g[::-1, :]
    g = g + g[:, ::-1]
    assert np.allclose(solver.unfold(solver.fold(g)), g)


def test_log_correlation_report_small():
    rep = log_correlation_slope(12, r_min=1.0, r_max=5.0)
    assert np.isfinite(rep.slope)
    assert rep.n_pairs > 10
    assert rep.solver_residual <= 1e-9
