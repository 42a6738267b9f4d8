import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from membrane import boxsolve, green, spectral
from membrane.boxsolve import CenteredBoxSolver, DirectBoxSolver
from membrane.green import PrecisionMatrix, assemble_precision, green_columns
from membrane.lattice import Ball, Box, classify, unit_box
from membrane.thomee import backward_error


def sector(full: np.ndarray, d: int, M: int) -> np.ndarray:
    """The stored sector {0..M}^d of a flat field on [-M, M]^d."""
    return full.reshape((2 * M + 1,) * d)[(slice(M, None),) * d].reshape(-1)


def even_field(rng, d: int, M: int) -> np.ndarray:
    """A random field on [-M, M]^d that is even in every coordinate, flat."""
    u = rng.standard_normal((2 * M + 1,) * d)
    for ax in range(d):
        u = u + np.flip(u, axis=ax)
    return u.reshape(-1)


@given(
    d=st.sampled_from([2, 3, 4]),
    M=st.integers(0, 4),
    even=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_coefficient_apply_matches_assembled_matrix(d, M, even, seed):
    A = assemble_precision(classify(unit_box(d), 1.0 / (M + 2))).matrix
    rng = np.random.default_rng(seed)
    u = even_field(rng, d, M) if even else rng.standard_normal(A.shape[0])
    ref = A @ u
    solver = CenteredBoxSolver(d, M, even=even)
    if even:
        u, ref = sector(u, d, M), sector(ref, d, M)
    assert np.abs(solver.operator(u) - ref).max() <= 1e-12 * np.abs(ref).max()
    if d == 2 and not even:
        assert np.abs(DirectBoxSolver(M).operator(u) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("d,N", [(2, 12), (3, 8), (4, 5)])
def test_centered_solver_matches_sparse_direct(d, N):
    dom = classify(unit_box(d), 1.0 / N)
    A = assemble_precision(dom).matrix
    solver = CenteredBoxSolver(d, N - 2)
    assert solver.n == A.shape[0]
    B = np.random.default_rng(d).standard_normal((solver.n, 5))
    X, info = solver.solve(B, tol=1e-13)
    assert info.relative_residual <= 1e-13
    ref = spla.spsolve(A.tocsc(), B)
    assert np.abs(X - ref).max() <= 1e-10 * np.abs(ref).max()
    for j in range(B.shape[1]):
        x, _ = solver.solve(B[:, j], tol=1e-13)
        assert np.abs(x - X[:, j]).max() <= 1e-10 * np.abs(X[:, j]).max()


def test_zero_columns_are_solved_by_zero(monkeypatch):
    solver = CenteredBoxSolver(3, 4)
    n = solver.n
    x, info = solver.solve(np.zeros(n))
    assert np.array_equal(x, np.zeros(n))
    assert info.relative_residual == 0.0
    rng = np.random.default_rng(11)
    b0, b2 = rng.standard_normal(n), rng.standard_normal(n)
    X, info = solver.solve(np.stack([b0, np.zeros(n), b2], axis=1), tol=1e-12)
    assert np.isfinite(info.relative_residual) and info.relative_residual <= 1e-12
    assert np.array_equal(X[:, 1], np.zeros(n))
    x0, _ = solver.solve(b0, tol=1e-12)
    x2, _ = solver.solve(b2, tol=1e-12)
    assert np.abs(X[:, 0] - x0).max() <= 1e-10 * np.abs(x0).max()
    assert np.abs(X[:, 2] - x2).max() <= 1e-10 * np.abs(x2).max()
    # a zero column next to a nonzero one leaves that one's iterates unchanged
    Y, _ = solver.solve(np.stack([b0, np.zeros(n)], axis=1), tol=1e-12)
    assert np.array_equal(Y[:, 0], x0)
    # the same through the box route of the precision solver
    monkeypatch.setattr(green, "BOX_FFT_CAP_3D", 0)
    prec = assemble_precision(classify(unit_box(3), 1 / 6))
    assert np.array_equal(prec.solve(np.zeros(prec.n)), np.zeros(prec.n))


def test_above_factorization_cap_only_centred_boxes_are_solved(monkeypatch):
    box = classify(unit_box(2), 1 / 10)
    pts = [(0, 0), (3, -2), (-8, 8)]
    units = np.zeros((box.n_rh, len(pts)))
    units[box.rh_indices(pts), np.arange(len(pts))] = 1.0
    reference = spla.spsolve(assemble_precision(box).matrix.tocsc(), units).T

    def no_factorization(*args, **kwargs):
        raise AssertionError("splu called above the factorization cap")

    monkeypatch.setattr(green, "FACTORIZATION_CAP", 10)
    monkeypatch.setattr(green.spla, "splu", no_factorization)
    with pytest.raises(ValueError, match="factorization cap"):
        assemble_precision(classify(Ball([0.0, 0.0], 1.0), 1 / 4)).solver()
    table = green_columns(assemble_precision(box), pts)
    assert np.abs(table.values - reference).max() <= 1e-9 * np.abs(reference).max()
    assert table.max_residual <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_point_box_both_solvers(d):
    # M = 0: the one point sees an exterior neighbour on both faces of every axis
    dom = classify(unit_box(d), 1 / 2)
    a = assemble_precision(dom).matrix.toarray()[0, 0]
    g, _ = CenteredBoxSolver(d, 0, even=True).solve(np.ones(1), tol=1e-12)
    x, _ = CenteredBoxSolver(d, 0).solve(np.ones(1), tol=1e-12)
    assert g[0] == pytest.approx(1.0 / a, rel=1e-14)
    assert x[0] == pytest.approx(1.0 / a, rel=1e-14)


@pytest.mark.parametrize("d,M", [(2, 9), (3, 5), (4, 3)])
def test_even_and_full_solves_agree_on_even_rhs(d, M):
    rng = np.random.default_rng(3 + d)
    b = even_field(rng, d, M)
    x, full_info = CenteredBoxSolver(d, M).solve(b, tol=1e-13)
    y, even_info = CenteredBoxSolver(d, M, even=True).solve(sector(b, d, M), tol=1e-13)
    assert full_info.relative_residual <= 1e-13 and even_info.relative_residual <= 1e-13
    assert np.abs(sector(x, d, M) - y).max() <= 1e-11 * np.abs(y).max()


def test_even_route_raises_when_pcg_stops_short(monkeypatch):
    solve = boxsolve.CenteredBoxSolver.solve
    monkeypatch.setattr(
        boxsolve.CenteredBoxSolver, "solve", lambda self, b, tol: solve(self, b, tol=tol, maxiter=2)
    )
    with pytest.raises(RuntimeError, match="box PCG stopped"):
        spectral.pairing_variance_study(4, [1 / 12], spectral.bump_test_function(), cross_check_cap=0)
    with pytest.raises(RuntimeError, match="box PCG stopped"):
        green.log_correlation_slope(12)


# ---------------------------------------------------------------------------
# the direct (capacitance) solver of d=2 boxes


@given(M=st.integers(0, 12), k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_direct_solve_matches_dense_solve(M, k, seed):
    A = assemble_precision(classify(unit_box(2), 1.0 / (M + 2))).matrix.toarray()
    B = np.random.default_rng(seed).standard_normal((A.shape[0], k))
    ref = np.linalg.solve(A, B)
    X = DirectBoxSolver(M).solve(B)
    assert X.shape == B.shape
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("N", [40, 96, 160])
def test_direct_solve_is_backward_stable(N):
    A = assemble_precision(classify(unit_box(2), 1.0 / N)).matrix
    b = np.random.default_rng(N).standard_normal(A.shape[0])
    assert backward_error(A, DirectBoxSolver(N - 2).solve(b), b) <= 1e-14


def test_direct_unit_columns_match_box_pcg_and_single_solves():
    M = 14
    direct, pcg = DirectBoxSolver(M), CenteredBoxSolver(2, M)
    idx = np.random.default_rng(5).choice(direct.n, size=6, replace=False)
    E = np.zeros((direct.n, len(idx)))
    E[idx, np.arange(len(idx))] = 1.0
    X = direct.solve(E)
    ref, _ = pcg.solve(E, tol=1e-13)
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
    for j in range(len(idx)):
        x = direct.solve(E[:, j])
        assert np.abs(x - X[:, j]).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("cap", [green.FACTORIZATION_CAP, 10])
def test_d2_boxes_are_solved_without_factorization(monkeypatch, cap):
    def no_factorization(*args, **kwargs):
        raise AssertionError("splu called for a centred d=2 box")

    monkeypatch.setattr(green, "FACTORIZATION_CAP", cap)
    monkeypatch.setattr(green.spla, "splu", no_factorization)
    prec = assemble_precision(classify(unit_box(2), 1 / 12))
    table = green_columns(prec, [(0, 0), (5, -9)])
    assert table.max_residual <= 1e-8
    assert prec.route == "box-direct" and prec.route_reason == ""
    monkeypatch.undo()
    for shape in (Ball([0.0, 0.0], 1.0), Box([(-1, 1), (-1, 2)])):
        other = assemble_precision(classify(shape, 1 / 6))
        assert green_columns(other, [(0, 0)]).max_residual <= 1e-8
        assert other.route == "superlu" and other.route_reason == ""


@pytest.mark.parametrize("d,N", [(2, 10), (3, 6)])
def test_box_routes_solve_the_matrix_they_are_given(monkeypatch, d, N):
    monkeypatch.setattr(green, "BOX_FFT_CAP_3D", 0)
    box = assemble_precision(classify(unit_box(d), 1.0 / N))
    perturbed = PrecisionMatrix(domain=box.domain, matrix=(box.matrix * (1.0 + 1e-6)).tocsr(), raw=box.raw)
    pts = [(0,) * d, (1,) * d]
    table = green_columns(perturbed, pts)
    assert perturbed.route == "superlu"
    assert "probe mismatch" in perturbed.route_reason
    assert table.max_residual <= 1e-8
    units = np.zeros((box.n, len(pts)))
    units[box.domain.rh_indices(pts), np.arange(len(pts))] = 1.0
    assert np.abs(box.matrix @ table.values.T - units).max() > 1e-8
    assert green_columns(box, pts).max_residual <= 1e-8
    assert box.route == ("box-direct" if d == 2 else "box-pcg")
