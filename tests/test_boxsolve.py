import numpy as np
import pytest
import scipy.sparse.linalg as spla

from membrane import green
from membrane.boxsolve import CenteredBoxSolver, SymmetricBoxSolver
from membrane.green import assemble_precision, green_columns
from membrane.lattice import Ball, classify, unit_box


@pytest.mark.parametrize("d,N", [(2, 12), (3, 8)])
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
    reference = green_columns(assemble_precision(box), pts).values  # SuperLU

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
    g, _ = SymmetricBoxSolver(d, 0).solve_center_column(tol=1e-12)
    x, _ = CenteredBoxSolver(d, 0).solve(np.ones(1), tol=1e-12)
    assert g[(0,) * d] == pytest.approx(1.0 / a, rel=1e-14)
    assert x[0] == pytest.approx(1.0 / a, rel=1e-14)
