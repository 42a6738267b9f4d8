import itertools
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, reject, settings, strategies as st

from membrane import boxsolve, green, lattice, spectral
from membrane.boxsolve import CenteredBoxSolver, DirectBoxSolver, parity_classes
from membrane.cli import main
from membrane.green import PrecisionMatrix, assemble_precision, green_columns
from membrane.lattice import Ball, Box, classify, kappa, unit_box
from membrane.thomee import backward_error
from membrane.torus import TorusCapacitanceSolver


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


@given(d=st.sampled_from([2, 3, 4]), M=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_parity_sector_blocks_apply_the_assembled_matrix(d, M, seed):
    prec = assemble_precision(classify(unit_box(d), 1.0 / (M + 2)))
    box = CenteredBoxSolver(d, M)
    u = np.random.default_rng(seed).standard_normal(box.n)
    c = box.coefficients(u.reshape((box.L,) * d))
    out = np.zeros_like(c)
    sectors = []
    for rep, members in boxsolve.parity_classes(d):
        block = box.sector_block(rep)
        rows = np.arange(len(block)).reshape([M + p for p in rep])
        for parity, axes in members:  # the class's blocks are the representative's, axes transposed
            perm = rows.transpose(axes).reshape(-1)
            gap = box.sector_block(parity) - block[np.ix_(perm, perm)]
            assert not gap.size or np.abs(gap).max() <= 1e-14 * np.abs(block).max()
            sectors.append(parity)
    assert sorted(sectors) == sorted(itertools.product((0, 1), repeat=d))
    for parity in sectors:
        cell = boxsolve.sector_cell(parity)
        out[cell] = (box.sector_block(parity) @ c[cell].reshape(-1)).reshape(c[cell].shape)
    ref = prec.raw @ u / (2 * d) ** 2
    assert np.abs(box.field(out).reshape(-1) - ref).max() <= 1e-12 * np.abs(ref).max()


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


def test_zero_columns_are_solved_by_zero():
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
    solve = boxsolve.wedge_solve

    def stopped(box, F, orbit, rhs, tol, maxiter=400):
        return solve(box, F, orbit, rhs, tol, maxiter=2)

    monkeypatch.setattr(boxsolve, "wedge_solve", stopped)
    monkeypatch.setattr(spectral, "wedge_solve", stopped)
    with pytest.raises(RuntimeError, match="box PCG stopped"):
        spectral.pairing_variance_study(4, [1 / 12], spectral.bump_test_function(), cross_check_cap=0)
    with pytest.raises(RuntimeError, match="box PCG stopped"):
        green.log_correlation_slope(12)


# ---------------------------------------------------------------------------
# the centre column on the permutation wedge of the even sector


def unfold(g: np.ndarray, d: int, M: int) -> np.ndarray:
    """The even field on [-M, M]^d, flat, of values g stored on {0..M}^d."""
    m = np.abs(np.arange(-M, M + 1))
    return g.reshape((M + 1,) * d)[np.ix_(*[m] * d)].reshape(-1)


@pytest.mark.parametrize("d,M", [(2, 0), (2, 5), (3, 1), (3, 4), (4, 0), (4, 1), (4, 3), (5, 2), (1, 7), (5, 9), (6, 7)])
def test_wedge_holds_each_sorted_tuple_once_with_its_orbit(d, M):
    rows, orbit = lattice.wedge(d, M)
    assert len(rows) == math.comb(M + d, d) and orbit.sum() == (M + 1) ** d
    ranks = sum(np.array([math.comb(int(f) + i, i + 1) for f in rows[:, i]], dtype=int) for i in range(d))
    assert np.array_equal(ranks, np.arange(len(rows)))
    # the orbit of a sorted tuple counts the sector points that sort to it
    points = np.sort(np.array(list(itertools.product(range(M + 1), repeat=d))), axis=1)
    tuples, counts = np.unique(points, axis=0, return_counts=True)
    lex = np.lexsort(rows.T[::-1])
    assert np.array_equal(rows[lex], tuples) and np.array_equal(orbit[lex], counts)


@pytest.mark.parametrize("d,M", [(3, -1), (-1, 3)])
def test_wedge_rejects_a_negative_dimension_or_size(d, M):
    with pytest.raises(ValueError, match="needs d, M >= 0"):
        lattice.wedge(d, M)


@given(d=st.sampled_from([2, 3, 4]), M=st.integers(0, 6))
@example(d=2, M=0)
@example(d=2, M=1)
@example(d=3, M=0)
@example(d=3, M=1)
@example(d=4, M=0)
@example(d=4, M=1)
@settings(max_examples=20, deadline=None)
def test_centre_column_matches_the_even_solve_and_the_matrix(d, M):
    g, info = boxsolve.centre_column(d, M, tol=1e-12)
    delta = np.zeros((M + 1) ** d)
    delta[0] = 1.0
    ref, ref_info = CenteredBoxSolver(d, M, even=True).solve(delta, tol=1e-12)
    # the wedge iterates are the sector's in exact arithmetic
    assert info.iterations == ref_info.iterations and info.relative_residual <= 1e-12
    assert np.abs(g - ref).max() <= 1e-11 * np.abs(ref).max()
    A = assemble_precision(classify(unit_box(d), 1.0 / (M + 2))).matrix
    e = np.zeros(A.shape[0])
    e[A.shape[0] // 2] = 1.0  # the centre of the box, in C order
    assert np.abs(A @ unfold(g, d, M) - e).max() <= 1e-10


def test_centre_column_raises_when_pcg_stops_short():
    with pytest.raises(RuntimeError, match="box PCG stopped"):
        boxsolve.centre_column(4, 6, tol=1e-12, maxiter=2)


@given(
    d=st.sampled_from([1, 2, 3, 4]),
    M=st.integers(0, 6),
    scale=st.floats(0.5, 3.0),
    power=st.integers(1, 6),
)
@example(d=1, M=0, scale=3.0, power=6)
@example(d=2, M=0, scale=3.0, power=6)
@example(d=3, M=1, scale=3.0, power=6)
@example(d=4, M=0, scale=3.0, power=6)
@example(d=4, M=1, scale=3.0, power=6)
@settings(max_examples=25, deadline=None)
def test_pairing_on_the_wedge_matches_the_even_solve(d, M, scale, power):
    f = spectral.bump_test_function(scale, power)
    h = 1.0 / (2 * M + 4)  # R_h of (-1/2, 1/2)^d is [-M, M]^d
    study = spectral.pairing_variance_study(d, [h], f, cross_check_cap=0)
    solver = CenteredBoxSolver(d, M, even=True)
    axis = np.arange(M + 1) * h
    fv = f(np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d))
    z, info = solver.solve(fv, tol=1e-12)
    cz = solver.coefficients(np.stack([fv, z]).reshape((2,) + (M + 1,) * d))
    var = kappa(d) ** 2 * h ** (d + 4) * np.vdot(cz[0], cz[1])
    assert abs(study.variances[0] - var) <= 1e-12 * abs(var)
    # the iterates are the sector's in exact arithmetic; in floating point a
    # residual near tol at the last step can stop either route one step apart
    assert len(study.iterations) == 1 and abs(study.iterations[0] - info.iterations) <= 1


@pytest.mark.parametrize("d,M", [(2, 1), (3, 2), (4, 1), (4, 4)])
def test_pairing_refuses_a_test_function_that_is_not_permutation_symmetric(d, M):
    bump = spectral.bump_test_function()

    def f(x):
        return bump(x) * (1.0 + x[:, 0] ** 2)

    with pytest.raises(ValueError, match="not symmetric"):
        spectral.pairing_variance_study(d, [1.0 / (2 * M + 4)], f, cross_check_cap=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pairing_refuses_a_test_function_that_is_not_even(d):
    # symmetric under the axis permutations, but odd parts in every coordinate:
    # on the sector alone its variance was off by 44% at h=1/8 in d=4
    bump = spectral.bump_test_function()

    def f(x):
        return bump(x) * np.prod(1.0 + x, axis=-1)

    with pytest.raises(ValueError, match="not even"):
        spectral.pairing_variance_study(d, [1 / 8], f, cross_check_cap=0)


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


@given(M=st.integers(0, 16), seed=st.integers(0, 2**32 - 1))
@example(M=0, seed=1)  # the even sectors are empty
@example(M=1, seed=2)
@example(M=2, seed=3)
@settings(max_examples=25, deadline=None)
def test_direct_solve_matches_spsolve(M, seed):
    A = assemble_precision(classify(unit_box(2), 1.0 / (M + 2))).matrix
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((A.shape[0], 3))
    ref = spla.spsolve(A.tocsc(), B)
    direct = DirectBoxSolver(M)
    assert np.abs(direct.solve(B) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert direct.fill == 2 * (M + 1) ** 2 + M**2 - (M == 0)  # the (1,0) class has no unknowns at M = 0
    # each sector solve inverts the sector's dense block, on 2 coefficient arrays at once
    for rep, sectors in boxsolve.parity_classes(2):
        shape = [M + p for p in rep]
        if M or rep == (1, 1):
            c = rng.standard_normal([2] + shape)
            back = direct.sector_solve(rep, c).reshape(2, -1) @ direct.box.sector_block(rep)
            assert np.abs(back - c.reshape(2, -1)).max() <= 1e-12 * np.abs(c).max()


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


@pytest.mark.parametrize("d,M", [(2, 46), (2, 94), (3, 10), (2, 0), (2, 1), (3, 0), (3, 1)])
def test_direct_solve_matches_spsolve_at_awkward_periods(d, M):
    # sine periods 2M + 2 with large prime factors: 94 = 2 * 47 and
    # 190 = 2 * 5 * 19 in d = 2, 22 = 2 * 11 in d = 3; and the smallest boxes.
    # A's condition number grows like (M + 2)^4, and so does the distance
    # between two backward stable solutions (3.2e-10 relative at M = 94).
    # d = 3 at M = 17, where spsolve takes about a minute, is checked against
    # the assembled matrix by the N = 19 case of the backward-stability test
    A = assemble_precision(classify(unit_box(d), 1.0 / (M + 2))).matrix
    B = np.random.default_rng(M).standard_normal((A.shape[0], 3))
    ref = spla.spsolve(A.tocsc(), B)
    X = DirectBoxSolver(M, d).solve(B)
    assert X.shape == B.shape
    assert max(backward_error(A, X[:, j], B[:, j]) for j in range(B.shape[1])) <= 1e-14
    assert np.abs(X - ref).max() <= 1e-16 * (M + 2) ** 4 * np.abs(ref).max()


@pytest.mark.parametrize("d,M", [(2, 9), (3, 4)])
def test_direct_solve_takes_any_number_of_right_hand_sides(d, M):
    # batches around the transform chunk: a chunk dropped, repeated or
    # misplaced changes some column, which is checked against itself solved alone
    A = assemble_precision(classify(unit_box(d), 1.0 / (M + 2))).matrix
    direct = DirectBoxSolver(M, d)
    B = np.random.default_rng(d).standard_normal((direct.n, 49))
    alone = np.stack([direct.solve(b) for b in B.T], axis=1)
    ref = spla.spsolve(A.tocsc(), B)
    assert np.abs(alone - ref).max() <= 1e-12 * np.abs(ref).max()
    for k in (0, 1, boxsolve.CHUNK - 1, boxsolve.CHUNK, boxsolve.CHUNK + 1, 49):
        X = direct.solve(B[:, :k])
        assert X.shape == (direct.n, k)
        assert np.all(np.abs(X - alone[:, :k]).max(axis=0) <= 1e-14 * np.abs(alone[:, :k]).max(axis=0))


@given(M=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
@example(M=0, seed=1)  # the sectors with an even frequency are empty
@example(M=1, seed=2)
@settings(max_examples=20, deadline=None)
def test_direct_d3_solve_matches_spsolve(M, seed):
    A = assemble_precision(classify(unit_box(3), 1.0 / (M + 2))).matrix
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((A.shape[0], 3))
    ref = spla.spsolve(A.tocsc(), B)
    direct = DirectBoxSolver(M, 3)
    X = direct.solve(B)
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(direct.solve(B[:, 0]) - X[:, 0]).max() <= 1e-13 * np.abs(X[:, 0]).max()
    assert direct.fill == boxsolve.direct_fill(3, M)
    # each sector solve inverts the sector's dense block, on one array and on a batch of 2
    for rep, sectors in boxsolve.parity_classes(3):
        shape = [M + p for p in rep]
        if min(shape):
            for c in (rng.standard_normal(shape), rng.standard_normal([2] + shape)):
                x = direct.sector_solve(rep, c)
                assert x.shape == c.shape
                back = x.reshape(-1, math.prod(shape)) @ direct.box.sector_block(rep)
                assert np.abs(back - c.reshape(-1, math.prod(shape))).max() <= 1e-12 * np.abs(c).max()


@pytest.mark.parametrize("N", [8, 19])
def test_direct_d3_solve_is_backward_stable_and_matches_box_pcg(N):
    A = assemble_precision(classify(unit_box(3), 1.0 / N)).matrix
    direct = DirectBoxSolver(N - 2, 3)
    B = np.random.default_rng(N).standard_normal((A.shape[0], 4))
    X = direct.solve(B)
    assert max(backward_error(A, X[:, j], B[:, j]) for j in range(B.shape[1])) <= 1e-14
    ref, _ = CenteredBoxSolver(3, N - 2).solve(B, tol=1e-13)
    assert np.abs(X - ref).max() <= 1e-11 * np.abs(ref).max()


def test_direct_d3_solves_every_sector_of_every_class():
    # a right-hand side in one parity sector at a time: in class (1,1,0) the
    # sectors (1,0,1) and (0,1,1) are 3-cycles of the representative's axes,
    # so a wrong transpose would solve them on the wrong axes
    N = 9
    prec = assemble_precision(classify(unit_box(3), 1.0 / N))
    box = CenteredBoxSolver(3, N - 2)
    rng = np.random.default_rng(7)
    solved = []
    for rep, sectors in boxsolve.parity_classes(3):
        for parity, axes in sectors:
            c = np.zeros((box.L,) * 3)
            cell = boxsolve.sector_cell(parity)
            c[cell] = rng.standard_normal(c[cell].shape)
            b = box.field(c).reshape(-1)
            x = prec.solve(b)
            assert prec.route == "box-direct"
            assert np.abs(prec.matrix @ x - b).max() <= 1e-12 * np.abs(b).max()
            solved.append(parity)
    assert len(set(solved)) == 8


def test_d3_boxes_above_the_factor_budget_take_box_pcg(monkeypatch):
    dom = classify(unit_box(3), 1 / 10)
    monkeypatch.setattr(green, "DIRECT_FACTOR_BUDGET", 8 * boxsolve.direct_fill(3, 8) - 1)
    monkeypatch.setattr(boxsolve, "DirectBoxSolver", lambda *args: pytest.fail("direct factors built above the budget"))
    prec = assemble_precision(dom)
    table = green_columns(prec, [(0, 0, 0), (3, -2, 1)])
    assert prec.route == "box-pcg" and prec.factor_fill == 0
    assert prec.route_reason == f"direct factors of {8 * boxsolve.direct_fill(3, 8)} bytes above DIRECT_FACTOR_BUDGET"
    assert table.max_residual <= 1e-8
    monkeypatch.undo()
    prec = assemble_precision(dom)
    assert np.abs(green_columns(prec, [(0, 0, 0), (3, -2, 1)]).values - table.values).max() <= 1e-10 * table.values.max()
    assert (prec.route, prec.route_reason, prec.factor_fill) == ("box-direct", "", boxsolve.direct_fill(3, 8))


@pytest.mark.parametrize(
    "d,N,cap",
    [(2, 12, green.FACTORIZATION_CAP), (2, 12, 10), (3, 12, green.FACTORIZATION_CAP), (4, 6, green.FACTORIZATION_CAP)],
)
def test_centred_boxes_are_solved_without_factorization(monkeypatch, d, N, cap):
    box = classify(unit_box(d), 1 / N)
    M = N - 2
    pts = [(0,) * d, (M // 2, 1 - M) + (0,) * (d - 2)]
    units = np.zeros((box.n_rh, len(pts)))
    units[box.rh_indices(pts), np.arange(len(pts))] = 1.0
    reference = spla.spsolve(assemble_precision(box).matrix.tocsc(), units).T

    def no_factorization(*args, **kwargs):
        raise AssertionError(f"splu called for a centred d={d} box")

    monkeypatch.setattr(green, "FACTORIZATION_CAP", cap)
    monkeypatch.setattr(green.spla, "splu", no_factorization)
    prec = assemble_precision(box)
    table = green_columns(prec, pts)
    assert table.max_residual <= 1e-8
    assert np.abs(table.values - reference).max() <= 1e-9 * np.abs(reference).max()
    assert prec.route == ("box-direct" if d <= 3 else "box-pcg") and prec.route_reason == ""
    monkeypatch.undo()
    for shape in (Ball([0.0] * d, 1.0), Box([(-1, 1)] * (d - 1) + [(-1, 2)])):
        other = assemble_precision(classify(shape, 1 / 4 if d == 4 else 1 / 6))
        assert green_columns(other, [(0,) * d]).max_residual <= 1e-8
        assert other.route == "torus-capacitance" and other.route_reason == ""


@pytest.mark.parametrize("d,N", [(2, 10), (3, 6)])
def test_box_routes_solve_the_matrix_they_are_given(monkeypatch, d, N):
    # a box, and in d=2 a disk: the probe refuses a perturbed matrix, which is factorized
    shapes = [(unit_box(d), "box-direct" if d <= 3 else "box-pcg")]
    if d == 2:
        shapes.append((Ball([0.0, 0.0], 1.0), "torus-capacitance"))
    for shape, route in shapes:
        prec = assemble_precision(classify(shape, 1.0 / N))
        perturbed = PrecisionMatrix(domain=prec.domain, matrix=(prec.matrix * (1.0 + 1e-6)).tocsr(), raw=prec.raw)
        pts = [(0,) * d, (1,) * d]
        with monkeypatch.context() as m:  # the torus probe runs before the capacitance factor is built
            m.setattr(TorusCapacitanceSolver, "factorize", lambda self: pytest.fail("refused matrix was factorized"))
            table = green_columns(perturbed, pts)
        assert perturbed.route == "superlu"
        assert "probe mismatch" in perturbed.route_reason
        assert table.max_residual <= 1e-8
        units = np.zeros((prec.n, len(pts)))
        units[prec.domain.rh_indices(pts), np.arange(len(pts))] = 1.0
        assert np.abs(prec.matrix @ table.values.T - units).max() > 1e-8
        assert green_columns(prec, pts).max_residual <= 1e-8
        assert prec.route == route


@pytest.mark.parametrize("N", [8, 64])
def test_d1_boxes_take_box_pcg(tmp_path, N):
    # the direct box solve takes d = 2 and 3 only; box PCG solves a d=1 box
    prec = assemble_precision(classify(unit_box(1), 1 / N))
    pts = [(0,), (2 - N,), (N // 3,)]
    table = green_columns(prec, pts)
    assert (prec.route, prec.route_reason, prec.factor_fill) == ("box-pcg", "", 0)
    units = np.zeros((prec.n, len(pts)))
    units[prec.domain.rh_indices(pts), np.arange(len(pts))] = 1.0
    reference = spla.spsolve(prec.matrix.tocsc(), units).T
    assert np.abs(table.values - reference).max() <= 1e-10 * np.abs(reference).max()
    assert main(["--out", str(tmp_path), "green", "--shape", "box", "--d", "1", "--h", f"1/{N}"]) == 0


# ---------------------------------------------------------------------------
# the torus capacitance solver of every other d=2 domain


def _torus_mismatch(dom) -> float:
    """Probe-normalized gap between the torus operator on R_h and the assembled matrix."""
    A = assemble_precision(dom).matrix
    v = np.random.default_rng(dom.n_rh).standard_normal(dom.n_rh)
    gap = np.abs(A @ v - TorusCapacitanceSolver(dom).operator(v)).max()
    return gap / (abs(A).sum(axis=1).max() * np.abs(v).max())


@given(
    ball=st.booleans(),
    centre=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    size=st.tuples(st.floats(0.05, 1.5), st.floats(0.05, 1.5)),
    inv_h=st.integers(2, 24),
)
@example(ball=True, centre=(0.0, 0.0), size=(0.25, 0.25), inv_h=8)  # R_h = {0}
@settings(max_examples=40, deadline=None)
def test_torus_operator_applies_the_assembled_matrix(ball, centre, size, inv_h):
    if ball:
        shape = Ball(centre, size[0])
    else:
        shape = Box([(c - s, c + s) for c, s in zip(centre, size)])
    try:
        dom = classify(shape, 1.0 / inv_h)
    except ValueError:  # no grid point in the shape
        reject()
    assume(dom.n_rh > 0)
    assert _torus_mismatch(dom) <= green.PROBE_TOL


def test_torus_operator_on_a_single_point():
    dom = classify(Ball([0.0, 0.0], 0.25), 1 / 8)
    assert dom.n_rh == 1
    assert _torus_mismatch(dom) <= green.PROBE_TOL
    a = assemble_precision(dom).matrix.toarray()[0, 0]
    assert TorusCapacitanceSolver(dom).factorize().solve(np.ones(1))[0] == pytest.approx(1.0 / a, rel=1e-12)


@pytest.mark.parametrize(
    "shape,h",
    [
        (Ball([0.0, 0.0], 1.0), 1 / 8),
        (Ball([0.0, 0.0], 1.0), 1 / 16),
        (Ball([0.0, 0.0], 1.0), 1 / 64),
        (Box([(-1, 1), (-1, 2)]), 1 / 12),
        (Ball([0.3, -0.2], 0.7), 1 / 16),
    ],
    ids=["disk-8", "disk-16", "disk-64", "offcentre-box-12", "offcentre-ball-16"],
)
def test_other_d2_domains_are_solved_without_factorization(monkeypatch, shape, h):
    dom = classify(shape, h)
    pts = dom.rh_points[np.random.default_rng(dom.n_rh).choice(dom.n_rh, size=3, replace=False)]
    units = np.zeros((dom.n_rh, len(pts)))
    units[dom.rh_indices(pts), np.arange(len(pts))] = 1.0
    reference = spla.spsolve(assemble_precision(dom).matrix.tocsc(), units).T

    def no_factorization(*args, **kwargs):
        raise AssertionError("splu called for a d=2 domain")

    monkeypatch.setattr(green.spla, "splu", no_factorization)
    prec = assemble_precision(dom)
    table = green_columns(prec, pts)
    assert (prec.route, prec.route_reason) == ("torus-capacitance", "")
    assert table.max_residual <= 1e-8
    assert np.abs(table.values - reference).max() <= 1e-9 * np.abs(reference).max()


# ---------------------------------------------------------------------------
# the torus capacitance split into reflection-parity sectors


def _units_and_reference(dom, k: int = 3):
    """k random right-hand sides on R_h, and their spsolve solutions."""
    A = assemble_precision(dom).matrix
    B = np.random.default_rng(dom.n_rh).standard_normal((dom.n_rh, k))
    return A, B, spla.spsolve(A.tocsc(), B)


def _relative(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("d,h", [(2, 1 / 16), (2, 1 / 20), (3, 1 / 6), (3, 1 / 8), (4, 1 / 4), (4, 1 / 5)])
def test_torus_sectors_match_the_whole_layer_factor_and_spsolve(d, h):
    dom = classify(Ball([0.0] * d, 1.0), h)
    A, B, reference = _units_and_reference(dom)
    sectors = TorusCapacitanceSolver(dom).factorize()
    whole = TorusCapacitanceSolver(dom, axes=()).factorize()
    # the full group: d mirrors and every swap, so one factor per count of odd axes
    assert sectors.axes == tuple(range(d)) and len(sectors.class_sizes) == d + 1
    assert whole.axes == () and whole.class_sizes == [whole.m] and whole.fill == whole.m**2
    X = sectors.solve(B)
    assert _relative(X, whole.solve(B)) <= 1e-12
    assert _relative(X, reference) <= 1e-12
    assert backward_error(A, X[:, 0], B[:, 0]) <= 1e-14
    assert np.allclose(sectors.solve(B[:, 1]), X[:, 1], rtol=0, atol=1e-14 * np.abs(X).max())
    # the sectors split Gamma: each class factor serves its sectors' coefficients
    assert sum(len(keep) * len(rows) for _, keep, rows in sectors._classes) == sectors.m


@pytest.mark.parametrize("d,h", [(2, 1 / 12), (3, 1 / 6)])
def test_torus_solves_one_right_hand_side_per_parity_sector(d, h):
    # b(e x) = chi_p(e) b(x) for every mirror e: the solution has parity p too
    dom = classify(Ball([0.0] * d, 1.0), h)
    A = assemble_precision(dom).matrix.tocsc()
    solver = TorusCapacitanceSolver(dom).factorize()
    pts = dom.rh_points
    flips = [np.array(e) for e in itertools.product((1, -1), repeat=d)]
    images = [dom.rh_indices(pts * e) for e in flips]
    g = np.random.default_rng(d).standard_normal(dom.n_rh)
    for parity in itertools.product((0, 1), repeat=d):
        chi = [np.prod(np.where(np.array(parity) == 1, e, 1)) for e in flips]
        b = sum(c * g[img] for c, img in zip(chi, images))
        x = solver.solve(b)
        assert _relative(x, spla.spsolve(A, b)) <= 1e-12, parity
        for c, img in zip(chi, images):
            assert np.abs(x[img] - c * x).max() <= 1e-12 * np.abs(x).max()


def test_torus_group_is_read_off_the_point_set():
    cases = [
        (Ball([0.3, -0.2], 0.7), 1 / 16, ()),  # off-centre: no mirror, one whole-layer factor
        (Ball([0.0, 0.3], 0.8), 1 / 16, (0,)),  # a mirror in axis 0 only
        (Box([(-1, 1), (-0.5, 0.5)]), 1 / 8, (0, 1)),  # both mirrors, no swap
        (Ball([0.3, -0.2, 0.15], 0.7), 1 / 6, ()),
        (Ball([0.3, -0.2, 0.1], 0.7), 1 / 6, (2,)),  # R_h's mirror about its own midpoint
        (Box([(-1, 1), (-1, 1), (-1, 2)]), 1 / 6, (0, 1, 2)),  # swap only of axes 0 and 1
    ]
    classes = [1, 2, 4, 1, 2, 6]
    for (shape, h, axes), count in zip(cases, classes):
        dom = classify(shape, h)
        A, B, reference = _units_and_reference(dom)
        solver = TorusCapacitanceSolver(dom)
        assert solver.axes == axes and len(solver.class_sizes) == count
        assert solver.fill == sum(r * r for r in solver.class_sizes)
        X = solver.factorize().solve(B)
        assert _relative(X, reference) <= 1e-12
        assert np.abs(A @ X - B).max() <= 1e-10
    with pytest.raises(ValueError, match="not symmetric"):
        TorusCapacitanceSolver(classify(Ball([0.0, 0.3], 0.8), 1 / 16), axes=(1,))


def test_sector_classes_list_every_parity_sector_once():
    # the box's enumeration (one block of all axes), pinned
    assert parity_classes(2) == [
        ((1, 1), [((1, 1), (0, 1))]),
        ((1, 0), [((1, 0), (0, 1)), ((0, 1), (1, 0))]),
        ((0, 0), [((0, 0), (0, 1))]),
    ]
    assert parity_classes(3) == [
        ((1, 1, 1), [((1, 1, 1), (0, 1, 2))]),
        ((1, 1, 0), [((1, 1, 0), (0, 1, 2)), ((1, 0, 1), (0, 2, 1)), ((0, 1, 1), (2, 0, 1))]),
        ((1, 0, 0), [((1, 0, 0), (0, 1, 2)), ((0, 1, 0), (1, 0, 2)), ((0, 0, 1), (1, 2, 0))]),
        ((0, 0, 0), [((0, 0, 0), (0, 1, 2))]),
    ]
    for blocks in ([[0, 1], [2]], [[0], [1], [2]], [[0, 2], [1, 3]], [[0, 1, 2, 3]]):
        k = sum(map(len, blocks))
        sectors = []
        for rep, members in parity_classes(k, blocks):
            for parity, axes in members:
                assert all(parity[j] == rep[axes[j]] for j in range(k)), (blocks, rep, axes)
                sectors.append(parity)
        assert sorted(sectors) == list(itertools.product((0, 1), repeat=k)), blocks


@pytest.mark.parametrize("d,M", [(2, 0), (2, 3), (3, 0), (3, 2), (4, 1)])
def test_box_classes_are_the_nonempty_classes_with_their_shapes(d, M):
    classes = boxsolve.box_classes(d, M)
    assert [rep for rep, _, _ in classes] == [rep for rep, _ in parity_classes(d)][:len(classes)]
    assert sum(len(sectors) * math.prod(shape) for _, sectors, shape in classes) == (2 * M + 1) ** d
    assert classes[0][2] == (M + 1,) * d and len(classes) == (1 if M == 0 else d + 1)


def test_d3_routing_follows_the_torus_factor_budget(monkeypatch):
    ball = classify(Ball([0.0] * 3, 1.0), 1 / 6)
    off = classify(Ball([0.3, -0.2, 0.15], 0.7), 1 / 6)  # no mirror: one whole-layer factor
    for dom, pts, axes in [(ball, [(0, 0, 0), (1, -2, 3)], [0, 1, 2]), (off, [(2, -1, 1)], [])]:
        solver = TorusCapacitanceSolver(dom)
        A = assemble_precision(dom).matrix
        reference = spla.spsolve(A.tocsc(), np.eye(dom.n_rh)[:, dom.rh_indices(pts)]).reshape(dom.n_rh, -1)
        for budget, route in [(8 * solver.fill, "torus-capacitance"), (8 * solver.fill - 1, "superlu")]:
            monkeypatch.setattr(green, "DIRECT_FACTOR_BUDGET", budget)
            prec = assemble_precision(dom)
            table = green_columns(prec, pts)
            assert table.max_residual <= 1e-8 and _relative(table.values.T, reference) <= 1e-12
            assert prec.route == route
            if route == "superlu":
                assert prec.route_reason == f"torus class factors of {8 * solver.fill} bytes above DIRECT_FACTOR_BUDGET"
                assert prec.sectors == {}
            else:
                assert (prec.route_reason, prec.factor_fill) == ("", solver.fill)
                assert prec.sectors == {"symmetric_axes": axes, "class_sizes": solver.class_sizes}
        assert axes or solver.class_sizes == [solver.m]
    monkeypatch.undo()
    # a perturbed matrix: the probe refuses it
    prec = assemble_precision(ball)
    perturbed = PrecisionMatrix(domain=ball, matrix=(prec.matrix * (1.0 + 1e-6)).tocsr(), raw=prec.raw)
    monkeypatch.setattr(TorusCapacitanceSolver, "factorize", lambda self: pytest.fail("refused matrix was factorized"))
    assert green_columns(perturbed, [(0, 0, 0), (1, -2, 3)]).max_residual <= 1e-8
    assert perturbed.route == "superlu" and "probe mismatch" in perturbed.route_reason


def test_d2_routing_follows_the_torus_factor_budget(monkeypatch):
    # a long strip, not a centred box: its four class factors would take
    # 0.31 GiB, above the budget, so it goes to SuperLU without building them
    strip = classify(Box([(0, 400), (0, 1)]), 1 / 8)
    fill = TorusCapacitanceSolver(strip).fill
    monkeypatch.setattr(TorusCapacitanceSolver, "factorize", lambda self: pytest.fail("factors above the budget"))
    prec = assemble_precision(strip)
    assert green_columns(prec, [strip.rh_points[0], strip.rh_points[strip.n_rh // 2]]).max_residual <= 1e-8
    reason = f"torus class factors of {8 * fill} bytes above DIRECT_FACTOR_BUDGET"
    assert (prec.route, prec.route_reason, prec.sectors) == ("superlu", reason, {})
    monkeypatch.undo()
    # a disk at the budget and just above it
    disk = classify(Ball([0.0, 0.0], 1.0), 1 / 16)
    fill = TorusCapacitanceSolver(disk).fill
    for budget, route in [(8 * fill, "torus-capacitance"), (8 * fill - 1, "superlu")]:
        monkeypatch.setattr(green, "DIRECT_FACTOR_BUDGET", budget)
        prec = assemble_precision(disk)
        assert green_columns(prec, [(0, 0), (3, -5)]).max_residual <= 1e-8
        assert prec.route == route


def test_disk_class_factors_hold_at_most_a_third_of_the_whole_layer():
    solver = TorusCapacitanceSolver(classify(Ball([0.0, 0.0], 1.0), 1 / 64))
    assert len(solver.class_sizes) == 3
    assert solver.fill <= solver.m**2 / 3
