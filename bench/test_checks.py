"""Each benchmark check passes on correct output and fails on corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from membrane import boxsolve, green, infvol, lattice, sampler, spectral  # noqa: E402
from run import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def box2():
    return green.assemble_precision(lattice.classify(lattice.unit_box(2), 1.0 / 12))


@pytest.fixture(scope="module")
def table(box2):
    pts = [(0, 0), (3, -2), (-9, 9), (5, 7)]
    return green.green_columns(box2, pts)


def test_column_residual_fails_for_perturbed_matrix(box2, table):
    assert checks.column_residual(box2.matrix, table)[0]
    perturbed = green.PrecisionMatrix(
        domain=box2.domain, matrix=(box2.matrix * (1.0 + 1e-6)).tocsr(), raw=box2.raw
    )
    wrong = green.green_columns(perturbed, table.column_points)
    assert not checks.column_residual(box2.matrix, wrong)[0]


def test_column_symmetry_fails_for_scaled_column(table):
    assert checks.column_symmetry(table)[0]
    bad = green.GreenTable(table.domain, "columns", table.values.copy(), table.column_points)
    bad.values[1] *= 1.001
    assert not checks.column_symmetry(bad)[0]


def test_columns_agree_with_box_route_and_fail_when_off(box2, table):
    dom = box2.domain
    rhs = np.zeros((dom.n_rh, len(table.column_points)))
    for j, p in enumerate(table.column_points):
        rhs[dom.rh_index_of(p), j] = 1.0
    x, _ = boxsolve.CenteredBoxSolver(2, 10).solve(rhs, tol=1e-13)
    assert checks.agree("columns", table.values, x.T)[0]
    assert not checks.agree("columns", table.values * (1 + 1e-6), x.T)[0]
    assert not checks.agree("columns", table.values[:2], x.T)[0]


def test_draw_covariance_fails_for_wrong_scale(box2):
    dom = box2.domain
    draws = np.stack([s.values for s in sampler.sample(box2, seed=3, count=200)])
    rng = np.random.default_rng(0)
    W = np.zeros((6, dom.n_rh))
    for row in W:
        row[rng.choice(dom.n_rh, size=4, replace=False)] = rng.standard_normal(4)
    cov = W @ np.linalg.solve(box2.matrix.toarray(), W.T)
    assert checks.draw_covariance(draws, W, cov)[0]
    assert not checks.draw_covariance(np.sqrt(2.0) * draws, W, cov)[0]
    assert not checks.draw_covariance(draws / np.sqrt(2.0), W, cov)[0]


@pytest.fixture(scope="module")
def field(box2):
    return sampler.InterpolatedField(sampler.sample(box2, seed=5, count=1)[0], 12)


def test_simplex_interpolation_matches_and_detects_wrong_split(field):
    pts = np.random.default_rng(1).uniform(-1, 1, size=(300, 2))
    grid = field.sample.on_grid()
    origin = field.sample.domain.origin
    got = field.evaluate_many(pts)
    assert checks.agree("interpolation", got, checks.simplex_interpolate(grid, origin, 12, pts), 1e-12)[0]
    # the same field split along the other cell diagonal: mirror axis 0
    mirrored = checks.simplex_interpolate(np.flip(grid, axis=0), origin, 12, pts * [-1, 1])
    assert not checks.agree("interpolation", got, mirrored, 1e-12)[0]


def test_lattice_point_identity_fails_for_shifted_interpolant(field):
    pts = [(0, 0), (3, 4), (-10, 2)]
    assert checks.lattice_point_identity(field, pts)[0]

    class Shifted(sampler.InterpolatedField):
        def evaluate(self, t):
            return super().evaluate(np.asarray(t) + 0.3 / self.N)

    assert not checks.lattice_point_identity(Shifted(field.sample, 12), pts)[0]


def test_eigenpairs_fail_for_scaled_spectrum_or_broken_basis():
    prec = green.assemble_precision(lattice.classify(lattice.unit_box(2), 1.0 / 10))
    basis = spectral.eigendecompose(prec, 12)
    assert checks.eigenpairs(prec.raw, basis)[0]
    scaled = spectral.SpectralBasis(basis.domain, 2.0 * basis.lambdas, basis.vectors)
    assert not checks.eigenpairs(prec.raw, scaled)[0]
    mixed = basis.vectors.copy()
    mixed[:, 1] += 1e-3 * mixed[:, 0]
    assert not checks.eigenpairs(prec.raw, spectral.SpectralBasis(basis.domain, basis.lambdas, mixed))[0]


def test_range_and_monotone_checks():
    assert checks.in_range("x", 1.6, 1.5, 2.1)[0]
    assert not checks.in_range("x", 1.49, 1.5, 2.1)[0]
    assert checks.errors_decrease([(1 / 8, 0.4), (1 / 16, 0.2), (1 / 32, 0.1)])[0]
    assert not checks.errors_decrease([(1 / 8, 0.4), (1 / 16, 0.2), (1 / 32, 0.25)])[0]
    assert not checks.errors_decrease([(1 / 8, 0.4)])[0]
    assert checks.within_relative("v", 23.4, 23.3245, 0.05)[0]
    assert not checks.within_relative("v", 1.1 * 23.3245, 23.3245, 0.05)[0]


@pytest.fixture(scope="module")
def fourier5():
    targets = [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 2], [0, 0, 0, 1, 1]]
    plan = infvol.FourierCovariance(d=5, levels=16, order=4)
    vals = infvol.green_infinite_fourier_many(targets, plan=plan)
    keys = [tuple(t) for t in targets]
    return targets, dict(zip(keys, [v.value for v in vals])), dict(zip(keys, [v.error for v in vals]))


def test_green_identity_fails_for_scaled_values(fourier5):
    _, values, errors = fourier5
    stencil = lattice.stencil_weights("bilaplacian", 5)
    assert checks.green_identity(stencil, values, errors)[0]
    assert not checks.green_identity(stencil, {k: 1.01 * v for k, v in values.items()}, errors)[0]


def test_walk_probabilities_match_enumeration():
    d, M = 2, 6
    steps = [np.eye(d, dtype=int)[i] * s for i in range(d) for s in (1, -1)]
    counts = {}
    for m in range(M + 1):
        for walk in product(steps, repeat=m):
            x = tuple(np.sum(walk, axis=0)) if m else (0,) * d
            counts[(m, x)] = counts.get((m, x), 0) + 1
    for x in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        p = checks.walk_probabilities(x, M, d)
        want = [counts.get((m, x), 0) / (2 * d) ** m for m in range(M + 1)]
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=0)


def test_walks_match_exact_sum_and_detect_wrong_weighting(fourier5):
    targets, values, errors = fourier5
    oracle = infvol.WalkOracle(d=5, n_walks=20_000, max_steps=40, seed=4, batch=20_000)
    walk = infvol.walk_estimate(oracle, targets)
    exact = np.array([checks.truncated_green(x, 40) for x in targets])
    assert checks.walk_matches_exact(walk.estimates, walk.standard_errors, exact)[0]
    # the simple random walk's Green function sum_m P[S_m = x] lacks the m+1 weight
    visits = np.array([checks.walk_probabilities(x, 40).sum() for x in targets])
    assert not checks.walk_matches_exact(walk.estimates, walk.standard_errors, visits)[0]
    four = np.array([values[tuple(x)] for x in targets])
    err = np.array([errors[tuple(x)] for x in targets])
    assert checks.fourier_above_truncated(four, err, exact)[0]
    assert not checks.fourier_above_truncated(0.9 * four, err, exact)[0]


def test_tracer_self_times_subtract_children():
    tr = Tracer(True)
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10_000))
    spans = tr.spans
    inner = spans[1]["end"] - spans[1]["start"]
    outer = spans[0]["end"] - spans[0]["start"]
    assert spans[1]["parent"] == 0
    t = tr.self_times()
    assert t["inner"] == pytest.approx(inner)
    assert t["outer"] == pytest.approx(outer - inner)
    assert Tracer(False).span("x").__enter__() is None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
