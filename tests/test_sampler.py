import numpy as np
import pytest

from membrane import green
from membrane.green import assemble_precision, factorize_spd, green_columns, green_full
from membrane.lattice import classify, unit_box
from membrane.sampler import (
    FieldSample,
    InterpolatedField,
    exact_increment_variance,
    increment_pairs,
    increment_weights,
    ks_distance,
    max_scaling,
    MIN_FIT_PAIRS,
    moment_exponent,
    rescaled_max,
    sample,
    simplex_weights,
)


@pytest.fixture(scope="module")
def box16():
    dom = classify(unit_box(2), 1 / 16)
    prec = assemble_precision(dom)
    table = green_full(prec)
    return dom, prec, table


def test_sample_count_zero(box16):
    _, prec, _ = box16
    assert sample(prec, seed=0, count=0) == []


def test_sample_reproducible_across_calls(box16):
    _, prec, _ = box16
    a = sample(prec, seed=42, count=2)
    b = sample(prec, seed=42, count=2)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    assert not np.array_equal(a[0].values, a[1].values)


def test_sampler_law_center_variance(box16):
    dom, prec, table = box16
    n = 2000
    samples = sample(prec, seed=9, count=n)
    vals = np.stack([s.values for s in samples])
    i0 = dom.rh_index_of((0, 0))
    exact = table.values[i0, i0]
    emp = vals[:, i0].var()
    band = exact * np.sqrt(2.0 / n) * 3
    assert abs(emp - exact) <= band


def test_sampler_law_linear_functionals(box16):
    dom, prec, table = box16
    n = 2000
    samples = sample(prec, seed=10, count=n)
    vals = np.stack([s.values for s in samples])
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.standard_normal(dom.n_rh)
        exact = float(w @ table.values @ w)
        emp = (vals @ w).var()
        assert abs(emp - exact) <= 3 * exact * np.sqrt(2.0 / n)


def test_sampler_empirical_covariance_matrix(box16):
    dom, prec, table = box16
    n = 2000
    samples = sample(prec, seed=11, count=n)
    vals = np.stack([s.values for s in samples])
    emp = (vals.T @ vals) / n
    G = table.values
    # per-entry standard error of a Gaussian sample covariance
    se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G**2) / n)
    z = np.abs(emp - G) / se
    # max over ~700k entries of |z| concentrates near 5; 6.5 leaves slack
    assert z.max() <= 6.5


# ---------------------------------------------------------------------------
# interpolation

def test_lattice_point_identity(box16):
    dom, prec, _ = box16
    s = sample(prec, seed=3, count=1)[0]
    f = InterpolatedField(s, 16)
    for p in [(0, 0), (3, -5), (13, 13)]:
        t = np.array(p) / 16.0
        expect = f.prefactor * s.values[dom.rh_index_of(p)]
        assert f.evaluate(t) == pytest.approx(expect, abs=1e-14)


def test_points_of_another_length_are_refused(box16):
    _, prec, _ = box16
    f = InterpolatedField(sample(prec, seed=3, count=1)[0], 16)
    for bad in (np.zeros((4, 3)), np.full((3, 1), 0.25), np.zeros((2, 2, 4))):
        with pytest.raises(ValueError, match="last axis"):
            f.evaluate_many(bad)
    for bad in ([0.3], [0.1, 0.2, 0.3, 0.4]):
        with pytest.raises(ValueError, match="last axis"):
            f.evaluate(bad)
    assert f.evaluate_many(np.zeros((0, 2))).shape == (0,)
    grid = np.full((2, 3, 2), 0.25)
    assert f.evaluate_many(grid).shape == (2, 3)
    assert np.array_equal(f.evaluate_many(grid).reshape(-1), f.evaluate_many(grid.reshape(-1, 2)))


def test_boundary_evaluates_to_zero(box16):
    _, prec, _ = box16
    f = InterpolatedField(sample(prec, seed=3, count=1)[0], 16)
    assert f.evaluate([1.0, 0.3]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        f.evaluate([1.2, 0.0])


def test_diagonal_branches_agree(box16):
    # on the cell diagonal the two triangle formulas coincide
    dom, prec, _ = box16
    s = sample(prec, seed=4, count=1)[0]
    f = InterpolatedField(s, 16)
    N = 16
    kappa = 1.0 / 4.0

    def phi(p):
        i = dom.rh_index_of(p)
        return 0.0 if i < 0 else s.values[i]

    for (ax, ay) in [(0, 0), (2, -3), (-5, 1)]:
        for frac in (0.25, 0.5, 0.75):
            t = np.array([(ax + frac) / N, (ay + frac) / N])
            a = (ax, ay)
            b = (ax + 1, ay)
            c = (ax + 1, ay + 1)
            dd = (ax, ay + 1)
            lower = (1 - frac) * phi(a) + 0.0 * phi(b) + frac * phi(c)
            upper = (1 - frac) * phi(a) + 0.0 * phi(dd) + frac * phi(c)
            assert lower == pytest.approx(upper, abs=1e-12)
            assert f.evaluate(t) == pytest.approx(kappa / N * lower, abs=1e-12)


def test_centroid_value(box16):
    dom, prec, _ = box16
    s = sample(prec, seed=5, count=1)[0]
    f = InterpolatedField(s, 16)
    N = 16

    def phi(p):
        i = dom.rh_index_of(p)
        return 0.0 if i < 0 else s.values[i]

    a, b, c = (1, 2), (2, 2), (2, 3)  # lower triangle a, a+e1, a+e1+e2
    t = (np.array(a) + np.array(b) + np.array(c)) / (3.0 * N)
    expect = (1.0 / (2 * 2)) / N * (phi(a) + phi(b) + phi(c)) / 3.0
    assert f.evaluate(t) == pytest.approx(expect, abs=1e-13)


def test_face_continuity_sweep(box16):
    dom, prec, _ = box16
    s = sample(prec, seed=6, count=1)[0]
    f = InterpolatedField(s, 16)
    N = 16
    rng = np.random.default_rng(2)
    eps = 1e-10
    scale = np.abs(s.values).max() * f.prefactor
    for _ in range(60):
        k = rng.integers(-14, 14, size=2)
        frac = rng.uniform(0.1, 0.9)
        for axis in (0, 1):
            t = k / N
            t = t.astype(float)
            t[1 - axis] += frac / N  # midpoint of a vertical/horizontal cell face
            lo = t.copy()
            hi = t.copy()
            lo[axis] -= eps
            hi[axis] += eps
            assert abs(f.evaluate(lo) - f.evaluate(hi)) <= 1e-6 * max(scale, 1e-12)
            # the field is affine along the face itself
            assert abs(f.evaluate(t) - 0.5 * (f.evaluate(lo) + f.evaluate(hi))) <= 1e-6 * max(scale, 1e-12)


def test_simplex_weights_sum_to_one():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        for _ in range(50):
            t = rng.uniform(-1, 1, size=d)
            verts, wts = simplex_weights(t, 16)
            assert wts.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(wts >= -1e-12)
            recon = sum(w * np.asarray(v) for v, w in zip(verts, wts)) / 16.0
            assert np.allclose(recon, t, atol=1e-12)


def _evaluate_per_point(f, t):
    """Psi_N(t) by the one-point formula, vertex by vertex (reference)."""
    d, N = f.d, f.N
    grid = f.sample.on_grid()
    origin = f.sample.domain.origin
    p = np.asarray(t, dtype=float) * N
    a = np.floor(p).astype(np.int64)
    frac = p - a
    order = np.argsort(-frac, kind="stable")
    v = a.copy()
    fs = frac[order]
    wts = [1.0 - fs[0]] + [fs[k - 1] - fs[k] for k in range(1, d)] + [fs[d - 1]]
    acc = 0.0
    for k in range(d + 1):
        if k:
            v[order[k - 1]] += 1
        loc = v - origin
        inside = np.all(loc >= 0) and np.all(loc < grid.shape)
        if wts[k] != 0.0:
            acc += wts[k] * (float(grid[tuple(loc)]) if inside else 0.0)
    return f.prefactor * acc


@pytest.mark.parametrize("d,N", [(2, 12), (3, 6)])
def test_evaluate_many_equals_per_point_loop(d, N):
    prec = assemble_precision(classify(unit_box(d), 1 / N))
    f = InterpolatedField(sample(prec, seed=4, count=1)[0], N)
    rng = np.random.default_rng(31 + d)
    random = rng.uniform(-1, 1, size=(200, d))
    lattice = rng.integers(-N, N + 1, size=(40, d)) / N
    tied = np.repeat(rng.uniform(-1, 1, size=(40, 1)), d, axis=1)  # equal fractional parts
    tied[20:, 0] += 2.0 / N
    faces = rng.uniform(-1, 1, size=(40, d))
    faces[np.arange(40), rng.integers(0, d, size=40)] = rng.choice([-1.0, 1.0], size=40)
    for pts in (random, lattice, tied, faces):
        pts = np.clip(pts, -1.0, 1.0)
        want = np.array([_evaluate_per_point(f, t) for t in pts])
        assert np.array_equal(f.evaluate_many(pts), want)
        assert np.array_equal([f.evaluate(t) for t in pts], want)
    bad = random.copy()
    bad[17, d - 1] = 1.01
    with pytest.raises(ValueError, match="outside"):
        f.evaluate_many(bad)
    with pytest.raises(ValueError, match="outside"):
        f.evaluate(bad[17])


def test_affine_within_simplex(box16):
    _, prec, _ = box16
    f = InterpolatedField(sample(prec, seed=12, count=1)[0], 16)
    # points inside one simplex: convexity of evaluation
    t0 = np.array([0.51 / 16, 0.17 / 16])
    t1 = np.array([0.76 / 16, 0.29 / 16])
    mid = 0.5 * (t0 + t1)
    assert f.evaluate(mid) == pytest.approx(
        0.5 * (f.evaluate(t0) + f.evaluate(t1)), abs=1e-13
    )


# ---------------------------------------------------------------------------
# rescaled maximum

def _zero_sample(dom):
    return FieldSample(domain=dom, values=np.zeros(dom.n_rh), seed=0, stream=0)


def test_rescaled_max_zero_field(box16):
    dom, _, _ = box16
    assert rescaled_max(_zero_sample(dom), 2, 16) == 0.0


def test_rescaled_max_single_spike(box16):
    dom, _, _ = box16
    s = _zero_sample(dom)
    s.values[dom.rh_index_of((3, 3))] = 2.5
    assert rescaled_max(s, 2, 16) == pytest.approx((1 / 4) * 16 ** (-1.0) * 2.5)


def test_rescaled_max_equals_dense_mesh_sup(box16):
    dom, prec, _ = box16
    s = sample(prec, seed=13, count=1)[0]
    f = InterpolatedField(s, 16)
    N = 16
    ax = np.arange(-4 * N, 4 * N + 1) / (4.0 * N)
    best = -np.inf
    for x in ax:
        row = np.stack([np.full_like(ax, x), ax], axis=-1)
        best = max(best, f.evaluate_many(row).max())
    target = rescaled_max(s, 2, N)
    assert best == pytest.approx(target, abs=1e-12)


def test_ks_distance_basic():
    a = np.array([0.0, 1.0, 2.0])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(np.zeros(4), np.ones(4)) == 1.0


def test_max_scaling_smoke():
    rep = max_scaling(2, [8, 12], count=60, seed=21)
    assert set(rep.maxima) == {8, 12}
    assert rep.ks <= 0.35  # coarse scales, small sample: loose stability only
    assert np.all(rep.maxima[8] > 0)


# ---------------------------------------------------------------------------
# exact increment variance

def test_increment_variance_zero_at_equal_points(box16):
    _, _, table = box16
    assert exact_increment_variance(table, [0.1, 0.2], [0.1, 0.2], 2, 16) == 0.0


def test_increment_variance_lattice_pair_formula(box16):
    dom, _, table = box16
    N, d = 16, 2
    t = np.array([2, 3]) / N
    s = np.array([-1, 5]) / N
    got = exact_increment_variance(table, t, s, d, N)
    kappa2 = (1.0 / (2 * d)) ** 2
    pref = kappa2 * float(N) ** (d - 4)
    a, b = (2, 3), (-1, 5)
    expect = pref * (table.at(a, a) - 2 * table.at(a, b) + table.at(b, b))
    assert got == pytest.approx(expect, rel=1e-12)


def test_increment_weights_cancel_at_t_equals_s(box16):
    dom, _, _ = box16
    W = increment_weights(np.array([[0.13, 0.4]]), np.array([[0.13, 0.4]]), 16, dom)
    assert W.shape == (dom.n_rh, 1) and not W.data.any()


def test_increment_variance_needs_a_full_table(box16):
    _, prec, _ = box16
    with pytest.raises(ValueError, match="full covariance table"):
        exact_increment_variance(green_columns(prec, [(0, 0)]), [0.1, 0.2], [0.3, 0.2], 2, 16)


def test_moment_exponent_quick():
    # at N = 16 the d=2 window [2/N, 1/8] is empty: refuse rather than fit
    # a constant abscissa
    with pytest.raises(ValueError, match="window"):
        moment_exponent(assemble_precision(classify(unit_box(2), 1 / 16)), 2, 16, n_pairs=80, seed=3)
    fit = moment_exponent(assemble_precision(classify(unit_box(2), 1 / 32)), 2, 32, n_pairs=80, seed=3)
    assert 1.2 <= fit.exponent <= 2.2
    assert len(fit.distances) == 80
    assert MIN_FIT_PAIRS <= fit.n_kept <= 80
    assert fit.distances.min() < 0.9 * fit.distances.max()
    with pytest.raises(ValueError, match="positive second moment"):
        moment_exponent(assemble_precision(classify(unit_box(2), 1 / 32)), 2, 32, n_pairs=MIN_FIT_PAIRS - 1)


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_moment_exponent_matches_covariance_table(d, N):
    # one solve per pair against the column route over the full table
    prec = assemble_precision(classify(unit_box(d), 1 / N))
    r_min, r_max = 1.0 / N, 0.25
    fit = moment_exponent(prec, d, N, n_pairs=40, seed=11, r_min=r_min, r_max=r_max)
    table = green_full(prec)
    ts, ss = increment_pairs(d, 40, 11, r_min, r_max)
    want = np.array([exact_increment_variance(table, t, s, d, N) for t, s in zip(ts, ss)])
    assert np.all(want > 0)
    assert np.abs(fit.second_moments - want).max() <= 1e-12 * want.max()
    assert np.array_equal(fit.distances, np.linalg.norm(ts - ss, axis=1))  # the same pairs
    assert fit.max_residual <= 1e-8


def test_moment_exponent_solves_one_column_per_pair_in_any_batching(monkeypatch):
    prec = assemble_precision(classify(unit_box(2), 1 / 32))
    lu = factorize_spd(prec.matrix)
    widths = []

    def counting(rhs):  # column by column: SuperLU's BLAS-3 rounding depends on the block width
        widths.append(rhs.shape[1])
        return np.column_stack([lu.solve(b) for b in rhs.T])

    prec._solver = counting
    whole = moment_exponent(prec, 2, 32, n_pairs=80, seed=3)
    assert widths == [80]
    widths.clear()
    monkeypatch.setattr(green, "RHS_FLOAT_BUDGET", 7 * prec.n)
    batched = moment_exponent(prec, 2, 32, n_pairs=80, seed=3)
    assert widths == [7] * 11 + [3]
    assert np.array_equal(batched.second_moments, whole.second_moments)
    assert batched.exponent == whole.exponent


def test_moment_exponent_raises_on_nan_solve():
    prec = assemble_precision(classify(unit_box(2), 1 / 32))
    prec._solver = lambda rhs: np.full(np.shape(rhs), np.nan)
    with pytest.raises(RuntimeError, match="residual"):
        moment_exponent(prec, 2, 32, n_pairs=40, seed=3)


def _d3_increment_constant(N, seed=17):
    """max E|Psi(t)-Psi(s)|^2 / |t-s| over lattice pairs in the bulk."""
    from membrane.green import green_columns

    d = 3
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    rng = np.random.default_rng(seed)
    half = N - 2
    sources = [tuple(rng.integers(-half // 2, half // 2 + 1, size=d)) for _ in range(4)]
    pairs = []
    pts = set(sources)
    for a in sources:
        for _ in range(12):
            r = np.exp(rng.uniform(np.log(2.0 / N), np.log(0.25)))
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            b = tuple((np.asarray(a) + np.rint(N * r * u).astype(int)).tolist())
            if b != a and all(abs(v) <= half for v in b):
                pairs.append((a, b))
                pts.add(b)
    pts = sorted(pts)
    table = green_columns(prec, pts)
    row = {tuple(p): i for i, p in enumerate(table.column_points)}
    kappa2 = (1.0 / (2 * d)) ** 2
    pref = kappa2 * float(N) ** (d - 4)
    worst = 0.0
    for a, b in pairs:
        jb = dom.rh_index_of(b)
        ja = dom.rh_index_of(a)
        e2 = pref * (
            table.values[row[a], ja]
            - 2.0 * table.values[row[a], jb]
            + table.values[row[b], jb]
        )
        r = np.linalg.norm(np.subtract(a, b)) / N
        worst = max(worst, e2 / r)
    return worst


def test_d3_increment_bound_constant_stable():
    # E|increment|^2 / distance stays bounded with an N-stable constant
    consts = [_d3_increment_constant(N) for N in (8, 16, 32)]
    assert all(np.isfinite(consts)) and all(c > 0 for c in consts)
    assert max(consts) / min(consts) <= 2.0


@pytest.mark.parametrize("Ns", [[], [8], [8, 8], [8, 12, 8], [8, 12, 12]])
def test_max_scaling_needs_distinct_scales(Ns):
    """The KS distance compares the first scale with the last, so one scale would read 0 by construction;
    the maxima are kept per scale, so a repeated scale would overwrite the draws of its first stream."""
    with pytest.raises(ValueError, match="distinct"):
        max_scaling(2, Ns, count=5, seed=1)
