import numpy as np
import pytest

from membrane.green import assemble_precision, green_full
from membrane.lattice import classify, unit_box
from membrane.sampler import (
    FieldSample,
    InterpolatedField,
    exact_increment_variance,
    increment_weight_vector,
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
            verts, wts = simplex_weights(t, 16, d)
            assert wts.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(wts >= -1e-12)
            recon = sum(w * np.asarray(v) for v, w in zip(verts, wts)) / 16.0
            assert np.allclose(recon, t, atol=1e-12)


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


def test_increment_weight_vector_cancels_at_t_equals_s():
    combo = increment_weight_vector([0.13, 0.4], [0.13, 0.4], 16, 2)
    assert all(abs(w) < 1e-15 for w in combo.values())


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
