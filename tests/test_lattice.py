import itertools
import math

import numpy as np
import pytest

from membrane.lattice import (
    Ball,
    Box,
    CLASS_BH,
    CLASS_BHSTAR,
    CLASS_RHSTAR,
    _shifted_slices,
    apply_stencil_array,
    assemble,
    axis_classes,
    classify,
    field_on_grid,
    neighborhood_offsets,
    shape_from_config,
    stencil_weights,
    unit_box,
    verify_b2star,
)
from membrane.thomee import lh2_apply


def brute_force_classes(shape, h):
    """Independent classification by literal point-by-point membership tests."""
    d = shape.dimension
    lo, hi = shape.bounding_box()
    kmin = np.floor(lo / h).astype(int) - 3
    kmax = np.ceil(hi / h).astype(int) + 3
    offsets = neighborhood_offsets(d)

    def inside(k):
        return bool(shape.contains(np.array(k, dtype=float) * h))

    vh = set()
    for k in itertools.product(*[range(a, b + 1) for a, b in zip(kmin, kmax)]):
        if inside(k):
            vh.add(k)
    rh = {k for k in vh if all(tuple(np.add(k, o)) in vh for o in offsets)}
    rhstar = {k for k in rh if all(tuple(np.add(k, o)) in rh for o in offsets)}
    return vh, rh, rhstar


@pytest.mark.parametrize(
    "shape,h",
    [
        (unit_box(2), 0.5),
        (unit_box(2), 0.25),
        (Ball([0.0, 0.0], 1.0), 1 / 6),
        (Box([(-1.0, 1.0), (-0.5, 0.5)]), 0.25),
        (Ball([0.0, 0.0, 0.0], 1.0), 1 / 4),
    ],
)
def test_classification_matches_brute_force(shape, h):
    dom = classify(shape, h)
    vh, rh, rhstar = brute_force_classes(shape, h)
    got_vh = {tuple(p) for p in dom.points}
    assert got_vh == vh
    got_rh = {tuple(p) for p in dom.rh_points}
    assert got_rh == rh
    got_rhstar = {tuple(p) for p in dom.points[dom.classes == CLASS_RHSTAR]}
    assert got_rhstar == rhstar


def test_box_5x5_example():
    dom = classify(unit_box(2), 0.5)
    c = dom.counts()
    assert c["V_h"] == 25
    assert c["B_h"] == 24
    assert c["R_h"] == 1
    assert tuple(dom.rh_points[0]) == (0, 0)


def test_partition_is_disjoint_and_complete():
    for shape, h in [(unit_box(2), 1 / 8), (Ball([0, 0], 1.0), 1 / 8)]:
        dom = classify(shape, h)
        c = dom.counts()
        assert c["B_h"] + c["B_h*"] + c["R_h*"] == c["V_h"]
        assert c["B_h*"] + c["R_h*"] == c["R_h"]


def test_point_ordering_lexicographic_and_stable():
    dom1 = classify(Ball([0.0, 0.0], 1.0), 1 / 8)
    dom2 = classify(Ball([0.0, 0.0], 1.0), 1 / 8)
    assert np.array_equal(dom1.points, dom2.points)
    order = np.lexsort(dom1.points.T[::-1])
    assert np.array_equal(order, np.arange(len(dom1.points)))


def test_disk_deep_points_are_interior():
    # the neighbourhood has sup-norm radius 2h, so depth > 3h is safely interior
    h = 1 / 16
    dom = classify(Ball([0.0, 0.0], 1.0), h)
    rh = {tuple(p) for p in dom.rh_points}
    for p in dom.points:
        x = p * h
        if np.linalg.norm(x) < 1.0 - 3 * h:
            assert tuple(p) in rh


def test_nested_grids_never_demote_interior_points():
    # on a box, a shared grid point of the h/2 grid keeps (or gains) interiority
    h = 1 / 4
    dom_coarse = classify(unit_box(2), h)
    dom_fine = classify(unit_box(2), h / 2)
    fine_rhstar = {tuple(p) for p in dom_fine.points[dom_fine.classes == CLASS_RHSTAR]}
    fine_bh = {tuple(p) for p in dom_fine.points[dom_fine.classes == CLASS_BH]}
    for p, c in zip(dom_coarse.points, dom_coarse.classes):
        if c == CLASS_RHSTAR:
            assert tuple(2 * p) not in fine_bh
            assert tuple(2 * p) in fine_rhstar


def test_degenerate_discretization_raises():
    with pytest.raises(ValueError):
        classify(Ball([10.5, 10.5], 0.1), 1.0)


def test_empty_interior_flag():
    dom = classify(Ball([0.0, 0.0], 0.25), 0.2)
    assert dom.empty_interior or dom.n_rh > 0  # flag set when R_h is empty
    tiny = classify(Ball([0.0, 0.0], 0.21), 0.2)
    assert tiny.empty_interior


# ---------------------------------------------------------------------------
# stencils

def test_bilaplacian_stencil_d2():
    st = {o: float(c) for o, c in stencil_weights("bilaplacian", 2).items()}
    assert st[(0, 0)] == 20
    for e in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert st[e] == -8
    for e in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert st[e] == 2
    for e in [(2, 0), (-2, 0), (0, 2), (0, -2)]:
        assert st[e] == 1
    assert sum(st.values()) == 0


def test_bilaplacian_stencil_d1():
    st = {o: float(c) for o, c in stencil_weights("bilaplacian", 1).items()}
    assert st == {(0,): 6, (1,): -4, (-1,): -4, (2,): 1, (-2,): 1}


def test_delta1_stencil_d3():
    st = stencil_weights("delta1", 3)
    from fractions import Fraction

    assert st[(0, 0, 0)] == Fraction(-1)
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        assert st[tuple(e)] == Fraction(1, 6)
    assert sum(st.values()) == 0


def test_bilaplacian_center_general_d():
    for d in range(1, 6):
        st = stencil_weights("bilaplacian", d)
        assert st[(0,) * d] == 4 * d * d + 2 * d
        assert sum(st.values()) == 0


def test_stencil_symmetry_under_signed_permutations():
    st = stencil_weights("bilaplacian", 3)
    for off, c in st.items():
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1, -1), repeat=3):
                image = tuple(signs[i] * off[perm[i]] for i in range(3))
                assert st[image] == c


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("first", [0, 1])
def test_axis_classes_carry_the_representative_onto_every_subset_once(d, first):
    # class j holds C(d - first, j) permutations fixing the axes below first;
    # transposed by sigma, the representative's marked axes first..first+j-1
    # land on S, each j-subset S of first..d-1 once, in combinations order,
    # with S and the rest each in increasing order (the order of the sums of
    # the shell quadrature)
    classes = axis_classes(d, first)
    assert len(classes) == d - first + 1
    for j, perms in enumerate(classes):
        assert len(perms) == len(set(perms)) == math.comb(d - first, j)
        images = []
        for sigma in perms:
            assert sorted(sigma) == list(range(d)) and list(sigma[:first]) == list(range(first))
            S = tuple(i for i in range(d) if first <= sigma[i] < first + j)
            rest = [i for i in range(first, d) if i not in S]
            assert [sigma[i] for i in S] == list(range(first, first + j))
            assert [sigma[i] for i in rest] == list(range(first + j, d))
            images.append(S)
        assert images == list(itertools.combinations(range(first, d), j))
    if first == 0:  # the parity classes of boxsolve, read backwards
        from membrane.boxsolve import parity_classes

        assert [[axes for _, axes in sectors] for _, sectors in parity_classes(d)] == classes[::-1]


# ---------------------------------------------------------------------------
# stencil application and assembly

def test_delta1_annihilates_affine_fields():
    d = 2
    dom = classify(unit_box(d), 1 / 6)
    ax = [np.arange(s) for s in dom.mask_shape]
    mesh = np.meshgrid(*ax, indexing="ij")
    f = 3.0 + 2.0 * mesh[0] - 0.5 * mesh[1]
    out = apply_stencil_array(f, stencil_weights("delta1", d))
    inner = out[2:-2, 2:-2]
    assert np.abs(inner).max() < 1e-12


def test_bilaplacian_kills_constants_in_deep_interior():
    dom = classify(unit_box(2), 1 / 8)
    f = np.ones(dom.mask_shape)
    out = apply_stencil_array(f, stencil_weights("bilaplacian", 2), dom.h**-4)
    # away from the zero-extension edge of the array the result vanishes
    assert np.abs(out[4:-4, 4:-4]).max() < 1e-12


def test_deltah_composition_equals_bilaplacian():
    rng = np.random.default_rng(0)
    dom = classify(unit_box(2), 1 / 8)
    f = rng.standard_normal(dom.mask_shape)
    deltah = stencil_weights("deltah", 2)
    once = apply_stencil_array(f, deltah, dom.h**-2)
    twice = apply_stencil_array(once, deltah, dom.h**-2)
    direct = apply_stencil_array(f, stencil_weights("bilaplacian", 2), dom.h**-4)
    # composition reads zero-extended intermediate values, exact in the bulk
    err = np.abs(twice - direct)[4:-4, 4:-4].max()
    assert err <= 1e-12 * max(1.0, np.abs(direct).max())


def test_bilap1_equals_kappa2_h4_bilaplacian():
    rng = np.random.default_rng(1)
    dom = classify(unit_box(3), 1 / 4)
    f = rng.standard_normal(dom.mask_shape)
    a = apply_stencil_array(f, stencil_weights("bilap1", 3))
    b = apply_stencil_array(f, stencil_weights("bilaplacian", 3), dom.h**-4)
    kappa2 = 1.0 / 36.0
    assert np.abs(a - kappa2 * dom.h**4 * b).max() <= 1e-14 * np.abs(a).max()


def laplacian_sq_exp(x, d):
    # Lap^2 exp(-|x|^2) = exp(-r^2) (16 r^4 - (16 d + 32) r^2 + 4 d^2 + 8 d)
    r2 = float(np.dot(x, x))
    return np.exp(-r2) * (16 * r2 * r2 - (16 * d + 32) * r2 + 4 * d * d + 8 * d)


def test_laplacian_sq_exp_formula_against_nested_differences():
    # validate the closed form itself with nested central second differences
    d = 2
    x = np.array([0.3, -0.2])
    h = 1e-2

    def u(p):
        return np.exp(-np.dot(p, p))

    def lap(p, hh):
        tot = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = hh
            tot += u(p + e) + u(p - e) - 2 * u(p)
        return tot / hh**2

    def lap2(p, hh):
        tot = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = hh
            tot += lap(p + e, hh) + lap(p - e, hh) - 2 * lap(p, hh)
        return tot / hh**2

    rich = (4 * lap2(x, h / 2) - lap2(x, h)) / 3.0
    assert abs(rich - laplacian_sq_exp(x, d)) < 5e-6


def test_discrete_bilaplacian_consistency_order_two():
    d = 2
    errs = []
    hs = [1 / 8, 1 / 16, 1 / 32]
    exact = laplacian_sq_exp(np.zeros(d), d)
    for h in hs:
        R = int(4 / h)
        ax = np.arange(-R, R + 1) * h
        mesh = np.meshgrid(ax, ax, indexing="ij")
        f = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2))
        out = apply_stencil_array(f, stencil_weights("bilaplacian", d), h**-4)
        errs.append(abs(out[R, R] - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.6 < slope < 2.4


def test_lh2_variant_zero_outside_and_scaled_on_inner_band():
    # the boundary-weighted bilaplacian now lives in thomee.lh2_apply
    dom = classify(unit_box(2), 1 / 8)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(dom.n_rh)
    out = field_on_grid(dom, lh2_apply(vals, dom))
    raw = apply_stencil_array(field_on_grid(dom, vals), stencil_weights("bilaplacian", 2), dom.h**-4)
    assert np.abs(out[~dom.rh_mask]).max() == 0.0
    bstar = dom.rh_mask & ~dom.rhstar_mask
    assert bstar.any() and dom.rhstar_mask.any()
    assert np.allclose(out[bstar], dom.h**2 * raw[bstar], rtol=1e-14)
    assert np.allclose(out[dom.rhstar_mask], raw[dom.rhstar_mask], rtol=1e-14)


@pytest.mark.parametrize("variant", ["bilaplacian", "deltah"])
@pytest.mark.parametrize("shape,h", [(Ball([0.0, 0.0], 1.0), 1 / 10), (unit_box(3), 1 / 6)])
def test_assemble_matches_stencil_application(variant, shape, h):
    # the sparse matrix and the array kernel are each other's oracle
    dom = classify(shape, h)
    st = stencil_weights(variant, dom.d)
    v = np.random.default_rng(5).standard_normal(dom.n_rh)
    rh_loc = tuple((dom.rh_points - dom.origin).T)
    want = apply_stencil_array(field_on_grid(dom, v), st)[rh_loc]
    got = assemble(dom, st) @ v
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_direct_csr_assembly_matches_stencil_application(d):
    # boxes, balls and an off-centre box in every d: the CSR arrays built in
    # place apply the stencil, with sorted columns and no duplicate entries
    shapes = [
        (unit_box(d), 1 / 5),
        (Ball([0.0] * d, 1.0), 1 / 4),
        (Ball([0.3] + [-0.2] * (d - 1), 0.8), 1 / 5),
        (Box([(-0.7, 0.9)] + [(-1.0, 0.6)] * (d - 1)), 1 / 5),
    ]
    rng = np.random.default_rng(d)
    for shape, h in shapes:
        dom = classify(shape, h)
        rh_loc = tuple((dom.rh_points - dom.origin).T)
        for variant in ("bilaplacian", "deltah"):
            st = stencil_weights(variant, d)
            A = assemble(dom, st)
            assert A.shape == (dom.n_rh, dom.n_rh)
            assert A.has_sorted_indices and A.has_canonical_format
            v = rng.standard_normal(dom.n_rh)
            want = apply_stencil_array(field_on_grid(dom, v), st)[rh_loc]
            assert np.abs(A @ v - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="2 steps"):
        assemble(classify(unit_box(d), 1 / 5), {(3,) + (0,) * (d - 1): 1})


# ---------------------------------------------------------------------------
# B2* verifier

def test_b2star_unit_disk():
    dom = classify(Ball([0.0, 0.0], 1.0), 1 / 16)
    rep = verify_b2star(dom, K=4)
    assert rep.passed
    assert rep.n_checked > 0
    assert not rep.failures


def test_b2star_square():
    dom = classify(unit_box(2), 1 / 8)
    rep = verify_b2star(dom, K=4)
    assert rep.passed


def test_b2star_vacuous_when_inner_band_empty():
    dom = classify(unit_box(2), 0.5)  # single R_h point, classed B_h*
    # shrink further: a domain whose R_h is empty has no B_h* either
    tiny = classify(Ball([0.0, 0.0], 0.21), 0.2)
    rep = verify_b2star(tiny, K=4)
    assert rep.passed
    assert rep.n_checked == 0


def test_b2star_rejects_bad_K():
    dom = classify(unit_box(2), 0.5)
    with pytest.raises(ValueError):
        verify_b2star(dom, K=0)


def test_rh_indices_refuse_points_of_another_length():
    dom = classify(unit_box(2), 1 / 4)
    assert dom.rh_indices([]).shape == (0,)
    assert dom.rh_indices(np.zeros((0, 2), dtype=int)).shape == (0,)
    assert dom.rh_indices([[1, 1], [9, 9]]).tolist() == [dom.rh_index_of((1, 1)), -1]
    for bad in ([1], [[1]], [1, 1, 1], [[1, 1, 1, 1]], 1):
        with pytest.raises(ValueError, match="last axis"):
            dom.rh_indices(bad)
    with pytest.raises(ValueError, match="last axis"):
        dom.rh_index_of((1,))


def b2star_per_point(domain, K):
    """The per-point ray walk that verify_b2star replaced, as a reference:
    (passed, n_checked, witnesses, failures)."""
    d = domain.d
    bstar_pts = domain.points[domain.classes == CLASS_BHSTAR]
    # B_h membership over the bounding grid
    bh_mask = domain.inside_mask & ~domain.rh_mask
    shape_grid = np.array(domain.mask_shape)

    def is_bh(p: np.ndarray) -> bool:
        q = p - domain.origin
        if np.any(q < 0) or np.any(q >= shape_grid):
            return False
        return bool(bh_mask[tuple(q)])

    witnesses = {}
    failures = []
    for p in bstar_pts:
        found = None
        for axis in range(d):
            for direction in (1, -1):
                run = 0
                for step in range(1, K + 1):
                    q = p.copy()
                    q[axis] += direction * step
                    if is_bh(q):
                        run += 1
                        if run == 2:
                            found = (axis, direction, step - 1)
                            break
                    else:
                        run = 0
                if found:
                    break
            if found:
                break
        if found:
            witnesses[tuple(int(v) for v in p)] = found
        else:
            failures.append(tuple(int(v) for v in p))
    return not failures, len(bstar_pts), witnesses, failures


B2STAR_DOMAINS = {
    "disk-h1/4": (Ball([0.0, 0.0], 1.0), 1 / 4),
    "disk-h1/16": (Ball([0.0, 0.0], 1.0), 1 / 16),
    "disk-h1/256": (Ball([0.0, 0.0], 1.0), 1 / 256),
    "off-centre-ball-d3-h1/24": (Ball([0.3, -0.2, 0.1], 1.0), 1 / 24),
    "ball-d3-h1/6": (Ball([0.0] * 3, 1.0), 1 / 6),
    "cube-d3-h1/12": (unit_box(3), 1 / 12),
    "strip-h1/16": (Box([(0, 1), (0, 0.3)]), 1 / 16),
    "ball-d4-h1/5": (Ball([0.0] * 4, 1.0), 1 / 5),
}


@pytest.mark.parametrize("name", sorted(B2STAR_DOMAINS))
def test_b2star_mask_rays_match_the_per_point_walk(name):
    dom = classify(*B2STAR_DOMAINS[name])
    assert dom.n_rh > 0
    for K in (2, 3, 4, 6, 40):
        passed, n_checked, witnesses, failures = b2star_per_point(dom, K)
        rep = verify_b2star(dom, K=K)
        assert (rep.passed, rep.n_checked, rep.failures) == (passed, n_checked, failures)
        assert list(rep.witnesses.items()) == list(witnesses.items())
        assert all(type(v) is int for p in rep.witnesses.items() for t in p for v in t)


def test_b2star_fails_partly_at_K_2_and_wholly_at_K_1():
    dom = classify(Ball([0.0, 0.0], 1.0), 1 / 16)
    two = verify_b2star(dom, K=2)
    assert 0 < len(two.failures) < two.n_checked and not two.passed
    # a witness pair needs steps t and t + 1 <= K, so K = 1 is refused
    with pytest.raises(ValueError, match="K must be >= 2"):
        verify_b2star(dom, K=1)


@pytest.mark.parametrize("o", [15, 16, 40, -15, -16, -40])
def test_shifted_slices_pair_nothing_past_the_side(o):
    src, dst = _shifted_slices((o, 0), (15, 15))
    a = np.arange(225).reshape(15, 15)
    assert a[src].size == 0 and a[dst].size == 0
    out = np.zeros_like(a)
    out[dst] = a[src]
    assert not out.any()
    assert apply_stencil_array(a.astype(float), {(o, 0): 1}).sum() == 0.0


# ---------------------------------------------------------------------------
# config / export

def test_shape_from_config_roundtrip():
    box = shape_from_config({"kind": "box", "bounds": [[-1, 1], [-1, 1]]})
    assert box.kind == "box"
    ball = shape_from_config({"kind": "ball", "dimension": 3, "radius": 2.0})
    assert ball.kind == "ball" and ball.dimension == 3
    with pytest.raises(ValueError):
        shape_from_config({"kind": "pentagon"})


def test_shape_from_config_refuses_a_dimension_its_geometry_disagrees_with():
    for spec in (
        {"kind": "ball", "dimension": 3, "center": [0.3, -0.2]},
        {"kind": "box", "dimension": 2, "bounds": [[-1, 1]] * 3},
    ):
        with pytest.raises(ValueError, match="axes"):
            shape_from_config(spec)
    assert shape_from_config({"kind": "ball", "dimension": 2, "center": [0.3, -0.2]}).dimension == 2
    assert shape_from_config({"kind": "box", "dimension": 3, "bounds": [[-1, 1]] * 3}).dimension == 3


def test_export_csv(tmp_path):
    dom = classify(unit_box(2), 0.5)
    out = tmp_path / "dom.csv"
    dom.export_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x_1,x_2,class"
    assert len(lines) == 26
    assert sum(1 for ln in lines[1:] if ln.endswith("B_h*")) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_composed_stencils_have_the_symbol_mu(d):
    """The stencils are Delta_1 and its square: sum_o c_o cos(o . theta) is -mu
    for delta1, mu^2 for bilap1 and (2d)^2 mu^2 for bilaplacian, to rounding
    of the cosine sum (a few ulps of sum_o |c_o|)."""
    from membrane.lattice import mu_symbol

    theta = np.random.default_rng(d).uniform(-np.pi, np.pi, size=(64, d))
    mu = mu_symbol(theta.T)
    for variant, count, expect in (
        ("delta1", 2 * d + 1, -mu),
        ("bilap1", 2 * d * d + 2 * d + 1, mu**2),
        ("bilaplacian", 2 * d * d + 2 * d + 1, (2 * d) ** 2 * mu**2),
    ):
        st = stencil_weights(variant, d)
        assert len(st) == count
        value = sum(float(c) * np.cos(theta @ np.array(o)) for o, c in st.items())
        assert np.abs(value - expect).max() <= 1e-14 * sum(abs(float(c)) for c in st.values())
