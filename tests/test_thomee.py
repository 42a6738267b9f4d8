import numpy as np
import pytest

from membrane.green import assemble_precision, solve_green_column
from membrane.lattice import Ball, classify, field_on_grid, unit_box
from membrane.thomee import (
    ManufacturedProblem,
    attach_error,
    backward_error,
    bstar_count_scaling,
    convergence_study,
    grid_norm,
    lh2_apply,
    manufactured_disk,
    poincare_fit,
    sobolev_h2_norm,
    solve_dirichlet,
    stability_fit,
)


def test_manufactured_disk_rhs_values():
    assert manufactured_disk(2).f(np.zeros((1, 2)))[0] == pytest.approx(64.0)
    assert manufactured_disk(3).f(np.zeros((1, 3)))[0] == pytest.approx(120.0)


def test_manufactured_boundary_double_root():
    prob = manufactured_disk(2)
    ang = np.linspace(0, 2 * np.pi, 17)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    assert np.abs(prob.u(pts)).max() < 1e-12
    # gradient vanishes too: finite difference along the normal
    eps = 1e-7
    inner = prob.u(pts * (1 - eps))
    assert np.abs(inner).max() < 1e-12  # double root: O(eps^2)


def test_rhs_is_bilaplacian_of_u_by_nested_differences():
    prob = manufactured_disk(2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(100, 2))
    h = 1e-2

    def lap(f, p, hh):
        tot = -2 * 2 * f(p[None])[0]
        for i in range(2):
            e = np.zeros(2)
            e[i] = hh
            tot += f((p + e)[None])[0] + f((p - e)[None])[0]
        return tot / hh**2

    def lap2(p, hh):
        tot = -2 * 2 * lap(prob.u, p, hh)
        for i in range(2):
            e = np.zeros(2)
            e[i] = hh
            tot += lap(prob.u, p + e, hh) + lap(prob.u, p - e, hh)
        return tot / hh**2

    for p in pts:
        rich = (4 * lap2(p, h / 2) - lap2(p, h)) / 3.0
        assert abs(rich - 64.0) / 64.0 <= 1e-6


def test_derivative_budgets_sane():
    prob = manufactured_disk(2)
    assert prob.M5 >= prob.M2 >= 1.0
    # budgets bound actual sup |u| at least
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.7, 0.7, size=(200, 2))
    assert prob.M2 >= np.abs(prob.u(pts)).max()


def test_solve_zero_rhs_gives_zero():
    dom = classify(Ball([0.0, 0.0], 1.0), 1 / 8)
    sol = solve_dirichlet(dom, np.zeros(dom.n_rh))
    assert np.abs(sol.u_h).max() == 0.0


def test_solve_linearity():
    dom = classify(Ball([0.0, 0.0], 1.0), 1 / 8)
    rng = np.random.default_rng(2)
    f1 = rng.standard_normal(dom.n_rh)
    f2 = rng.standard_normal(dom.n_rh)
    u1 = solve_dirichlet(dom, f1).u_h
    u2 = solve_dirichlet(dom, f2).u_h
    u12 = solve_dirichlet(dom, f1 + f2).u_h
    assert np.abs(u12 - u1 - u2).max() <= 1e-10 * max(np.abs(u12).max(), 1.0)


def test_disk_center_value_converges_to_exact():
    # the zero double band under-represents u near the boundary by O(h^2)
    # peak values, so the centre error decays roughly first order: about 26%
    # at h=1/16 and inside 10% only by h=1/64
    prob = manufactured_disk(2)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        dom = classify(prob.shape, h)
        sol = solve_dirichlet(dom, prob.f(dom.rh_coordinates()))
        errs.append(abs(sol.u_h[dom.rh_index_of((0, 0))] - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 0.1


def test_grid_resolvable_input_reproduces_itself():
    # feeding the discrete solution back as the "exact" solution gives zero error
    prob = manufactured_disk(2)
    dom = classify(prob.shape, 1 / 8)
    sol = solve_dirichlet(dom, prob.f(dom.rh_coordinates()))
    lookup = {tuple(p): v for p, v in zip(dom.rh_points, sol.u_h)}

    def u_grid(xs):
        out = np.zeros(xs.shape[:-1])
        for i, x in enumerate(np.atleast_2d(xs)):
            key = tuple(int(round(v / dom.h)) for v in x)
            out[i] = lookup.get(key, 0.0)
        return out

    fake = ManufacturedProblem(shape=prob.shape, u=u_grid, f=prob.f, M2=1, M5=1)
    sol2 = attach_error(solve_dirichlet(dom, prob.f(dom.rh_coordinates())), fake)
    assert sol2.error_grid_norm <= 1e-12


def test_backward_error_gate_accepts_fine_disk_and_rejects_perturbed_solution():
    # at h=1/128 the grid-norm residual of an accurate solve is about 1.3e-6,
    # far above 1e-8, because L_h has condition number of order h^-4; the
    # normwise backward error of the same solve is at rounding level
    prob = manufactured_disk(2)
    dom = classify(prob.shape, 1 / 128)
    f = prob.f(dom.rh_coordinates())
    sol = attach_error(solve_dirichlet(dom, f), prob)
    assert sol.residual > 1e-8
    assert sol.error_grid_norm < 0.069  # the h=1/64 error; finer is better
    S = assemble_precision(dom).raw
    b = dom.h**4 * f
    assert backward_error(S, sol.u_h, b) <= 1e-14
    rng = np.random.default_rng(4)
    perturbed = sol.u_h * (1.0 + 1e-6 * rng.standard_normal(dom.n_rh))
    assert backward_error(S, perturbed, b) > 1e-8
    coarse = classify(prob.shape, 1 / 8)
    with pytest.raises(RuntimeError, match="backward error"):
        solve_dirichlet(coarse, prob.f(coarse.rh_coordinates()), residual_tol=0.0)


def test_backward_error_gate_rejects_nan():
    # a NaN in f gives a NaN solution; the gate must not read it as zero error
    prob = manufactured_disk(2)
    dom = classify(prob.shape, 1 / 8)
    f = prob.f(dom.rh_coordinates())
    f[0] = np.nan
    S = assemble_precision(dom).raw
    assert np.isnan(backward_error(S, np.full(dom.n_rh, np.nan), dom.h**4 * f))
    with pytest.raises(RuntimeError, match="backward error"):
        solve_dirichlet(dom, f)


# ---------------------------------------------------------------------------
# norms

def test_grid_norm_formula():
    dom = classify(unit_box(2), 1 / 4)
    v = np.arange(dom.n_rh, dtype=float)
    assert grid_norm(v, dom.h, 2) == pytest.approx(np.sqrt(dom.h**2 * np.sum(v * v)))


def test_sobolev_norm_zero_field():
    dom = classify(unit_box(2), 1 / 8)
    assert sobolev_h2_norm(np.zeros(dom.n_rh), dom) == 0.0


def test_sobolev_norm_includes_grid_norm():
    dom = classify(unit_box(2), 1 / 8)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(dom.n_rh)
    assert sobolev_h2_norm(f, dom) >= grid_norm(f, dom.h, 2)


def test_lh2_apply_zero_outside_rh():
    dom = classify(Ball([0.0, 0.0], 1.0), 1 / 8)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(dom.n_rh)
    out = lh2_apply(f, dom)
    assert out.shape == (dom.n_rh,)
    grid_out = field_on_grid(dom, out)
    assert np.abs(grid_out[~dom.rh_mask]).max() == 0.0


def test_poincare_constant_stable_under_refinement():
    fits = [poincare_fit(classify(Ball([0.0, 0.0], 1.0), h)) for h in (1 / 8, 1 / 16)]
    assert all(np.isfinite(fits))
    assert 0.5 <= fits[1] / fits[0] <= 2.0


def test_stability_constant_stable_under_refinement():
    fits = [stability_fit(classify(Ball([0.0, 0.0], 1.0), h)) for h in (1 / 8, 1 / 16)]
    assert all(np.isfinite(fits))
    assert 0.3 <= fits[1] / fits[0] <= 3.0


# ---------------------------------------------------------------------------
# convergence

def test_convergence_study_disk_small():
    prob = manufactured_disk(2)
    st = convergence_study(prob, [1 / 8, 1 / 16, 1 / 32])
    assert st.monotone
    assert st.fitted_order >= 0.5
    assert st.within_bound
    errs = [r.error for r in st.rows]
    assert errs[1] / errs[0] <= 2 ** (-0.5) + 0.1


def test_convergence_study_needs_three_spacings():
    with pytest.raises(ValueError):
        convergence_study(manufactured_disk(2), [1 / 8, 1 / 16])


def test_bstar_count_scaling_bounded_on_disk():
    rows = bstar_count_scaling(Ball([0.0, 0.0], 1.0), [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    scaled = [r[2] for r in rows]
    assert max(scaled) / min(scaled) <= 3.0


def test_solver_matches_green_inverse_scaling():
    # the discrete solution operator is kappa^-2 h^-4 times the covariance solve
    d, N = 2, 8
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    i0 = dom.rh_index_of((0, 0))
    rhs = np.zeros(dom.n_rh)
    rhs[i0] = 1.0
    u = solve_dirichlet(dom, rhs).u_h
    g = solve_green_column(prec, (0, 0))
    scale = dom.kappa**2 * dom.h**4
    assert np.abs(u - scale * g).max() <= 1e-9 * np.abs(u).max()


def test_finite_volume_scaling_identity():
    # G_cov = 4 d^2 h^{d-4} G_h with Delta_h^2 G_h = h^{-d} delta
    d, N = 2, 8
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    g_cov = solve_green_column(prec, (0, 0))
    rhs = np.zeros(dom.n_rh)
    rhs[dom.rh_index_of((0, 0))] = dom.h ** (-d)
    g_h = solve_dirichlet(dom, rhs).u_h
    pred = 4 * d * d * dom.h ** (d - 4) * g_h
    assert np.abs(g_cov - pred).max() <= 1e-9 * np.abs(g_cov).max()
