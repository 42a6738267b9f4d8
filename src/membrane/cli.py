"""Command-line front end: experiment recipes, data export, run manifests.

Each subcommand is a recipe, a `run_*` function that returns its
`RunManifest`; `main` alone writes the manifest and turns its assertions
into the exit code: 0 if every assertion passed, 1 if one failed, 2 on a
usage error, which writes no manifest.  `infvol` has three modes, `green`,
`eta2` and `variance`, each a subcommand that takes only its own flags.

Every option resolves by one rule (`_option`): the flag when it was given,
0 included, else its key in the JSON `--config`, else the recipe's default.
All randomness derives from one explicit seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .artifacts import RunManifest
from .green import assemble_precision, green_columns, green_full
from .lattice import classify, shape_from_config, unit_box, verify_b2star

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2

RECIPE_CLAIMS = {
    "b2star": "every inner-band point sees two consecutive boundary-band points along an axis ray",
    "green": "covariance columns solve the discrete biharmonic problem with zero boundary (residual, symmetry, positivity)",
    "sample": "writes the requested number of exact draws of the field on R_h (only the count is checked)",
    "interpolate": "the simplex extension equals the rescaled field at every mesh point that is a lattice point",
    "max-scaling": "the rescaled field maximum has one law across scales: KS distance of the first N to the last",
    "moment-check": "squared increments of the interpolated field scale with the expected Holder exponent",
    "spectrum": "bilaplacian eigenvalues are ascending and positive; with k >= 60, weyl.csv gives the two-term Weyl coefficient A against A_W",
    "pair": "variance of the grid pairing against a test function converges under h-refinement",
    "thomee": "finite-difference biharmonic errors decrease within the h^(1/2) bound curve",
    "infvol-green": "walk representation of the infinite-volume covariance matches the singular Fourier integral within 3 SE + quadrature error + the rigorous tail bound past max_steps",
    "infvol-eta2": "the covariance ratio G(0, r e_1) r^(d-4) flattens at large distance; ratio_over_limit reports it against the Riesz constant (2d)^2 Gamma(d/2-2) / (16 pi^(d/2)), its limit",
    "infvol-variance": "rescaled test-function variances approach the inverse-Laplacian norm of the test function",
}


# ---------------------------------------------------------------------------
# option values: each reader parses a flag string and a config value alike

def _h(v) -> float:
    """A grid spacing, "1/16" or 0.0625."""
    try:
        return float(Fraction(v))
    except ZeroDivisionError:
        raise ValueError(f"{v!r} divides by zero") from None


def _h_list(v) -> list:
    """Grid spacings, "1/8,1/16" or a list."""
    return [_h(t) for t in (v.split(",") if isinstance(v, str) else v)]


def _ints(v) -> list:
    """Integers, "4,8,16", a range "5..15" or a list."""
    if isinstance(v, str):
        if ".." in v:
            a, b = v.split("..")
            return list(range(int(a), int(b) + 1))
        v = v.split(",")
    return [int(t) for t in v]


def _targets(v) -> list:
    """Lattice points: one point "1,0,0,0,0" or a list of points."""
    return [_ints(v)] if isinstance(v, str) else [_ints(t) for t in v]


def positive(v) -> int:
    """A size: an integer of at least 1."""
    n = int(v)
    if n < 1:
        raise ValueError(f"{v!r} is not a positive integer")
    return n


def _option(args, cfg, name, default, read):
    """The flag `name` when it was given, else the config key `name`, else the
    default; `read` parses those two as the flag's argparse type parses the flag."""
    flag = getattr(args, name)
    return flag if flag is not None else read(cfg.get(name, default))


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _grid(args, cfg, h: float):
    """The domain spec and grid spacing of a recipe that takes a domain; h is
    the recipe's default spacing."""
    spec = dict(cfg.get("domain", {}))
    if args.domain is not None:
        spec.update(_load_config(args.domain))
    if args.shape is not None:
        spec["kind"] = args.shape
    if args.d is not None:
        spec["dimension"] = args.d
    if "kind" not in spec:
        raise ValueError("no domain kind: give --shape, --domain or a 'domain' in --config")
    return spec, _option(args, cfg, "h", h, _h)


def _route_facts(prec) -> dict:
    """The solver route of a precision, the entries of the factors it
    built (on the torus route also its symmetric axes and class sizes), and
    why a route of `green`'s table was refused."""
    facts = {"route": prec.route, "factor_fill": prec.factor_fill, **prec.sectors}
    if prec.route_reason:
        facts["route_reason"] = prec.route_reason
    return facts


# ---------------------------------------------------------------------------
# recipes

def run_b2star(args, cfg) -> RunManifest:
    spec, h = _grid(args, cfg, 1 / 16)
    K = _option(args, cfg, "K", 4, int)
    man = RunManifest(args.out, {"recipe": "b2star", "domain": spec, "h": h, "K": K})
    dom = classify(shape_from_config(spec), h)
    man.stage("classify")
    report = verify_b2star(dom, K=K)
    man.stage("verify")
    row = [report.n_checked, len(report.failures), int(report.passed)]
    man.csv("b2star", ["n_checked", "n_failures", "passed"], [row])
    with man.file("domain.csv") as path:
        dom.export_csv(path)
    man.check("b2star_pass", report.passed, f"{report.n_checked} points checked")
    return man


def run_green(args, cfg) -> RunManifest:
    spec, h = _grid(args, cfg, 1 / 8)
    man = RunManifest(args.out, {"recipe": "green", "domain": spec, "h": h, "columns": args.columns})
    dom = classify(shape_from_config(spec), h)
    prec = assemble_precision(dom)
    man.stage("assemble")
    meta = {"ordering": "lexicographic R_h", "domain": spec, "h": h}
    if args.columns == "all":
        table = green_full(prec)
        man.array("green", table.values, meta | {"max_residual": table.max_residual})
        man.check("symmetry", table.asymmetry <= 1e-10, f"max relative asym {table.asymmetry:.2e} as solved")
        man.check("diagonal_positive", bool(np.all(np.diag(table.values) > 0)))
    else:
        pts = [[int(v) for v in c.split(",")] for c in args.columns.split(";")]
        table = green_columns(prec, pts)
        man.array("green_columns", table.values, meta | {"columns": pts, "max_residual": table.max_residual})
    man.check("residual", table.max_residual <= 1e-8, f"max residual {table.max_residual:.2e}")
    man.stage("solve", **_route_facts(prec))
    return man


def run_sample(args, cfg) -> RunManifest:
    from .sampler import sample

    spec, h = _grid(args, cfg, 1 / 8)
    count = _option(args, cfg, "count", 1, int)
    seed = _option(args, cfg, "seed", 0, int)
    man = RunManifest(args.out, {"recipe": "sample", "domain": spec, "h": h, "count": count, "seed": seed})
    dom = classify(shape_from_config(spec), h)
    prec = assemble_precision(dom)
    prec.solver()
    man.stage("factorize", **_route_facts(prec))
    samples = sample(prec, seed=seed, count=count)
    man.stage("sample")
    vals = np.stack([s.values for s in samples]) if samples else np.zeros((0, dom.n_rh))
    man.array("samples", vals, {"ordering": "sample x lexicographic R_h", "seed": seed})
    man.check("count", len(samples) == count)
    return man


def run_interpolate(args, cfg) -> RunManifest:
    from .sampler import InterpolatedField, sample

    d = _option(args, cfg, "d", 2, positive)
    if d not in (2, 3):  # refused before any work: a d = 4 grid can hold millions of unknowns
        raise ValueError("interpolation is defined for d in {2, 3}")
    N = _option(args, cfg, "N", 16, positive)
    seed = _option(args, cfg, "seed", 0, int)
    mesh = _option(args, cfg, "mesh", 4 * N, positive)
    man = RunManifest(args.out, {"recipe": "interpolate", "d": d, "N": N, "seed": seed, "mesh": mesh})
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    fld = InterpolatedField(sample(prec, seed=seed, count=1)[0], N)
    man.stage("sample")
    ax = np.linspace(-1.0, 1.0, mesh + 1)
    vals = fld.evaluate_many(np.stack(np.meshgrid(*[ax] * d, indexing="ij"), axis=-1).reshape(-1, d))
    vals = vals.reshape((mesh + 1,) * d)
    man.stage("evaluate")
    man.array("interpolated", vals, {"mesh_axis": mesh + 1})
    # mesh coordinate -1 + 2j/mesh is the lattice coordinate N (2j - mesh) / mesh where that is an integer
    num = N * (2 * np.arange(mesh + 1) - mesh)
    on = np.flatnonzero(num % mesh == 0)
    lattice = np.stack(np.meshgrid(*[num[on] // mesh] * d, indexing="ij"), axis=-1).reshape(-1, d)
    j = dom.rh_indices(lattice)
    expect = fld.prefactor * np.where(j >= 0, fld.sample.values[j], 0.0)
    err = np.abs(vals[np.ix_(*[on] * d)].reshape(-1) - expect).max()
    man.check(
        "lattice_point_identity",
        err <= 1e-12 * max(1.0, np.abs(expect).max()),
        f"{len(lattice)} mesh points on the lattice, largest gap {err:.1e}",
    )
    return man


def run_max_scaling(args, cfg) -> RunManifest:
    from .sampler import max_scaling

    d = _option(args, cfg, "d", 2, positive)
    Ns = _option(args, cfg, "N", [32, 64], _ints)
    count = _option(args, cfg, "count", 500, positive)
    seed = _option(args, cfg, "seed", 0, int)
    ks_tol = float(cfg.get("ks_tolerance", 0.1))
    man = RunManifest(args.out, {"recipe": "max-scaling", "d": d, "N": Ns, "count": count, "seed": seed})
    rep = max_scaling(d, Ns, count, seed)
    man.stage("sample")
    man.csv("rescaled_maxima", ["N", "rescaled_max"], [[N, float(v)] for N in Ns for v in rep.maxima[N]])
    man.check("ks_distance", rep.ks <= ks_tol, f"KS={rep.ks:.4f} over N={Ns}")
    return man


def run_moment_check(args, cfg) -> RunManifest:
    from .sampler import moment_exponent

    d = _option(args, cfg, "d", 2, positive)
    N = _option(args, cfg, "N", 32, positive)
    pairs = int(cfg.get("pairs", 200))
    seed = _option(args, cfg, "seed", 7, int)
    lo, hi = cfg.get("exponent_range", [1.5, 2.1] if d == 2 else [0.9, 1.3])
    man = RunManifest(args.out, {"recipe": "moment-check", "d": d, "N": N, "pairs": pairs, "seed": seed})
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    fit = moment_exponent(prec, d, N, n_pairs=pairs, seed=seed)
    man.stage("fit", right_hand_sides=fit.n_pairs, max_residual=fit.max_residual)
    rows = [[float(a), float(b)] for a, b in zip(fit.distances, fit.second_moments)]
    man.csv("moments", ["distance", "second_moment"], rows)
    man.check("exponent", lo <= fit.exponent <= hi, f"fitted {fit.exponent:.3f}")
    return man


def run_spectrum(args, cfg) -> RunManifest:
    from .spectral import eigendecompose, weyl_counting_fit

    spec, h = _grid(args, cfg, 1 / 16)
    k = _option(args, cfg, "k", 60, int)
    man = RunManifest(args.out, {"recipe": "spectrum", "domain": spec, "h": h, "k": k})
    dom = classify(shape_from_config(spec), h)
    prec = assemble_precision(dom)
    basis = eigendecompose(prec, k)
    man.stage("eigensolve", route=basis.route, route_reason=basis.route_reason)
    man.csv("spectrum", ["j", "lambda"], [[j + 1, float(v)] for j, v in enumerate(basis.lambdas)])
    man.array("eigenvectors", basis.vectors, {"ordering": "R_h x mode"})
    man.check("ascending", bool(np.all(np.diff(basis.lambdas) >= -1e-9)))
    man.check("positive", bool(basis.lambdas[0] > 0))
    if k >= 60:
        fit = weyl_counting_fit(basis.lambdas, dom.d, dom.shape.volume())
        man.csv("weyl", ["leading", "weyl_leading", "ratio"], [[fit.leading, fit.weyl_leading, fit.ratio]])
    return man


def run_pair(args, cfg) -> RunManifest:
    from .spectral import bump_test_function, pairing_variance_study

    d = _option(args, cfg, "d", 4, positive)
    hs = _option(args, cfg, "h_list", ["1/16", "1/32", "1/64"], _h_list)
    man = RunManifest(args.out, {"recipe": "pair", "d": d, "h_list": hs, "f": "bump"})
    study = pairing_variance_study(d, hs, bump_test_function())
    man.stage("study", wedge_iterations=study.iterations)
    man.csv("pairing_variance", ["h", "variance"], [[float(h), float(v)] for h, v in zip(study.hs, study.variances)])
    man.check("cauchy_shrink", study.cauchy_ratio < 0.7, f"ratio {study.cauchy_ratio:.3f}")
    for h, gap in study.cross_checks:
        man.check(f"cross_check_h={h:g}", gap <= 1e-8, f"gap {gap:.2e}")
    return man


def run_thomee(args, cfg) -> RunManifest:
    from .thomee import convergence_study, manufactured_disk

    d = _option(args, cfg, "d", 2, positive)
    hs = _option(args, cfg, "h_list", ["1/8", "1/16", "1/32", "1/64"], _h_list)
    man = RunManifest(args.out, {"recipe": "thomee", "d": d, "h_list": hs})
    study = convergence_study(manufactured_disk(d), hs)
    man.stage("study")
    rows = [[r.h, r.n_rh, r.error, r.bound] for r in study.rows]
    man.csv("thomee_convergence", ["h", "n_rh", "error", "bound"], rows)
    man.csv(
        "thomee_summary",
        ["fitted_order", "fitted_constant", "monotone", "within_bound"],
        [[study.fitted_order, study.fitted_constant, int(study.monotone), int(study.within_bound)]],
    )
    man.check("monotone_decrease", study.monotone)
    man.check("order_at_least_half", study.fitted_order >= 0.5, f"order {study.fitted_order:.3f}")
    man.check("within_bound_curve", study.within_bound)
    return man


def run_infvol_green(args, cfg) -> RunManifest:
    from .infvol import FourierCovariance, WalkOracle, green_infinite_fourier_many, walk_estimate

    d = _option(args, cfg, "d", 5, positive)
    targets = _option(args, cfg, "targets", [[1] + [0] * (d - 1)], _targets)
    man = RunManifest(args.out, {"recipe": "infvol-green", "d": d, "targets": targets, "method": args.method})
    four = walk = None
    if args.method != "fourier":  # walks first: a plan they refuse stops before any quadrature
        oracle = WalkOracle(
            d=d,
            n_walks=_option(args, cfg, "walks", 200_000, positive),
            max_steps=int(cfg.get("max_steps", 200)),
            seed=_option(args, cfg, "seed", 2024, int),
        )
        walk = walk_estimate(oracle, targets)
    if args.method != "walk":
        four = green_infinite_fourier_many(targets, plan=FourierCovariance(d=d))
    man.stage("estimate")
    rows = []
    for i, t in enumerate(targets):
        row = [";".join(map(str, t))]
        row += [four[i].value, four[i].error] if four else ["", ""]
        row += [walk.estimates[i], walk.standard_errors[i], walk.tail_bounds[i]] if walk else ["", "", ""]
        rows.append(row)
        if four and walk:
            tol = 3 * walk.standard_errors[i] + four[i].error + walk.tail_bounds[i]
            diff = abs(four[i].value - walk.estimates[i])
            man.check(f"agree_{i}", diff <= tol, f"diff {diff:.4f} tol {tol:.4f}")
    man.csv("infvol_green", ["x", "fourier", "quad_err", "walk", "walk_se", "tail_bound"], rows)
    return man


def run_infvol_eta2(args, cfg) -> RunManifest:
    from .infvol import eta2_trend

    d = _option(args, cfg, "d", 5, positive)
    radii = _option(args, cfg, "radii", "5..15", _ints)
    man = RunManifest(args.out, {"recipe": "infvol-eta2", "d": d, "radii": radii})
    trend = eta2_trend(radii, d=d)
    man.stage("trend")
    rows = [
        [int(r), float(g), float(q), float(q / trend.limit)]
        for r, g, q in zip(trend.radii, trend.greens, trend.ratios)
    ]
    man.csv("eta2_trend", ["r", "green", "ratio", "ratio_over_limit"], rows)
    man.check("flatness", trend.flatness <= 0.1, f"spread {trend.flatness:.4f}")
    man.check("positive", bool(np.all(trend.ratios > 0)))
    return man


def run_infvol_variance(args, cfg) -> RunManifest:
    from .infvol import gaussian_test, inv_laplacian_norm, scaling_variance

    d = _option(args, cfg, "d", 5, positive)
    Ns = _option(args, cfg, "N", [4, 8, 16], _ints)
    man = RunManifest(args.out, {"recipe": "infvol-variance", "d": d, "N": Ns, "f": "gaussian"})
    test = gaussian_test(d=d)
    limit = inv_laplacian_norm(test)
    vals = [scaling_variance(test, N) for N in Ns]
    man.stage("quadrature")
    rows = [[v.N, v.value, v.error_budget, limit] for v in vals]
    man.csv("scaling_variance", ["N", "variance", "error_budget", "limit"], rows)
    gaps = [abs(v.value - limit) for v in vals]
    man.check("decreasing_gap", all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)))
    man.check("final_within_5pct", gaps[-1] <= 0.05 * limit, f"gap {gaps[-1]:.4f}")
    return man


def run_list_recipes(args, cfg) -> None:
    for name in sorted(RECIPE_CLAIMS):
        print(f"{name} -> {RECIPE_CLAIMS[name]}")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="membrane",
        description="Discrete bilaplacian interface: solvers, samplers, scaling checks",
    )
    p.add_argument("--config", help="JSON config file; a flag that is given beats its key")
    p.add_argument(
        "--out",
        type=Path,
        default=Path(os.environ.get("MEMBRANE_OUT", "membrane-out")),
        help="output directory (default $MEMBRANE_OUT or ./membrane-out)",
    )
    p.add_argument("--seed", type=int)
    sub = p.add_subparsers(dest="cmd", required=True)

    def recipe(parent, name, func, domain=False):
        sp = parent.add_parser(name)
        sp.set_defaults(func=func)
        if domain:  # recipes that run on a domain of the caller's choice
            sp.add_argument("--domain", help="JSON domain spec file")
            sp.add_argument("--shape", choices=["box", "ball"])
            sp.add_argument("--h", type=_h)
        sp.add_argument("--d", type=positive)
        return sp

    sp = recipe(sub, "b2star", run_b2star, domain=True)
    sp.add_argument("--K", type=int)

    sp = recipe(sub, "green", run_green, domain=True)
    sp.add_argument("--columns", default="all", help='"all" or "x1,y1;x2,y2;..." integer points')

    sp = recipe(sub, "sample", run_sample, domain=True)
    sp.add_argument("--count", type=int)

    sp = recipe(sub, "interpolate", run_interpolate)
    sp.add_argument("--N", type=positive)
    sp.add_argument("--mesh", type=positive)

    sp = recipe(sub, "max-scaling", run_max_scaling)
    sp.add_argument("--N", type=_ints, help="comma list of scales, e.g. 32,64")
    sp.add_argument("--count", type=positive)

    sp = recipe(sub, "moment-check", run_moment_check)
    sp.add_argument("--N", type=positive)

    sp = recipe(sub, "spectrum", run_spectrum, domain=True)
    sp.add_argument("--k", type=int)

    sp = recipe(sub, "pair", run_pair)
    sp.add_argument("--h-list", dest="h_list", type=_h_list, help="comma list like 1/16,1/32,1/64")

    sp = recipe(sub, "thomee", run_thomee)
    sp.add_argument("--h", dest="h_list", type=_h_list, help="comma list like 1/8,1/16,1/32,1/64")

    modes = sub.add_parser("infvol").add_subparsers(dest="mode", required=True)
    sp = recipe(modes, "green", run_infvol_green)
    sp.add_argument("--x", dest="targets", type=_targets, help="comma lattice point, e.g. 1,0,0,0,0")
    sp.add_argument("--method", choices=["fourier", "walk", "both"], default="both")
    sp.add_argument("--count", dest="walks", type=positive, help="number of walks")
    sp = recipe(modes, "eta2", run_infvol_eta2)
    sp.add_argument("--radii", type=_ints, help="range like 5..15 or comma list")
    sp = recipe(modes, "variance", run_infvol_variance)
    sp.add_argument("--N", type=_ints, help="comma list of scales")

    sub.add_parser("list-recipes").set_defaults(func=run_list_recipes)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        man = args.func(args, _load_config(args.config))
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if man is None:  # list-recipes
        return EXIT_OK
    man.finalize()
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
