"""Command-line front end: experiment recipes, data export, run manifests.

Every subcommand reads an optional JSON config (flags win over file keys),
derives all randomness from one explicit seed, writes CSV/raw artifacts plus
a manifest into the output directory, and exits 0 only if every assertion of
the recipe passed (1 on assertion failure, 2 on usage errors).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .artifacts import RunManifest, write_array, write_csv
from .lattice import classify, shape_from_config, verify_b2star

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2

RECIPE_CLAIMS = {
    "b2star": "every inner-band point sees two consecutive boundary-band points along an axis ray",
    "green": "covariance columns solve the discrete biharmonic problem with zero boundary (residual, symmetry, positivity)",
    "sample": "writes the requested number of exact draws of the field on R_h (only the count is checked)",
    "interpolate": "the simplex extension is continuous, affine per cell, and equals the rescaled field at lattice points",
    "max-scaling": "the law of the rescaled field maximum stabilizes across scales",
    "moment-check": "squared increments of the interpolated field scale with the expected Holder exponent",
    "spectrum": "bilaplacian eigenvalues are ascending and positive; with k >= 60, weyl.csv gives the two-term Weyl coefficient A against A_W",
    "pair": "variance of the grid pairing against a test function converges under h-refinement",
    "thomee": "finite-difference biharmonic errors decrease within the h^(1/2) bound curve",
    "infvol-green": "walk representation of the infinite-volume covariance matches the singular Fourier integral",
    "infvol-eta2": "the covariance ratio against |x|^(4-d) flattens at large distance",
    "infvol-variance": "rescaled test-function variances approach the inverse-Laplacian norm of the test function",
}


def _parse_h(text: str) -> float:
    return float(Fraction(text))


def _parse_list(text: str, cast=int):
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [cast(v) for v in text.split(",")]


def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _domain_from_args(args, cfg):
    spec = dict(cfg.get("domain", {}))
    if getattr(args, "domain", None):
        spec.update(_load_config(args.domain))
    if getattr(args, "shape", None):
        spec["kind"] = args.shape
    if getattr(args, "d", None):
        spec["dimension"] = args.d
    if "kind" not in spec:
        raise SystemExit(EXIT_USAGE)
    return spec


def _outdir(args) -> Path:
    out = args.out or os.environ.get("MEMBRANE_OUT", "membrane-out")
    return Path(out)


def _route_facts(prec) -> dict:
    """The solver route a precision took, and why a box route was refused."""
    facts = {"route": prec.route}
    if prec.route_reason:
        facts["route_reason"] = prec.route_reason
    return facts


# ---------------------------------------------------------------------------
# recipes

def run_b2star(args, cfg) -> int:
    spec = _domain_from_args(args, cfg)
    h = _parse_h(args.h) if args.h else float(cfg.get("h", 1 / 16))
    K = args.K or int(cfg.get("K", 4))
    config = {"recipe": "b2star", "domain": spec, "h": h, "K": K}
    man = RunManifest(config=config)
    dom = classify(shape_from_config(spec), h)
    man.stage("classify")
    report = verify_b2star(dom, K=K)
    man.stage("verify")
    out = _outdir(args)
    man.wrote(write_csv(
        out,
        "b2star",
        ["n_checked", "n_failures", "passed"],
        [[report.n_checked, len(report.failures), int(report.passed)]],
    ))
    dom.export_csv(out / "domain.csv")
    man.wrote([out / "domain.csv"])
    man.check("b2star_pass", report.passed, f"{report.n_checked} points checked")
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_green(args, cfg) -> int:
    from .green import assemble_precision, green_columns, green_full

    spec = _domain_from_args(args, cfg)
    h = _parse_h(args.h) if args.h else float(cfg.get("h", 1 / 8))
    config = {"recipe": "green", "domain": spec, "h": h, "columns": args.columns}
    man = RunManifest(config=config)
    dom = classify(shape_from_config(spec), h)
    prec = assemble_precision(dom)
    man.stage("assemble")
    out = _outdir(args)
    if args.columns == "all":
        table = green_full(prec)
        man.wrote(write_array(
            out,
            "green",
            table.values,
            {"ordering": "lexicographic R_h", "domain": spec, "h": h, "max_residual": table.max_residual},
        ))
        man.check("symmetry", table.asymmetry <= 1e-10, f"max relative asym {table.asymmetry:.2e} as solved")
        man.check("diagonal_positive", bool(np.all(np.diag(table.values) > 0)))
    else:
        pts = [tuple(int(v) for v in c.split(",")) for c in args.columns.split(";")]
        table = green_columns(prec, pts)
        man.wrote(write_array(
            out,
            "green_columns",
            table.values,
            {
                "ordering": "lexicographic R_h",
                "domain": spec,
                "h": h,
                "columns": [list(p) for p in pts],
                "max_residual": table.max_residual,
            },
        ))
    man.check("residual", table.max_residual <= 1e-8, f"max residual {table.max_residual:.2e}")
    man.stage("solve", **_route_facts(prec))
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_sample(args, cfg) -> int:
    from .green import assemble_precision
    from .sampler import sample

    spec = _domain_from_args(args, cfg)
    h = _parse_h(args.h) if args.h else float(cfg.get("h", 1 / 8))
    count = args.count or int(cfg.get("count", 1))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    config = {"recipe": "sample", "domain": spec, "h": h, "count": count, "seed": seed}
    man = RunManifest(config=config)
    dom = classify(shape_from_config(spec), h)
    prec = assemble_precision(dom)
    prec.solver()
    man.stage("factorize", **_route_facts(prec))
    samples = sample(prec, seed=seed, count=count)
    man.stage("sample")
    out = _outdir(args)
    vals = np.stack([s.values for s in samples]) if samples else np.zeros((0, dom.n_rh))
    man.wrote(write_array(out, "samples", vals, {"ordering": "sample x lexicographic R_h", "seed": seed}))
    man.check("count", len(samples) == count)
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_interpolate(args, cfg) -> int:
    from .green import assemble_precision
    from .lattice import unit_box
    from .sampler import InterpolatedField, sample

    d = args.d or int(cfg.get("d", 2))
    N = args.N_single or int(cfg.get("N", 16))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    mesh = args.mesh or int(cfg.get("mesh", 4 * N))
    config = {"recipe": "interpolate", "d": d, "N": N, "seed": seed, "mesh": mesh}
    man = RunManifest(config=config)
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    fld = InterpolatedField(sample(prec, seed=seed, count=1)[0], N)
    man.stage("sample")
    ax = np.linspace(-1.0, 1.0, mesh + 1)
    if d == 2:
        grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = fld.evaluate_many(grid)
    man.stage("evaluate")
    out = _outdir(args)
    man.wrote(write_array(out, "interpolated", vals.reshape((mesh + 1,) * d), {"mesh_axis": mesh + 1}))
    lat = fld.evaluate(np.zeros(d))
    expect = fld.prefactor * fld.sample.values[dom.rh_index_of((0,) * d)]
    man.check("lattice_point_identity", abs(lat - expect) <= 1e-12 * max(1, abs(expect)))
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_max_scaling(args, cfg) -> int:
    from .sampler import max_scaling

    d = args.d or int(cfg.get("d", 2))
    Ns = _parse_list(args.N) if args.N else list(cfg.get("N", [32, 64]))
    count = args.count or int(cfg.get("count", 500))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    ks_tol = float(cfg.get("ks_tolerance", 0.1))
    config = {"recipe": "max-scaling", "d": d, "N": Ns, "count": count, "seed": seed}
    man = RunManifest(config=config)
    rep = max_scaling(d, Ns, count, seed)
    man.stage("sample")
    out = _outdir(args)
    rows = []
    for N in Ns:
        for v in rep.maxima[N]:
            rows.append([N, float(v)])
    man.wrote(write_csv(out, "rescaled_maxima", ["N", "rescaled_max"], rows))
    man.check("ks_distance", rep.ks <= ks_tol, f"KS={rep.ks:.4f} over N={Ns}")
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_moment_check(args, cfg) -> int:
    from .green import assemble_precision
    from .lattice import unit_box
    from .sampler import moment_exponent

    d = args.d or int(cfg.get("d", 2))
    N = args.N_single or int(cfg.get("N", 32))
    pairs = int(cfg.get("pairs", 200))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 7))
    lo, hi = cfg.get("exponent_range", [1.5, 2.1] if d == 2 else [0.9, 1.3])
    config = {"recipe": "moment-check", "d": d, "N": N, "pairs": pairs, "seed": seed}
    man = RunManifest(config=config)
    dom = classify(unit_box(d), 1.0 / N)
    prec = assemble_precision(dom)
    fit = moment_exponent(prec, d, N, n_pairs=pairs, seed=seed)
    man.stage("fit", right_hand_sides=fit.n_pairs, max_residual=fit.max_residual)
    out = _outdir(args)
    man.wrote(write_csv(
        out,
        "moments",
        ["distance", "second_moment"],
        [[float(a), float(b)] for a, b in zip(fit.distances, fit.second_moments)],
    ))
    man.check("exponent", lo <= fit.exponent <= hi, f"fitted {fit.exponent:.3f}")
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_spectrum(args, cfg) -> int:
    from .green import assemble_precision
    from .spectral import eigendecompose, weyl_counting_fit

    spec = _domain_from_args(args, cfg)
    h = _parse_h(args.h) if args.h else float(cfg.get("h", 1 / 16))
    k = args.k or int(cfg.get("k", 60))
    config = {"recipe": "spectrum", "domain": spec, "h": h, "k": k}
    man = RunManifest(config=config)
    dom = classify(shape_from_config(spec), h)
    prec = assemble_precision(dom)
    basis = eigendecompose(prec, k)
    man.stage("eigensolve")
    out = _outdir(args)
    man.wrote(write_csv(
        out,
        "spectrum",
        ["j", "lambda"],
        [[j + 1, float(v)] for j, v in enumerate(basis.lambdas)],
    ))
    man.wrote(write_array(out, "eigenvectors", basis.vectors, {"ordering": "R_h x mode"}))
    man.check("ascending", bool(np.all(np.diff(basis.lambdas) >= -1e-9)))
    man.check("positive", bool(basis.lambdas[0] > 0))
    if k >= 60:
        fit = weyl_counting_fit(basis.lambdas, dom.d, dom.shape.volume())
        man.wrote(write_csv(
            out, "weyl", ["leading", "weyl_leading", "ratio"], [[fit.leading, fit.weyl_leading, fit.ratio]]
        ))
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_pair(args, cfg) -> int:
    from .spectral import bump_test_function, pairing_variance_study

    d = args.d or int(cfg.get("d", 4))
    hs = [_parse_h(t) for t in args.h_list.split(",")] if args.h_list else [
        float(Fraction(str(t))) for t in cfg.get("h_list", ["1/16", "1/32", "1/64"])
    ]
    config = {"recipe": "pair", "d": d, "h_list": hs, "f": "bump"}
    man = RunManifest(config=config)
    f = bump_test_function()
    study = pairing_variance_study(d, hs, f)
    man.stage("study")
    out = _outdir(args)
    man.wrote(write_csv(
        out,
        "pairing_variance",
        ["h", "variance"],
        [[float(h), float(v)] for h, v in zip(study.hs, study.variances)],
    ))
    man.check("cauchy_shrink", study.cauchy_ratio < 0.7, f"ratio {study.cauchy_ratio:.3f}")
    for h, gap in study.cross_checks:
        man.check(f"cross_check_h={h:g}", gap <= 1e-8, f"gap {gap:.2e}")
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_thomee(args, cfg) -> int:
    from .thomee import convergence_study, manufactured_disk

    d = args.d or int(cfg.get("d", 2))
    hs = [_parse_h(t) for t in args.h.split(",")] if args.h else [
        float(Fraction(str(t))) for t in cfg.get("h_list", ["1/8", "1/16", "1/32", "1/64"])
    ]
    config = {"recipe": "thomee", "d": d, "h_list": hs}
    man = RunManifest(config=config)
    study = convergence_study(manufactured_disk(d), hs)
    man.stage("study")
    out = _outdir(args)
    man.wrote(write_csv(
        out,
        "thomee_convergence",
        ["h", "n_rh", "error", "bound"],
        [[r.h, r.n_rh, r.error, r.bound] for r in study.rows],
    ))
    man.wrote(write_csv(
        out,
        "thomee_summary",
        ["fitted_order", "fitted_constant", "monotone", "within_bound"],
        [[study.fitted_order, study.fitted_constant, int(study.monotone), int(study.within_bound)]],
    ))
    man.check("monotone_decrease", study.monotone)
    man.check("order_at_least_half", study.fitted_order >= 0.5, f"order {study.fitted_order:.3f}")
    man.check("within_bound_curve", study.within_bound)
    man.finalize(out)
    return EXIT_OK if man.all_passed else EXIT_ASSERTION


def run_infvol(args, cfg) -> int:
    from .infvol import (
        FourierCovariance,
        WalkOracle,
        eta2_trend,
        gaussian_test,
        green_infinite_fourier_many,
        scaling_variance,
        walk_estimate,
    )

    d = args.d or int(cfg.get("d", 5))
    out = _outdir(args)
    if args.mode == "green":
        targets = [[int(v) for v in args.x.split(",")]] if args.x else cfg.get("targets", [[1, 0, 0, 0, 0]])
        config = {"recipe": "infvol-green", "d": d, "targets": targets, "method": args.method}
        man = RunManifest(config=config)
        rows = []
        four = walk = None
        if args.method in ("fourier", "both"):
            four = green_infinite_fourier_many(targets, plan=FourierCovariance(d=d), d=d)
        if args.method in ("walk", "both"):
            oracle = WalkOracle(
                d=d,
                n_walks=args.count or int(cfg.get("walks", 200_000)),
                max_steps=int(cfg.get("max_steps", 200)),
                seed=args.seed if args.seed is not None else int(cfg.get("seed", 2024)),
            )
            walk = walk_estimate(oracle, targets)
        man.stage("estimate")
        for i, t in enumerate(targets):
            row = [";".join(map(str, t))]
            row += [four[i].value, four[i].error] if four else ["", ""]
            row += (
                [walk.estimates[i], walk.standard_errors[i], walk.tail_bounds[i]]
                if walk
                else ["", "", ""]
            )
            rows.append(row)
        man.wrote(write_csv(out, "infvol_green", ["x", "fourier", "quad_err", "walk", "walk_se", "tail_bound"], rows))
        if four and walk:
            for i, t in enumerate(targets):
                tol = 3 * walk.standard_errors[i] + four[i].error + walk.tail_bounds[i]
                man.check(
                    f"agree_{i}",
                    abs(four[i].value - walk.estimates[i]) <= tol,
                    f"diff {abs(four[i].value - walk.estimates[i]):.4f} tol {tol:.4f}",
                )
        man.finalize(out)
        return EXIT_OK if man.all_passed else EXIT_ASSERTION
    if args.mode == "eta2":
        radii = _parse_list(args.radii) if args.radii else cfg.get("radii", list(range(5, 16)))
        config = {"recipe": "infvol-eta2", "d": d, "radii": radii}
        man = RunManifest(config=config)
        trend = eta2_trend(radii, d=d)
        man.stage("trend")
        man.wrote(write_csv(
            out,
            "eta2_trend",
            ["r", "green", "ratio"],
            [[int(r), float(g), float(q)] for r, g, q in zip(trend.radii, trend.greens, trend.ratios)],
        ))
        man.check("flatness", trend.flatness <= 0.1, f"spread {trend.flatness:.4f}")
        man.check("positive", bool(np.all(trend.ratios > 0)))
        man.finalize(out)
        return EXIT_OK if man.all_passed else EXIT_ASSERTION
    if args.mode == "variance":
        Ns = _parse_list(args.N) if args.N else cfg.get("N", [4, 8, 16])
        config = {"recipe": "infvol-variance", "d": d, "N": Ns, "f": "gaussian"}
        man = RunManifest(config=config)
        test = gaussian_test(d=d)
        from .infvol import inv_laplacian_norm

        limit = inv_laplacian_norm(test)
        vals = [scaling_variance(test, N) for N in Ns]
        man.stage("quadrature")
        man.wrote(write_csv(
            out,
            "scaling_variance",
            ["N", "variance", "error_budget", "limit"],
            [[v.N, v.value, v.error_budget, limit] for v in vals],
        ))
        gaps = [abs(v.value - limit) for v in vals]
        man.check("decreasing_gap", all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)))
        man.check("final_within_5pct", gaps[-1] <= 0.05 * limit, f"gap {gaps[-1]:.4f}")
        man.finalize(out)
        return EXIT_OK if man.all_passed else EXIT_ASSERTION
    return EXIT_USAGE


def run_list_recipes(args, cfg) -> int:
    for name in sorted(RECIPE_CLAIMS):
        print(f"{name} -> {RECIPE_CLAIMS[name]}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="membrane",
        description="Discrete bilaplacian interface: solvers, samplers, scaling checks",
    )
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--out", help="output directory (default $MEMBRANE_OUT or ./membrane-out)")
    p.add_argument("--seed", type=int, default=None)
    sub = p.add_subparsers(dest="cmd")

    def common(sp):
        sp.add_argument("--domain", help="JSON domain spec file")
        sp.add_argument("--shape", choices=["box", "ball"])
        sp.add_argument("--d", type=int)

    sp = sub.add_parser("b2star")
    common(sp)
    sp.add_argument("--h")
    sp.add_argument("--K", type=int)
    sp.set_defaults(func=run_b2star)

    sp = sub.add_parser("green")
    common(sp)
    sp.add_argument("--h")
    sp.add_argument("--columns", default="all", help='"all" or "x1,y1;x2,y2;..." integer points')
    sp.set_defaults(func=run_green)

    sp = sub.add_parser("sample")
    common(sp)
    sp.add_argument("--h")
    sp.add_argument("--count", type=int)
    sp.set_defaults(func=run_sample)

    sp = sub.add_parser("interpolate")
    common(sp)
    sp.add_argument("--N", dest="N_single", type=int)
    sp.add_argument("--mesh", type=int)
    sp.set_defaults(func=run_interpolate)

    sp = sub.add_parser("max-scaling")
    common(sp)
    sp.add_argument("--N", help="comma list of scales, e.g. 32,64")
    sp.add_argument("--count", type=int)
    sp.set_defaults(func=run_max_scaling)

    sp = sub.add_parser("moment-check")
    common(sp)
    sp.add_argument("--N", dest="N_single", type=int)
    sp.set_defaults(func=run_moment_check)

    sp = sub.add_parser("spectrum")
    common(sp)
    sp.add_argument("--h")
    sp.add_argument("--k", type=int)
    sp.set_defaults(func=run_spectrum)

    sp = sub.add_parser("pair")
    common(sp)
    sp.add_argument("--h-list", dest="h_list", help="comma list like 1/16,1/32,1/64")
    sp.set_defaults(func=run_pair)

    sp = sub.add_parser("thomee")
    common(sp)
    sp.add_argument("--h", help="comma list like 1/8,1/16,1/32,1/64")
    sp.set_defaults(func=run_thomee)

    sp = sub.add_parser("infvol")
    common(sp)
    sp.add_argument("mode", choices=["green", "eta2", "variance"])
    sp.add_argument("--x", help="comma lattice point, e.g. 1,0,0,0,0")
    sp.add_argument("--method", choices=["fourier", "walk", "both"], default="both")
    sp.add_argument("--count", type=int, help="number of walks")
    sp.add_argument("--radii", help="range like 5..15 or comma list")
    sp.add_argument("--N", help="comma list of scales")
    sp.set_defaults(func=run_infvol)

    sp = sub.add_parser("list-recipes")
    sp.set_defaults(func=run_list_recipes)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    if not getattr(args, "cmd", None):
        parser.print_help()
        return EXIT_USAGE
    cfg = _load_config(args.config)
    try:
        return args.func(args, cfg)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
