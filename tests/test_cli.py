import json
import math
import subprocess
import sys

import numpy as np
import pytest

from membrane.cli import EXIT_USAGE, RECIPE_CLAIMS, main


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(["--out", str(out)] + args)
    return code, out


def test_b2star_recipe(tmp_path):
    code, out = run_cli(["b2star", "--shape", "ball", "--d", "2", "--h", "1/16", "--K", "4"], tmp_path, "a")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["passed"] is True
    assert man["assertions"][0]["name"] == "b2star_pass"


def test_manifest_lists_every_file(tmp_path):
    code, out = run_cli(["b2star", "--shape", "box", "--d", "2", "--h", "1/8"], tmp_path, "b")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    assert set(man["files"]) == disk
    assert all(len(v) == 64 for v in man["files"].values())


def test_a_manifest_leaves_the_box_solvers_and_scipy_fft_unloaded(tmp_path):
    # the thread count it records comes from lattice, so `infvol` and
    # `b2star` runs load no box solver just to write their manifest
    mods = ["membrane.boxsolve", "scipy.fft"]
    code = (
        "import sys, membrane.cli, membrane.infvol\n"
        "from membrane.artifacts import RunManifest\n"
        f"assert RunManifest(outdir={str(tmp_path)!r}, config={{}}).threads['fft_workers'] >= 1\n"
        f"print([m for m in {mods!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_importing_the_package_leaves_the_torus_solver_and_scipy_fft_unloaded():
    # green imports the torus route lazily, so no module's import loads it
    mods = ["membrane.torus", "scipy.fft"]
    code = (
        "import sys\n"
        "import membrane.cli, membrane.green, membrane.spectral, membrane.sampler, membrane.thomee, membrane.boxsolve\n"
        f"print([m for m in {mods!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "shape,d,route,fft",
    [("box", 2, "box-direct", False), ("box", 3, "box-direct", False), ("ball", 2, "torus-capacitance", True)],
)
def test_sample_loads_scipy_fft_only_on_the_torus_route(tmp_path, shape, d, route, fft):
    # a centred box maps to sine coefficients by dense products; only the
    # torus route of other domains transforms by FFT
    code = (
        "import sys\n"
        "from membrane.cli import main\n"
        f"code = main(['--out', {str(tmp_path)!r}, 'sample', '--shape', {shape!r}, '--d', '{d}', '--h', '1/8', '--count', '2'])\n"
        "print(code, 'scipy.fft' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", str(fft)]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["passed"] and man["stage_facts"]["factorize"]["route"] == route


def test_manifest_lists_only_files_the_recipe_wrote(tmp_path):
    out = tmp_path / "shared"
    assert main(["--out", str(out), "sample", "--shape", "box", "--d", "2", "--h", "1/8", "--count", "2"]) == 0
    sampled = json.loads((out / "manifest.json").read_text())
    assert set(sampled["files"]) == {"samples.f64", "samples.json"}
    assert list(sampled["wall_clock_s"]) == ["factorize", "sample"]
    assert main(["--out", str(out), "b2star", "--shape", "box", "--d", "2", "--h", "1/8"]) == 0
    b2star = json.loads((out / "manifest.json").read_text())
    assert set(b2star["files"]) == {"b2star.csv", "domain.csv"}


def test_moment_check_records_its_solves(tmp_path):
    code, out = run_cli(["moment-check", "--d", "2", "--N", "32"], tmp_path, "m")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert list(man["wall_clock_s"]) == ["fit"]
    facts = man["stage_facts"]["fit"]
    assert facts["right_hand_sides"] == man["config"]["pairs"] == 200
    assert 0.0 <= facts["max_residual"] <= 1e-8


def test_pair_recipe_records_the_wedge_iterations(tmp_path):
    code, out = run_cli(["pair", "--d", "4", "--h-list", "1/12,1/24,1/48"], tmp_path, "p")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["passed"] and list(man["wall_clock_s"]) == ["study"]
    its = man["stage_facts"]["study"]["wedge_iterations"]
    # one count per h, coarse to fine; PCG needs more iterations on finer grids
    assert len(its) == 3 and 0 < its[0] <= its[1] <= its[2] <= 400


def test_green_small_run(tmp_path):
    code, out = run_cli(["green", "--shape", "box", "--d", "2", "--h", "1/4"], tmp_path, "c")
    assert code == 0
    assert (out / "green.f64").exists()
    side = json.loads((out / "green.json").read_text())
    assert side["dtype"] == "float64" and side["byte_order"] == "little"


def test_green_symmetry_check_reads_the_asymmetry_as_solved(tmp_path, monkeypatch):
    from membrane import green

    make = green._make_solver

    def skewed(A, domain):
        solve, *facts = make(A, domain)

        def solve_skewed(rhs):
            x = solve(rhs)
            x[0] += 1e-12 * np.abs(x).max() * rhs[1]  # G(0, 1) alone moves
            return x

        return (solve_skewed, *facts)

    monkeypatch.setattr(green, "_make_solver", skewed)
    code, out = run_cli(["green", "--shape", "box", "--d", "2", "--h", "1/4", "--columns", "all"], tmp_path, "s")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    sym = next(a for a in man["assertions"] if a["name"] == "symmetry")
    assert sym["passed"]
    assert 0.5e-12 <= float(sym["detail"].split()[3]) <= 2e-12


def test_recipes_record_the_solver_route(tmp_path, monkeypatch):
    from membrane.green import assemble_precision, factorize_spd
    from membrane.lattice import WORKERS, Ball, classify
    from membrane.torus import TorusCapacitanceSolver

    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    code, out = run_cli(["sample", "--shape", "box", "--d", "2", "--h", "1/8", "--count", "1"], tmp_path, "r1")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["stage_facts"]["factorize"] == {"route": "box-direct", "factor_fill": 2 * 7**2 + 6**2}  # M = 6: sector factors of M+1, M+1 and M rows
    assert man["threads"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": "2", "fft_workers": WORKERS
    }
    # the factor fill read back: the torus class factors' entries for the d=2
    # disk and the d=3 ball, with their symmetric axes and class sizes
    disk = TorusCapacitanceSolver(classify(Ball([0.0, 0.0], 1.0), 1 / 8))
    code, out = run_cli(["green", "--shape", "ball", "--d", "2", "--h", "1/8", "--columns", "0,0"], tmp_path, "r2")
    assert code == 0
    facts = json.loads((out / "manifest.json").read_text())["stage_facts"]["solve"]
    assert facts == {
        "route": "torus-capacitance", "factor_fill": disk.fill, "symmetric_axes": [0, 1], "class_sizes": disk.class_sizes
    }
    assert 0 < facts["factor_fill"] == sum(r * r for r in facts["class_sizes"]) < disk.m**2 / 3
    ball = TorusCapacitanceSolver(classify(Ball([0.0] * 3, 1.0), 1 / 6))
    code, out = run_cli(["sample", "--shape", "ball", "--d", "3", "--h", "1/6", "--count", "1"], tmp_path, "r3")
    assert code == 0
    facts = json.loads((out / "manifest.json").read_text())["stage_facts"]["factorize"]
    assert facts == {
        "route": "torus-capacitance", "factor_fill": ball.fill, "symmetric_axes": [0, 1, 2], "class_sizes": ball.class_sizes
    }
    assert len(facts["class_sizes"]) == 4  # one factor per count of odd axes
    # SuperLU's stored entries, and why, for the same ball above the budget
    from membrane import green

    monkeypatch.setattr(green, "DIRECT_FACTOR_BUDGET", 8 * ball.fill - 1)
    code, out = run_cli(["sample", "--shape", "ball", "--d", "3", "--h", "1/6", "--count", "1"], tmp_path, "r4")
    assert code == 0
    facts = json.loads((out / "manifest.json").read_text())["stage_facts"]["factorize"]
    lu = factorize_spd(assemble_precision(classify(Ball([0.0] * 3, 1.0), 1 / 6)).matrix)
    reason = f"torus class factors of {8 * ball.fill} bytes above DIRECT_FACTOR_BUDGET"
    assert facts == {"route": "superlu", "factor_fill": lu.nnz, "route_reason": reason}
    assert facts["factor_fill"] > ball.n


def test_green_recipe_records_the_whole_layer_factor_of_a_domain_without_a_mirror(tmp_path):
    from membrane.lattice import Ball, classify
    from membrane.torus import TorusCapacitanceSolver

    spec = {"kind": "ball", "dimension": 3, "center": [0.3, -0.2, 0.15], "radius": 0.7}
    (tmp_path / "ball.json").write_text(json.dumps(spec))
    args = ["green", "--domain", str(tmp_path / "ball.json"), "--h", "1/6", "--columns", "2,-1,1"]
    code, out = run_cli(args, tmp_path, "off")
    assert code == 0
    facts = json.loads((out / "manifest.json").read_text())["stage_facts"]["solve"]
    m = TorusCapacitanceSolver(classify(Ball(spec["center"], spec["radius"]), 1 / 6)).m
    assert facts == {"route": "torus-capacitance", "factor_fill": m**2, "symmetric_axes": [], "class_sizes": [m]}


def test_recipes_record_the_d3_box_route_and_its_budget(tmp_path, monkeypatch):
    from membrane import green
    from membrane.boxsolve import direct_fill

    code, out = run_cli(["sample", "--shape", "box", "--d", "3", "--h", "1/6", "--count", "1"], tmp_path, "d3")
    assert code == 0
    facts = json.loads((out / "manifest.json").read_text())["stage_facts"]["factorize"]
    assert facts == {"route": "box-direct", "factor_fill": direct_fill(3, 4)}
    monkeypatch.setattr(green, "DIRECT_FACTOR_BUDGET", 0)
    code, out = run_cli(["green", "--shape", "box", "--d", "3", "--h", "1/6", "--columns", "0,0,0"], tmp_path, "pcg")
    assert code == 0
    facts = json.loads((out / "manifest.json").read_text())["stage_facts"]["solve"]
    reason = f"direct factors of {8 * direct_fill(3, 4)} bytes above DIRECT_FACTOR_BUDGET"
    assert facts == {"route": "box-pcg", "factor_fill": 0, "route_reason": reason}


def test_green_selected_columns(tmp_path):
    code, out = run_cli(
        ["green", "--shape", "box", "--d", "2", "--h", "1/4", "--columns", "0,0;1,1"],
        tmp_path,
        "c2",
    )
    assert code == 0
    meta = json.loads((out / "green_columns.json").read_text())
    assert meta["columns"] == [[0, 0], [1, 1]]


def test_green_refuses_a_column_of_another_length(tmp_path, capsys):
    code, out = run_cli(["green", "--shape", "box", "--d", "2", "--h", "1/8", "--columns", "1,2,3,4"], tmp_path, "c4")
    assert code == EXIT_USAGE
    assert not (out / "manifest.json").exists()
    assert "last axis" in capsys.readouterr().err


def test_sample_determinism_byte_identical(tmp_path):
    args = ["sample", "--shape", "box", "--d", "2", "--h", "1/8", "--count", "3"]
    code1, out1 = run_cli(["--seed", "5"] + args, tmp_path, "d1")
    code2, out2 = run_cli(["--seed", "5"] + args, tmp_path, "d2")
    assert code1 == code2 == 0
    assert (out1 / "samples.f64").read_bytes() == (out2 / "samples.f64").read_bytes()
    code3, out3 = run_cli(["--seed", "6"] + args, tmp_path, "d3")
    assert (out1 / "samples.f64").read_bytes() != (out3 / "samples.f64").read_bytes()


def test_interpolate_recipe(tmp_path):
    code, out = run_cli(["--seed", "3", "interpolate", "--d", "2", "--N", "8", "--mesh", "16"], tmp_path, "e")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["passed"]
    assert man["assertions"][0]["detail"].startswith("289 mesh points on the lattice")


def test_interpolate_recipe_checks_every_lattice_point_of_the_mesh(tmp_path, monkeypatch):
    from membrane import sampler

    args = ["--seed", "3", "interpolate", "--d", "3", "--N", "8", "--mesh", "12"]
    code, out = run_cli(args, tmp_path, "e3")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["assertions"][0]["detail"].startswith("125 mesh points on the lattice")  # j = 0, 3, ..., 12
    evaluate_many = sampler.InterpolatedField.evaluate_many

    def off_at_corner(self, ts):  # wrong at the lattice point (1, 1, 1) alone
        vals = evaluate_many(self, ts)
        vals[-1] += 1e-3
        return vals

    monkeypatch.setattr(sampler.InterpolatedField, "evaluate_many", off_at_corner)
    code, out = run_cli(args, tmp_path, "e3-off")
    assert code == 1


@pytest.mark.parametrize("d", [1, 4])
def test_interpolate_refuses_a_dimension_before_any_work(tmp_path, monkeypatch, d):
    from membrane import cli, sampler

    def no_work(*args, **kwargs):
        raise AssertionError("work started for a dimension interpolation refuses")

    monkeypatch.setattr(cli, "classify", no_work)
    monkeypatch.setattr(sampler, "sample", no_work)
    code, out = run_cli(["interpolate", "--d", str(d), "--N", "32"], tmp_path, f"i{d}")
    assert code == EXIT_USAGE
    assert not (out / "manifest.json").exists()


def test_max_scaling_recipe_quick(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ks_tolerance": 0.5}))
    code, out = run_cli(
        ["--seed", "1", "--config", str(cfg), "max-scaling", "--d", "2", "--N", "8,12", "--count", "40"],
        tmp_path,
        "f",
    )
    assert code == 0
    rows = (out / "rescaled_maxima.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 40


def test_thomee_recipe(tmp_path):
    code, out = run_cli(["thomee", "--d", "2", "--h", "1/8,1/16,1/32"], tmp_path, "g")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    names = {a["name"] for a in man["assertions"]}
    assert {"monotone_decrease", "order_at_least_half", "within_bound_curve"} <= names
    assert man["passed"]


def test_unknown_subcommand_usage_error(tmp_path):
    assert main(["frobnicate"]) == 2


def test_fixed_domain_recipes_refuse_domain_flags(tmp_path):
    # interpolate runs on the unit box only, so a shape flag is a usage error
    code, out = run_cli(["interpolate", "--shape", "ball", "--d", "2", "--N", "4"], tmp_path, "u")
    assert code == EXIT_USAGE
    assert not out.exists()


def test_no_subcommand_usage_error():
    assert main([]) == 2


def test_config_file_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": {"kind": "box", "dimension": 2}, "h": 0.5}))
    code, out = run_cli(["--config", str(cfg), "b2star"], tmp_path, "h")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["h"] == 0.5


def test_list_recipes_catalog(capsys):
    assert main(["list-recipes"]) == 0
    text = capsys.readouterr().out
    assert "max-scaling" in text
    assert "->" in text
    assert len(text.strip().splitlines()) == len(RECIPE_CLAIMS)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "membrane.cli", "list-recipes"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "thomee" in proc.stdout


def test_spectrum_recipe(tmp_path):
    code, out = run_cli(["spectrum", "--shape", "box", "--d", "2", "--h", "1/8", "--k", "10"], tmp_path, "i")
    assert code == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 11


@pytest.mark.parametrize(
    "shape,route,reason",
    [("box", "box-sectors", "centred box, largest parity sector 49"), ("ball", "dense", "not a centred box")],
)
def test_spectrum_records_eigensolve_route(tmp_path, shape, route, reason):
    code, out = run_cli(["spectrum", "--shape", shape, "--d", "2", "--h", "1/8", "--k", "10"], tmp_path, shape)
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["stage_facts"]["eigensolve"] == {"route": route, "route_reason": reason}


def test_spectrum_recipe_weyl_ratio(tmp_path):
    code, out = run_cli(["spectrum", "--shape", "box", "--d", "2", "--h", "1/16", "--k", "60"], tmp_path, "w")
    assert code == 0
    rows = (out / "weyl.csv").read_text().strip().splitlines()
    assert rows[0] == "leading,weyl_leading,ratio"
    leading, weyl_leading, ratio = map(float, rows[1].split(","))
    assert weyl_leading == pytest.approx(1.0 / math.pi, rel=1e-12)  # (-1,1)^2
    assert ratio == pytest.approx(leading / weyl_leading, rel=1e-12)
    assert abs(ratio - 1.0) <= 0.10


def test_infvol_green_recipe_small(tmp_path):
    from membrane.infvol import walk_tail_bound

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_steps": 60}))
    code, out = run_cli(
        ["--config", str(cfg), "infvol", "green", "--x", "1,0,0,0,0", "--count", "20000"], tmp_path, "k"
    )
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert [(a["name"], a["passed"]) for a in man["assertions"]] == [("agree_0", True)]
    header, row = [line.split(",") for line in (out / "infvol_green.csv").read_text().strip().splitlines()]
    assert float(row[header.index("tail_bound")]) == walk_tail_bound(60, 5, 1)


def test_infvol_green_rejects_repeated_target(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"targets": [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0]], "max_steps": 20}))
    code, out = run_cli(["--config", str(cfg), "infvol", "green", "--count", "1000"], tmp_path, "r")
    assert code == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["infvol", "green", "--x", "4000,0,0,0,0", "--method", "walk"],
        ["infvol", "green", "--d", "8"],
    ],
    ids=["far-target", "d8-200-steps"],
)
def test_infvol_green_refuses_walk_keys_that_overflow_int64(tmp_path, monkeypatch, args):
    """A target at 4000, or d = 8 at the default 200 steps, keys walks past
    int64: exit 2 before any walk or quadrature, with no manifest."""
    from membrane import infvol

    def no_work(*a, **k):
        raise AssertionError("work started on a plan whose keys overflow int64")

    monkeypatch.setattr(infvol, "shell_quadrature", no_work)
    monkeypatch.setattr(np.random, "default_rng", no_work)
    code, out = run_cli(args, tmp_path, "o")
    assert code == EXIT_USAGE
    assert not (out / "manifest.json").exists()


def test_infvol_variance_recipe_small(tmp_path):
    code, out = run_cli(["infvol", "variance", "--d", "5", "--N", "4,8"], tmp_path, "j")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["passed"]


def test_infvol_eta2_recipe_reports_the_riesz_limit(tmp_path):
    from membrane.infvol import riesz_constant

    code, out = run_cli(["infvol", "eta2", "--d", "5", "--radii", "6..9"], tmp_path, "e")
    assert code == 0
    header, *rows = [line.split(",") for line in (out / "eta2_trend.csv").read_text().strip().splitlines()]
    assert header == ["r", "green", "ratio", "ratio_over_limit"]
    assert [int(row[0]) for row in rows] == [6, 7, 8, 9]
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[2]) / riesz_constant(5), rel=1e-12)
    assert "Riesz constant" in RECIPE_CLAIMS["infvol-eta2"]


def test_a_given_flag_beats_the_config_key_even_at_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 3}))
    args = ["--config", str(cfg), "sample", "--shape", "box", "--d", "2", "--h", "1/8", "--count", "0"]
    code, out = run_cli(args, tmp_path, "z")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["count"] == 0
    assert json.loads((out / "samples.json").read_text())["shape"][0] == 0


@pytest.mark.parametrize(
    "args",
    [
        ["b2star", "--shape", "box", "--d", "2", "--h", "1/8", "--K", "0"],
        ["spectrum", "--shape", "box", "--d", "2", "--h", "1/8", "--k", "0"],
        ["interpolate", "--d", "2", "--N", "8", "--mesh", "0"],
        ["sample", "--shape", "box", "--d", "2", "--h", "1/8", "--count", "-1"],
        ["b2star", "--shape", "box", "--d", "2", "--h", "1/8", "--K", "1"],
    ],
)
def test_zero_or_negative_sizes_are_usage_errors(tmp_path, args):
    code, out = run_cli(args, tmp_path, "n")
    assert code == EXIT_USAGE
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["infvol", "eta2", "--x", "1,0"],
        ["infvol", "eta2", "--count", "3"],
        ["infvol", "variance", "--radii", "5..6"],
        ["infvol", "green", "--N", "4,8"],
    ],
)
def test_infvol_modes_refuse_the_flags_of_other_modes(tmp_path, args):
    code, out = run_cli(args, tmp_path, "m")
    assert code == EXIT_USAGE
    assert not out.exists()


def test_infvol_green_default_target_is_e1_in_d_dimensions(tmp_path):
    code, out = run_cli(["infvol", "green", "--d", "6", "--method", "fourier"], tmp_path, "six")
    assert code == 0
    header, row = [line.split(",") for line in (out / "infvol_green.csv").read_text().strip().splitlines()]
    assert row[header.index("x")] == "1;0;0;0;0;0"
    assert float(row[header.index("fourier")]) > 0


def test_every_recipe_claim_names_a_parser_path():
    from membrane.cli import build_parser

    for name in RECIPE_CLAIMS:
        path = name.replace("infvol-", "infvol ").split()
        args = build_parser().parse_args(path)
        assert args.func.__name__ == "run_" + name.replace("-", "_")


@pytest.mark.parametrize(
    "args, config",
    [
        (["sample", "--shape", "box", "--d", "2", "--h", "1/0"], None),
        (["sample", "--shape", "box", "--d", "2"], {"h": "1/0"}),
        (["thomee", "--d", "2", "--h", "1/8,1/0,1/32"], None),
        (["max-scaling", "--N", "8", "--count", "5"], None),
        (["max-scaling", "--N", "8,8", "--count", "5"], None),
        (["infvol", "green"], {"max_steps": -1}),
    ],
    ids=["h-flag", "h-config", "thomee-h", "one-scale", "repeated-scale", "negative-max_steps"],
)
def test_values_a_recipe_cannot_use_are_usage_errors(tmp_path, args, config):
    """A spacing of 1/0, one max-scaling scale, or a negative walk length exits 2 with no manifest."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["--config", str(cfg)] + args
    code, out = run_cli(args, tmp_path, "v")
    assert code == EXIT_USAGE
    assert not out.exists()
