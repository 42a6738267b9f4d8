import json
import math
import subprocess
import sys

import numpy as np
import pytest

from membrane.cli import RECIPE_CLAIMS, main


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
        solve, route, reason = make(A, domain)

        def solve_skewed(rhs):
            x = solve(rhs)
            x[0] += 1e-12 * np.abs(x).max() * rhs[1]  # G(0, 1) alone moves
            return x

        return solve_skewed, route, reason

    monkeypatch.setattr(green, "_make_solver", skewed)
    code, out = run_cli(["green", "--shape", "box", "--d", "2", "--h", "1/4", "--columns", "all"], tmp_path, "s")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    sym = next(a for a in man["assertions"] if a["name"] == "symmetry")
    assert sym["passed"]
    assert 0.5e-12 <= float(sym["detail"].split()[3]) <= 2e-12


def test_recipes_record_the_solver_route(tmp_path):
    code, out = run_cli(["sample", "--shape", "box", "--d", "2", "--h", "1/8", "--count", "1"], tmp_path, "r1")
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["stage_facts"]["factorize"] == {"route": "box-direct"}
    code, out = run_cli(["green", "--shape", "ball", "--d", "2", "--h", "1/8", "--columns", "0,0"], tmp_path, "r2")
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["stage_facts"]["solve"] == {"route": "superlu"}


def test_green_selected_columns(tmp_path):
    code, out = run_cli(
        ["green", "--shape", "box", "--d", "2", "--h", "1/4", "--columns", "0,0;1,1"],
        tmp_path,
        "c2",
    )
    assert code == 0
    meta = json.loads((out / "green_columns.json").read_text())
    assert meta["columns"] == [[0, 0], [1, 1]]


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
    code, out = run_cli(["thomee", "--shape", "ball", "--d", "2", "--h", "1/8,1/16,1/32"], tmp_path, "g")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    names = {a["name"] for a in man["assertions"]}
    assert {"monotone_decrease", "order_at_least_half", "within_bound_curve"} <= names
    assert man["passed"]


def test_unknown_subcommand_usage_error(tmp_path):
    assert main(["frobnicate"]) == 2


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


def test_spectrum_recipe_weyl_ratio(tmp_path):
    code, out = run_cli(["spectrum", "--shape", "box", "--d", "2", "--h", "1/16", "--k", "60"], tmp_path, "w")
    assert code == 0
    rows = (out / "weyl.csv").read_text().strip().splitlines()
    assert rows[0] == "leading,weyl_leading,ratio"
    leading, weyl_leading, ratio = map(float, rows[1].split(","))
    assert weyl_leading == pytest.approx(1.0 / math.pi, rel=1e-12)  # (-1,1)^2
    assert ratio == pytest.approx(leading / weyl_leading, rel=1e-12)
    assert abs(ratio - 1.0) <= 0.10


def test_infvol_variance_recipe_small(tmp_path):
    code, out = run_cli(["infvol", "variance", "--d", "5", "--N", "4,8"], tmp_path, "j")
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["passed"]
