import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solgeo.cli import main
from solgeo.expressions import CATALOG, CATALOG_NAMES


def run(argv):
    return main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_residual_minimal_surface(tmp_path, capsys):
    out = tmp_path / "r"
    code = run(["residual", "--surface", "saddle-point",
                "--window", "-2", "2", "-2", "2", "-2", "2",
                "--grid", "12", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["max_abs_residual"] < 1e-9
    assert summary["minimal_flag"] is True
    header = read(out / "residual.csv").decode().splitlines()[0]
    assert header == "x,y,z,Nh,H,residual,NT"


def test_residual_nonminimal_flagged(tmp_path):
    out = tmp_path / "r2"
    code = run(["residual", "--u", "x + y + z",
                "--window", "-2", "2", "-2", "2", "-2", "2",
                "--grid", "12", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["max_abs_normalized_residual_on_surface"] > 1e-2
    assert summary["minimal_flag"] is False


def test_residual_syntax_error_exit_2(tmp_path, capsys):
    code = run(["residual", "--u", "x + + y", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "offset 4" in capsys.readouterr().err


def test_curve_vertical_line(tmp_path):
    out = tmp_path / "c"
    code = run(["curve", "--p0", "0", "0", "0", "--alpha", "0",
                "--t", "0", "3", "--n", "50", "--out", str(out)])
    assert code == 0
    rows = read(out / "curve.csv").decode().splitlines()[1:]
    last = [float(v) for v in rows[-1].split(",")]
    assert last[1:4] == pytest.approx([0.0, 0.0, 3.0], abs=1e-12)


def test_curve_oracle_deviation(tmp_path):
    out = tmp_path / "c2"
    code = run(["curve", "--p0", "0.1", "0.2", "-0.3", "--alpha", "0.8",
                "--t", "-2", "2", "--n", "60", "--oracle", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["oracle_sup_deviation"] < 1e-8
    assert summary["horizontality_drift"] < 1e-9


def test_curve_not_horizontal_exit_3(tmp_path, capsys):
    code = run(["curve", "--p0", "0", "0", "0", "--v", "1", "1", "0",
                "--out", str(tmp_path / "c3")])
    assert code == 3
    assert "not horizontal" in capsys.readouterr().err


def test_sweep_outputs_and_scan(tmp_path):
    out = tmp_path / "s"
    code = run(["sweep", "--gamma", "exp", "--x0", "0.2", "-0.1", "0.3",
                "--theta", "0.7", "--eps", "-1", "1", "--t", "-2", "2",
                "--grid", "16", "16", "--scan-singular", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["orthogonality_defect"] < 1e-10
    assert summary["max_abs_intrinsic_H"] < 1e-7
    assert len(summary["singular_loci"]) == 1
    obj = read(out / "sweep.obj").decode().splitlines()
    assert obj[0].startswith("v ")
    assert any(line.startswith("f ") for line in obj)
    n_vertices = sum(1 for line in obj if line.startswith("v "))
    assert n_vertices == 16 * 16


def test_sweep_x_line_branch(tmp_path):
    out = tmp_path / "sx"
    code = run(["sweep", "--gamma", "x-line", "--x0", "0", "0", "0",
                "--eps", "-1", "1", "--t", "-2", "2", "--grid", "12", "12",
                "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["branch"] == "x-integral"


def test_csv_precision_17_digits(tmp_path):
    out = tmp_path / "c17"
    run(["curve", "--p0", "0", "0", "0", "--alpha", "0.773", "--t", "0", "1",
         "--n", "5", "--out", str(out)])
    rows = read(out / "curve.csv").decode().splitlines()[1:]
    value = rows[-1].split(",")[1]
    assert float(value) != 0.0
    # shortest-17g representation reparses to the exact double
    assert f"{float(value):.17g}" == value


def test_residual_csv_cells_17_digits(tmp_path):
    out = tmp_path / "r17"
    assert run(["residual", "--surface", "saddle-point", "--grid", "9", "--out", str(out)]) == 0
    lines = read(out / "residual.csv").decode().splitlines()
    assert len(lines) == 1 + 9**3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert all(f"{float(cell):.17g}" == cell for cell in cells), line


def test_stability_sufficient_and_flip(tmp_path):
    out = tmp_path / "st"
    code = run(["stability", "sufficient", "--surface", "plane-x",
                "--n", "16", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["sufficient"]["condition_met"] is True
    code = run(["stability", "sufficient", "--surface", "plane-x",
                "--flip-orientation", "--n", "16", "--out", str(out)])
    summary = json.loads(read(out / "summary.json"))
    assert summary["sufficient"]["condition_met"] is False


def test_stability_area(tmp_path):
    out = tmp_path / "sa"
    code = run(["stability", "area", "--surface", "plane-z", "--eta", "0.3",
                "--n", "25", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["area"]["base_strictly_smaller"] is True


@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("surface", ["plane-x", "plane-y", "plane-z"])
def test_stability_area_smallest_grids(tmp_path, surface, n):
    out = tmp_path / "sa"
    code = run(["stability", "area", "--surface", surface, "--eta", "0.3",
                "--n", n, "--out", str(out)])
    assert code == 0
    area = json.loads(read(out / "summary.json"))["area"]
    assert all(np.isfinite(v) for k, v in area.items() if k != "base_strictly_smaller")
    assert area["base_strictly_smaller"] is True


def test_stability_qform_battery(tmp_path):
    out = tmp_path / "sq"
    code = run(["stability", "qform", "--surface", "saddle-curve",
                "--battery", "6", "--seed", "7", "--n", "10", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["battery_nonnegative"] is True
    assert len(summary["reports"]) == 6


def test_stability_compare(tmp_path):
    out = tmp_path / "sc"
    code = run(["stability", "compare", "--family", "saddle_curve",
                "--battery", "3", "--seed", "5", "--n", "10", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    for comp in summary["comparisons"]:
        assert comp["agree"] or comp["mismatch_term"]


def test_determinism_byte_identical(tmp_path):
    out = tmp_path / "d"
    args = ["stability", "qform", "--surface", "plane-ab", "--param", "a=1",
            "--param", "b=1", "--battery", "4", "--seed", "9", "--n", "8",
            "--out", str(out)]
    assert run(args) == 0
    first = read(out / "summary.json")
    assert run(args) == 0
    second = read(out / "summary.json")
    assert first == second


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid=8\nband=0.2\n")
    out = tmp_path / "cf"
    code = run(["residual", "--surface", "plane-x", "--config", str(cfgfile),
                "--grid", "6", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    # flag beats config file; config file beats default
    assert summary["config"]["grid"] == 6
    assert summary["config"]["band"] == 0.2


@pytest.mark.parametrize("argv, line, key", [
    (["residual", "--surface", "plane-x"], "grid=abc", "grid"),
    (["residual", "--surface", "plane-x"], "window=1 2 3", "window"),
    (["residual", "--surface", "plane-x"], "band=", "band"),
    (["curve", "--alpha", "0.3"], "oracle=maybe", "oracle"),
])
def test_bad_config_value_exit_2(tmp_path, capsys, argv, line, key):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    code = run([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "bv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"config key {key}" in err
    assert not (tmp_path / "bv").exists()


def test_config_validation(tmp_path, capsys):
    code = run(["residual", "--surface", "plane-x", "--grid", "1",
                "--out", str(tmp_path / "v")])
    assert code == 2


def test_unknown_surface(tmp_path, capsys):
    code = run(["stability", "sufficient", "--surface", "plane-ab",
                "--param", "a=1", "--param", "b=-1", "--out", str(tmp_path / "u")])
    # adapted patch refuses a*b < 0 which has no singular line: config error
    assert code in (2, 3)


@pytest.mark.parametrize("argv", [
    ["area", "--surface", "plane-x", "--eta", "1e300", "--n", "8"],
    ["qform", "--surface", "saddle-point", "--param", "z0=710", "--battery", "2", "--n", "4"],
    ["sufficient", "--surface", "plane-z", "--param", "c=1e300"],
])
def test_nonfinite_verdict_exit_3(tmp_path, capsys, recwarn, argv):
    code = run(["stability", *argv, "--out", str(tmp_path / "nf")])
    assert code == 3
    err = capsys.readouterr().err
    assert "not finite" in err
    # the finiteness gate gives the verdict; numpy's warnings stay out of it
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "nf" / "summary.json").exists()


@pytest.mark.parametrize("mode", [
    ["qform", "--surface", "plane-ab"], ["compare", "--family", "plane_ab"],
    ["sufficient", "--surface", "plane-ab"]], ids=["qform", "compare", "sufficient"])
@pytest.mark.parametrize("a,b", [("1e-200", "1e200"), ("1e-300", "1e300"),
                                 ("-1e-200", "-1e200"), ("1e200", "1e-200")])
def test_plane_ab_with_a_far_singular_line_exits_0(tmp_path, capsys, recwarn, mode, a, b):
    # b/a overflows, log|b| - log|a| does not: the singular line sits at
    # z = +-460 or +-691.  The sufficient condition needs an empty singular
    # set, so it refuses the plane, far line or not
    battery = [] if mode[0] == "sufficient" else ["--battery", "2"]
    code = run(["stability", *mode, "--param", f"a={a}", "--param", f"b={b}",
                *battery, "--n", "4", "--out", str(tmp_path / "ab")])
    err = capsys.readouterr().err
    if mode[0] == "sufficient":
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0, err
        assert err == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("surface", ["plane-ab", "saddle-curve", "saddle-point"])
@pytest.mark.parametrize("n", ["16", "17"])
def test_sufficient_refuses_a_surface_with_a_singular_set(tmp_path, capsys, surface, n):
    # an even grid never meets the singular curve at t = 0 or the singular
    # point, so the refusal comes from the patch, not from the samples
    code = run(["stability", "sufficient", "--surface", surface, "--n", n,
                "--out", str(tmp_path / "s")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the sufficient condition needs an empty singular set")
    assert err.count("\n") == 1
    assert not (tmp_path / "s").exists()


def test_residual_empty_band_exit_3(tmp_path, capsys):
    # the plane x = -100 lies outside the default window
    code = run(["residual", "--surface", "plane-x", "--param", "c=100", "--grid", "4",
                "--out", str(tmp_path / "eb")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the on-surface band is empty") and err.count("\n") == 1
    assert not (tmp_path / "eb").exists()


@pytest.mark.parametrize("u,message", [
    ("x/(y-1)", "field evaluation is not finite at point (-1.0, 1.0, -1.0)"),
    # a constant subtree runs in Python floats and fails at the first node
    ("x + 1/0", "float division by zero at point (-1.0, 0.0, -1.0)"),
])
def test_residual_pole_exit_3_names_the_point(tmp_path, capsys, u, message):
    code = run(["residual", "--u", u, "--window", "-1", "1", "0", "2", "-1", "1",
                "--grid", "3", "--out", str(tmp_path / "p")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--gamma", "y-line", "--t", "-800", "800"],
    ["--gamma", "exp", "--theta", "1.5", "--t", "-800", "800"],
    ["--gamma", "exp", "--eps", "-1000", "1000", "--grid", "4", "4"],
])
def test_sweep_overflow_exit_3(tmp_path, capsys, argv):
    code = run(["sweep", *argv, "--out", str(tmp_path / "ov")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: |zdot0*t| exceeds 700; evaluation would overflow\n"
    assert not (tmp_path / "ov" / "summary.json").exists()


def test_sweep_far_base_curve_is_quiet(tmp_path, capsys):
    # the base curve is evaluated only where the sweep needs it, so a wide
    # eps range short of the overflow bound prints nothing on stderr
    code = run(["sweep", "--gamma", "exp", "--eps", "-800", "800", "--grid", "4", "4",
                "--out", str(tmp_path / "far")])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "far" / "summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["curve", "--eps-level", "1e-3"],
    ["curve", "--eps-sing", "1e-6"],
    ["sweep", "--seed", "1"],
    ["residual", "--surface", "plane-x", "--eps-level", "1e-3"],
])
def test_removed_options_exit_2(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "ro")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "ro").exists()


@pytest.mark.parametrize("line, key", [
    ("eps_level=1e-3", "eps_level"),
    ("seed=4", "seed"),
    ("bogus=1", "bogus"),
])
def test_removed_config_keys_exit_2(tmp_path, capsys, line, key):
    # a config file may not set what the command line may not
    cfgfile = tmp_path / "ro.cfg"
    cfgfile.write_text(line + "\n")
    code = run(["curve", "--config", str(cfgfile), "--alpha", "0.3",
                "--out", str(tmp_path / "ro")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"has no option {key}" in err
    assert not (tmp_path / "ro").exists()


def test_nonfinite_param_exit_2(tmp_path, capsys):
    code = run(["residual", "--surface", "plane-x", "--param", "c=nan",
                "--grid", "4", "--out", str(tmp_path / "np")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--param c must be finite" in err
    assert "offset" not in err


def test_surface_without_adapted_patch_exit_2(tmp_path, capsys):
    code = run(["stability", "qform", "--surface", "tilted", "--battery", "2",
                "--out", str(tmp_path / "t")])
    assert code == 2
    assert "no adapted patch" in capsys.readouterr().err


@pytest.mark.parametrize("argv, line, flags", [
    (["stability", "qform", "--surface", "plane-x", "--battery", "2", "--n", "4"],
     "delta=0.5", ["--delta", "0.5"]),
    (["stability", "qform", "--surface", "plane-z", "--battery", "2", "--n", "4"],
     "param=c=0.3", ["--param", "c=0.3"]),
    (["curve", "--t", "0", "1", "--n", "5"], "v=0 0 1", ["--v", "0", "0", "1"]),
    (["curve", "--t", "0", "1", "--n", "5"], "alpha=0.3", ["--alpha", "0.3"]),
    (["sweep", "--grid", "4", "4"], "v0=0, 0, 1", ["--v0", "0", "0", "1"]),
])
def test_config_file_equals_flags(tmp_path, argv, line, flags):
    # options without a default take their type and arity from the option
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    assert run([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0
    from_file = read(tmp_path / "o" / "summary.json")
    assert run([*argv, *flags, "--out", str(tmp_path / "o")]) == 0
    assert from_file == read(tmp_path / "o" / "summary.json")


def test_config_mode_exit_2(tmp_path, capsys):
    # the positional argument sets the mode; a config line may not contradict it
    cfgfile = tmp_path / "mode.cfg"
    cfgfile.write_text("mode=area\n")
    code = run(["stability", "qform", "--surface", "plane-x", "--battery", "2", "--n", "4",
                "--config", str(cfgfile), "--out", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key mode") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


def test_sweep_scan_evaluates_the_grid_once(tmp_path, monkeypatch):
    from solgeo.stationary import RuledSurface

    sizes = []
    jet = RuledSurface.jet

    def counting(self, eps, t):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(eps), np.shape(t)))))
        return jet(self, eps, t)

    monkeypatch.setattr(RuledSurface, "jet", counting)
    assert run(["sweep", "--grid", "48", "48", "--scan-singular",
                "--out", str(tmp_path / "s")]) == 0
    # one jet on the grid; the orthogonality check evaluates the base line
    assert [n for n in sizes if n >= 48 * 48] == [48 * 48]
    summary = json.loads(read(tmp_path / "s" / "summary.json"))
    assert len(summary["singular_loci"]) == 1


def test_sweep_v0_sets_the_base_velocity(tmp_path, capsys):
    # a given --v0 is used: X = (0, 0, 1) at the origin is not the default theta
    assert run(["sweep", "--grid", "6", "6", "--out", str(tmp_path / "d")]) == 0
    assert run(["sweep", "--grid", "6", "6", "--v0", "0", "0", "1",
                "--out", str(tmp_path / "v")]) == 0
    default = json.loads(read(tmp_path / "d" / "summary.json"))
    given = json.loads(read(tmp_path / "v" / "summary.json"))
    assert default["config"]["theta"] == 0.7 and default["config"]["v0"] is None
    assert given["config"]["theta"] is None and given["config"]["v0"] == [0.0, 0.0, 1.0]
    assert read(tmp_path / "d" / "sweep.csv") != read(tmp_path / "v" / "sweep.csv")
    # explicit --theta 0.7 and the default write the same files
    assert run(["sweep", "--grid", "6", "6", "--theta", "0.7",
                "--out", str(tmp_path / "t")]) == 0
    assert read(tmp_path / "t" / "sweep.csv") == read(tmp_path / "d" / "sweep.csv")
    capsys.readouterr()
    # a non-horizontal --v0 is a precondition failure
    assert run(["sweep", "--grid", "6", "6", "--v0", "1", "1", "0",
                "--out", str(tmp_path / "n")]) == 3
    assert "not horizontal" in capsys.readouterr().err
    # --v0 and --theta both set the velocity
    assert run(["sweep", "--grid", "6", "6", "--v0", "0", "0", "1", "--theta", "0.3",
                "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "--v0" in err and "--theta" in err
    # a line base curve has its own velocity
    assert run(["sweep", "--grid", "6", "6", "--gamma", "x-line", "--v0", "0", "0", "1",
                "--out", str(tmp_path / "x")]) == 2
    assert "--gamma exp" in capsys.readouterr().err


def test_main_runs_alike_on_the_cached_and_on_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a run after a failed parse and
    # a run from a config file must not see anything a former run left
    import solgeo.cli as cli

    runs = [
        ["stability", "qform", "--surface", "plane-x", "--nope"],
        ["curve", "--alpha", "0.4", "--n", "12", "--out", "c"],
        ["sweep", "--config", "run.cfg", "--out", "s"],
    ]
    results = {}
    for side in ("fresh", "cached"):
        root = tmp_path / side
        root.mkdir()
        (root / "run.cfg").write_text("gamma = x-line\ngrid = 6, 5\nscan-singular = yes\n")
        monkeypatch.chdir(root)
        results[side] = []
        for argv in runs:
            if side == "fresh":
                cli._build_parser.cache_clear()
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            summary = root / argv[-1] / "summary.json"
            results[side].append((rc, out, err, summary.read_bytes() if rc == 0 else None))
    assert [r[0] for r in results["cached"]] == [2, 0, 0]
    assert "unrecognized arguments: --nope" in results["cached"][0][2]
    assert results["cached"] == results["fresh"]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("params", [["x0=1e6"], ["y0=-1e8", "x0=0.3"], ["z0=20"]],
                         ids=["far-in-x", "far-in-y", "scaled-field"])
def test_saddle_curve_one_row_tables_agree_with_the_full_grid(tmp_path, params):
    # far from the z-axis the chart's coordinates round at 1e-10 and more,
    # and z0 scales the catalog field; the sweep's geometry reads neither
    # (only z, the tangents and their rates), so the eps-rows of the
    # invariant patch pass the strict row check and the one-row tables give
    # the full grid's Q(u)
    import dataclasses

    from solgeo.stability import (battery_test_functions, patch_for_catalog, q_form,
                                  q_form_simplified)

    flags = [x for p in params for x in ("--param", p)]
    grid = ["--battery", "3", "--n", "16", "--seed", "5"]
    assert run(["stability", "qform", "--surface", "saddle-curve", *flags, *grid,
                "--out", str(tmp_path / "q")]) == 0
    assert run(["stability", "compare", "--family", "saddle_curve", *flags, *grid,
                "--out", str(tmp_path / "c")]) == 0
    qform = json.loads(read(tmp_path / "q" / "summary.json"))["reports"]
    compare = json.loads(read(tmp_path / "c" / "summary.json"))["comparisons"]

    patch = patch_for_catalog("saddle-curve", dict(p.split("=") for p in params))
    assert patch.eps_invariant
    full = dataclasses.replace(patch, eps_invariant=False)
    delta = 0.1 * (full.t_range[1] - full.t_range[0])
    for i, u in enumerate(battery_test_functions(full, 3, 5, delta)):
        general = q_form(full, u, grid=(16, 16), delta=delta)
        simple = q_form_simplified(full, u, grid=(16, 16), delta=delta)
        for got, want in ((qform[i], general), (compare[i]["general"], general),
                          (compare[i]["simplified"], simple)):
            assert abs(got["total"] - want.total) <= want.error_estimate


@pytest.mark.parametrize("argv, code", [
    # non-finite option values and a negative seed
    (["sweep", "--x0", "nan", "0", "0"], 2),
    (["curve", "--p0", "0", "0", "nan", "--alpha", "0.3"], 2),
    (["curve", "--alpha", "inf"], 2),
    (["stability", "qform", "--seed", "-1", "--battery", "2", "--n", "4"], 2),
    (["sweep", "--theta", "nan", "--grid", "4", "4"], 2),
    (["sweep", "--skew", "inf", "--grid", "4", "4"], 2),
    (["stability", "qform", "--delta", "nan", "--battery", "2", "--n", "4"], 2),
    (["stability", "qform", "--delta", "inf", "--battery", "2", "--n", "4"], 2),
    (["sweep", "--t", "-3", "inf", "--grid", "4", "4"], 2),
    (["curve", "--t", "0", "inf", "--alpha", "0.3"], 2),
    # a delta too wide for a patch with a singular curve
    (["stability", "qform", "--surface", "plane-ab", "--delta", "1.2", "--battery", "2"], 2),
    (["stability", "compare", "--family", "saddle_curve", "--delta", "2", "--battery", "2"], 2),
    # a base height whose e^z or e^-z overflows
    (["curve", "--p0", "0", "0", "800", "--alpha", "0.3"], 3),
    (["sweep", "--x0", "0", "0", "800"], 3),
    (["sweep", "--x0", "0", "0", "800", "--gamma", "x-line"], 3),
    (["sweep", "--x0", "0", "0", "-800", "--gamma", "y-line"], 3),
    # inputs the run would ignore
    (["curve", "--alpha", "0.3", "--v", "0", "0", "1"], 2),
    (["sweep", "--gamma", "x-line", "--theta", "0.3"], 2),
    (["sweep", "--gamma", "y-line", "--theta", "0.3"], 2),
    (["residual", "--u", "x + y", "--param", "c=1"], 2),
    # the tangents' cross product, the RK45 oracle's error norm or the
    # initial velocity's frame speed overflows, or the foot of plane-ab's
    # singular line does
    (["sweep", "--gamma", "line", "--x0", "-1.0", "4.4118585185407255", "-1.0",
      "--grid", "4", "4", "--eps", "-1.0", "354.001", "--t", "1.0", "356.001"], 3),
    (["sweep", "--gamma", "x-line", "--x0", "0", "0", "0", "--grid", "4", "4",
      "--eps", "1.0", "1.501", "--t", "0", "1e300"], 3),
    (["curve", "--p0", "0.0", "0.5", "355.0", "--alpha", "1.0", "--n", "2",
      "--t", "1e-300", "4.0963689553304246", "--oracle"], 3),
    (["curve", "--p0", "0", "0", "-355", "--v", "1e300", "-0.5", "0", "--t", "-559", "0"], 3),
    (["stability", "qform", "--surface", "plane-ab", "--param", "a=1e300",
      "--param", "c=1e300", "--battery", "2", "--n", "3"], 2),
])
def test_bad_input_exits_2_or_3_and_writes_nothing(tmp_path, capsys, recwarn, argv, code):
    assert run([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, code, message", [
    # heights z0 + zdot0 t past the range of e^z
    (["curve", "--p0", "0", "0", "705", "--alpha", "0.3", "--t", "0", "10"], 3,
     "overflows at height z = 714.553"),
    (["curve", "--p0", "0", "0", "700", "--alpha", "1.0", "--t", "0", "20"], 3,
     "overflows at height z = 710.806"),
    (["curve", "--p0", "0", "0", "705", "--alpha", "0.3", "--t", "0", "10", "--oracle"], 3,
     "overflows at height z = 714.553"),
    (["sweep", "--x0", "0", "0", "709", "--theta", "1.2"], 3, "overflows at height z = 712.34"),
    (["sweep", "--gamma", "x-line", "--x0", "0", "0", "709"], 3,
     "overflows at height z = 710.5"),
    # options the mode does not read
    (["stability", "compare", "--family", "plane_ab", "--surface", "plane-z"], 2,
     "stability compare does not read --surface"),
    (["stability", "area", "--surface", "plane-z", "--delta", "0.1", "--battery", "9"], 2,
     "stability area does not read --battery, --delta"),
    (["stability", "qform", "--surface", "plane-z", "--eta", "0.1"], 2,
     "stability qform does not read --eta"),
    (["residual", "--u", "x", "--surface", "plane-y"], 2, "--u and --surface"),
    # heights in range, but e^|z0| times the x or y displacement overflows
    (["curve", "--p0", "0", "0", "705", "--alpha", "1.5707", "--t", "0", "10"], 3,
     "100 of 600 sampled coordinates are not finite"),
    (["curve", "--p0", "0", "0", "-705", "--alpha", "1.5707", "--t", "0", "10"], 3,
     "100 of 600 sampled coordinates are not finite"),
    (["sweep", "--x0", "0", "0", "705", "--theta", "1.5707"], 3,
     "2304 of 20736 sampled coordinates are not finite"),
    (["sweep", "--x0", "0", "0", "-705", "--theta", "1.5707"], 3,
     "2304 of 20736 sampled coordinates are not finite"),
    # graph patches whose e^z or height partials overflow at the nodes
    (["stability", "qform", "--surface", "saddle-point", "--param", "z0=-705"], 3,
     "field evaluation is not finite at point (inf, "),
    (["stability", "qform", "--surface", "plane-z", "--param", "c=800"], 3,
     "field evaluation is not finite at point ("),
    # e^{2z} times a partial overflows on the window, a sweep's rulings lie
    # along its base curve, and |u| over |grad u| overflows
    (["residual", "--surface", "tilted", "--grid", "5", "--window", "-700", "700", "-1", "0.5",
      "-700", "2", "--param", "c=-0.5"], 3,
     "the minimal-surface residual is not finite at point (-700.0, -1.0, -700.0)"),
    (["sweep", "--gamma", "x-line", "--grid", "6", "6", "--skew", "1e308"], 3,
     "the intrinsic mean curvature is not finite at eps = 0, t = -2.7"),
    (["residual", "--surface", "plane-y", "--grid", "8", "--param", "c=1e308"], 3,
     "the on-surface band is empty"),
])
def test_overflowing_heights_and_unread_options_exit_2_or_3(tmp_path, capsys, argv, code,
                                                            message):
    assert run([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert not (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("argv, nodes", [
    (["area", "--surface", "plane-y", "--n", "200000", "--eta", "0.3"], (16 * 160000) ** 2),
    (["qform", "--surface", "saddle-point", "--n", "91"], (16 * 91) ** 2),
    (["sufficient", "--surface", "plane-x", "--n", "1449"], 1449 ** 2),
])
def test_grid_over_the_node_cap_exits_2(tmp_path, capsys, argv, nodes):
    from solgeo.stability import MAX_NODES

    assert run(["stability", *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"needs {nodes} nodes at its finest level, over the limit of {MAX_NODES}" in err
    assert not (tmp_path / "o").exists()


def test_largest_documented_grids_stay_under_the_node_cap(tmp_path):
    # qform --n 64 runs in the memory gate test below
    assert run(["stability", "area", "--surface", "plane-x", "--n", "100",
                "--out", str(tmp_path / "a")]) == 0


def _peak_rss_mb(argv, out) -> float:
    """Peak RSS in MB of a CLI run in a fresh interpreter, which must exit 0."""
    code = (
        "import resource, sys\n"
        "from solgeo.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, maxrss_kb = proc.stdout.split()[-2:]
    assert rc == "0"
    return int(maxrss_kb) / 1024


def test_saddle_point_qform_at_n_64_peaks_below_150_mb(tmp_path):
    # the full-grid table is built in row blocks, so the fine level's
    # 1024 x 1024 nodes never hold their geometry at once
    argv = ["stability", "qform", "--surface", "saddle-point", "--n", "64", "--battery", "2"]
    assert _peak_rss_mb(argv, tmp_path / "q") < 150.0


def test_sufficient_condition_at_n_1024_peaks_below_150_mb(tmp_path):
    # the 1024 x 1024 grid is evaluated in blocks of whole eps-rows
    argv = ["stability", "sufficient", "--surface", "plane-x", "--n", "1024"]
    assert _peak_rss_mb(argv, tmp_path / "s") < 150.0


def test_unread_option_from_a_config_file_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("eta=0.1\n")
    code = run(["stability", "qform", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error: stability qform does not read --eta\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["residual", "--surface", "tilted", "--param", "e=1"],
    ["stability", "qform", "--surface", "plane-x", "--param", "C=0.5"],
    ["stability", "compare", "--family", "plane_ab", "--param", "z0=1"],
    ["stability", "sufficient", "--surface", "plane-y", "--param", "a=1"],
    ["stability", "area", "--surface", "plane-z", "--param", "c=0.1", "--param", "d=1"],
])
def test_unknown_catalog_parameter_exit_2(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    unknown = argv[-1].split("=")[0]
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"has no parameter {unknown};" in err
    assert "its parameters: " in err
    assert not (tmp_path / "o").exists()


def _no_null(value, where="summary"):
    if isinstance(value, dict):
        for k, v in value.items():
            # a comparison names a mismatching term only where the forms disagree
            if not (k == "mismatch_term" and value["agree"]):
                _no_null(v, f"{where}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _no_null(v, f"{where}[{i}]")
    else:
        assert value is not None, where
        assert not isinstance(value, float) or np.isfinite(value), where


def _strict_json(text):
    def refuse(token):
        raise AssertionError(f"summary holds {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["residual", "--surface", "saddle-point", "--grid", "12"],
    ["residual", "--u", "x + y + z", "--grid", "12"],
    ["curve", "--alpha", "0.3", "--oracle"],
    ["curve", "--v", "0", "0", "1"],
    ["sweep", "--scan-singular"],
    ["sweep", "--gamma", "x-line", "--scan-singular"],
    ["sweep", "--gamma", "y-line", "--grid", "12", "12"],
    ["sweep", "--v0", "0", "0", "1", "--grid", "12", "12"],
    ["sweep", "--skew", "0.5", "--grid", "12", "12"],
    ["stability", "qform", "--battery", "3"],
    ["stability", "compare", "--family", "plane_ab", "--battery", "2"],
    ["stability", "compare", "--family", "saddle_curve", "--battery", "2"],
    *(["stability", "sufficient", "--surface", plane, *flip]
      for plane in ("plane-x", "plane-y", "plane-z") for flip in ([], ["--flip-orientation"])),
    ["stability", "area", "--n", "8", "--surface", "plane-z"],
])
def test_summary_holds_no_null_or_nonfinite_value(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "o")]) == 0
    summary = _strict_json(read(tmp_path / "o" / "summary.json"))
    assert capsys.readouterr().out == read(tmp_path / "o" / "summary.json").decode()
    _no_null({k: v for k, v in summary.items() if k != "config"})


# Run in a fresh interpreter: every mode but ``curve --oracle`` must leave
# scipy unloaded, and the oracle must still load it and agree.
_SCIPY_PROBE = """
import json, os, sys
import solgeo, solgeo.cli
out = sys.argv[1]
runs = [
    ["residual", "--surface", "saddle-point", "--grid", "6"],
    ["curve", "--alpha", "0.3", "--n", "20"],
    ["sweep", "--grid", "12", "12", "--scan-singular"],
    ["stability", "qform", "--surface", "plane-x", "--battery", "2", "--n", "4"],
    ["stability", "compare", "--family", "plane_ab", "--battery", "2", "--n", "4"],
    ["stability", "area", "--surface", "plane-z", "--n", "4"],
    ["stability", "sufficient", "--surface", "plane-x", "--n", "8"],
]
codes = [solgeo.cli.main([*argv, "--out", os.path.join(out, str(i))])
         for i, argv in enumerate(runs)]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
oracle = solgeo.cli.main(["curve", "--p0", "0.1", "0.2", "-0.3", "--alpha", "0.8",
                          "--t", "-2", "2", "--n", "60", "--oracle",
                          "--out", os.path.join(out, "oracle")])
print(json.dumps({"codes": codes, "scipy": loaded, "oracle": oracle}))
"""


def test_scipy_loads_only_for_the_ode_oracle(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7
    assert report["scipy"] == []
    assert report["oracle"] == 0
    summary = json.loads(read(tmp_path / "oracle" / "summary.json"))
    assert summary["oracle_sup_deviation"] < 1e-8


# -- CLI fuzz ------------------------------------------------------------------

#: the values the fuzz draws every float option from: the edges of the
#: float range, of e^z's range and of the heights, and anything in between
_FUZZ_FLOATS = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1e-300, 5e-324, 1e300, -1e300,
                     355.0, -355.0, 700.0, -700.0]),
    st.floats(-800.0, 800.0))


def _arg(v: float) -> str:
    """``v`` in positional notation, which reads back to the same float and
    which argparse takes as a value even where it is negative: "-1e+300"
    would be read as an option."""
    return np.format_float_positional(v, trim="0")


@st.composite
def _cli_argv(draw):
    """A CLI command in any mode, with fuzzed floats on the smallest grids."""
    def floats(k):
        return [_arg(draw(_FUZZ_FLOATS)) for _ in range(k)]

    def ranges(k):
        """k ranges (lo, hi), lo <= hi: an empty one is the only usage error."""
        return [_arg(v) for _ in range(k) for v in sorted(draw(_FUZZ_FLOATS) for _ in "lh")]

    def params(name):
        names = draw(st.lists(st.sampled_from(sorted(CATALOG[name][1])), max_size=2,
                              unique=True))
        return [f for k in names for f in ("--param", f"{k}={floats(1)[0]}")]

    mode = draw(st.sampled_from(["residual", "curve", "sweep", "qform", "compare",
                                 "sufficient", "area"]))
    small = st.integers(2, 8).map(str)
    battery = ["--battery", "2", "--n", draw(st.integers(2, 3).map(str)),
               *draw(st.sampled_from([[], ["--delta", *floats(1)]]))]
    if mode == "residual":
        name = draw(st.sampled_from(CATALOG_NAMES))
        return ["residual", "--surface", name, *params(name), "--grid", draw(small),
                "--window", *ranges(3)]
    if mode == "curve":
        velocity = ["--alpha", *floats(1)] if draw(st.booleans()) else ["--v", *floats(3)]
        oracle = ["--oracle"] if draw(st.booleans()) else []
        return ["curve", "--p0", *floats(3), *velocity, "--t", *ranges(1),
                "--n", draw(st.integers(2, 3).map(str)), *oracle]
    if mode == "sweep":
        gamma = draw(st.sampled_from(["exp", "line", "x-line", "y-line"]))
        velocity = []
        if gamma == "exp":
            velocity = draw(st.sampled_from([[], ["--theta", *floats(1)], ["--v0", *floats(3)]]))
        skew = ["--skew", *floats(1)] if draw(st.booleans()) else []
        scan = ["--scan-singular"] if draw(st.booleans()) else []
        return ["sweep", "--gamma", gamma, "--x0", *floats(3), *velocity, "--eps", *ranges(1),
                "--t", *ranges(1), "--grid", draw(small), draw(small), *skew, *scan]
    if mode == "compare":
        family = draw(st.sampled_from(["plane_ab", "saddle_curve"]))
        name = family.replace("_", "-")
        return ["stability", "compare", "--family", family, *params(name), *battery]
    if mode == "area":
        name = draw(st.sampled_from(["plane-x", "plane-y", "plane-z"]))
        return ["stability", "area", "--surface", name, *params(name), "--n", draw(small),
                "--eta", *floats(1)]
    name = draw(st.sampled_from(["plane-x", "plane-y", "plane-z", "plane-ab",
                                 "saddle-curve", "saddle-point"]))
    if mode == "sufficient":
        flip = ["--flip-orientation"] if draw(st.booleans()) else []
        return ["stability", "sufficient", "--surface", name, *params(name),
                "--n", draw(small), *flip]
    return ["stability", "qform", "--surface", name, *params(name), *battery]


@given(_cli_argv())
@example(["curve", "--p0", "0.0", "0.5", "355.0", "--alpha", "1.0", "--n", "2",
          "--t", "1e-300", "4.0963689553304246", "--oracle"])
@example(["sweep", "--gamma", "line", "--x0", "-1.0", "4.4118585185407255", "-1.0",
          "--grid", "4", "4", "--eps", "-1.0", "354.001", "--t", "1.0", "356.001"])
@example(["sweep", "--gamma", "x-line", "--x0", "0", "0", "0", "--grid", "4", "4",
          "--eps", "1.0", "1.501", "--t", "0", "1e300"])
@example(["residual", "--surface", "tilted", "--grid", "5", "--window", "-700", "700", "-1",
          "0.5", "-700", "2", "--param", "c=-0.5"])
@example(["sweep", "--gamma", "x-line", "--grid", "6", "6", "--skew", "1e308"])
@example(["residual", "--surface", "plane-y", "--grid", "8", "--param", "c=1e308"])
@example(["curve", "--p0", "0", "0", "-355", "--v", "1e300", "-0.5", "0", "--t", "-559", "0",
          "--n", "3"])
@example(["stability", "qform", "--surface", "plane-ab", "--param", "a=1e300",
          "--param", "c=1e300", "--battery", "2", "--n", "3"])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzzed_commands_exit_0_2_or_3_without_a_null(argv):
    # in-process, under the suite's RuntimeWarning filter: a numpy warning
    # on the way to a verdict is exit 4
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run([*argv, "--out", out])
        assert code in (0, 2, 3), (code, stderr.getvalue())
        if code == 0:
            summary = _strict_json(read(os.path.join(out, "summary.json")))
            _no_null({k: v for k, v in summary.items() if k != "config"})
        else:
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1, err
