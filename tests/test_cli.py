import json

import numpy as np
import pytest

from solgeo.cli import main


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
def test_plane_ab_with_a_far_singular_line_exits_0(tmp_path, capsys, mode, a, b):
    # b/a overflows, log|b| - log|a| does not: the singular line sits at
    # z = +-460 or +-691
    code = run(["stability", *mode, "--param", f"a={a}", "--param", f"b={b}",
                "--battery", "2", "--n", "4", "--out", str(tmp_path / "ab")])
    assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""


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
