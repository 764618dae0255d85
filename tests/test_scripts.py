"""Smoke tests: the scripts under scripts/ and the package exports run against
the current API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_stability_survey_runs():
    proc = _run_script("stability_survey.py", "--battery", "2", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line for line in proc.stdout.splitlines() if line}
    assert rows["plane-ab"].endswith("agree")
    assert "mismatch" in rows["saddle-curve"]


def test_build_gallery_runs(tmp_path):
    # the only end-to-end run of all three sweep branches and the catalog
    # residuals through the CLI
    proc = _run_script("build_gallery.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    outputs = sorted(p for p in tmp_path.iterdir() if p.is_dir())
    assert len(outputs) == 8
    for out in outputs:
        assert (out / "summary.json").is_file(), out.name


def test_every_exported_name_resolves():
    import solgeo

    missing = [name for name in solgeo.__all__ if not hasattr(solgeo, name)]
    assert not missing
    assert len(set(solgeo.__all__)) == len(solgeo.__all__)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(pair, side, rc=0, **values):
    metrics = {name: {"value": v, "unit": "-"} for name, v in values.items()}
    return {"workload": "w", "seed": 1, "pair": pair, "side": side, "rc": rc,
            "result": {"metrics": metrics} if rc == 0 else None}


#: residual-export ops_per_s at seed 79 in BENCH_24.json, (parent, change)
#: per pair: a "gain" in 9 of 10 pairs, though no op reached the changed code
#: (that change sped up the ruled sweeps)
FALSE_GAIN = [(21.414, 22.020), (19.003, 18.087), (21.960, 24.290), (20.660, 24.646),
                        (22.676, 23.716), (21.135, 24.492), (23.052, 24.172), (21.522, 22.684),
                        (21.113, 23.388), (21.229, 25.342)]


def _pairs(values, trees, first=0):
    runs = []
    for i, sides in enumerate(values):
        for side, tree, v in zip(("parent", "change"), trees, sides):
            runs.append(dict(_record(first + i, side, ops_per_s=v, ops_ok_frac=1.0),
                             workload="residual-export", seed=79, tree=tree))
    return runs


def test_bench_pairs_withholds_a_gain_the_a_a_control_also_shows():
    # canned run records only: no benchmark is launched
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "ops_ok_frac", "better": "higher", "bound": 0.01}]
    summarize = _bench_pairs().summarize
    claim = _pairs(FALSE_GAIN, ("/parent", "/change"))
    (entry,) = summarize(claim, end_to_end)
    assert entry["kind"] == "claim"
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["verdict"]) == (9, "gain")
    assert ops["median_gap"] == pytest.approx(23.944 - 21.3215)

    # the parent against itself, same protocol: the change side reads as
    # fast as the change of BENCH_24.json did
    control = _pairs([(p, p + 2.7 + 0.05 * i) for i, (p, _) in enumerate(FALSE_GAIN)],
                     ("/parent", "/parent"), first=10)
    got = {e["kind"]: e for e in summarize(claim + control, end_to_end)}
    assert got["A/A"]["pairs"] == got["claim"]["pairs"] == 10
    assert got["A/A"]["metrics"]["ops_per_s"]["verdict"] == "gain"
    ops = got["claim"]["metrics"]["ops_per_s"]
    assert ops["aa_median_gap"] == got["A/A"]["metrics"]["ops_per_s"]["median_gap"]
    assert ops["aa_median_gap"] > ops["median_gap"]
    assert (ops["aa_verdict"], ops["verdict"]) == ("gain", "withheld")

    # a quiet control leaves the claim standing
    quiet = _pairs([(p, p + 0.01 * (-1) ** i) for i, (p, _) in enumerate(FALSE_GAIN)],
                   ("/parent", "/parent"), first=10)
    got = {e["kind"]: e for e in summarize(claim + quiet, end_to_end)}
    assert got["claim"]["metrics"]["ops_per_s"]["verdict"] == "gain"
    assert got["A/A"]["metrics"]["ops_per_s"]["verdict"] == "no worse"
    # records without a tree, as before the A/A control, are claims
    (entry,) = summarize([{k: v for k, v in r.items() if k != "tree"} for r in claim],
                         end_to_end)
    assert (entry["kind"], entry["metrics"]["ops_per_s"]["verdict"]) == ("claim", "gain")


def test_bench_pairs_summary_on_canned_records():
    # canned run records only: no benchmark is launched
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "op_s_p50", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
                  {"name": "setup_s", "better": "lower", "bound": 0.25},
                  {"name": "ops_ok_frac", "better": "higher", "bound": 0.01}]
    runs = []
    for i in range(10):
        runs.append(_record(i, "parent", ops_per_s=13.0 + 0.1 * i, op_s_p50=0.06,
                            peak_rss_mb=50.0, setup_s=0.2 + 0.04 * (i % 5), ops_ok_frac=1.0))
        # pair 9: a tie on ops_per_s, so 9 wins of 10
        runs.append(_record(i, "change", ops_per_s=13.9 if i == 9 else 20.0 + 0.1 * i,
                            op_s_p50=0.06, peak_rss_mb=60.0, setup_s=0.25, ops_ok_frac=1.0))
    summarize = _bench_pairs().summarize
    (entry,) = summarize(runs, end_to_end)
    assert (entry["workload"], entry["seed"], entry["pairs"], entry["incomplete_pairs"]) == \
        ("w", 1, 10, 0)
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["ties"], ops["verdict"]) == (9, 1, "gain")
    assert ops["parent_q1_median_q3"] == pytest.approx([13.225, 13.45, 13.675])
    assert ops["parent_iqr"] == pytest.approx(0.45)
    assert ops["median_gap"] == pytest.approx(20.35 - 13.45)
    p50 = entry["metrics"]["op_s_p50"]
    assert (p50["change_wins"], p50["ties"], p50["verdict"]) == (0, 10, "no worse")
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["verdict"] == "worse" and rss["median_worse_by"] == pytest.approx(0.2)
    # the parent's setup_s spreads over more than the bound: unresolved
    assert entry["metrics"]["setup_s"]["verdict"] == "unresolved"

    # a pair whose change run crashed is run but not won: 9 wins of 11 pairs
    crashed = [_record(10, "parent", ops_per_s=1.0, op_s_p50=1.0, peak_rss_mb=1.0,
                       setup_s=1.0, ops_ok_frac=1.0), _record(10, "change", rc=1)]
    (entry,) = summarize(runs + crashed, end_to_end)
    assert (entry["pairs"], entry["incomplete_pairs"]) == (10, 1)
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["verdict"]) == (9, "no worse")

    # a change that fails more of its ops, though within the bound, gets no gain
    failing = [dict(r, result={"metrics": dict(
        r["result"]["metrics"], ops_ok_frac={"value": 0.995, "unit": "-"})})
        if r["side"] == "change" else r for r in runs]
    (entry,) = summarize(failing, end_to_end)
    assert entry["metrics"]["ops_per_s"]["change_wins"] == 9
    assert entry["metrics"]["ops_per_s"]["verdict"] == "no worse"
    assert entry["metrics"]["ops_ok_frac"]["verdict"] == "no worse"


#: a stand-in for ``solgeo.cli``: exits with its first argument, prints the
#: output directory and writes the argv, with TAG appended when "--grid" is in it
STUB_CLI = """
import os, sys
argv = sys.argv[1:]
out = argv[argv.index("--out") + 1]
os.makedirs(out, exist_ok=True)
with open(os.path.join(out, "summary.json"), "w") as fh:
    fh.write(repr(argv[:-2]) + (TAG if "--grid" in argv else ""))
print("wrote", out)
sys.exit(int(argv[0]))
"""


def _stub_tree(root, tag):
    pkg = root / "src" / "solgeo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(STUB_CLI.replace("TAG", repr(tag)))
    return str(root)


@pytest.mark.parametrize("tag, differing", [("", []), ("!", ["0 residual --grid 8"])])
def test_compare_trees_reports_the_commands_that_differ(tmp_path, tag, differing):
    # a line with its own --out runs as written in the current directory,
    # and the files it writes there are not compared
    argv_file = tmp_path / "argv.txt"
    argv_file.write_text("# exit code first\n0 residual --grid 8\n\n2 sweep 'a b'\n"
                         "0 curve --grid 4 --out own\n")
    parent, change = _stub_tree(tmp_path / "parent", ""), _stub_tree(tmp_path / "change", tag)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_trees.py"),
                           parent, change, str(argv_file)],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    *lines, count = proc.stdout.splitlines()
    assert proc.returncode == (1 if differing else 0), proc.stderr
    assert count == f"{len(differing)} of 3 commands differ"
    assert (tmp_path / "own" / "summary.json").read_text().endswith(
        "'--grid', '4']" + tag)
    assert [line.split(":")[0] for line in lines] == differing
    assert all(line.endswith(": summary.json (exit 0 -> 0)") for line in lines)


def test_compare_trees_corpus_parses_and_covers_every_mode():
    # the committed byte-identity corpus: every line is a command line the
    # parser takes, and every subcommand and stability mode has one
    import shlex

    from solgeo.cli import _build_parser

    with open(ROOT / "scripts" / "compare_trees.argv") as fh:
        commands = [shlex.split(line) for line in fh
                    if line.strip() and not line.lstrip().startswith("#")]
    parser = _build_parser()
    covered = set()
    for argv in commands:
        assert "--out" not in argv, argv
        args = parser.parse_args(argv)
        covered.add(args.command if args.command != "stability" else args.mode)
    assert covered == {"residual", "curve", "sweep", "qform", "compare", "sufficient", "area"}
