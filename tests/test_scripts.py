"""Smoke tests: the scripts under scripts/ run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

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
