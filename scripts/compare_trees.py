#!/usr/bin/env python3
"""Run the same CLI commands on two trees and report every difference.

Usage:

    python3 scripts/compare_trees.py PARENT_TREE CHANGE_TREE ARGV_FILE

Each non-blank line of ARGV_FILE that does not start with ``#`` is one
command line for ``solgeo.cli``, split as a shell would split it.  Each
command runs as ``python3 -m solgeo.cli <argv> --out <dir>`` with
``PYTHONPATH=<tree>/src``, first in PARENT_TREE and then in CHANGE_TREE,
with the same ``<dir>`` on both sides, since the summary records ``--out``.
A line that gives its own ``--out`` (say, a path through a regular file)
runs as written, in the current directory, and only its exit code, stdout
and stderr are compared.
The two runs are compared on exit code, stdout, stderr and the bytes of
every file written under ``<dir>``.  One line is printed per command that
differs, naming what differs, then a count; the exit status is 1 when any
command differs and 0 otherwise.
"""

import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile


def read_argv(path):
    with open(path) as fh:
        return [shlex.split(line) for line in fh
                if line.strip() and not line.lstrip().startswith("#")]


def run(tree, argv, out):
    """(exit code, stdout, stderr, {relative path: bytes}) of one command."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    tail = [] if "--out" in argv else ["--out", out]
    proc = subprocess.run([sys.executable, "-m", "solgeo.cli", *argv, *tail],
                          env=env, capture_output=True)
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    shutil.rmtree(out, ignore_errors=True)
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(a, b):
    """The names of what differs between two ``run`` results."""
    out = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
    files = sorted(set(a[3]) | set(b[3]))
    return out + [name for name in files if a[3].get(name) != b[3].get(name)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("argv_file")
    args = ap.parse_args(argv)
    commands = read_argv(args.argv_file)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for cmd in commands:
            parent, change = run(args.parent, cmd, out), run(args.change, cmd, out)
            diff = differences(parent, change)
            if diff:
                differing += 1
                print(f"{shlex.join(cmd)}: {', '.join(diff)} (exit {parent[0]} -> {change[0]})")
    print(f"{differing} of {len(commands)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
