#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized for a claim.

Usage:

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --seed S --pairs N --seconds T --out BENCH_<n>.json
    python3 scripts/bench_pairs.py PARENT_TREE PARENT_TREE ...   # A/A control

Each tree is a checkout with its own ``bench/run.py``, ``src/`` and
``BENCHMARK.json``.  Pair i runs ``bench/run.py --trace 0`` in the parent
tree first when i is even and in the change tree first when i is odd, one
run at a time.  Every run record goes into ``--out``; a file that exists
keeps its runs, so one file can hold several workloads and seeds, and the
file is rewritten after each run.

The summary has one entry per workload and seed.  For each end-to-end
metric of the change tree's ``BENCHMARK.json`` it gives each side's
quartiles over the complete pairs (both runs exited 0 with a result), the
pairs the change won (ties count for neither side, and an incomplete pair
is not won), the parent's interquartile range and a verdict:
  - ``gain``: the change wins at least nine tenths of all pairs run, its
    median is better than the parent's by more than the parent's IQR, and
    its median ``ops_ok_frac`` is no lower than the parent's;
  - ``withheld``: a ``gain`` whose median gap does not exceed the gap of
    an A/A group on the same workload, when one was run;
  - ``worse``: the change's median is worse than the parent's by more than
    the metric's bound, as a fraction of the parent's median;
  - ``unresolved``: the parent's IQR exceeds that bound, and not every
    change run is better than every parent run;
  - ``no worse``: none of these.

Each run records the tree it ran in.  Pairs whose two sides ran the same
tree (the parent passed as both trees) form an A/A group of their own, with
the same protocol and summary: any gap it shows is the noise of the
protocol, and a ``gain`` there is a false one.  Every claim metric on a
workload with an A/A group carries that group's median gap and verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _metric_summary(pairs, better, bound, runs, gain_allowed):
    """``pairs``: (parent, change) values of one metric, one per complete
    pair; ``runs``: the number of pairs run, complete or not;
    ``gain_allowed``: whether the change fails no larger share of ops."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    pq, cq = _quartiles(parent), _quartiles(change)
    parent_iqr = pq[2] - pq[0]
    gap = sign * (cq[1] - pq[1])  # > 0: the change's median is better
    worse_by = -gap / abs(pq[1]) if pq[1] else 0.0
    if worse_by > bound:
        verdict = "worse"
    elif gain_allowed and wins >= 0.9 * runs and gap > parent_iqr:
        verdict = "gain"
    elif (parent_iqr > bound * abs(pq[1])
          and not min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"parent_q1_median_q3": pq, "change_q1_median_q3": cq, "change_wins": wins,
            "ties": ties, "parent_iqr": parent_iqr, "median_gap": gap,
            "median_worse_by": worse_by, "bound": bound, "verdict": verdict}


def summarize(runs, end_to_end):
    """One summary per (workload, seed, kind) of ``runs``, the records this
    script writes, where kind is ``A/A`` for the pairs whose sides ran the
    same tree and ``claim`` for the others; ``end_to_end`` is the list of
    that name in ``BENCHMARK.json``.  Quartiles use the complete pairs; wins
    are counted over all pairs run."""
    pairs = {}
    for run in runs:
        pairs.setdefault((run["workload"], run["seed"], run["pair"]), {})[run["side"]] = run
    groups = {}
    for (workload, seed, pair), sides in pairs.items():
        trees = [sides.get(side, {}).get("tree") for side in ("parent", "change")]
        kind = "A/A" if trees[0] is not None and trees[0] == trees[1] else "claim"
        groups.setdefault((workload, seed, kind), {})[pair] = sides
    out = []
    for (workload, seed, kind), by_pair in sorted(groups.items()):
        complete = [p for _, p in sorted(by_pair.items())
                    if all(p.get(side, {}).get("rc") == 0 and p[side].get("result")
                           for side in ("parent", "change"))]
        entry = {"workload": workload, "seed": seed, "kind": kind, "pairs": len(complete),
                 "incomplete_pairs": len(by_pair) - len(complete), "metrics": {}}
        values = {spec["name"]: [tuple(p[side]["result"]["metrics"][spec["name"]]["value"]
                                       for side in ("parent", "change")) for p in complete]
                  for spec in end_to_end}
        ok = values.get("ops_ok_frac", [])
        gain_allowed = not ok or (statistics.median(c for _, c in ok)
                                  >= statistics.median(p for p, _ in ok))
        for spec in end_to_end if complete else []:
            entry["metrics"][spec["name"]] = _metric_summary(
                values[spec["name"]], spec["better"], spec["bound"], len(by_pair), gain_allowed)
        out.append(entry)
    for entry in out:
        controls = [e for e in out if e["kind"] == "A/A" and e["workload"] == entry["workload"]]
        if entry["kind"] == "A/A" or not controls:
            continue
        for name, metric in entry["metrics"].items():
            aa = max((e["metrics"][name] for e in controls if name in e["metrics"]),
                     key=lambda m: abs(m["median_gap"]), default=None)
            if aa is None:
                continue
            metric["aa_median_gap"], metric["aa_verdict"] = aa["median_gap"], aa["verdict"]
            if metric["verdict"] == "gain" and metric["median_gap"] <= abs(aa["median_gap"]):
                metric["verdict"] = "withheld"
    return out


def _run(tree, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    record = {"rc": proc.returncode, "wall_s": round(wall, 1)}
    try:
        record["environment"] = json.loads(lines[-2])["environment"]
        record["result"] = json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    with open(os.path.join(args.change_tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    doc = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["command"] = ("python3 bench/run.py --workload W --seed S --seconds T --trace 0, "
                      "each tree in its own directory")
    doc["protocol"] = ("pairs run one at a time; pair i runs the parent first when i is "
                       "even and the change first when i is odd")
    done = [r["pair"] for r in doc["runs"]
            if (r["workload"], r["seed"]) == (args.workload, args.seed)]
    first = max(done) + 1 if done else 0
    for pair in range(first, first + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            record = _run(trees[side], args.workload, args.seed, args.seconds)
            doc["runs"].append({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": 0, "pair": pair,
                                "side": side, "tree": os.path.abspath(trees[side]),
                                **record})
            doc["summary"] = summarize(doc["runs"], end_to_end)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            value = record.get("result", {}).get("metrics", {}).get("ops_per_s", {})
            print(f"pair {pair} {side}: rc {record['rc']}, ops_per_s {value.get('value')}",
                  file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
