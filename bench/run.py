#!/usr/bin/env python3
"""solgeo benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload residual-export --seed 1 --seconds 36 --trace 0

One process, one client: the next op starts only after the previous one
returned.  CLI ops call ``solgeo.cli.main(argv)`` in-process; scripted ops
call the public API.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs every op once untraced and once traced and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names
and units come from ``BENCHMARK.json``.  Outputs, the run record and the
span dump go to ``.bench_out/`` in the repository root.
"""

import os
import sys

# Pinned before numpy loads.  SOL_GEO_THREADS is a no-op in solgeo and is
# left unset so every run records the same configuration.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SOL_GEO_THREADS", None)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: fresh interpreters timed per run for setup_s (the median is reported)
SETUP_REPEATS = 4
#: a set-up probe that takes longer than this is a failure
SETUP_TIMEOUT_S = 60


def _import_solgeo():
    """Import solgeo from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "solgeo", "__init__.py")):
        sys.exit(f"bench: no solgeo sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import solgeo

    if os.path.dirname(os.path.dirname(os.path.abspath(solgeo.__file__))) != SRC:
        sys.exit(f"bench: solgeo imported from {solgeo.__file__}, not {SRC}")
    return solgeo


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare(workload, seed):
    """Everything between interpreter start and the first timed op."""
    import workloads

    workloads.build_fixtures(workload)
    return workloads.generate(workload, seed)


def _time_setup(workload, seed) -> float:
    """Wall time of a fresh interpreter from spawn to the end of set-up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return t1 - t0


def _run_one(op, out_dir, tracer=None, op_id=0):
    """Run one op; returns (seconds, problems).  Bookkeeping is untimed."""
    import oracle
    import workloads

    gc.collect()
    t0 = perf_counter()
    try:
        if tracer is None:
            raw = workloads.run_op(op, out_dir)
        else:
            with tracer.op_span(op_id):
                raw = workloads.run_op(op, out_dir)
        t1 = perf_counter()
        problems = oracle.check(op, workloads.decode(op, raw))
    except Exception as e:  # an op that raises is a failed op, not a crash
        t1 = perf_counter()
        problems = [f"{type(e).__name__}: {e}"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if problems:
        print(f"bench: op failed: {op.label}: {'; '.join(problems)}", file=sys.stderr)
    return t1 - t0, problems


def _timed_loop(ops, seconds, out_dir):
    durations, failed = [], 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        d, problems = _run_one(ops[len(durations) % len(ops)], out_dir)
        durations.append(d)
        failed += bool(problems)
    return durations, failed


def end_to_end(durations, failed, setup_s, peak_rss_mb) -> dict:
    ok = len(durations) - failed
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(durations),
        "op_s_p90": (statistics.quantiles(durations, n=10, method="inclusive")[8]
                     if len(durations) > 1 else durations[0]),
        "ops_per_s": ok / sum(durations),
        "ops_ok_frac": ok / len(durations),
        "peak_rss_mb": peak_rss_mb,
    }


def _traced_loop(ops, seconds, out_dir, span_path):
    """Each op runs untraced and traced, alternating which goes first."""
    import spans

    tracer = spans.Tracer()
    plain, traced, failed = [], [], 0
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        for use in ((False, True) if i % 2 == 0 else (True, False)):
            if use:
                tracer.install()
                try:
                    d, problems = _run_one(op, out_dir, tracer, i)
                finally:
                    tracer.uninstall()
                traced.append(d)
            else:
                d, problems = _run_one(op, out_dir)
                plain.append(d)
            failed += bool(problems)
        i += 1
    metrics = spans.layer_metrics(tracer.spans, tracer.geom_total, tracer.geom_distinct)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    tracer.dump(span_path)
    return metrics, len(plain) + len(traced), failed


def _environment(solgeo) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "solgeo": solgeo.__version__, "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def _declared_metrics(trace_on: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    solgeo = _import_solgeo()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        _prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    declared = _declared_metrics(bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(OUT, f"work-{os.getpid()}")
    ops = _prepare(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(solgeo)}
    try:
        if args.trace:
            metrics, attempted, failed = _traced_loop(
                ops, args.seconds, out_dir, os.path.join(OUT, f"spans-{tag}.json.gz"))
        else:
            durations, failed = _timed_loop(ops, args.seconds, out_dir)
            attempted = len(durations)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # probes run after the loop so that they cannot disturb it
            setup_s = statistics.median(_time_setup(args.workload, args.seed)
                                        for _ in range(SETUP_REPEATS))
            metrics = end_to_end(durations, failed, setup_s, peak)
            record["op_seconds"] = durations
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    if missing:
        sys.exit(f"bench: metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, **result}, fh, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
