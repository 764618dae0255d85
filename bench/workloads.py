"""Seeded workload generator and op runners for the solgeo benchmark.

Every workload is a list of ops drawn from ``random.Random(seed)``.  The
program only ever sees the generated CLI argv or API arguments; the
expected verdict of each op (``Op.expect``) comes from the geometry of the
generated input, never from running the program.

Ops are drawn in blocks with a fixed mix per block (shuffled by the seed),
so that two seeds differ in parameters and order but not in the share of
each op kind.  This keeps the per-run medians comparable across seeds.

Admissibility rules enforced here:

* ``plane-ab`` always has a*b > 0, so its adapted patch has a singular line;
* every residual window is built around a point of the zero set, so the
  on-surface band of the grid is non-empty;
* every bump of a scripted Q(u) evaluation has its support strictly inside
  the swept patch and a plateau covering the tubular band |t| <= delta.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("residual-export", "qform-battery", "ruled-sweep")

#: ops generated per workload; runs cycle through the list if they outrun it
OPS_PER_LIST = 600

# -- ruled-sweep sizes (fixed; only the base curve and bumps are seeded) ----
SWEEP_EPS = (-1.2, 1.2)
SWEEP_T = (-3.0, 3.0)
SWEEP_GRID = (96, 96)
SWEEP_DELTA = 0.1 * (SWEEP_T[1] - SWEEP_T[0])
SWEEP_Q_GRID = (8, 8)
SWEEP_JACOBI_POINTS = 64
SWEEP_ODE_STEPS = 101


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind`` is ``residual``, ``qform``, ``compare``, ``area`` (CLI ops,
    ``argv`` set) or ``ruled`` (scripted op, ``spec`` set).  ``expect``
    holds the verdicts the geometry of the input predicts; the verdicts of
    a ruled sweep hold for every J-ruled sweep and live in ``oracle``.
    """

    kind: str
    label: str
    argv: tuple = ()
    spec: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _num(v: float) -> str:
    """Exact, parser-safe literal for an expression string."""
    return f"({v!r})"


def _params(**kv) -> list:
    out = []
    for k, v in kv.items():
        out += ["--param", f"{k}={v!r}"]
    return out


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# residual-export
# ---------------------------------------------------------------------------

def _surface_point(rng: random.Random, kind: str):
    """(surface args, a point of the zero set, expected minimal_flag)."""
    y = rng.uniform(-1.0, 1.0)
    z = rng.uniform(-0.5, 0.5)
    if kind in ("plane-x", "plane-y", "plane-z"):
        c = rng.uniform(-0.5, 0.5) if kind == "plane-z" else rng.uniform(-1.0, 1.0)
        x = rng.uniform(-1.0, 1.0)
        p = {"plane-x": (-c, y, z), "plane-y": (x, -c, z), "plane-z": (x, y, -c)}[kind]
        return ["--surface", kind] + _params(c=c), p, True
    if kind == "plane-ab":
        s = rng.choice((-1.0, 1.0))
        a, b, c = s * rng.uniform(0.3, 2.0), s * rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0)
        n2 = a * a + b * b
        r = rng.uniform(-1.0, 1.0) / math.sqrt(n2)
        return (["--surface", kind] + _params(a=a, b=b, c=c),
                (-c * a / n2 - r * b, -c * b / n2 + r * a, z), True)
    if kind == "tilted":
        a, b, c, d = (_signed(rng, 0.5, 1.5), _signed(rng, 0.5, 1.5),
                      _signed(rng, 0.5, 1.5), rng.uniform(-1.0, 1.0))
        # residual is c (b^2 e^-2z - a^2 e^2z): nonzero off one z-level
        return (["--surface", kind] + _params(a=a, b=b, c=c, d=d),
                (-(b * y + c * z + d) / a, y, z), False)
    if kind == "saddle-point":
        x0, y0, z0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)
        return (["--surface", kind] + _params(x0=x0, y0=y0, z0=z0),
                (x0 - math.exp(z - z0) * (y - y0), y, z), True)
    if kind == "saddle-curve":
        x0, y0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        return (["--surface", kind] + _params(x0=x0, y0=y0),
                (x0 - math.exp(2.0 * z) * (y - y0), y, z), True)
    if kind == "u-minimal":
        form = rng.randrange(3)
        if form == 0:
            # vertical plane: u_z = 0, so the residual vanishes identically
            a, b, c = _signed(rng, 0.3, 2.0), _signed(rng, 0.3, 2.0), rng.uniform(-1.0, 1.0)
            u = f"{_num(a)}*x + {_num(b)}*y + {_num(c)}"
            x = -(b * y + c) / a
        elif form == 1:
            # vertical cylinder over a parabola: u_z = 0 as well
            a, c = _signed(rng, 0.3, 1.0), rng.uniform(-1.0, 1.0)
            x = rng.uniform(-1.0, 1.0)
            u = f"{_num(a)}*x^2 + y + {_num(c)}"
            y = -(a * x * x + c)
        else:
            # the saddle-point family written with shifted offsets
            k, m, n = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            u = f"exp(z + {_num(k)})*(y + {_num(m)}) + x + {_num(n)}"
            x = -math.exp(z + k) * (y + m) - n
        return ["--u", u], (x, y, z), True
    if kind == "u-nonminimal":
        if rng.randrange(2) == 0:
            # u = z + a x^2 + c: residual 2 a e^2z (1 - 2 a x^2)
            a = _signed(rng, 0.3, 1.0)
            x = rng.uniform(-1.0, 1.0)
            c = -z - a * x * x
            return ["--u", f"z + {_num(a)}*x*x + {_num(c)}"], (x, y, z), False
        a, b, c, d = (_signed(rng, 0.5, 1.5), _signed(rng, 0.5, 1.5),
                      _signed(rng, 0.5, 1.5), rng.uniform(-1.0, 1.0))
        u = f"{_num(c)}*z + {_num(a)}*x + {_num(b)}*y + {_num(d)}"
        return ["--u", u], (-(b * y + c * z + d) / a, y, z), False
    raise ValueError(kind)


#: one block of residual ops: surface kinds with their counts
_RESIDUAL_BLOCK = (("saddle-point", 2), ("saddle-curve", 2), ("plane-ab", 2),
                   ("plane-x", 1), ("plane-y", 1), ("plane-z", 1), ("tilted", 2),
                   ("u-minimal", 1), ("u-nonminimal", 2))
RESIDUAL_GRIDS = tuple(range(30, 37))


def _residual_ops(rng: random.Random, count: int) -> list:
    ops = []
    while len(ops) < count:
        kinds = [k for k, n in _RESIDUAL_BLOCK for _ in range(n)]
        grids = [g for g in RESIDUAL_GRIDS for _ in range(2)]
        assert len(kinds) == len(grids)
        rng.shuffle(kinds)
        rng.shuffle(grids)
        for kind, grid in zip(kinds, grids):
            args, p, minimal = _surface_point(rng, kind)
            window = []
            for c in p:
                half = rng.uniform(1.5, 2.0)
                mid = c + rng.uniform(-0.3, 0.3) * half
                window += [repr(mid - half), repr(mid + half)]
            argv = ["residual"] + args + ["--window"] + window + ["--grid", str(grid)]
            ops.append(Op("residual", f"residual {kind} grid={grid}", tuple(argv),
                          spec={"point": p}, expect={"minimal_flag": minimal}))
    return ops[:count]


# ---------------------------------------------------------------------------
# qform-battery
# ---------------------------------------------------------------------------

QFORM_SURFACES = ("plane-x", "plane-y", "plane-z", "plane-ab", "saddle-curve",
                  "saddle-point")


def _catalog_params(rng: random.Random, name: str) -> dict:
    if name in ("plane-x", "plane-y", "plane-z"):
        return {"c": rng.uniform(-1.0, 1.0)}
    if name == "plane-ab":
        s = rng.choice((-1.0, 1.0))
        return {"a": s * rng.uniform(0.3, 2.0), "b": s * rng.uniform(0.3, 2.0),
                "c": rng.uniform(-1.0, 1.0)}
    if name == "saddle-curve":
        return {"x0": rng.uniform(-1.0, 1.0), "y0": rng.uniform(-1.0, 1.0)}
    if name == "saddle-point":
        return {"x0": rng.uniform(-1.0, 1.0), "y0": rng.uniform(-1.0, 1.0),
                "z0": rng.uniform(-0.5, 0.5)}
    raise ValueError(name)


def _qform_ops(rng: random.Random, count: int) -> list:
    ops = []
    while len(ops) < count:
        # 20 ops: 12 qform (2 per adapted patch), 5 compare, 3 area
        block = [("qform", s) for s in QFORM_SURFACES for _ in range(2)]
        block += [("compare", f) for f in ("plane_ab",) * 3 + ("saddle_curve",) * 2]
        block += [("area", s) for s in ("plane-x", "plane-y", "plane-z")]
        rng.shuffle(block)
        for mode, what in block:
            seed = str(rng.randrange(1, 10**6))
            if mode == "qform":
                argv = ["stability", "qform", "--surface", what,
                        "--battery", "8", "--n", "16", "--seed", seed]
                argv += _params(**_catalog_params(rng, what))
                expect = {"battery_nonnegative": True}
            elif mode == "compare":
                name = {"plane_ab": "plane-ab", "saddle_curve": "saddle-curve"}[what]
                argv = ["stability", "compare", "--family", what,
                        "--battery", "3", "--seed", seed]
                argv += _params(**_catalog_params(rng, name))
                expect = {"all_agree": what == "plane_ab"}
            else:
                argv = ["stability", "area", "--surface", what, "--n", "40",
                        "--eta", repr(rng.uniform(0.1, 0.6))]
                argv += _params(c=rng.uniform(-1.0, 1.0))
                expect = {"base_strictly_smaller": True}
            ops.append(Op(mode, f"{mode} {what}", tuple(argv), expect=expect))
    return ops[:count]


# ---------------------------------------------------------------------------
# ruled-sweep
# ---------------------------------------------------------------------------

def _phi_bump(rng: random.Random):
    """(center, plateau, width) in eps, support strictly inside SWEEP_EPS."""
    lo, hi = SWEEP_EPS
    width = rng.uniform(0.25, 0.75) * 0.5 * (hi - lo)
    margin = 0.01 * (hi - lo)
    center = rng.uniform(lo + width + margin, hi - width - margin)
    return (center, rng.uniform(0.1, 0.6) * width, width)


def _psi_bump(rng: random.Random):
    """(center, plateau, width) in t: centred on the singular curve t = 0,
    flat on the tubular band |t| <= SWEEP_DELTA, inside SWEEP_T."""
    plateau = rng.uniform(1.25, 2.0) * SWEEP_DELTA
    return (0.0, plateau, rng.uniform(plateau + 0.3, 0.9 * SWEEP_T[1]))


def _ruled_ops(rng: random.Random, count: int) -> list:
    ops = []
    while len(ops) < count:
        block = ["exp", "exp", "x-line", "y-line"]
        rng.shuffle(block)
        for base in block:
            spec = {"base": base,
                    "x0": tuple(rng.uniform(-0.5, 0.5) for _ in range(3))}
            if base == "exp":
                # generic branch: keep clear of theta = 0, pi/2, pi
                spec["theta"] = rng.choice((rng.uniform(0.35, 1.2), rng.uniform(1.95, 2.8)))
            spec["bumps"] = tuple((_phi_bump(rng), _psi_bump(rng)) for _ in range(2))
            spec["jacobi"] = tuple((rng.uniform(-1.1, 1.1), rng.uniform(-2.9, 2.9))
                                   for _ in range(SWEEP_JACOBI_POINTS))
            spec["ode"] = (rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 3.0))
            ops.append(Op("ruled", f"ruled {base}", spec=spec))
    return ops[:count]


def generate(workload: str, seed: int, count: int = OPS_PER_LIST) -> list:
    """The seeded op list of ``workload``; equal seeds give equal lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "residual-export":
        return _residual_ops(rng, count)
    if workload == "qform-battery":
        return _qform_ops(rng, count)
    if workload == "ruled-sweep":
        return _ruled_ops(rng, count)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# set-up and execution
# ---------------------------------------------------------------------------

def build_fixtures(workload: str) -> list:
    """Fields and patches a workload's ops use, built once at set-up.

    The ops rebuild their own objects (a CLI invocation parses its surface
    every time); building one of each kind here puts their construction
    cost, and anything a later version caches at construction, into
    ``setup_s``.
    """
    from solgeo.expressions import CATALOG_NAMES, catalog
    from solgeo.frame import Point
    from solgeo.stability import patch_for_catalog, patch_from_ruled
    from solgeo.stationary import sweep_surface

    if workload == "residual-export":
        return [catalog(name) for name in CATALOG_NAMES]
    if workload == "qform-battery":
        return [patch_for_catalog(name) for name in QFORM_SURFACES]
    return [patch_from_ruled(sweep_surface(_base_curve(base, Point(0.0, 0.0, 0.0), 0.7),
                                           SWEEP_EPS, SWEEP_T, grid=SWEEP_GRID))
            for base in ("exp", "x-line", "y-line")]


def _base_curve(base: str, p0, theta):
    from solgeo.frame import CoordVector, SQRT2
    from solgeo.stationary import HorizontalCurve

    if base == "x-line":
        return HorizontalCurve.x_line(p0)
    if base == "y-line":
        return HorizontalCurve.y_line(p0)
    v0 = CoordVector(-math.sin(theta) * math.exp(p0.z) / SQRT2,
                     math.sin(theta) * math.exp(-p0.z) / SQRT2,
                     math.cos(theta))
    return HorizontalCurve.from_initial_data(p0, v0)


def run_cli(op: Op, out_dir: str) -> dict:
    """Run a CLI op in-process; returns exit code and parsed summary."""
    import solgeo.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = solgeo.cli.main(list(op.argv) + ["--out", out_dir])
    return {"rc": rc, "stdout": buf.getvalue()}


def run_ruled(op: Op) -> dict:
    """One scripted ruled-sweep op over the public API.

    Module attributes are looked up at call time, so the traced run's
    rebinding sees these calls.
    """
    import numpy as np

    from solgeo import curves, stability, stationary
    from solgeo.frame import Point

    s = op.spec
    gamma = _base_curve(s["base"], Point(*s["x0"]), s.get("theta"))
    surf = stationary.sweep_surface(gamma, SWEEP_EPS, SWEEP_T, grid=SWEEP_GRID)
    out = {"orthogonality_defect": stationary.orthogonality_check(surf),
           "loci": stationary.uniqueness_scan(surf),
           "dt": (SWEEP_T[1] - SWEEP_T[0]) / (SWEEP_GRID[1] - 1)}
    out["jacobi"] = [stationary.jacobi_vertical(surf, e, t) for e, t in s["jacobi"]]
    q = []
    for phi, psi in s["bumps"]:
        tf = stability.TestFunction(stability.Bump(*phi), stability.Bump(*psi))
        rep = stability.q_form(surf, tf, grid=SWEEP_Q_GRID, delta=SWEEP_DELTA)
        q.append((rep.total, rep.error_estimate))
    out["q"] = q
    e, t_end = s["ode"]
    ruling = surf.ruling(e)
    path = curves.integrate_ode(ruling.p0, ruling.v0, t_end, SWEEP_ODE_STEPS)
    ref, _ = curves.eval_curve(ruling, path.t)
    out["ode_deviation"] = float(np.max(np.abs(path.points - ref)))
    return out


def run_op(op: Op, out_dir: str) -> dict:
    return run_ruled(op) if op.kind == "ruled" else run_cli(op, out_dir)


def decode(op: Op, raw: dict) -> dict:
    """Turn a raw op result into the dict the oracle checks."""
    if op.kind == "ruled":
        return raw
    out = {"rc": raw["rc"]}
    if raw["rc"] == 0:
        out["summary"] = json.loads(raw["stdout"])
    return out
