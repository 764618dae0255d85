"""Command-line front end binding the toolkit into reproducible runs.

Subcommands
-----------
residual   evaluate the minimal-surface residual of a surface on a window grid
curve      sample a characteristic curve, optionally against the ODE oracle
sweep      sweep a ruled surface from a singular curve; export OBJ + CSV
stability  qform | compare | sufficient | area

Each command handler takes the checked options and returns its results;
``main`` writes them as a JSON summary embedding the fully resolved
configuration and the tool version, so identical configurations (including
the seed) reproduce byte-identical summaries.  Exit codes: 0 ok, 2 usage or
config error (including parameters a construction rejects, non-finite
values and options a run would ignore), 3 numerical or precondition
failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import BadParams, CurveOverflow, EvaluationError, ExprSyntaxError, GeometryError
from .expressions import CATALOG_NAMES, catalog, parse as parse_field
from .exporters import write_csv, write_json, write_obj
from .frame import CoordVector, Point, SQRT2, TangentFrame, frame_components
from .stationary import HorizontalCurve, orthogonality_check, singular_loci, sweep_surface
# bench/spans.py rebinds solgeo.cli.uniqueness_scan, so it stays imported here
from .stationary import uniqueness_scan  # noqa: F401
from .surface import EPS_SING, raw_fields
from .curves import check_height, eval_curve, integrate_ode, is_geodesic, make_curve
from .stability import (
    area_compare,
    battery_test_functions,
    compare_q_forms,
    patch_for_catalog,
    q_form,
    q_form_simplified,
    sufficient_condition,
)


class ConfigError(ValueError):
    pass


def _values(v) -> list:
    return list(v) if isinstance(v, (list, tuple)) else [v]


#: the options each stability mode reads, besides --out and --config
_STABILITY_READS = {
    "qform": {"surface", "param", "battery", "n", "delta", "seed"},
    "compare": {"family", "param", "battery", "n", "delta", "seed"},
    "sufficient": {"surface", "param", "n", "flip_orientation"},
    "area": {"surface", "param", "n", "eta"},
}


def _validate(o: dict, given: set, parser: argparse.ArgumentParser) -> None:
    """Reject option values that no run can use or that a run would ignore.

    ``given`` names the options set by a flag or by the config file.
    """
    if "mode" in o:
        unread = sorted(given - _STABILITY_READS[o["mode"]] - {"mode", "out"})
        if unread:
            names = ", ".join("--" + k.replace("_", "-") for k in unread)
            raise ConfigError(f"stability {o['mode']} does not read {names}")
    for key in ("eps_sing", "delta"):
        if o.get(key) is not None and o[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    for key in ("grid", "n", "battery"):
        if o.get(key) is not None and any(v < 2 for v in _values(o[key])):
            raise ConfigError(f"{key} must be at least 2")
    for key in ("window", "t", "eps"):
        if o.get(key) is not None:
            for lo, hi in zip(o[key][::2], o[key][1::2]):
                if not hi > lo:
                    raise ConfigError(f"{key} range must be increasing")
    for a in parser._actions:
        if a.type is float and o.get(a.dest) is not None:
            if not all(math.isfinite(v) for v in _values(o[a.dest])):
                raise ConfigError(f"{a.dest} must be finite")
    if o.get("seed", 0) < 0:
        raise ConfigError("seed must be non-negative")
    if o.get("u") and o.get("param"):
        raise ConfigError("--param sets catalog parameters; --u takes none")
    if o.get("u") and o.get("surface"):
        raise ConfigError("--u and --surface both give the surface; give one")
    if o.get("alpha") is not None and o.get("v") is not None:
        raise ConfigError("--alpha and --v both set the initial velocity; give one")
    if o.get("v0") is not None and o["theta"] is not None:
        raise ConfigError("--v0 and --theta both set the initial velocity; give one")
    for key in ("v0", "theta"):
        if o.get(key) is not None and o["gamma"] != "exp":
            raise ConfigError(f"--{key} sets the velocity of --gamma exp, not {o['gamma']}")


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key, value, action: argparse.Action):
    """A config-file string as the value its option's argparse action stores.

    The action gives the type and the number of values; a store_const flag
    takes a boolean, and a repeatable option any number of values.
    """
    if not action.option_strings:
        raise ConfigError(f"config key {key} is set by the positional argument, "
                          f"not a config file")
    many = action.nargs is not None or isinstance(action, argparse._AppendAction)
    parts = value.replace(",", " ").split() if many else [value]
    try:
        if action.nargs == 0:
            return _BOOLS[value.lower()]
        out = [(action.type or str)(p) for p in parts]
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key}: bad value {value!r}") from None
    if isinstance(action.nargs, int) and len(out) != action.nargs:
        raise ConfigError(f"config key {key} takes {action.nargs} values, got {len(out)}")
    return out if many else out[0]


def _merge(args: argparse.Namespace, defaults: dict) -> tuple:
    """Flag > config file > default, per option; returns the options and
    the set of those a flag or the config file gave.

    Every config-file value is checked against the argparse action of its
    option in the subcommand's parser, also where a flag overrides it.
    """
    actions = {a.dest: a for a in args.parser._actions}
    fromfile = {}
    if getattr(args, "config", None):
        fromfile = _load_config_file(args.config)
    unknown = sorted(set(fromfile) - set(defaults))
    if unknown:
        raise ConfigError(f"{args.config}: {args.command} has no option {', '.join(unknown)}")
    out, given = {}, set(fromfile)
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        value = _coerce(key, fromfile[key], actions[key]) if key in fromfile else default
        out[key] = value if flag is None else flag
        if flag is not None:
            given.add(key)
    return out, given


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            value = float(v)
        except ValueError:
            raise ConfigError(f"--param value must be numeric, got {item!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"--param {k.strip()} must be finite, got {v.strip()!r}")
        params[k.strip()] = value
    return params


def _resolve_surface(options):
    if options["u"]:
        return parse_field(options["u"])
    name = options["surface"]
    if not name:
        raise ConfigError("need --surface NAME or --u EXPR")
    if name not in CATALOG_NAMES:
        raise ConfigError(f"unknown surface {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    return catalog(name, **_parse_params(options["param"]))


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def cmd_residual(o: dict) -> dict:
    field = _resolve_surface(o)
    x0, x1, y0, y1, z0, z1 = o["window"]
    n = o["grid"]
    # the seven CSV columns as one block, which the writer reads without a copy
    columns = np.empty((7, n, n, n))
    X, Y, Z = columns[:3]
    X[...], Y[...], Z[...] = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n),
                                         np.linspace(z0, z1, n), indexing="ij", sparse=True)
    # far from z = 0, e^{2z} times a partial can overflow: the residual check
    # below turns that into an error instead of a null in the summary
    with np.errstate(over="ignore", invalid="ignore"):
        f = raw_fields(field, X, Y, Z)
    bad = ~np.isfinite(f["residual_coord"])
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise EvaluationError("the minimal-surface residual is not finite",
                              (X[i], Y[i], Z[i]))
    eps_sing = o["eps_sing"]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        normalized = f["residual_coord"] / f["normalized_residual_den"]
        on_surface = (np.abs(f["u"]) / np.where(f["grad_norm"] == 0, 1.0, f["grad_norm"])
                      < o["band"])
    nonsing = f["nh"] >= eps_sing
    # normalized residual is checkable only where eps times the summand
    # magnitude resolves against D^3 (away from the singular set)
    noise = 16.0 * np.finfo(float).eps * f["residual_scale"]
    band = on_surface & nonsing & (noise < 0.25e-9 * f["normalized_residual_den"])
    if not band.any():
        raise GeometryError(
            f"the on-surface band is empty: no grid point has |u|/|grad u| < {o['band']:g} "
            f"with a checkable normalized residual")

    for C, key in zip(columns[3:], ("nh", "H", "residual_coord", "nt")):
        C[...] = f[key]
    write_csv(os.path.join(o["out"], "residual.csv"),
              ["x", "y", "z", "Nh", "H", "residual", "NT"], columns.reshape(7, -1).T)

    singular_pts = np.argwhere(on_surface & ~nonsing)
    summary = {
        "max_abs_residual": float(np.max(np.abs(f["residual_coord"]))),
        "max_abs_normalized_residual_on_surface": float(np.max(np.abs(normalized[band]))),
        "on_surface_points": int(np.sum(band)),
        "singular_loci": [
            [float(X[tuple(i)]), float(Y[tuple(i)]), float(Z[tuple(i)])]
            for i in singular_pts[:100]
        ],
        "singular_count": int(len(singular_pts)),
    }
    summary["minimal_flag"] = bool(summary["max_abs_normalized_residual_on_surface"] < 1e-9)
    return summary


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _horizontal_unit(p0: Point, angle: float) -> CoordVector:
    """cos(angle) X + sin(angle) Y at p0, in coordinates."""
    check_height(p0.z)
    return CoordVector(-math.sin(angle) * math.exp(p0.z) / SQRT2,
                       math.sin(angle) * math.exp(-p0.z) / SQRT2, math.cos(angle))


def _check_finite(*arrays) -> None:
    """Raise CurveOverflow where a sampled coordinate is not finite.

    Near the top of the height range, e^|z0| times the displacement along a
    curve can overflow x or y while every height stays in range.
    """
    bad = sum(int(np.count_nonzero(~np.isfinite(a))) for a in arrays)
    if bad:
        total = sum(np.size(a) for a in arrays)
        raise CurveOverflow(f"positions or velocities overflow: {bad} of {total} "
                            f"sampled coordinates are not finite")


def cmd_curve(o: dict) -> dict:
    p0 = Point(*o["p0"])
    if o["alpha"] is not None:
        v0 = _horizontal_unit(p0, o["alpha"])
    elif o["v"] is not None:
        v0 = CoordVector(*o["v"])
    else:
        raise ConfigError("need --alpha or --v")
    curve = make_curve(p0, v0)
    t0, t1 = o["t"]
    ts = np.linspace(t0, t1, o["n"])
    with np.errstate(over="ignore", invalid="ignore"):
        pos, vel = eval_curve(curve, ts)
    _check_finite(pos, vel)
    a, b, c = frame_components(pos[:, 2], vel[:, 0], vel[:, 1], vel[:, 2])
    summary = {
        "family": curve.family,
        "geodesic": is_geodesic(curve),
        "horizontality_drift": float(np.max(np.abs(c))),
        "unit_speed_drift": float(np.max(np.abs(np.sqrt(a**2 + b**2 + c**2) - 1.0))),
    }
    if o["oracle"]:
        # two one-sided integrations from p0, matching the sample grid
        devs = []
        for lo, hi in ((0.0, t0), (0.0, t1)):
            if hi == lo:
                continue
            seg = ts[(ts >= min(lo, hi)) & (ts <= max(lo, hi))]
            if len(seg) < 2:
                continue
            # integrate_ode samples np.linspace(0, hi, len(seg)), whose times
            # repeat over a few subnormal steps; solve_ivp needs them distinct
            if np.any(np.diff(np.linspace(0.0, hi, len(seg))) == 0.0):
                raise ConfigError(f"--t {t0:g} {t1:g} is too narrow for the ODE oracle")
            # an overflow in the integrator (its error norm, near the top of
            # the height range) would leave a meaningless deviation
            try:
                with np.errstate(over="raise", invalid="raise"):
                    p = integrate_ode(p0, v0, hi, len(seg))
            except FloatingPointError as e:
                raise CurveOverflow(f"the ODE oracle overflows: {e}") from None
            ref, _ = eval_curve(curve, p.t)
            devs.append(float(np.max(np.abs(p.points - ref))))
        summary["oracle_sup_deviation"] = max(devs) if devs else 0.0
    write_csv(os.path.join(o["out"], "curve.csv"),
              ["t", "x", "y", "z", "xdot", "ydot", "zdot"], np.column_stack([ts, pos, vel]))
    return summary


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: initial angle of the sweep's base curve when no --v0 gives its velocity
SWEEP_THETA = 0.7


def _gamma_from_options(o) -> HorizontalCurve:
    kind = o["gamma"]
    p0 = Point(*o["x0"])
    if kind == "x-line":
        return HorizontalCurve.x_line(p0)
    if kind in ("y-line", "line"):
        return HorizontalCurve.y_line(p0)
    if kind == "exp":
        if o["v0"] is not None:
            v0 = CoordVector(*o["v0"])
        else:
            v0 = _horizontal_unit(p0, o["theta"])
        return HorizontalCurve.from_initial_data(p0, v0)
    raise ConfigError(f"unknown --gamma kind {kind!r}")


def cmd_sweep(o: dict) -> dict:
    if o["v0"] is None and o["theta"] is None:
        o["theta"] = SWEEP_THETA
    gamma = _gamma_from_options(o)
    ne, nt = o["grid"]
    s = sweep_surface(gamma, o["eps"], o["t"], grid=(ne, nt), skew=o["skew"])
    tg = s.t_grid()
    E, T = np.meshgrid(s.eps_grid(), tg, indexing="ij")
    # |N_h| from the cross product of the tangents; <V, T> from V = dF/deps
    with np.errstate(over="ignore", invalid="ignore"):
        (X, Y, Z), (V, F_t) = s.chart(E, T)
    _check_finite(X, Y, Z, *V, *F_t)
    # far from z = 0 the tangents' cross product can overflow, which would
    # leave |N_h| = 0 or NaN at regular nodes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tf = TangentFrame(Z, V, F_t)
        nh, _ = tf.unit_normal()
        bad = ~np.isfinite(sum(n * n for n in tf.normal_components))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise GeometryError(f"the surface normal overflows at eps = {E[i]:g}, t = {T[i]:g}")
    vt = frame_components(Z, *V)[2]

    mid_eps = 0.5 * (o["eps"][0] + o["eps"][1])
    # 9 probes over 0.9 [t0, t1]; an end probe always clears the cut
    probe_ts = np.linspace(o["t"][0] * 0.9, o["t"][1] * 0.9, 9)
    probe_ts = probe_ts[np.abs(probe_ts) > 0.05 * (o["t"][1] - o["t"][0])]
    # rulings skewed almost onto the base curve leave no horizontal normal
    with np.errstate(invalid="ignore", divide="ignore"):
        h_samples = [float(s.intrinsic_mean_curvature(mid_eps, float(t))) for t in probe_ts]
    for t, h in zip(probe_ts, h_samples):
        if not math.isfinite(h):
            raise GeometryError(f"the intrinsic mean curvature is not finite at "
                                f"eps = {mid_eps:g}, t = {t:g}")

    verts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    write_obj(os.path.join(o["out"], "sweep.obj"), verts, (ne, nt))
    write_csv(os.path.join(o["out"], "sweep.csv"), ["eps", "t", "x", "y", "z", "Nh", "VT"],
              np.stack([E, T, X, Y, Z, nh, vt], axis=-1).reshape(-1, 7))

    summary = {
        "branch": gamma.kind,
        "orthogonality_defect": float(orthogonality_check(s)),
        "max_abs_intrinsic_H": max(abs(h) for h in h_samples),
    }
    if o["scan_singular"]:
        summary["singular_loci"] = singular_loci(tg, vt)
    return summary


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _battery(o: dict, name: str) -> tuple:
    """The patch of catalog surface ``name``, delta and the seeded battery."""
    patch = patch_for_catalog(name, _parse_params(o["param"]))
    delta = o["delta"] or 0.1 * (patch.t_range[1] - patch.t_range[0])
    return patch, delta, battery_test_functions(patch, o["battery"], o["seed"], delta)


def cmd_stability(o: dict) -> dict:
    mode = o["mode"]
    grid = (o["n"], o["n"])
    if mode == "qform":
        patch, delta, funcs = _battery(o, o["surface"])
        reports = [q_form(patch, tf, grid=grid, delta=delta).to_json_dict() for tf in funcs]
        totals = [r["total"] for r in reports]
        errors = [r["error_estimate"] for r in reports]
        return {
            "reports": reports,
            "min_total": min(totals),
            "max_error_estimate": max(errors),
            "battery_nonnegative": bool(all(t >= -e for t, e in zip(totals, errors))),
        }
    if mode == "compare":
        kind = o["family"]
        if kind not in ("plane_ab", "saddle_curve"):
            raise ConfigError("--family must be plane_ab or saddle_curve")
        patch, delta, funcs = _battery(o, kind.replace("_", "-"))
        comparisons = []
        for tf in funcs:
            general = q_form(patch, tf, grid=grid, delta=delta)
            simple = q_form_simplified(patch, tf, grid=grid, delta=delta)
            comp = compare_q_forms(general, simple)
            comp["general"] = general.to_json_dict()
            comp["simplified"] = simple.to_json_dict()
            comparisons.append(comp)
        terms = sorted({c["mismatch_term"] for c in comparisons if c["mismatch_term"]})
        return {"comparisons": comparisons,
                "all_agree": bool(all(c["agree"] for c in comparisons)),
                "mismatch_terms": terms}
    if mode == "sufficient":
        patch = patch_for_catalog(o["surface"], _parse_params(o["param"]))
        return {"sufficient": sufficient_condition(patch, grid=grid, flip=o["flip_orientation"])}
    name = o["surface"]
    if name not in ("plane-x", "plane-y", "plane-z"):
        raise ConfigError("area mode supports plane-x, plane-y, plane-z")
    rep = area_compare(name, o["eta"], grid=o["n"], **_parse_params(o["param"]))
    rep["base_strictly_smaller"] = bool(rep["delta_area"] > rep["error_estimate"])
    return {"area": rep}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and ``_merge`` only reads the actions of a subcommand's parser."""
    ap = argparse.ArgumentParser(
        prog="solgeo",
        description="Sub-Riemannian geometry toolkit for the Sol manifold E(1,1)")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.set_defaults(parser=p)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("residual", help="minimal-surface residual on a window grid")
    common(p)
    p.add_argument("--eps-sing", dest="eps_sing", type=float)
    p.add_argument("--surface", choices=CATALOG_NAMES)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--u", help="defining expression, e.g. 'exp(z)*y + x'")
    p.add_argument("--window", type=float, nargs=6, metavar=("X0", "X1", "Y0", "Y1", "Z0", "Z1"))
    p.add_argument("--grid", type=int)
    p.add_argument("--band", type=float, help="on-surface band |u|/|grad u|")

    p = sub.add_parser("curve", help="sample a characteristic curve")
    common(p)
    p.add_argument("--p0", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p.add_argument("--alpha", type=float, help="initial angle: cos(a) X + sin(a) Y")
    p.add_argument("--v", type=float, nargs=3, metavar=("DX", "DY", "DZ"))
    p.add_argument("--t", type=float, nargs=2, metavar=("T0", "T1"))
    p.add_argument("--n", type=int)
    p.add_argument("--oracle", action="store_const", const=True)

    p = sub.add_parser("sweep", help="ruled surface swept from a singular curve")
    common(p)
    p.add_argument("--gamma", choices=("exp", "line", "x-line", "y-line"))
    p.add_argument("--x0", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p.add_argument("--v0", type=float, nargs=3, metavar=("DX", "DY", "DZ"))
    p.add_argument("--theta", type=float)
    p.add_argument("--eps", type=float, nargs=2, metavar=("E0", "E1"))
    p.add_argument("--t", type=float, nargs=2, metavar=("T0", "T1"))
    p.add_argument("--grid", type=int, nargs=2, metavar=("NE", "NT"))
    p.add_argument("--skew", type=float)
    p.add_argument("--scan-singular", dest="scan_singular", action="store_const", const=True)

    p = sub.add_parser("stability", help="second-variation checks")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("mode", choices=("qform", "compare", "sufficient", "area"))
    p.add_argument("--surface", choices=CATALOG_NAMES)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--family", choices=("plane_ab", "saddle_curve"))
    p.add_argument("--battery", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--flip-orientation", dest="flip_orientation",
                   action="store_const", const=True)
    return ap


_DEFAULTS = {
    "residual": {"surface": None, "param": None, "u": None,
                 "window": [-2.0, 2.0, -2.0, 2.0, -2.0, 2.0], "grid": 50,
                 "band": 0.1, "out": "solgeo-out", "eps_sing": EPS_SING},
    "curve": {"p0": [0.0, 0.0, 0.0], "alpha": None, "v": None,
              "t": [0.0, 3.0], "n": 100, "oracle": False, "out": "solgeo-out"},
    "sweep": {"gamma": "exp", "x0": [0.0, 0.0, 0.0], "v0": None, "theta": None,
              "eps": [-1.5, 1.5], "t": [-3.0, 3.0], "grid": [48, 48],
              "skew": 0.0, "scan_singular": False, "out": "solgeo-out"},
    "stability": {"mode": "qform", "surface": "plane-x", "param": None,
                  "family": None, "battery": 50, "n": 16, "delta": None,
                  "eta": 0.3, "flip_orientation": False, "out": "solgeo-out",
                  "seed": 7},
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        options, given = _merge(args, _DEFAULTS[args.command])
        _validate(options, given, args.parser)
        handler = {
            "residual": cmd_residual,
            "curve": cmd_curve,
            "sweep": cmd_sweep,
            "stability": cmd_stability,
        }[args.command]
        results = handler(options)
        summary = {"config": {"command": args.command, "version": __version__, **options},
                   **results}
        sys.stdout.write(write_json(os.path.join(options["out"], "summary.json"), summary))
        return 0
    except (ConfigError, ExprSyntaxError, BadParams) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # internal
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
