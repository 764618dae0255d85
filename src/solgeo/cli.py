"""Command-line front end binding the toolkit into reproducible runs.

Subcommands
-----------
residual   evaluate the minimal-surface residual of a surface on a window grid
curve      sample a characteristic curve, optionally against the ODE oracle
sweep      sweep a ruled surface from a singular curve; export OBJ + CSV
stability  qform | compare | sufficient | area

Every run writes a JSON summary embedding the fully resolved configuration
and the tool version; identical configurations (including the seed)
reproduce byte-identical summaries.  Exit codes: 0 ok, 2 usage or config
error (including parameters a construction rejects), 3 numerical or
precondition failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import BadParams, ExprSyntaxError, GeometryError
from .expressions import CATALOG_NAMES, catalog, parse as parse_field
from .exporters import write_csv, write_json, write_obj
from .frame import CoordVector, Point, SQRT2, TangentFrame, frame_components
from .stationary import HorizontalCurve, orthogonality_check, singular_loci, sweep_surface
# bench/spans.py rebinds solgeo.cli.uniqueness_scan, so it stays imported here
from .stationary import uniqueness_scan  # noqa: F401
from .surface import EPS_SING, raw_fields
from .curves import eval_curve, integrate_ode, is_geodesic, make_curve
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


@dataclass
class RunConfig:
    command: str
    options: dict

    def validate(self):
        o = self.options
        for key in ("eps_sing", "delta"):
            if key in o and o[key] is not None and o[key] <= 0:
                raise ConfigError(f"{key} must be positive")
        for key in ("grid", "n", "battery"):
            if key in o and o[key] is not None:
                vals = o[key] if isinstance(o[key], (list, tuple)) else [o[key]]
                if any(int(v) < 2 for v in vals):
                    raise ConfigError(f"{key} must be at least 2")
        for key in ("window", "t", "eps"):
            if key in o and o[key] is not None:
                vals = list(o[key])
                for lo, hi in zip(vals[::2], vals[1::2]):
                    if not hi > lo:
                        raise ConfigError(f"{key} range must be increasing")

    def as_dict(self):
        return {"command": self.command, "version": __version__, **self.options}


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


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """Flag > config file > default, per option.

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
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        value = _coerce(key, fromfile[key], actions[key]) if key in fromfile else default
        out[key] = value if flag is None else flag
    return out


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


def _resolve_surface(options) -> tuple:
    if options.get("u"):
        return parse_field(options["u"]), None, {}
    name = options.get("surface")
    if not name:
        raise ConfigError("need --surface NAME or --u EXPR")
    if name not in CATALOG_NAMES:
        raise ConfigError(f"unknown surface {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    params = _parse_params(options.get("param"))
    return catalog(name, **params), name, params


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def cmd_residual(cfg: RunConfig) -> int:
    o = cfg.options
    field, name, params = _resolve_surface(o)
    x0, x1, y0, y1, z0, z1 = o["window"]
    n = int(o["grid"])
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    zs = np.linspace(z0, z1, n)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    f = raw_fields(field, X, Y, Z)
    eps_sing = o["eps_sing"]

    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = f["residual_coord"] / f["normalized_residual_den"]
    on_surface = np.abs(f["u"]) / np.where(f["grad_norm"] == 0, 1.0, f["grad_norm"]) < o["band"]
    nonsing = f["nh"] >= eps_sing
    # normalized residual is checkable only where eps times the summand
    # magnitude resolves against D^3 (away from the singular set)
    noise = 16.0 * np.finfo(float).eps * f["residual_scale"]
    band = on_surface & nonsing & (noise < 0.25e-9 * f["normalized_residual_den"])
    if not band.any():
        raise GeometryError(
            f"the on-surface band is empty: no grid point has |u|/|grad u| < {o['band']:g} "
            f"with a checkable normalized residual")

    rows = zip(X.ravel(), Y.ravel(), Z.ravel(),
               f["nh"].ravel(), f["H"].ravel(),
               f["residual_coord"].ravel(), f["nt"].ravel())
    out_dir = o["out"]
    write_csv(os.path.join(out_dir, "residual.csv"),
              ["x", "y", "z", "Nh", "H", "residual", "NT"], rows)

    singular_pts = np.argwhere(on_surface & ~nonsing)
    summary = {
        "config": cfg.as_dict(),
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
    sys.stdout.write(write_json(os.path.join(out_dir, "summary.json"), summary))
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _horizontal_unit(p0: Point, angle: float) -> CoordVector:
    """cos(angle) X + sin(angle) Y at p0, in coordinates."""
    return CoordVector(-math.sin(angle) * math.exp(p0.z) / SQRT2,
                       math.sin(angle) * math.exp(-p0.z) / SQRT2, math.cos(angle))


def cmd_curve(cfg: RunConfig) -> int:
    o = cfg.options
    p0 = Point(*o["p0"])
    if o.get("alpha") is not None:
        v0 = _horizontal_unit(p0, float(o["alpha"]))
    elif o.get("v") is not None:
        v0 = CoordVector(*o["v"])
    else:
        raise ConfigError("need --alpha or --v")
    curve = make_curve(p0, v0)
    t0, t1 = o["t"]
    ts = np.linspace(t0, t1, int(o["n"]))
    pos, vel = eval_curve(curve, ts)
    rows = zip(ts, pos[:, 0], pos[:, 1], pos[:, 2], vel[:, 0], vel[:, 1], vel[:, 2])
    out_dir = o["out"]
    write_csv(os.path.join(out_dir, "curve.csv"),
              ["t", "x", "y", "z", "xdot", "ydot", "zdot"], rows)

    a, b, c = frame_components(pos[:, 2], vel[:, 0], vel[:, 1], vel[:, 2])
    summary = {
        "config": cfg.as_dict(),
        "family": curve.family,
        "geodesic": is_geodesic(curve),
        "horizontality_drift": float(np.max(np.abs(c))),
        "unit_speed_drift": float(np.max(np.abs(np.sqrt(a**2 + b**2 + c**2) - 1.0))),
    }
    if o.get("oracle"):
        # two one-sided integrations from p0, matching the sample grid
        devs = []
        for lo, hi in ((0.0, t0), (0.0, t1)):
            if hi == lo:
                continue
            seg = ts[(ts >= min(lo, hi)) & (ts <= max(lo, hi))]
            if len(seg) < 2:
                continue
            p = integrate_ode(p0, v0, hi, len(seg))
            ref, _ = eval_curve(curve, p.t)
            devs.append(float(np.max(np.abs(p.points - ref))))
        summary["oracle_sup_deviation"] = max(devs) if devs else 0.0
    sys.stdout.write(write_json(os.path.join(out_dir, "summary.json"), summary))
    return 0


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
            v0 = _horizontal_unit(p0, float(o["theta"]))
        return HorizontalCurve.from_initial_data(p0, v0)
    raise ConfigError(f"unknown --gamma kind {kind!r}")


def cmd_sweep(cfg: RunConfig) -> int:
    o = cfg.options
    if o["v0"] is None:
        if o["theta"] is None:
            o["theta"] = SWEEP_THETA
    elif o["theta"] is not None:
        raise ConfigError("--v0 and --theta both set the initial velocity; give one")
    elif o["gamma"] != "exp":
        raise ConfigError(f"--v0 sets the velocity of --gamma exp, not {o['gamma']}")
    gamma = _gamma_from_options(o)
    ne, nt = (int(v) for v in o["grid"])
    s = sweep_surface(gamma, o["eps"], o["t"], grid=(ne, nt), skew=o["skew"])
    tg = s.t_grid()
    E, T = np.meshgrid(s.eps_grid(), tg, indexing="ij")
    # |N_h| from the cross product of the tangents; <V, T> from V = dF/deps
    (X, Y, Z), (V, F_t), _ = s.chart(E, T)
    n1, n2, n3 = TangentFrame(Z, V, F_t).normal_components
    with np.errstate(invalid="ignore", divide="ignore"):
        nh = np.hypot(n1, n2) / np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    vt = frame_components(Z, *V)[2]

    out_dir = o["out"]
    verts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    write_obj(os.path.join(out_dir, "sweep.obj"), verts, (ne, nt))
    rows = zip(E.ravel(), T.ravel(), X.ravel(), Y.ravel(), Z.ravel(),
               nh.ravel(), vt.ravel())
    write_csv(os.path.join(out_dir, "sweep.csv"),
              ["eps", "t", "x", "y", "z", "Nh", "VT"], rows)

    mid_eps = 0.5 * (o["eps"][0] + o["eps"][1])
    probe_ts = np.linspace(o["t"][0] * 0.9, o["t"][1] * 0.9, 9)
    probe_ts = probe_ts[np.abs(probe_ts) > 0.05 * (o["t"][1] - o["t"][0])]
    h_samples = [float(s.intrinsic_mean_curvature(mid_eps, float(t))) for t in probe_ts]
    summary = {
        "config": cfg.as_dict(),
        "branch": gamma.kind,
        "orthogonality_defect": float(orthogonality_check(s)),
        "max_abs_intrinsic_H": max(abs(h) for h in h_samples) if h_samples else None,
    }
    if o.get("scan_singular"):
        summary["singular_loci"] = singular_loci(tg, vt)
    sys.stdout.write(write_json(os.path.join(out_dir, "summary.json"), summary))
    return 0


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def cmd_stability(cfg: RunConfig) -> int:
    o = cfg.options
    mode = o["mode"]
    out_dir = o["out"]
    summary = {"config": cfg.as_dict()}

    if mode == "qform":
        name = o.get("surface")
        params = _parse_params(o.get("param"))
        patch = patch_for_catalog(name, params)
        delta = o.get("delta") or 0.1 * (patch.t_range[1] - patch.t_range[0])
        funcs = battery_test_functions(patch, int(o["battery"]), int(o["seed"]), delta)
        reports = []
        for tf in funcs:
            rep = q_form(patch, tf, grid=(int(o["n"]), int(o["n"])), delta=delta)
            reports.append(rep.to_json_dict())
        totals = [r["total"] for r in reports]
        errors = [r["error_estimate"] for r in reports]
        summary.update({
            "reports": reports,
            "min_total": min(totals),
            "max_error_estimate": max(errors),
            "battery_nonnegative": bool(all(t >= -e for t, e in zip(totals, errors))),
        })
    elif mode == "compare":
        kind = o.get("family")
        if kind not in ("plane_ab", "saddle_curve"):
            raise ConfigError("--family must be plane_ab or saddle_curve")
        params = _parse_params(o.get("param"))
        if kind == "plane_ab" and not params:
            params = {"a": 1.0, "b": 1.0, "c": 0.0}
        name = {"plane_ab": "plane-ab", "saddle_curve": "saddle-curve"}[kind]
        patch = patch_for_catalog(name, params)
        delta = o.get("delta") or 0.1 * (patch.t_range[1] - patch.t_range[0])
        funcs = battery_test_functions(patch, int(o["battery"]), int(o["seed"]), delta)
        comparisons = []
        for tf in funcs:
            general = q_form(patch, tf, grid=(int(o["n"]), int(o["n"])), delta=delta)
            simple = q_form_simplified(patch, tf, grid=(int(o["n"]), int(o["n"])),
                                       delta=delta)
            comp = compare_q_forms(general, simple)
            comp["general"] = general.to_json_dict()
            comp["simplified"] = simple.to_json_dict()
            comparisons.append(comp)
        summary["comparisons"] = comparisons
        summary["all_agree"] = bool(all(c["agree"] for c in comparisons))
        terms = sorted({c["mismatch_term"] for c in comparisons if c["mismatch_term"]})
        summary["mismatch_terms"] = terms
    elif mode == "sufficient":
        name = o.get("surface")
        params = _parse_params(o.get("param"))
        patch = patch_for_catalog(name, params)
        field = patch.field
        rep = sufficient_condition(field, patch, grid=(int(o["n"]), int(o["n"])),
                                   flip=bool(o.get("flip_orientation")))
        summary["sufficient"] = rep
    elif mode == "area":
        name = o.get("surface")
        if name not in ("plane-x", "plane-y", "plane-z"):
            raise ConfigError("area mode supports plane-x, plane-y, plane-z")
        params = _parse_params(o.get("param"))
        rep = area_compare(name, float(o["eta"]), grid=int(o["n"]),
                           c=float(params.get("c", 0.0)))
        rep["base_strictly_smaller"] = bool(
            rep["delta_area"] > rep["error_estimate"])
        summary["area"] = rep
    else:
        raise ConfigError(f"unknown stability mode {mode!r}")

    sys.stdout.write(write_json(os.path.join(out_dir, "summary.json"), summary))
    return 0


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
        options = _merge(args, _DEFAULTS[args.command])
        cfg = RunConfig(args.command, options)
        cfg.validate()
        handler = {
            "residual": cmd_residual,
            "curve": cmd_curve,
            "sweep": cmd_sweep,
            "stability": cmd_stability,
        }[args.command]
        return handler(cfg)
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
