"""Verdict oracle: compares an op's output with what the geometry predicts.

``check(op, result)`` returns a list of problems; an empty list means the
op succeeded.  A nonzero exit code, a missing verdict, a ``null`` or a
non-finite number in a verdict field, and a verdict that differs from
``op.expect`` are all failures.
"""

from __future__ import annotations

import math

#: ruled sweeps rotate rulings exactly by J
ORTHOGONALITY_TOL = 1e-12
#: closed-form characteristic flow against the RK45 oracle
ODE_TOL = 1e-8


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _field(summary: dict, path: str, problems: list):
    """Verdict field at dotted ``path``; records a problem when it is absent
    or null."""
    node = summary
    for key in path.split("."):
        if not isinstance(node, dict) or node.get(key) is None:
            problems.append(f"{path} missing or null")
            return None
        node = node[key]
    return node


def _expect_bool(summary, path, want, problems):
    got = _field(summary, path, problems)
    if got is not None and got is not want:
        problems.append(f"{path} is {got!r}, geometry predicts {want!r}")


def _expect_finite(summary, paths, problems):
    for path in paths:
        v = _field(summary, path, problems)
        if v is not None and not _finite(v):
            problems.append(f"{path} is not a finite number: {v!r}")


def _check_residual(op, s, problems):
    _expect_bool(s, "minimal_flag", op.expect["minimal_flag"], problems)
    _expect_finite(s, ("max_abs_normalized_residual_on_surface", "max_abs_residual"), problems)
    if (_field(s, "on_surface_points", problems) or 0) <= 0:
        problems.append("on-surface band is empty")


def _check_qform(op, s, problems):
    _expect_bool(s, "battery_nonnegative", op.expect["battery_nonnegative"], problems)
    _expect_finite(s, ("min_total", "max_error_estimate"), problems)
    for r in s.get("reports") or []:
        _expect_finite(r, ("total", "error_estimate"), problems)
    if not s.get("reports"):
        problems.append("no Q(u) reports")


def _check_compare(op, s, problems):
    comps = _field(s, "comparisons", problems) or []
    if not comps:
        problems.append("no comparisons")
    for c in comps:
        _expect_finite(c, ("difference", "threshold"), problems)
        if not isinstance(c.get("agree"), bool):
            problems.append("comparison without an agree verdict")
        elif not c["agree"] and not c.get("mismatch_term"):
            problems.append("disagreement without a named mismatch_term")
    if op.expect["all_agree"]:
        _expect_bool(s, "all_agree", True, problems)


def _check_area(op, s, problems):
    _expect_bool(s, "area.base_strictly_smaller", op.expect["base_strictly_smaller"], problems)
    _expect_finite(s, ("area.A_base", "area.A_comp", "area.delta_area",
                       "area.error_estimate"), problems)


def _check_ruled(op, out, problems):
    """Every J-ruled sweep is orthogonal to its base curve, is singular
    exactly along t = 0, has Q(u) >= 0 and closed-form rulings."""
    od = out.get("orthogonality_defect")
    if not _finite(od) or od >= ORTHOGONALITY_TOL:
        problems.append(f"orthogonality defect {od!r} not below {ORTHOGONALITY_TOL:g}")
    loci = out.get("loci") or []
    if len(loci) != 1:
        problems.append(f"expected exactly one singular locus, got {len(loci)}")
    elif not (_finite(loci[0].get("t_center"))
              and abs(loci[0]["t_center"]) <= out["dt"]):
        problems.append(f"singular locus at t = {loci[0].get('t_center')!r}, not near 0")
    if not all(_finite(v) for v in out.get("jacobi") or [None]):
        problems.append("non-finite vertical Jacobi component")
    q = out.get("q") or []
    if not q:
        problems.append("no Q(u) values")
    for total, err in q:
        if not (_finite(total) and _finite(err)) or total < -err:
            problems.append(f"Q = {total!r} below -err = {-err!r}")
    dev = out.get("ode_deviation")
    if not _finite(dev) or dev >= ODE_TOL:
        problems.append(f"ODE oracle deviation {dev!r} not below {ODE_TOL:g}")


_CHECKS = {"residual": _check_residual, "qform": _check_qform,
           "compare": _check_compare, "area": _check_area}


def check(op, result: dict) -> list:
    """Problems with ``result`` (from ``workloads.decode``) for ``op``."""
    problems = []
    if op.kind == "ruled":
        _check_ruled(op, result, problems)
        return problems
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')}"]
    _CHECKS[op.kind](op, result["summary"], problems)
    return problems
