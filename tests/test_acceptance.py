"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import math

import numpy as np

from conftest import horizontal_velocity, vertical_component_fd
from solgeo.cli import main as cli_main
from solgeo.curves import eval_curve, integrate_ode, is_geodesic, make_curve, tau_contraction
from solgeo.expressions import catalog, parse
from solgeo.frame import CoordVector, Point, SQRT2, frame_components
from solgeo.stationary import (
    HorizontalCurve,
    orthogonality_check,
    sweep_surface,
    uniqueness_scan,
)
from solgeo.stability import (
    area_compare,
    battery_test_functions,
    compare_q_forms,
    patch_for_catalog,
    q_form,
    q_form_simplified,
    sufficient_condition,
)
from solgeo.surface import raw_fields

SEED = 20240811


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. minimal-surface residual on the catalog
# ---------------------------------------------------------------------------

def _on_surface_samples(name, params, n=50, window=2.0):
    """Window-grid points of the zero set, solved along a graph coordinate.

    Points of the singular set are excluded: the normalized residual divides
    by the horizontal gradient norm, which vanishes exactly there.
    """
    f = catalog(name, **params)
    g = np.linspace(-window, window, n)
    A, B = np.meshgrid(g, g, indexing="ij")
    if name in ("plane-x", "plane-y", "plane-z"):
        c = params.get("c", 0.0)
        fixed = np.full_like(A, -c)
        x, y, z = {
            "plane-x": (fixed, A, B),
            "plane-y": (A, fixed, B),
            "plane-z": (A, B, fixed),
        }[name]
    elif name == "plane-ab":
        a, b, c = params["a"], params["b"], params.get("c", 0.0)
        if abs(a) >= abs(b):
            y, z = A, B
            x = -(b * y + c) / a
        else:
            x, z = A, B
            y = -(a * x + c) / b
    elif name == "saddle-point":
        x0, y0, z0 = params.get("x0", 0.0), params.get("y0", 0.0), params.get("z0", 0.0)
        y, z = A, B
        x = x0 - np.exp(z - z0) * (y - y0)
    elif name == "saddle-curve":
        x0, y0 = params.get("x0", 0.0), params.get("y0", 0.0)
        y, z = A, B
        x = x0 - np.exp(2 * z) * (y - y0)
    elif name == "tilted":
        a, b, c, d = params["a"], params["b"], params["c"], params.get("d", 0.0)
        y, z = A, B
        x = -(b * y + c * z + d) / a
    else:
        raise AssertionError(name)
    inside = (np.abs(x) <= window) & (np.abs(y) <= window) & (np.abs(z) <= window)
    return f, x[inside], y[inside], z[inside]


def _max_normalized_residual(f, x, y, z, tol=1e-9):
    """Largest |normalized residual| where the check is decidable in floats.

    The normalization divides by D^3, which vanishes on the singular set;
    where eps times the residual's summand magnitude is not well below
    tol * D^3, the comparison cannot resolve tol and the point is skipped
    (at most a few percent of the samples, adjacent to the singular set).
    """
    out = raw_fields(f, x, y, z)
    noise = 16.0 * np.finfo(float).eps * out["residual_scale"]
    decidable = noise < 0.25 * tol * out["normalized_residual_den"]
    assert np.count_nonzero(decidable) > 100
    assert np.mean(decidable) > 0.9
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.abs(out["residual_coord"][decidable]) / \
            out["normalized_residual_den"][decidable]
    return float(np.max(norm))


def test_criterion_01_minimal_surface_residual():
    rng = np.random.default_rng(SEED)
    cases = [("plane-x", {}), ("plane-y", {}), ("plane-z", {})]
    for _ in range(20):
        while True:
            a, b, c = rng.uniform(-2, 2, 3)
            if abs(a) > 0.1 or abs(b) > 0.1:
                break
        cases.append(("plane-ab", {"a": float(a), "b": float(b), "c": float(c)}))
    for _ in range(20):
        x0, y0, z0 = rng.uniform(-1, 1, 3)
        cases.append(("saddle-point", {"x0": float(x0), "y0": float(y0), "z0": float(z0)}))
    for _ in range(20):
        x0, y0, z0 = rng.uniform(-1, 1, 3)
        cases.append(("saddle-curve", {"x0": float(x0), "y0": float(y0), "z0": float(z0)}))

    worst = 0.0
    for name, params in cases:
        f, x, y, z = _on_surface_samples(name, params)
        worst = max(worst, _max_normalized_residual(f, x, y, z))
    assert worst < 1e-9, worst

    f, x, y, z = _on_surface_samples("tilted", {"a": 1.0, "b": 1.0, "c": 1.0})
    bad = _max_normalized_residual(f, x, y, z)
    assert bad > 1e-2, bad
    _report(1, "minimal-surface residual",
            f"catalog max {worst:.2e} < 1e-9; tilted control {bad:.2e} > 1e-2")


# ---------------------------------------------------------------------------
# 2. characteristic-curve oracle
# ---------------------------------------------------------------------------

def test_criterion_02_curve_oracle():
    rng = np.random.default_rng(SEED + 1)
    sup_dev = 0.0
    drift = 0.0
    for _ in range(100):
        p = Point(*(float(v) for v in rng.uniform(-1, 1, 3)))
        theta = float(rng.uniform(0, 2 * math.pi))
        c = make_curve(p, horizontal_velocity(p, theta))
        for t_end in (5.0, -5.0):
            path = integrate_ode(p, c.v0, t_end, 51)
            ref_pos, ref_vel = eval_curve(c, path.t)
            sup_dev = max(sup_dev, float(np.max(np.abs(path.points - ref_pos))))
            _, _, tc = frame_components(ref_pos[:, 2], ref_vel[:, 0],
                                        ref_vel[:, 1], ref_vel[:, 2])
            drift = max(drift, float(np.max(np.abs(tc))))
    assert sup_dev < 1e-8, sup_dev
    assert drift < 1e-9, drift

    # family limit at zdot0 = 1e-6
    zd = 1e-6
    exp_curve = make_curve(Point(0, 0, 0), CoordVector(-1 / SQRT2, 1 / SQRT2, zd))
    assert exp_curve.family == "exponential"
    line = make_curve(Point(0, 0, 0), CoordVector(-1 / SQRT2, 1 / SQRT2, 0.0))
    ts = np.linspace(-5, 5, 41)
    pe, _ = eval_curve(exp_curve, ts)
    pl, _ = eval_curve(line, ts)
    gap = np.abs(pe - pl).max(axis=1)
    bound = 2.0 * zd * ts ** 2 + 10 * zd
    assert np.all(gap <= bound)
    _report(2, "characteristic-curve oracle",
            f"sup dev {sup_dev:.2e} < 1e-8; drift {drift:.2e} < 1e-9; limit ok")


# ---------------------------------------------------------------------------
# 3. reconstruction of the isolated-singular-point surface
# ---------------------------------------------------------------------------

def test_criterion_03_singular_point_reconstruction():
    f = parse("exp(z)*y + x")
    ts = np.linspace(-3, 3, 61)
    worst_membership = 0.0
    min_nh = np.inf
    origin = Point(0, 0, 0)
    for alpha in np.linspace(0, 2 * math.pi, 720, endpoint=False):
        c = make_curve(origin, horizontal_velocity(origin, float(alpha)))
        pos, _ = eval_curve(c, ts)
        vals = f.values(pos[:, 0], pos[:, 1], pos[:, 2])
        worst_membership = max(worst_membership, float(np.max(np.abs(vals))))
        out = raw_fields(f, pos[:, 0], pos[:, 1], pos[:, 2])
        off_origin = np.abs(ts) > 1e-12
        min_nh = min(min_nh, float(np.min(out["nh"][off_origin])))
    assert worst_membership < 1e-10, worst_membership
    assert min_nh > 0.0
    _report(3, "singular-point surface reconstruction",
            f"membership defect {worst_membership:.2e} < 1e-10; min |N_h| off origin {min_nh:.2e}")


# ---------------------------------------------------------------------------
# 4. orthogonality of rulings and singular curves
# ---------------------------------------------------------------------------

def _sweep_test_set(rng):
    sweeps = []
    for _ in range(6):
        p0 = Point(*(float(v) for v in rng.uniform(-1, 1, 3)))
        theta = float(rng.uniform(0.3, 1.25))
        gamma = HorizontalCurve.from_initial_data(p0, horizontal_velocity(p0, theta))
        sweeps.append(sweep_surface(gamma, (-1.2, 1.2), (-3, 3)))
    sweeps.append(sweep_surface(HorizontalCurve.x_line(Point(0, 0, 0)), (-2, 2), (-3, 3)))
    sweeps.append(sweep_surface(HorizontalCurve.y_line(Point(0.3, -0.2, 0.4)), (-2, 2), (-3, 3)))
    return sweeps


def test_criterion_04_orthogonality():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for s in _sweep_test_set(rng):
        worst = max(worst, orthogonality_check(s))
    assert worst < 1e-10, worst
    gamma = HorizontalCurve.from_initial_data(
        Point(0.2, -0.1, 0.3), horizontal_velocity(Point(0.2, -0.1, 0.3), 0.7))
    skewed = sweep_surface(gamma, (-1, 1), (-2, 2), skew=1.0)
    defect = orthogonality_check(skewed)
    assert defect > 0.5, defect
    _report(4, "ruling orthogonality",
            f"max defect {worst:.2e} < 1e-10; skewed fixture {defect:.2f} > 0.5")


# ---------------------------------------------------------------------------
# 5. vertical Jacobi component
# ---------------------------------------------------------------------------

def test_criterion_05_jacobi_vertical():
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for _ in range(8):
        p0 = Point(*(float(v) for v in rng.uniform(-0.8, 0.8, 3)))
        theta = float(rng.uniform(0.3, 1.25))
        gamma = HorizontalCurve.from_initial_data(p0, horizontal_velocity(p0, theta))
        s = sweep_surface(gamma, (-1.2, 1.2), (-5, 5))
        eps = rng.uniform(-1.2, 1.2, 125)
        t = rng.uniform(-5, 5, 125)
        closed = np.asarray(s.vertical_component_closed(eps, t))
        fd = np.asarray(vertical_component_fd(s, eps, t))
        rel = np.abs(closed - fd) / (1.0 + np.abs(fd))
        assert np.max(rel) < 1e-5, np.max(rel)
        checked += len(eps)
        # exact zero on the singular curve
        base = s.vertical_component_closed(rng.uniform(-1.2, 1.2, 9), np.zeros(9))
        assert np.all(np.asarray(base) == 0.0)
    assert checked >= 1000

    # uniqueness: no zero of <V,T> for t in (0, 5] on 20 random generic sweeps
    for _ in range(20):
        p0 = Point(*(float(v) for v in rng.uniform(-0.8, 0.8, 3)))
        theta = float(rng.uniform(0.3, 1.25))
        gamma = HorizontalCurve.from_initial_data(p0, horizontal_velocity(p0, theta))
        s = sweep_surface(gamma, (-1, 1), (-5, 5), grid=(15, 101))
        E, T = np.meshgrid(np.linspace(-1, 1, 15), np.linspace(0.01, 5, 120), indexing="ij")
        vals = np.asarray(s.vertical_component_closed(E, T))
        assert np.min(np.abs(vals)) > 0.0
        assert np.all(np.sign(vals) == np.sign(vals.flat[0]))
        loci = uniqueness_scan(s)
        assert len(loci) == 1 and abs(loci[0]["t_center"]) < 1e-9
    _report(5, "vertical Jacobi component",
            f"closed vs FD rel < 1e-5 at {checked} points; single zero band at t=0 on 20 sweeps")


# ---------------------------------------------------------------------------
# 6. non-geodesic area-stationary family
# ---------------------------------------------------------------------------

def test_criterion_06_nongeodesic_witness():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(10):
        p0 = Point(*(float(v) for v in rng.uniform(-0.8, 0.8, 3)))
        theta = float(rng.uniform(0.3, 1.25))
        v0 = horizontal_velocity(p0, theta)
        assert abs(v0.dx) > 1e-3 and abs(v0.dy) > 1e-3 and abs(v0.dz) > 1e-3
        gamma = HorizontalCurve.from_initial_data(p0, v0)
        s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5))
        assert orthogonality_check(s) < 1e-10
        for eps in np.linspace(-1, 1, 7):
            ruling = s.ruling(float(eps))
            assert abs(tau_contraction(ruling)) > 0.01
            assert not is_geodesic(ruling)
        assert not is_geodesic(gamma.curve)
        for t in (-2.0, -0.7, 0.9, 2.2):
            assert abs(float(s.intrinsic_mean_curvature(0.3, t))) < 1e-7
    _report(6, "non-geodesic witness",
            "10 sweeps: rulings have |tau(gdot,gdot)| > 0.01, orthogonal, |H| < 1e-7")


# ---------------------------------------------------------------------------
# 7. stability battery
# ---------------------------------------------------------------------------

BATTERY_SURFACES = [
    ("plane-x", {}),
    ("plane-y", {}),
    ("plane-z", {}),
    ("plane-ab", {"a": 1.0, "b": 1.0, "c": 0.0}),
    ("saddle-curve", {}),
    ("saddle-point", {}),
]


def test_criterion_07_stability_battery():
    worst_margin = np.inf
    for name, params in BATTERY_SURFACES:
        patch = patch_for_catalog(name, params)
        delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
        for u in battery_test_functions(patch, 50, 7, delta):
            rep = q_form(patch, u, grid=(10, 10), delta=delta)
            margin = rep.total + rep.error_estimate
            worst_margin = min(worst_margin, margin)
            assert rep.total >= -rep.error_estimate, (name, rep.total, rep.error_estimate)

    # sufficient condition on the three plane families, orientation-sensitive
    for name in ("plane-x", "plane-y", "plane-z"):
        patch = patch_for_catalog(name, {})
        assert sufficient_condition(patch, grid=(24, 24))["condition_met"]
    patch = patch_for_catalog("plane-x", {})
    flipped_rep = sufficient_condition(patch, grid=(24, 24), flip=True)
    assert not flipped_rep["condition_met"]
    _report(7, "stability battery",
            f"300 admissible bumps all Q >= -err (min margin {worst_margin:.2e}); "
            "sufficient condition orientation-sensitive")


# ---------------------------------------------------------------------------
# 8. general vs closed-form quadratic form
# ---------------------------------------------------------------------------

def test_criterion_08_q_form_comparison():
    outcomes = []
    for kind, params in (("plane_ab", {"a": 1.0, "b": 1.0, "c": 0.0}),
                         ("saddle_curve", {})):
        name = {"plane_ab": "plane-ab", "saddle_curve": "saddle-curve"}[kind]
        patch = patch_for_catalog(name, params)
        delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
        for u in battery_test_functions(patch, 5, 13, delta):
            general = q_form(patch, u, grid=(12, 12), delta=delta)
            simple = q_form_simplified(patch, u, grid=(12, 12), delta=delta)
            comp = compare_q_forms(general, simple)
            # either agreement within 10x the combined error, or a structured
            # mismatch naming the term; silence fails
            assert comp["agree"] or comp["mismatch_term"] is not None
            outcomes.append((kind, comp["agree"], comp["mismatch_term"]))
    plane_agree = all(a for k, a, _ in outcomes if k == "plane_ab")
    saddle_terms = {t for k, a, t in outcomes if k == "saddle_curve" and not a}
    assert plane_agree
    detail = f"plane_ab agrees; saddle_curve mismatch terms {sorted(saddle_terms)}" \
        if saddle_terms else "both agree"
    _report(8, "q-form comparison", detail)


# ---------------------------------------------------------------------------
# 9. calibration-style area comparison
# ---------------------------------------------------------------------------

def test_criterion_09_area_comparison():
    for kind in ("plane-x", "plane-y", "plane-z"):
        areas = []
        for eta in (0.1, 0.2, 0.4):
            rep = area_compare(kind, eta, grid=100)
            assert rep["delta_area"] > rep["error_estimate"], (kind, eta, rep)
            areas.append(rep["A_comp"])
        assert areas[0] < areas[1] < areas[2], (kind, areas)
    _report(9, "area comparison", "strictly increasing in eta on all three planes")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    commands = [
        ["stability", "qform", "--surface", "saddle-curve", "--battery", "5",
         "--seed", "7", "--n", "8", "--out", str(tmp_path / "a")],
        ["residual", "--surface", "saddle-point", "--window",
         "-2", "2", "-2", "2", "-2", "2", "--grid", "10", "--out", str(tmp_path / "b")],
        ["sweep", "--gamma", "exp", "--x0", "0.2", "-0.1", "0.3", "--theta", "0.7",
         "--eps", "-1", "1", "--t", "-2", "2", "--grid", "12", "12",
         "--scan-singular", "--out", str(tmp_path / "c")],
        ["stability", "area", "--surface", "plane-z", "--eta", "0.3",
         "--n", "20", "--out", str(tmp_path / "d")],
    ]
    for argv in commands:
        assert cli_main(argv) == 0
        out = argv[argv.index("--out") + 1]
        with open(f"{out}/summary.json", "rb") as fh:
            first = fh.read()
        assert cli_main(argv) == 0
        with open(f"{out}/summary.json", "rb") as fh:
            second = fh.read()
        assert first == second
        json.loads(first)  # well-formed
    _report(10, "determinism", "4 commands rerun byte-identical")
