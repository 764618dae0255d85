import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solgeo.curves
import solgeo.stationary
from conftest import (SkewedSweep, horizontal_velocity, singular_loci_by_rows, skewed_sweep,
                      vertical_component_fd)
from solgeo.curves import _eval_raw, eval_curve, is_geodesic
from solgeo.errors import BadParams, CurveOverflow, NotHorizontal
from solgeo.expressions import catalog, parse
from solgeo.frame import CoordVector, Point, SQRT2, frame_components
from solgeo.stationary import (
    HorizontalCurve,
    RuledSurface,
    orthogonality_check,
    jacobi_vertical,
    plane_ab_singular_line_z,
    singular_loci,
    sweep_surface,
    uniqueness_scan,
)
from solgeo.surface import EPS_SING, raw_fields


def on_surface_fields(field, p: Point) -> dict:
    """``raw_fields`` at ``p``, which must lie on the zero set of ``field``."""
    f = raw_fields(field, p.x, p.y, p.z)
    assert abs(f["u"]) / f["grad_norm"] < 1e-9
    return f


def generic_gamma(theta=0.7, p0=Point(0.2, -0.1, 0.3)) -> HorizontalCurve:
    return HorizontalCurve.from_initial_data(p0, horizontal_velocity(p0, theta))


def test_horizontal_curve_kinds():
    assert HorizontalCurve.x_line(Point(0, 0, 0)).kind == "x-integral"
    assert HorizontalCurve.y_line(Point(1, 2, 0.5)).kind == "y-integral"
    assert generic_gamma().kind == "generic"


def test_horizontal_curve_requires_horizontality():
    with pytest.raises(NotHorizontal):
        HorizontalCurve.from_initial_data(Point(0, 0, 0), CoordVector(1, 1, 0))


@pytest.mark.parametrize("kind", ["generic", "x-line", "y-line", "skewed"])
def test_sweep_t_lines_are_characteristic_curves(rng, kind):
    gamma = {"generic": generic_gamma(),
             "x-line": HorizontalCurve.x_line(Point(0.1, -0.2, 0.3)),
             "y-line": HorizontalCurve.y_line(Point(0.3, 0.1, -0.2)),
             "skewed": generic_gamma(1.1, Point(0, 0, 0))}[kind]
    if kind == "skewed":
        s = skewed_sweep(gamma, (-1.5, 1.5), (-3, 3), 0.5, grid=(24, 24))
    else:
        s = sweep_surface(gamma, (-1.5, 1.5), (-3, 3), grid=(24, 24))
    for eps in rng.uniform(-1.5, 1.5, 8):
        curve = s.ruling(float(eps))
        ts = np.linspace(-3, 3, 31)
        ref, ref_v = eval_curve(curve, ts)
        got = np.stack(s.point(float(eps), ts), axis=-1)
        assert np.max(np.abs(got - ref)) < 1e-10
        got_v = np.stack(s.t_velocity(float(eps), ts), axis=-1)
        assert np.max(np.abs(got_v - ref_v)) < 1e-10


def test_x_line_sweep_lies_on_saddle_curve_surface():
    # the vertical-axis sweep lands on the zero set of e^z y + e^-z x
    # (and not on e^z y + x, whose singular set is a point, not a curve)
    s = sweep_surface(HorizontalCurve.x_line(Point(0, 0, 0)), (-2, 2), (-3, 3), grid=(40, 40))
    X, Y, Z = s.point(*np.meshgrid(s.eps_grid(), s.t_grid(), indexing="ij"))
    on_curve_family = catalog("saddle-curve").values(X, Y, Z)
    assert np.max(np.abs(on_curve_family)) < 1e-12
    off_point_family = catalog("saddle-point").values(X, Y, Z)
    assert np.max(np.abs(off_point_family)) > 0.1


def test_y_line_sweep_is_vertical_plane_patch():
    s = sweep_surface(HorizontalCurve.y_line(Point(0, 0, 0)), (-2, 2), (-3, 3), grid=(24, 24))
    X, Y, Z = s.point(*np.meshgrid(s.eps_grid(), s.t_grid(), indexing="ij"))
    # x, y constant along t; z affine in t
    assert np.max(np.abs(X - X[:, :1])) < 1e-14
    assert np.max(np.abs(Y - Y[:, :1])) < 1e-14
    dz = np.diff(Z, axis=1)
    assert np.max(np.abs(dz - dz[:, :1])) < 1e-12


def test_generic_sweep_is_minimal_intrinsically(rng):
    s = sweep_surface(generic_gamma(0.9), (-1, 1), (-2.5, 2.5), grid=(16, 16))
    for _ in range(6):
        eps = float(rng.uniform(-1, 1))
        t = float(rng.uniform(0.3, 2.2) * rng.choice([-1, 1]))
        assert abs(float(s.intrinsic_mean_curvature(eps, t))) < 1e-7


def test_orthogonality_positive_and_negative():
    s = sweep_surface(generic_gamma(), (-1.5, 1.5), (-3, 3))
    assert orthogonality_check(s) < 1e-10
    skewed = skewed_sweep(generic_gamma(), (-1.5, 1.5), (-3, 3), 1.0)
    assert orthogonality_check(skewed) > 0.5


def test_orthogonality_plane_family_rulings():
    # singular line of the plane x + y = 0 runs along Y; rulings along X
    zline = plane_ab_singular_line_z(1.0, 1.0)
    assert zline == pytest.approx(0.0)
    s = sweep_surface(HorizontalCurve.y_line(Point(0, 0, zline)), (-2, 2), (-2, 2))
    assert orthogonality_check(s) < 1e-10


def test_jacobi_vertical_zero_on_base():
    s = sweep_surface(generic_gamma(), (-1.5, 1.5), (-3, 3))
    for eps in np.linspace(-1.4, 1.4, 7):
        assert s.vertical_component_closed(float(eps), 0.0) == 0.0


#: one sweep per branch of the base curve
_BRANCH_BASES = {
    "generic": lambda: generic_gamma(1.1, Point(-0.2, 0.4, -0.3)),
    "near-x-line": lambda: generic_gamma(1e-6, Point(-0.2, 0.4, -0.3)),
    "x-line": lambda: HorizontalCurve.x_line(Point(-0.2, 0.4, -0.3)),
    "y-line": lambda: HorizontalCurve.y_line(Point(-0.2, 0.4, -0.3)),
}


@pytest.mark.parametrize("branch", list(_BRANCH_BASES))
def test_jacobi_vertical_closed_vs_fd(rng, branch):
    s = sweep_surface(_BRANCH_BASES[branch](), (-1.2, 1.2), (-3, 3))
    for _ in range(50):
        eps = float(rng.uniform(-1.2, 1.2))
        t = float(rng.uniform(-3, 3))
        closed = s.vertical_component_closed(eps, t)
        fd = vertical_component_fd(s, eps, t)
        assert abs(closed - fd) <= 1e-5 * (1.0 + abs(fd))
        value = jacobi_vertical(s, eps, t)
        assert abs(value - closed) <= 1e-12 * (1.0 + abs(value))


@pytest.mark.parametrize("branch", list(_BRANCH_BASES))
def test_jacobi_vertical_over_arrays_is_the_per_point_calls(rng, branch):
    s = sweep_surface(_BRANCH_BASES[branch](), (-1.2, 1.2), (-3, 3))
    E = rng.uniform(-1.2, 1.2, (6, 5))
    T = rng.uniform(-3.0, 3.0, (6, 5))
    got = jacobi_vertical(s, E, T)
    want = np.array([[jacobi_vertical(s, float(e), float(t)) for e, t in zip(er, tr)]
                     for er, tr in zip(E, T)])
    assert got.shape == E.shape and np.array_equal(got, want)
    # broadcast: one eps against a row of t
    row = jacobi_vertical(s, E[0, 0], T[0])
    assert np.array_equal(row, [jacobi_vertical(s, float(E[0, 0]), float(t)) for t in T[0]])
    assert type(jacobi_vertical(s, float(E[0, 0]), float(T[0, 0]))) is float


def test_jacobi_vertical_names_the_first_bad_point(monkeypatch):
    s = sweep_surface(HorizontalCurve.x_line(Point(0.1, -0.2, 0.3)), (-1, 1), (-2, 2))
    exact = RuledSurface.vertical_component
    # off by 1e-9 relative where t > 1 only
    monkeypatch.setattr(RuledSurface, "vertical_component", lambda self, eps, t: exact(
        self, eps, t) * (1.0 + 1e-9 * (np.asarray(t) > 1.0)))
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    t = np.array([0.5, 1.5, 0.7, 1.9])
    with pytest.raises(AssertionError, match=r"disagree at \(0\.2, 1\.5\): "):
        jacobi_vertical(s, eps, t)
    assert np.array_equal(jacobi_vertical(s, eps, np.minimum(t, 1.0)),
                          exact(s, eps, np.minimum(t, 1.0)))


def test_jacobi_vertical_nonzero_off_base(rng):
    s = sweep_surface(generic_gamma(0.6), (-1, 1), (-3, 3))
    for _ in range(20):
        eps = float(rng.uniform(-1, 1))
        t = float(rng.uniform(0.05, 3.0))
        assert abs(s.vertical_component_closed(eps, t)) > 1e-4


def test_jacobi_vertical_closed_form_on_line_branches():
    sx = sweep_surface(HorizontalCurve.x_line(Point(0, 0, 0)), (-1, 1), (-2, 2))
    # hand-derived: -zdot^2 t with zdot = 1, since b = 0 on an integral curve of X
    assert sx.vertical_component_closed(0.2, 0.5) == pytest.approx(-0.5, rel=1e-12)
    assert jacobi_vertical(sx, 0.2, 0.5) == pytest.approx(-0.5, rel=1e-12)
    sy = sweep_surface(HorizontalCurve.y_line(Point(0, 0, 0)), (-1, 1), (-2, 2))
    # hand-derived: -(k/sqrt2) sinh(k t / sqrt2) with k = 2 xdot e^{-z} = -sqrt2
    want = -math.sinh(0.5)
    assert sy.vertical_component_closed(0.0, 0.5) == pytest.approx(want, rel=1e-12)
    assert jacobi_vertical(sy, 0.0, 0.5) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("base", [HorizontalCurve.x_line, HorizontalCurve.y_line])
def test_jacobi_vertical_catches_a_perturbed_line_branch(monkeypatch, base):
    s = sweep_surface(base(Point(0.1, -0.2, 0.3)), (-1, 1), (-2, 2))
    exact = RuledSurface.vertical_component
    monkeypatch.setattr(RuledSurface, "vertical_component",
                        lambda self, eps, t: exact(self, eps, t) * (1.0 + 1e-9))
    with pytest.raises(AssertionError, match="disagree"):
        jacobi_vertical(s, 0.2, 0.5)


def _central(fn, step):
    """Richardson-extrapolated central difference of a vector-valued fn."""
    def diff(h):
        return (np.stack(fn(h)) - np.stack(fn(-h))) / (2.0 * h)
    return (4.0 * diff(step / 2.0) - diff(step)) / 3.0


@pytest.mark.parametrize("kind", ["generic", "near-x-line", "x-line", "y-line", "skewed"])
def test_analytic_sweep_derivatives_match_finite_differences(kind):
    gamma = {"generic": generic_gamma(),
             "near-x-line": generic_gamma(1e-6),
             "x-line": HorizontalCurve.x_line(Point(0.1, -0.2, 0.3)),
             "y-line": HorizontalCurve.y_line(Point(0.3, 0.1, -0.2)),
             "skewed": generic_gamma(1.1, Point(0, 0, 0))}[kind]
    if kind == "skewed":
        s = skewed_sweep(gamma, (-1, 1), (-2.5, 2.5), 0.5)
    else:
        s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5))
    E, T = np.meshgrid(np.linspace(-0.9, 0.9, 13), np.linspace(-2.4, 2.4, 17), indexing="ij")

    def rel(got, want):
        got, want = np.stack(got), np.stack(want)
        return np.max(np.abs(got - want) / (1.0 + np.abs(want)))

    assert rel(s.eps_velocity(E, T), _central(lambda h: s.point(E + h, T), 1e-6)) < 1e-5
    assert rel(s.t_velocity(E, T), _central(lambda h: s.point(E, T + h), 1e-6)) < 1e-5
    fd = vertical_component_fd(s, E, T)
    assert np.max(np.abs(s.vertical_component(E, T) - fd) / (1.0 + np.abs(fd))) < 1e-5
    if kind == "skewed":
        # skewed rulings have no closed form: every check against it fails
        with pytest.raises(AssertionError, match="disagree"):
            jacobi_vertical(s, E, T)
        return
    # the closed-form cross-check passes, also where it is ill-conditioned
    for e, t in zip(E.flat[::7], T.flat[::7]):
        assert jacobi_vertical(s, e, t) == s.vertical_component(e, t)


@pytest.mark.parametrize("theta", [0.4, 1.0, 2.2, 2.7])
@pytest.mark.parametrize("z0", [0.0, 0.4, -3.0])
def test_rulings_have_one_constant_frame_velocity(theta, z0):
    # what the closed-form sweep geometry rests on: every ruling's velocity
    # has the frame components J(a, b) = (-b, a, 0) of the base velocity
    # (a, b), at every node of the sweep
    for gamma in (generic_gamma(theta, Point(0.2, -0.1, z0)),
                  HorizontalCurve.x_line(Point(0.1, 0.4, z0)),
                  HorizontalCurve.y_line(Point(-0.3, 0.2, z0))):
        s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5))
        E, T = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-2.5, 2.5, 11), indexing="ij")
        (_, _, z), _, F_t = s.jet(E, T)
        a, b = gamma.curve.frame_velocity()
        got = np.stack(frame_components(z, *F_t))
        assert np.max(np.abs(got - np.array([-b, a, 0.0])[:, None, None])) <= 1e-15


def _per_derivative_jet(s, eps, t):
    """F and its derivatives from one closed-form flow per derivative, with
    the ruling velocity J-rotated from the evaluated base velocity: what
    ``RuledSurface.jet`` replaced, kept as its oracle."""
    gx, gy, gz, dx, dy, dz = s.gamma._raw(eps)
    a, b, _ = frame_components(gz, dx, dy, dz)
    vx, vy = np.exp(gz) * (-a) / SQRT2, np.exp(-gz) * a / SQRT2
    fa, fb = s.gamma.curve.frame_velocity()
    vz = -fb
    if isinstance(s, SkewedSweep):
        n = math.hypot(1.0, s.skew)
        vx, vy = (vx + s.skew * dx) / n, (vy + s.skew * dy) / n
        vz = (vz + s.skew * fa) / n
    flow = _eval_raw(gx, gy, gz, vx, vy, vz, t)
    ex, ey, *_ = _eval_raw(dx, dy, dz, fa * vx, -fa * vy, vz, t)
    return flow[:3], (ex, ey, dz), flow[3:]


@pytest.mark.parametrize("kind", ["generic", "near-x-line", "x-line", "y-line", "skewed"])
def test_jet_is_the_per_derivative_flows(kind):
    gamma = {"generic": generic_gamma(),
             "near-x-line": generic_gamma(1e-6),
             "x-line": HorizontalCurve.x_line(Point(0.1, -0.2, 0.3)),
             "y-line": HorizontalCurve.y_line(Point(0.3, 0.1, -0.2)),
             "skewed": generic_gamma(1.1, Point(0, 0, 0))}[kind]
    if kind == "skewed":
        s = skewed_sweep(gamma, (-1, 1), (-2.5, 2.5), 0.5)
    else:
        s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5))
    E, T = np.meshgrid(np.linspace(-0.9, 0.9, 13), np.linspace(-2.4, 2.4, 17), indexing="ij")
    got, want = s.jet(E, T), _per_derivative_jet(s, E, T)
    assert len(got) == len(want) == 3
    for g_triple, w_triple in zip(got, want):
        for g, w in zip(g_triple, np.broadcast_arrays(*w_triple)):
            assert g.shape == E.shape
            if kind == "skewed":  # J(a, b) blended in frame, not coordinate, components
                assert np.max(np.abs(g - w) / (1.0 + np.abs(w))) <= 1e-14
            else:
                assert np.array_equal(g, w)


def test_uniqueness_scan_single_locus():
    for gamma in (generic_gamma(), HorizontalCurve.x_line(Point(0, 0, 0)),
                  HorizontalCurve.y_line(Point(0.3, 0.1, -0.2))):
        s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5), grid=(21, 41))
        loci = uniqueness_scan(s)
        assert len(loci) == 1
        assert abs(loci[0]["t_center"]) < 1e-9


def test_uniqueness_scan_negative_control():
    class TwoBandFixture:
        eps_range = (-1.0, 1.0)
        t_range = (-3.0, 3.0)

        def eps_grid(self):
            return np.linspace(*self.eps_range, 15)

        def t_grid(self):
            return np.linspace(*self.t_range, 61)

        def vertical_component(self, eps, t):
            return (t - 0.8) * (t + 1.2) * (1.0 + 0.1 * eps)

    loci = uniqueness_scan(TwoBandFixture())
    assert len(loci) == 2
    centers = sorted(l["t_center"] for l in loci)
    assert centers[0] == pytest.approx(-1.2, abs=1e-6)
    assert centers[1] == pytest.approx(0.8, abs=1e-6)


@st.composite
def _scan_grids(draw):
    """(tg, vt): a t-grid and rows of <V, T> with exact zeros, one or many
    sign changes, all-zero rows, NaN and rows with no locus."""
    n_t = draw(st.integers(2, 12))
    t0 = draw(st.floats(-5.0, 0.0))
    tg = np.linspace(t0, t0 + draw(st.floats(0.1, 10.0)), n_t)
    cell = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12]), st.floats(-1e3, 1e3))
    row = st.lists(cell, min_size=n_t, max_size=n_t)
    rows = draw(st.lists(st.one_of(
        row,                                             # zeros, sign changes
        row.map(sorted),                                 # at most one sign change
        st.just([0.0] * n_t),                            # all zero
        st.lists(st.one_of(cell, st.just(math.nan)), min_size=n_t, max_size=n_t),
        st.lists(st.floats(0.5, 1e3), min_size=n_t, max_size=n_t),  # no locus
    ), min_size=1, max_size=6))
    return tg, np.array(rows, dtype=float)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scan_grids())
@example((np.linspace(-2.0, 2.0, 9), np.array([
    [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0],
    [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0],
    [0.0] * 9,
    [math.nan, 1.0, -1.0, 2.0, math.nan, 3.0, 3.0, -3.0, 1.0],
    [1.0] * 9,
    [-3.0, -2.5, -2.0, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]])))
def test_whole_grid_scan_is_the_row_loop(grid):
    tg, vt = grid
    got, want = singular_loci(tg, vt), singular_loci_by_rows(tg, vt)
    assert got == want and json.dumps(got) == json.dumps(want)  # -0.0 too


def test_jet_overflow_is_raised_before_any_exponential():
    # exponential rulings (a y-line base) whose |ra t| or height leaves e^z's
    # range raise with the closed form's messages, from scalar and array
    # input; an exp taken first would raise the suite's RuntimeWarning
    # instead.  Line rulings (an x-line base) at the same t do not raise.
    for z0, t, msg in ((0.0, 800.0, r"\|zdot0\*t\| exceeds 700; evaluation would overflow"),
                       (705.0, -6.0, "e\\^\\|z\\| overflows at height z = 711$")):
        s = sweep_surface(HorizontalCurve.y_line(Point(0.1, -0.2, z0)), (-1, 1), (-1, 1))
        assert s.ruling_frame_velocity()[0] == pytest.approx(-1.0)  # z falls along t
        for eps, tt in ((0.5, t), (np.array([[0.0], [0.5]]), np.array([[0.0, 0.3, t]]))):
            with pytest.raises(CurveOverflow, match=msg):
                s.jet(eps, tt)
            with pytest.raises(CurveOverflow, match=msg):
                jacobi_vertical(s, eps, tt)
        line = sweep_surface(HorizontalCurve.x_line(Point(0.1, -0.2, z0)), (-1, 1), (-1, 1))
        assert line.ruling_frame_velocity()[0] == 0.0
        assert all(np.isfinite(v).all() for v in line.jet(0.5, t)[0])
        assert np.isfinite(jacobi_vertical(line, 0.5, t))


@pytest.mark.parametrize("branch", list(_BRANCH_BASES))
def test_scalar_jacobi_vertical_runs_one_flow(monkeypatch, branch):
    # one jet per call, and that jet evaluates the closed form once (the
    # base curve): both rulings' flows share one set of exponentials
    s = sweep_surface(_BRANCH_BASES[branch](), (-1.2, 1.2), (-3, 3))
    jets, evals = [], []
    jet = RuledSurface.jet

    def counting_jet(self, eps, t):
        jets.append((eps, t))
        return jet(self, eps, t)

    def counting_eval(*args):
        evals.append(args)
        return _eval_raw(*args)

    monkeypatch.setattr(RuledSurface, "jet", counting_jet)
    for module in (solgeo.curves, solgeo.stationary):
        monkeypatch.setattr(module, "_eval_raw", counting_eval)
    jacobi_vertical(s, 0.4, -1.3)
    assert jets == [(0.4, -1.3)] and len(evals) <= 1


def test_singular_point_surface_posts(rng):
    for p0 in (Point(0, 0, 0), Point(1, 0, 0), Point(-0.4, 0.8, 1.2)):
        # the catalog field places its singular point at (x0, y0, -z0)
        f = catalog("saddle-point", x0=p0.x, y0=p0.y, z0=-p0.z)
        # the base point is on the surface and is its singular point
        d = on_surface_fields(f, p0)
        assert d["nh"] < EPS_SING
        # residual vanishes identically on and off the surface
        x, y, z = rng.uniform(-2, 2, (3, 200))
        fields = raw_fields(f, x, y, z)
        assert np.max(np.abs(fields["residual_coord"])) < 1e-10
        # no other singular point: |N_h| > 0 on shrinking rings around p0
        for radius in (1.0, 0.1, 0.01):
            ang = np.linspace(0, 2 * math.pi, 40)
            yy = p0.y + radius * np.cos(ang)
            zz = p0.z + radius * np.sin(ang)
            xx = p0.x - np.exp(zz - (-p0.z)) * (yy - p0.y)  # stay on the surface
            ring = raw_fields(f, xx, yy, zz)
            assert np.min(ring["nh"]) > 1e-9


def test_singular_point_surface_origin_formula():
    f = catalog("saddle-point", x0=0.0, y0=0.0, z0=0.0)
    g = parse("exp(z)*y + x")
    xs = np.linspace(-2, 2, 9)
    vals_f = f.values(xs, xs * 0.5, xs * 0.2)
    vals_g = g.values(xs, xs * 0.5, xs * 0.2)
    assert np.allclose(vals_f, vals_g, atol=1e-14)


def test_family_surfaces():
    f = catalog("plane-ab", a=1.0, b=1.0, c=0.0)
    # singular line sits in z = log sqrt(b/a) = 0
    assert on_surface_fields(f, Point(0.5, -0.5, 0.0))["nh"] < EPS_SING
    assert on_surface_fields(f, Point(0.5, -0.5, 1.0))["nh"] >= EPS_SING

    # a = 1, b = 0: no singular point anywhere on the plane
    h = catalog("plane-ab", a=1.0, b=0.0, c=0.5)
    for z in np.linspace(-3, 3, 11):
        assert on_surface_fields(h, Point(-0.5, 1.0, float(z)))["nh"] >= EPS_SING

    with pytest.raises(BadParams):
        catalog("nope")
    with pytest.raises(BadParams):
        plane_ab_singular_line_z(1.0, -1.0)


def test_saddle_curve_translations_are_minimal(rng):
    # residual vanishes for all parameters
    for _ in range(5):
        x0, y0, _ = rng.uniform(-1.5, 1.5, 3)
        f = catalog("saddle-curve", x0=float(x0), y0=float(y0))
        y, z = rng.uniform(-2, 2, (2, 100))
        x = x0 - np.exp(2 * z) * (y - y0)
        vals = f.values(x, y, z)
        assert np.max(np.abs(vals)) < 1e-10
        fields = raw_fields(f, x, y, z)
        assert np.max(np.abs(fields["residual_coord"])) < 1e-10
        # singular set is the vertical line through (x0, y0)
        assert on_surface_fields(f, Point(float(x0), float(y0), 2.0))["nh"] < EPS_SING


def test_nongeodesic_family_witness(rng):
    # rulings of a generic sweep are characteristic but not geodesics,
    # and neither is the base curve
    for _ in range(5):
        theta = float(rng.uniform(0.3, 1.2))
        p0 = Point(*rng.uniform(-1, 1, 3))
        gamma = HorizontalCurve.from_initial_data(p0, horizontal_velocity(p0, theta))
        assert gamma.kind == "generic"
        assert not is_geodesic(gamma.curve)
        s = sweep_surface(gamma, (-1, 1), (-2, 2))
        for eps in np.linspace(-1, 1, 5):
            assert not is_geodesic(s.ruling(float(eps)))


def test_sweep_rejects_bad_ranges():
    with pytest.raises(BadParams):
        sweep_surface(generic_gamma(), (1, -1), (-2, 2))
