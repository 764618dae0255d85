import math

import numpy as np
import pytest

from conftest import horizontal_velocity
from solgeo.curves import _eval_raw, eval_curve, is_geodesic
from solgeo.errors import BadParams, BranchUnsupported, NotHorizontal
from solgeo.expressions import catalog, parse
from solgeo.frame import CoordVector, Point, SQRT2, frame_components
from solgeo.stationary import (
    HorizontalCurve,
    RuledSurface,
    orthogonality_check,
    jacobi_vertical,
    plane_ab_singular_line_z,
    singular_point_surface,
    sweep_surface,
    uniqueness_scan,
    family_surfaces,
)
from solgeo.surface import point_data, raw_fields


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
    s = sweep_surface(gamma, (-1.5, 1.5), (-3, 3), grid=(24, 24),
                      skew=0.5 if kind == "skewed" else 0.0)
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
    _, _, X, Y, Z = s.mesh()
    on_curve_family = catalog("saddle-curve").values(X, Y, Z)
    assert np.max(np.abs(on_curve_family)) < 1e-12
    off_point_family = catalog("saddle-point").values(X, Y, Z)
    assert np.max(np.abs(off_point_family)) > 0.1


def test_y_line_sweep_is_vertical_plane_patch():
    s = sweep_surface(HorizontalCurve.y_line(Point(0, 0, 0)), (-2, 2), (-3, 3), grid=(24, 24))
    E, T, X, Y, Z = s.mesh()
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
    skewed = sweep_surface(generic_gamma(), (-1.5, 1.5), (-3, 3), skew=1.0)
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


#: one unskewed sweep per branch of the base curve
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
        fd = s.vertical_component_fd(eps, t)
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


def test_jacobi_vertical_closed_form_needs_unskewed_rulings():
    s = sweep_surface(generic_gamma(), (-1, 1), (-2, 2), skew=0.5)
    with pytest.raises(BranchUnsupported):
        s.vertical_component_closed(0.2, 0.5)
    # no closed form to check against: the jet's value comes back as it is
    assert jacobi_vertical(s, 0.2, 0.5) == s.vertical_component(0.2, 0.5)


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
    s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5), skew=0.5 if kind == "skewed" else 0.0)
    E, T = np.meshgrid(np.linspace(-0.9, 0.9, 13), np.linspace(-2.4, 2.4, 17), indexing="ij")

    def rel(got, want):
        got, want = np.stack(got), np.stack(want)
        return np.max(np.abs(got - want) / (1.0 + np.abs(want)))

    assert rel(s.eps_velocity(E, T), _central(lambda h: s.point(E + h, T), 1e-6)) < 1e-5
    *_, f_et, f_tt = s.jet(E, T)
    assert rel(f_et, _central(lambda h: s.t_velocity(E + h, T), 1e-5)) < 1e-5
    assert rel(f_tt, _central(lambda h: s.t_velocity(E, T + h), 1e-5)) < 1e-5
    fd = s.vertical_component_fd(E, T)
    assert np.max(np.abs(s.vertical_component(E, T) - fd) / (1.0 + np.abs(fd))) < 1e-5
    # the closed-form cross-check passes, also where it is ill-conditioned
    for e, t in zip(E.flat[::7], T.flat[::7]):
        assert jacobi_vertical(s, e, t) == s.vertical_component(e, t)


def _per_derivative_jet(s, eps, t):
    """F and its derivatives from one closed-form flow per derivative, with
    the ruling velocity J-rotated from the evaluated base velocity: what
    ``RuledSurface.jet`` replaced, kept as its oracle."""
    gx, gy, gz, dx, dy, dz = s.gamma._raw(eps)
    a, b, _ = frame_components(gz, dx, dy, dz)
    vx, vy = np.exp(gz) * (-a) / SQRT2, np.exp(-gz) * a / SQRT2
    if s.skew:
        n = math.hypot(1.0, s.skew)
        vx, vy = (vx + s.skew * dx) / n, (vy + s.skew * dy) / n
    fa, fb = s.gamma.curve.frame_velocity()
    vz = (-fb + s.skew * fa) / math.hypot(1.0, s.skew)
    flow = _eval_raw(gx, gy, gz, vx, vy, vz, t)
    ex, ey, *_ = _eval_raw(dx, dy, dz, fa * vx, -fa * vy, vz, t)
    *_, tx, ty, tz = _eval_raw(0.0, 0.0, 0.0, vx, vy, vz, t)
    zero = np.zeros_like(tx)
    return (flow[:3], (ex, ey, dz), flow[3:], (fa * tx, -fa * ty, zero),
            (tz * tx, -tz * ty, zero))


@pytest.mark.parametrize("kind", ["generic", "near-x-line", "x-line", "y-line", "skewed"])
def test_jet_is_the_per_derivative_flows(kind):
    gamma = {"generic": generic_gamma(),
             "near-x-line": generic_gamma(1e-6),
             "x-line": HorizontalCurve.x_line(Point(0.1, -0.2, 0.3)),
             "y-line": HorizontalCurve.y_line(Point(0.3, 0.1, -0.2)),
             "skewed": generic_gamma(1.1, Point(0, 0, 0))}[kind]
    s = sweep_surface(gamma, (-1, 1), (-2.5, 2.5), skew=0.5 if kind == "skewed" else 0.0)
    E, T = np.meshgrid(np.linspace(-0.9, 0.9, 13), np.linspace(-2.4, 2.4, 17), indexing="ij")
    got, want = s.jet(E, T), _per_derivative_jet(s, E, T)
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


def test_singular_point_surface_posts(rng):
    for p0 in (Point(0, 0, 0), Point(1, 0, 0), Point(-0.4, 0.8, 1.2)):
        f = singular_point_surface(p0)
        # the base point is on the surface and is its singular point
        d = point_data(f, p0)
        assert d.singular
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
    f = singular_point_surface(Point(0, 0, 0))
    g = parse("exp(z)*y + x")
    xs = np.linspace(-2, 2, 9)
    vals_f = f.values(xs, xs * 0.5, xs * 0.2)
    vals_g = g.values(xs, xs * 0.5, xs * 0.2)
    assert np.allclose(vals_f, vals_g, atol=1e-14)


def test_family_surfaces():
    f = family_surfaces("plane_ab", a=1.0, b=1.0, c=0.0)
    # singular line sits in z = log sqrt(b/a) = 0
    d = point_data(f, Point(0.5, -0.5, 0.0))
    assert d.singular
    d = point_data(f, Point(0.5, -0.5, 1.0))
    assert not d.singular

    g = family_surfaces("saddle_curve")
    assert g.source == catalog("saddle-curve").source

    # a = 1, b = 0: no singular point anywhere on the plane
    h = family_surfaces("plane_ab", a=1.0, b=0.0, c=0.5)
    for z in np.linspace(-3, 3, 11):
        assert not point_data(h, Point(-0.5, 1.0, float(z))).singular

    with pytest.raises(BadParams):
        family_surfaces("nope")
    with pytest.raises(BadParams):
        plane_ab_singular_line_z(1.0, -1.0)


def test_saddle_curve_translations_are_minimal(rng):
    # zero set is the same for every z0; residual vanishes for all parameters
    for _ in range(5):
        x0, y0, z0 = rng.uniform(-1.5, 1.5, 3)
        f = catalog("saddle-curve", x0=float(x0), y0=float(y0), z0=float(z0))
        y, z = rng.uniform(-2, 2, (2, 100))
        x = x0 - np.exp(2 * z) * (y - y0)
        vals = f.values(x, y, z)
        assert np.max(np.abs(vals)) < 1e-10
        fields = raw_fields(f, x, y, z)
        assert np.max(np.abs(fields["residual_coord"])) < 1e-10
        # singular set is the vertical line through (x0, y0)
        d = point_data(f, Point(float(x0), float(y0), 2.0))
        assert d.singular


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
