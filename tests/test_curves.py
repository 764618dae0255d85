import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_array, horizontal_velocity, random_point
from solgeo.curves import (
    HEIGHT_LIMIT,
    eval_curve,
    integrate_ode,
    is_geodesic,
    make_curve,
    tau_contraction,
)
from solgeo.errors import CurveOverflow, NotHorizontal, ZeroVelocity
from solgeo.expressions import parse
from solgeo.frame import CoordVector, Point, SQRT2, frame_components
from solgeo.stationary import HorizontalCurve, sweep_surface


def test_vertical_curve():
    c = make_curve(Point(0, 0, 0), CoordVector(0, 0, 1))
    assert c.family == "exponential"
    pos, vel = eval_curve(c, 3.0)
    assert (pos.x, pos.y, pos.z) == pytest.approx((0, 0, 3))
    assert (vel.dx, vel.dy, vel.dz) == pytest.approx((0, 0, 1))


def test_line_family():
    v = CoordVector(-1 / SQRT2, 1 / SQRT2, 0)
    c = make_curve(Point(0, 0, 0), v)
    assert c.family == "line"
    pos, _ = eval_curve(c, 10.0)
    assert (pos.x, pos.y, pos.z) == pytest.approx((-10 / SQRT2, 10 / SQRT2, 0))


def test_not_horizontal():
    with pytest.raises(NotHorizontal) as exc:
        make_curve(Point(0, 0, 0), CoordVector(1, 1, 0))
    assert exc.value.defect == pytest.approx(2.0)


def test_zero_velocity():
    with pytest.raises(ZeroVelocity):
        make_curve(Point(0, 0, 0), CoordVector(0, 0, 0))


def test_initial_conditions_at_zero(rng):
    for _ in range(10):
        p = random_point(rng)
        v = horizontal_velocity(p, float(rng.uniform(0, 2 * math.pi)))
        c = make_curve(p, v)
        pos, vel = eval_curve(c, 0.0)
        assert (pos.x, pos.y, pos.z) == pytest.approx((p.x, p.y, p.z))
        assert (vel.dx, vel.dy, vel.dz) == pytest.approx((v.dx, v.dy, v.dz))


def test_alpha_family_lies_on_saddle_surface():
    # rays from the origin sweep the zero set of e^z y + x
    f = parse("exp(z)*y + x")
    ts = np.linspace(-3, 3, 121)
    for alpha in np.linspace(0, 2 * math.pi, 37, endpoint=False):
        c = make_curve(Point(0, 0, 0), horizontal_velocity(Point(0, 0, 0), alpha))
        pos, _ = eval_curve(c, ts)
        vals = f.values(pos[:, 0], pos[:, 1], pos[:, 2])
        assert np.max(np.abs(vals)) < 1e-12


def test_horizontality_and_unit_speed_conserved(rng):
    ts = np.linspace(-5, 5, 201)
    for _ in range(25):
        p = random_point(rng)
        c = make_curve(p, horizontal_velocity(p, float(rng.uniform(0, 2 * math.pi))))
        pos, vel = eval_curve(c, ts)
        a, b, tcomp = frame_components(pos[:, 2], vel[:, 0], vel[:, 1], vel[:, 2])
        assert np.max(np.abs(tcomp)) < 1e-9
        assert np.max(np.abs(np.sqrt(a**2 + b**2 + tcomp**2) - 1.0)) < 1e-9


def test_c0_identity(rng):
    for _ in range(20):
        p = random_point(rng)
        c = make_curve(p, horizontal_velocity(p, float(rng.uniform(0, 2 * math.pi))))
        assert c.c0 / 2 == pytest.approx(c.v0.dy * math.exp(p.z), abs=1e-12)
        assert c.c0 / 2 == pytest.approx(-c.v0.dx * math.exp(-p.z), abs=1e-12)


def test_closed_form_vs_integrator(rng):
    ts = np.linspace(0, 5, 101)
    for _ in range(20):
        p = random_point(rng)
        c = make_curve(p, horizontal_velocity(p, float(rng.uniform(0, 2 * math.pi))))
        path = integrate_ode(p, c.v0, 5.0, 101)
        ref_pos, ref_vel = eval_curve(c, ts)
        assert np.max(np.abs(path.points - ref_pos)) < 1e-8
        assert np.max(np.abs(path.velocities - ref_vel)) < 1e-8


def test_integrator_negative_time():
    p = Point(0.2, -0.4, 0.1)
    c = make_curve(p, horizontal_velocity(p, 0.9))
    path = integrate_ode(p, c.v0, -4.0, 81)
    ref_pos, _ = eval_curve(c, path.t)
    assert np.max(np.abs(path.points - ref_pos)) < 1e-8


def test_exponential_to_line_limit():
    # exponential family converges pointwise to the line family as zdot0 -> 0
    xd, yd = -1 / SQRT2, 1 / SQRT2
    for zd in (1e-4, 1e-6):
        norm = math.sqrt(1 + zd * zd)
        c = make_curve(Point(0, 0, 0), CoordVector(xd, yd, zd))
        assert c.family == "exponential"
        line = make_curve(Point(0, 0, 0), CoordVector(xd, yd, 0))
        ts = np.linspace(-5, 5, 41)
        pe, _ = eval_curve(c, ts)
        pl, _ = eval_curve(line, ts)
        bound = 2.0 * abs(zd) * np.abs(ts) ** 2 + 5 * abs(zd)
        assert np.all(np.abs(pe - pl).max(axis=1) <= bound + 1e-12)


def test_overflow_reported():
    c = make_curve(Point(0, 0, 0), CoordVector(0, 0, 1))
    with pytest.raises(CurveOverflow):
        eval_curve(c, 800.0)


@pytest.mark.parametrize("v0, error", [
    (CoordVector(1, 1, 0), NotHorizontal),
    (CoordVector(0, 0, 0), ZeroVelocity),
])
def test_oracle_keeps_the_closed_forms_preconditions(v0, error):
    with pytest.raises(error):
        integrate_ode(Point(0, 0, 0), v0, 1.0, 5)


@pytest.mark.parametrize("z", [800.0, -800.0, math.nextafter(HEIGHT_LIMIT, math.inf)])
def test_base_height_overflow_reported(z):
    # e^z or e^-z overflows a float: reported before any exponential is taken
    p = Point(0, 0, z)
    for build in (lambda: make_curve(p, CoordVector(0, 0, 1)),
                  lambda: integrate_ode(p, CoordVector(0, 0, 1), 1.0, 5),
                  lambda: HorizontalCurve.y_line(p)):
        with pytest.raises(CurveOverflow):
            build()
    for z_ok in (HEIGHT_LIMIT, -HEIGHT_LIMIT):
        assert make_curve(Point(0, 0, z_ok), CoordVector(0, 0, 1)).family == "exponential"
        assert HorizontalCurve.y_line(Point(0, 0, z_ok)).kind == "y-integral"


@pytest.mark.parametrize("z0, t_end", [(705.0, 10.0), (-705.0, -10.0)])
def test_height_climbing_past_the_bound_reported(z0, t_end):
    # the base height is in range and |zdot0 t| < 700, but z0 + zdot0 t is not:
    # the closed form, the oracle and a sweep's jet report it before any e^z
    p = Point(0, 0, z0)
    v = CoordVector(0, 0, 1)
    c = make_curve(p, v)
    with pytest.raises(CurveOverflow, match="overflows at height"):
        eval_curve(c, np.linspace(0.0, t_end, 5))
    with pytest.raises(CurveOverflow, match="overflows at height"):
        integrate_ode(p, v, t_end, 5)
    s = sweep_surface(HorizontalCurve.x_line(p), sorted((0.0, t_end)), (-1.0, 1.0))
    with pytest.raises(CurveOverflow, match="overflows at height"):
        s.jet(t_end, 0.0)
    # up to the bound itself the closed form runs
    edge = math.copysign(HEIGHT_LIMIT, z0) - z0
    assert np.isfinite(as_array(eval_curve(c, edge)[1])).all()


def test_is_geodesic():
    p = Point(0, 0, 0)
    assert is_geodesic(make_curve(p, horizontal_velocity(p, 0.0)))          # X
    assert is_geodesic(make_curve(p, horizontal_velocity(p, math.pi)))      # -X
    assert is_geodesic(make_curve(p, horizontal_velocity(p, -math.pi / 2)))  # -Y
    mixed = make_curve(p, horizontal_velocity(p, math.pi / 4))
    assert not is_geodesic(mixed)
    assert tau_contraction(mixed) == pytest.approx(-0.5, abs=1e-12)


@given(st.floats(min_value=-1.4, max_value=1.4),
       st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=40, deadline=None)
def test_geodesic_iff_tau_vanishes(z0, theta):
    p = Point(0.1, -0.2, z0)
    c = make_curve(p, horizontal_velocity(p, theta))
    tau = abs(tau_contraction(c))
    if tau < 1e-7:
        assert is_geodesic(c, tol=1e-6)
    elif tau > 1e-5:
        assert not is_geodesic(c, tol=1e-6)
