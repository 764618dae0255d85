"""Closed-form characteristic curves of curvature H = 0, plus an ODE oracle.

An arc-length parametrized horizontal curve gamma with nabla_gammadot
gammadot + H J(gammadot) = 0 and H = 0 falls into one of two families,
classified by the initial vertical speed zdot0:

* Line family (zdot0 = 0):
      gamma(t) = (x0 + xdot0 t, y0 + ydot0 t, z0)
* Exponential family (zdot0 != 0):
      gamma(t) = (x0 + (xdot0/zdot0)(e^{zdot0 t} - 1),
                  y0 - (ydot0/zdot0)(e^{-zdot0 t} - 1),
                  z0 + zdot0 t)

In both families the frame components of the velocity are constant, so the
curve is horizontal and unit speed for all t whenever the initial data is.
The exponential evaluation uses expm1, which removes the cancellation at
small zdot0 t and makes the zdot0 -> 0 limit land on the line family.

``integrate_ode`` integrates the defining second-order equation as a
first-order system with scipy's adaptive 8th-order Dormand-Prince method
(DOP853), imported only when it runs; it exists purely as an independent
oracle for the closed forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CurveOverflow, GeometryError, NotHorizontal, ZeroVelocity
from .frame import CoordVector, Point, SQRT2, TOL_HORIZONTAL, frame_components

#: |zdot0| below this is classified as the line family
LINE_FAMILY_TOL = 1e-12

#: exp() argument bound; larger arguments are reported, not saturated
OVERFLOW_LIMIT = 700.0

#: largest |z| at which math.exp(z) and math.exp(-z) are finite
HEIGHT_LIMIT = math.log(sys.float_info.max)

#: geodesics are the integral curves of X or Y; frame-component tolerance
GEODESIC_TOL = 1e-9

#: relative and absolute tolerances of the ODE oracle
ODE_RTOL = 1e-12
ODE_ATOL = 1e-14


@dataclass(frozen=True)
class CharacteristicCurve:
    """Closed-form record: family tag plus unit horizontal initial data."""

    p0: Point
    v0: CoordVector          # unit speed in the frame metric, horizontal
    family: str              # 'line' or 'exponential'
    zdot0: float
    c0: float                # ydot e^z - xdot e^-z, constant along the curve

    def frame_velocity(self):
        """(a, b) frame components of the velocity, constant along the curve."""
        return self.zdot0, self.c0 / SQRT2


def check_height(z: float) -> None:
    """Raise CurveOverflow where e^z or e^-z at height ``z`` overflows."""
    if not abs(z) <= HEIGHT_LIMIT:
        raise CurveOverflow(f"e^|z| overflows at height z = {z:g}")


def horizontality_defect(p0: Point, v0: CoordVector) -> float:
    """ydot e^z + xdot e^-z, zero exactly when the velocity is horizontal."""
    return v0.dy * math.exp(p0.z) + v0.dx * math.exp(-p0.z)


def make_curve(p0: Point, v0: CoordVector) -> CharacteristicCurve:
    """Classify and normalize initial data into a curve record.

    The velocity is normalized to unit frame length.  Raises NotHorizontal
    when the (scale-invariant) horizontality defect exceeds TOL_HORIZONTAL,
    ZeroVelocity on vanishing input and CurveOverflow where e^z, or the
    frame speed of the velocity, overflows.
    """
    check_height(p0.z)
    with np.errstate(over="ignore"):
        a, b, c = (float(w) for w in frame_components(p0.z, v0.dx, v0.dy, v0.dz))
    speed = math.sqrt(a * a + b * b + c * c)
    if not math.isfinite(speed):
        raise CurveOverflow(f"the initial velocity's frame speed overflows at z = {p0.z:g}")
    if speed == 0.0:
        raise ZeroVelocity(f"zero initial velocity at {p0}")
    defect = horizontality_defect(p0, v0)
    if abs(defect) / speed > TOL_HORIZONTAL:
        raise NotHorizontal(defect)
    v = CoordVector(v0.dx / speed, v0.dy / speed, v0.dz / speed)
    zdot0 = v.dz
    c0 = v.dy * math.exp(p0.z) - v.dx * math.exp(-p0.z)
    family = "line" if abs(zdot0) < LINE_FAMILY_TOL else "exponential"
    return CharacteristicCurve(p0, v, family, zdot0, c0)


def _exp_flow(z0, zd, t):
    """The height z0 + zd t and expm1(+-zd t), exp(+-zd t) of an
    exponential-family flow.  One elementwise range test runs before any
    exponential; only where it fails is CurveOverflow raised, naming the
    failed limit: |zd t| > OVERFLOW_LIMIT, or a height (or NaN) past e^z's.
    """
    zt = zd * t
    z = z0 + zt
    if not ((np.abs(zt) <= OVERFLOW_LIMIT) & (np.abs(z) <= HEIGHT_LIMIT)).all():
        if np.any(np.abs(zt) > OVERFLOW_LIMIT):
            raise CurveOverflow(
                f"|zdot0*t| exceeds {OVERFLOW_LIMIT:g}; evaluation would overflow")
        check_height(np.max(z))
        check_height(np.min(z))
    return z, np.expm1(zt), np.expm1(-zt), np.exp(zt), np.exp(-zt)


def _eval_raw(x0, y0, z0, xd, yd, zd, t):
    """Closed form for arbitrary (not necessarily unit) horizontal data.

    Returns positions and velocities as arrays broadcast over ``t``.
    Raises CurveOverflow where |zdot0 t| or a height z0 + zdot0 t leaves
    the range of e^z, before any e^z of those heights is taken.
    """
    t = np.asarray(t, dtype=float)
    if abs(zd) < LINE_FAMILY_TOL:
        ones = np.ones_like(t)
        return (x0 + xd * t, y0 + yd * t, z0 * ones,
                xd * ones, yd * ones, zd * ones)
    z, em, em_neg, e, e_neg = _exp_flow(z0, zd, t)
    return (x0 + xd / zd * em, y0 - yd / zd * em_neg, z,
            xd * e, yd * e_neg, zd * np.ones_like(t))


def eval_curve(curve: CharacteristicCurve, t):
    """Position and velocity at parameter ``t``: a pair of (..., 3) arrays
    over the shape of ``t``."""
    x, y, z, dx, dy, dz = _eval_raw(
        curve.p0.x, curve.p0.y, curve.p0.z,
        curve.v0.dx, curve.v0.dy, curve.v0.dz, t)
    return np.stack([x, y, z], axis=-1), np.stack([dx, dy, dz], axis=-1)


def is_geodesic(curve: CharacteristicCurve, tol: float = GEODESIC_TOL) -> bool:
    """True exactly when the curve is an integral curve of X or of Y.

    Equivalent to the vanishing of <tau(gammadot), gammadot> along the
    curve; tested on the constant frame components of the velocity.
    """
    a, b = curve.frame_velocity()
    axes = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
    return any(math.hypot(a - ax, b - bx) <= tol for ax, bx in axes)


@dataclass(frozen=True)
class SampledPath:
    t: np.ndarray          # (n,)
    points: np.ndarray     # (n, 3)
    velocities: np.ndarray  # (n, 3)


def integrate_ode(p0: Point, v0: CoordVector, t_end: float, steps: int) -> SampledPath:
    """Adaptive DOP853 integration of the characteristic-curve system.

    State is (x, y, z, a, b) with (a, b) the frame velocity components;
    horizontality is built into the state, and curvature H = 0 leaves
    (a, b) constant.  Used solely as an oracle against ``eval_curve``.
    """
    from scipy.integrate import solve_ivp

    if steps < 2:
        raise GeometryError("need at least 2 sample steps")
    curve = make_curve(p0, v0)  # the same preconditions as the closed form
    check_height(p0.z + curve.zdot0 * t_end)
    a0, b0, c0 = (float(w) for w in frame_components(p0.z, v0.dx, v0.dy, v0.dz))
    speed = math.sqrt(a0 * a0 + b0 * b0 + c0 * c0)

    def rhs(t, s):
        x, y, z, a, b = s
        ez = math.exp(z)
        return [-ez * b / SQRT2, b / (ez * SQRT2), a, 0.0, 0.0]

    t_eval = np.linspace(0.0, t_end, steps)
    sol = solve_ivp(rhs, (0.0, t_end), [p0.x, p0.y, p0.z, a0 / speed, b0 / speed],
                    method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL, t_eval=t_eval)
    if not sol.success:
        raise GeometryError(f"ODE integration failed: {sol.message}")
    x, y, z, a, b = sol.y
    ez = np.exp(z)
    vx = -ez * b / SQRT2
    vy = b / (ez * SQRT2)
    return SampledPath(sol.t, np.stack([x, y, z], axis=-1),
                       np.stack([vx, vy, a], axis=-1))
