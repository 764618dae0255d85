"""Builders for complete area-stationary surfaces with singular sets.

A horizontal curve Gamma(eps) sweeps a ruled surface

    F(eps, t) = gamma_eps(t),

where gamma_eps is the characteristic curve of curvature 0 with initial
point Gamma(eps) and initial velocity J(Gammadot(eps)).  The J-rotation
makes the rulings meet the base curve orthogonally, which is exactly the
area-stationarity condition for minimal surfaces with a singular curve,
and the base curve is the singular set: the vertical component of the
variation field V = dF/deps vanishes precisely at t = 0.

Supported base curves are the closed-form kinds (characteristic line and
exponential families, and integral curves of X or of Y, which are special
cases of those).  Arbitrary sampled curves are not accepted: the vertical
component needs second derivatives of Gamma, and differentiating user
samples silently would hide error.

For a generic base curve (neither an integral curve of X nor of Y), with
k = xdot e^{-z} - ydot e^{z} and s = k t / sqrt2, the vertical component of
V has the closed form

    <V, T>(eps, t) = [ -2 A sinh(s) + 4 B sinh(s/2)^2 ] / sqrt2
    A = k/2 + zdot^2 / k
    B = zddot / k - zdot kdot / k^2

(everything evaluated at eps; the sinh forms keep it accurate as k -> 0).
The variation field itself is computed on every branch by the chain rule
through the closed-form flow: along a characteristic curve the frame
components of the velocity are constant, so every derivative of F has a
closed form.  The A/B formula above is the cross-check of that computation
on the generic branch, and a finite difference of F is kept as a test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CharacteristicCurve, _eval_raw, make_curve
from .errors import BadParams, BranchUnsupported, DegenerateRuling, NotHorizontal
from .expressions import ScalarField, catalog
from .frame import CoordVector, Point, SQRT2, TOL_HORIZONTAL, TangentFrame, frame_components

#: dichotomy threshold for the degenerate base-curve branches
BRANCH_TOL = 1e-12

#: singular-locus detection threshold (scaled per t-line)
EPS_SCAN = 1e-9

#: agreement of the analytic <V, T> with its A/B closed form (rounding bound)
CLOSED_FORM_RTOL = 1e-12

#: central-difference steps of the <V, T> (in eps) and intrinsic-H (in t) oracles
VT_FD_STEP = 1e-6
H_FD_STEP = 1e-4


@dataclass(frozen=True)
class HorizontalCurve:
    """Closed-form horizontal curve record with analytic derivatives.

    Wraps a characteristic-curve record (every built-in kind is one).
    ``kind`` is 'generic', 'x-integral' or 'y-integral' and fixes which
    sweep branch applies along the whole curve, since the classifying
    quantities zdot and k are constant on characteristic curves.
    """

    curve: CharacteristicCurve
    kind: str

    @staticmethod
    def from_initial_data(p0: Point, v0: CoordVector) -> "HorizontalCurve":
        c = make_curve(p0, v0)
        a, b = c.frame_velocity()  # X- and Y-components of the unit velocity
        if abs(b) < BRANCH_TOL and abs(a) < BRANCH_TOL:
            raise DegenerateRuling("base curve velocity vanishes")
        if abs(b) < BRANCH_TOL:
            kind = "x-integral"
        elif abs(a) < BRANCH_TOL:
            kind = "y-integral"
        else:
            kind = "generic"
        return HorizontalCurve(c, kind)

    @staticmethod
    def x_line(p0: Point) -> "HorizontalCurve":
        """Integral curve of X through p0 (a vertical line)."""
        return HorizontalCurve.from_initial_data(p0, CoordVector(0.0, 0.0, 1.0))

    @staticmethod
    def y_line(p0: Point) -> "HorizontalCurve":
        """Integral curve of Y through p0 (a horizontal straight line)."""
        return HorizontalCurve.from_initial_data(
            p0, CoordVector(-math.exp(p0.z) / SQRT2, math.exp(-p0.z) / SQRT2, 0.0))

    def point(self, eps):
        x, y, z, *_ = self._raw(eps)
        return x, y, z

    def velocity(self, eps):
        *_, dx, dy, dz = self._raw(eps)
        return dx, dy, dz

    def acceleration(self, eps):
        c = self.curve
        eps = np.asarray(eps, dtype=float)
        if c.family == "line":
            zero = np.zeros_like(eps)
            return zero, zero, zero
        zd = c.zdot0
        return (zd * c.v0.dx * np.exp(zd * eps),
                -zd * c.v0.dy * np.exp(-zd * eps),
                np.zeros_like(eps))

    def horizontality_defect(self, eps):
        x, y, z, dx, dy, dz = self._raw(eps)
        return dy * np.exp(z) + dx * np.exp(-z)

    def _raw(self, eps):
        c = self.curve
        return _eval_raw(c.p0.x, c.p0.y, c.p0.z,
                         c.v0.dx, c.v0.dy, c.v0.dz, eps)


def _j_rotate_coords(z, dx, dy, dz):
    """Coordinate components of J applied to a horizontal coordinate vector."""
    a, b, _ = frame_components(z, dx, dy, dz)
    # J: (a, b) -> (-b, a); back to coordinates with zero T-part
    ez = np.exp(z)
    emz = np.exp(-z)
    ja, jb = -b, a
    return ez * (-jb) / SQRT2, emz * jb / SQRT2, ja


@dataclass(frozen=True)
class RuledSurface:
    """Surface swept by characteristic curves from a horizontal base curve."""

    gamma: HorizontalCurve
    eps_range: tuple
    t_range: tuple
    n_eps: int
    n_t: int
    skew: float = 0.0   # fixture knob: blends the tangent into the ruling

    # -- geometry -------------------------------------------------------

    def ruling_velocity(self, eps):
        """Initial ruling velocity at Gamma(eps), J(Gammadot) by default."""
        x, y, z, dx, dy, dz = self.gamma._raw(eps)
        jx, jy, jz = _j_rotate_coords(z, dx, dy, dz)
        if self.skew:
            n = math.hypot(1.0, self.skew)
            jx = (jx + self.skew * dx) / n
            jy = (jy + self.skew * dy) / n
            jz = (jz + self.skew * dz) / n
        return jx, jy, jz

    def _flow(self, eps, t):
        """Positions and velocities of the rulings from Gamma(eps) at t.

        The base curve's frame components (a, b) are constant, so every
        ruling starts with the same vertical speed, the a-component of
        J(a, b) = (-b, a) blended with (a, b) by ``skew``; that one scalar
        picks the line or the exponential branch for the whole sweep.
        """
        gx, gy, gz = self.gamma.point(eps)
        vx, vy, _ = self.ruling_velocity(eps)
        return _eval_raw(gx, gy, gz, vx, vy, self._ruling_vz(), t)

    def _ruling_vz(self) -> float:
        a, b = self.gamma.curve.frame_velocity()
        return (-b + self.skew * a) / math.hypot(1.0, self.skew)

    def point(self, eps, t):
        """F(eps, t); broadcasts over arrays."""
        x, y, z, *_ = self._flow(eps, t)
        return x, y, z

    def t_velocity(self, eps, t):
        """dF/dt, the ruling velocity at parameter t (analytic)."""
        *_, dx, dy, dz = self._flow(eps, t)
        return tuple(np.broadcast_arrays(dx, dy, dz))

    def chart(self, eps, t):
        """(F, (dF/deps, dF/dt)) at (eps, t); F and dF/dt from one flow."""
        x, y, z, dx, dy, dz = self._flow(eps, t)
        return (x, y, z), (self.eps_velocity(eps, t), tuple(np.broadcast_arrays(dx, dy, dz)))

    def eps_velocity(self, eps, t):
        """dF/deps, the variation field V, by the chain rule through the flow.

        The base curve and its rulings have constant frame components, so
        along the base the ruling velocity moves only with z = z0 + a eps:
        v' = (a vx, -a vy, 0), with vz the same for every eps.  Hence
        dF/deps = Gammadot + (a vx p(t), -a vy q(t), 0) with the flow weights
        p = expm1(vz t)/vz and q = -expm1(-vz t)/vz (both t on line rulings).
        """
        dx, dy, dz = self.gamma.velocity(eps)
        vx, vy, _ = self.ruling_velocity(eps)
        a = self.gamma.curve.zdot0
        x, y, *_ = _eval_raw(dx, dy, dz, a * vx, -a * vy, self._ruling_vz(), t)
        return tuple(np.broadcast_arrays(x, y, dz))

    def t_velocity_rates(self, eps, t):
        """(d2F/deps dt, d2F/dt2) in closed form."""
        vx, vy, _ = self.ruling_velocity(eps)
        a = self.gamma.curve.zdot0
        *_, tx, ty, tz = _eval_raw(0.0, 0.0, 0.0, vx, vy, self._ruling_vz(), t)
        zero = np.zeros_like(tx)
        return (a * tx, -a * ty, zero), (tz * tx, -tz * ty, zero)

    def ruling(self, eps: float) -> CharacteristicCurve:
        """The t-line through Gamma(eps) as a characteristic-curve record."""
        gx, gy, gz = self.gamma.point(eps)
        vx, vy, vz = self.ruling_velocity(eps)
        return make_curve(Point(float(gx), float(gy), float(gz)),
                          CoordVector(float(vx), float(vy), float(vz)))

    # -- vertical component of the variation field -----------------------

    def vertical_component_closed(self, eps, t):
        """Closed-form <V, T>(eps, t); generic branch only."""
        if self.skew:
            raise BranchUnsupported("closed form needs unskewed rulings")
        if self.gamma.kind != "generic":
            raise BranchUnsupported(
                f"closed form needs a generic base curve, got {self.gamma.kind}")
        eps = np.asarray(eps, dtype=float)
        t = np.asarray(t, dtype=float)
        x, y, z, dx, dy, dz = self.gamma._raw(eps)
        ddx, ddy, ddz = self.gamma.acceleration(eps)
        emz = np.exp(-z)
        ez = np.exp(z)
        k = dx * emz - dy * ez
        kdot = ddx * emz - dx * dz * emz - ddy * ez - dy * dz * ez
        s = k * t / SQRT2
        A = k / 2.0 + dz * dz / k
        B = ddz / k - dz * kdot / (k * k)
        return (-2.0 * A * np.sinh(s) + 4.0 * B * np.sinh(0.5 * s) ** 2) / SQRT2

    def vertical_component_fd(self, eps, t):
        """Test oracle: <V, T> from Richardson-extrapolated central
        differences of F in eps, contracted with the frame."""
        def diff(step):
            xp = np.stack(self.point(eps + step, t))
            xm = np.stack(self.point(eps - step, t))
            return (xp - xm) / (2.0 * step)
        v = (4.0 * diff(VT_FD_STEP / 2.0) - diff(VT_FD_STEP)) / 3.0
        _, _, z = self.point(eps, t)
        return frame_components(z, v[0], v[1], v[2])[2]

    def vertical_component(self, eps, t):
        """<V, T>: the T-component of the analytic dF/deps, on every branch."""
        _, _, z = self.point(eps, t)
        return frame_components(z, *self.eps_velocity(eps, t))[2]

    # -- grids ------------------------------------------------------------

    def eps_grid(self):
        return np.linspace(self.eps_range[0], self.eps_range[1], self.n_eps)

    def t_grid(self):
        return np.linspace(self.t_range[0], self.t_range[1], self.n_t)

    def mesh(self):
        """(eps, t) meshgrid plus the swept coordinates, each (n_eps, n_t)."""
        E, T = np.meshgrid(self.eps_grid(), self.t_grid(), indexing="ij")
        X, Y, Z = self.point(E, T)
        return E, T, X, Y, Z

    def intrinsic_mean_curvature(self, eps, t):
        """|H| estimated from the parametrization alone.

        The surface normal comes from the cross product of the tangents;
        the characteristic direction is the unit t-velocity.  H is the
        derivative of the horizontal unit normal along that direction
        (connection terms vanish for horizontal directions), taken by
        central differences in t, so this is an oracle independent of the
        analytic derivatives ``patch_from_ruled`` uses.
        """
        def nu_h_at(tt):
            (_, _, z), tangents = self.chart(eps, tt)
            tf = TangentFrame(z, *tangents)
            e2 = tf.e2
            nh = tf.normal.copy()
            nh[..., 2] = 0.0
            norm = np.linalg.norm(nh, axis=-1, keepdims=True)
            return nh / norm, e2

        def d_nu(step):
            nup, _ = nu_h_at(t + step)
            num, _ = nu_h_at(t - step)
            return (nup - num) / (2.0 * step)

        nu0, e2 = nu_h_at(t)
        d1 = d_nu(H_FD_STEP)
        d2 = d_nu(H_FD_STEP / 2.0)
        dnu = (4.0 * d2 - d1) / 3.0
        speed = np.linalg.norm(e2, axis=-1, keepdims=True)
        zdir = e2 / speed
        # orient nu_h consistently along the center line (sign irrelevant for H)
        return -np.sum(dnu / speed * zdir, axis=-1)


def sweep_surface(gamma: HorizontalCurve, eps_range, t_range,
                  grid=(64, 64), skew: float = 0.0) -> RuledSurface:
    """Sweep a ruled surface from a horizontal base curve.

    Validates horizontality and regularity of the base curve over the
    requested range before returning the surface.
    """
    eps_lo, eps_hi = float(eps_range[0]), float(eps_range[1])
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if not (eps_hi > eps_lo and t_hi > t_lo):
        raise BadParams("degenerate parameter ranges")
    probe = np.linspace(eps_lo, eps_hi, 33)
    defect = np.max(np.abs(gamma.horizontality_defect(probe)))
    if defect > TOL_HORIZONTAL:
        raise NotHorizontal(float(defect))
    vx, vy, vz = gamma.velocity(probe)
    speed2 = np.min(vx * vx + vy * vy + vz * vz)
    if speed2 == 0.0:
        raise DegenerateRuling("base curve is not regular")
    return RuledSurface(gamma, (eps_lo, eps_hi), (t_lo, t_hi),
                        int(grid[0]), int(grid[1]), skew=skew)


def orthogonality_check(surface) -> float:
    """Largest normalized |<ruling velocity, base velocity>| over the base.

    Zero (to rounding) for every J-ruled sweep; order one for skewed
    fixtures.  Accepts any object exposing ``gamma`` and
    ``ruling_velocity``.
    """
    eps = np.linspace(surface.eps_range[0], surface.eps_range[1], 257)
    x, y, z, dx, dy, dz = surface.gamma._raw(eps)
    rx, ry, rz = surface.ruling_velocity(eps)
    g = np.stack(frame_components(z, dx, dy, dz), axis=-1)
    r = np.stack(frame_components(z, rx, ry, rz), axis=-1)
    num = np.abs(np.sum(g * r, axis=-1))
    den = np.linalg.norm(g, axis=-1) * np.linalg.norm(r, axis=-1)
    return float(np.max(num / den))


def jacobi_vertical(surface: RuledSurface, eps, t) -> float:
    """Vertical component <V, T> of the variation field at (eps, t).

    On the generic branch the value is cross-checked against the A/B
    closed form at relative tolerance ``CLOSED_FORM_RTOL``.
    """
    value = float(surface.vertical_component(eps, t))
    try:
        closed = float(surface.vertical_component_closed(eps, t))
    except BranchUnsupported:
        return value
    if abs(closed - value) > CLOSED_FORM_RTOL * (1.0 + abs(value)):
        raise AssertionError(
            f"closed-form and analytic vertical components disagree "
            f"at ({eps}, {t}): {closed} vs {value}")
    return value


def uniqueness_scan(surface) -> list:
    """Locate singular loci from the sign structure of <V, T> on the grid.

    Area-stationary sweeps must yield exactly the band at t = 0; see
    ``singular_loci``.
    """
    E, T = np.meshgrid(surface.eps_grid(), surface.t_grid(), indexing="ij")
    return singular_loci(surface.t_grid(), surface.vertical_component(E, T))


def singular_loci(tg, vt) -> list:
    """Singular loci of <V, T> given on an eps x t grid, one row per eps.

    Returns one entry per connected t-band where the vertical component
    vanishes (below EPS_SCAN scaled by the per-line magnitude) or changes
    sign.
    """
    dt = tg[1] - tg[0]
    candidates = []
    for line in np.asarray(vt, dtype=float):
        scale = EPS_SCAN * (1.0 + np.max(np.abs(line)))
        hits = np.abs(line) < scale
        candidates.extend(tg[hits])
        sign_change = line[:-1] * line[1:] < 0.0
        for j in np.nonzero(sign_change)[0]:
            # linear interpolation of the crossing
            t0, t1 = tg[j], tg[j + 1]
            f0, f1 = line[j], line[j + 1]
            candidates.append(t0 - f0 * (t1 - t0) / (f1 - f0))
    if not candidates:
        return []
    ts = np.sort(np.asarray(candidates))
    gaps = np.nonzero(np.diff(ts) > 1.5 * dt)[0]
    bounds = np.concatenate([[0], gaps + 1, [len(ts)]])
    loci = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = ts[lo:hi]
        if len(chunk) == 0:
            continue
        loci.append({
            "t_center": float(np.median(chunk)),
            "t_min": float(chunk[0]),
            "t_max": float(chunk[-1]),
            "samples": int(len(chunk)),
        })
    return loci


def singular_point_surface(p0: Point) -> ScalarField:
    """Defining function of the complete minimal surface whose only
    singular point is ``p0``.

    The catalog saddle-point field exp(z - z0)*(y - y0) + x - x0 places its
    singular point at (x0, y0, -z0), so the z-parameter is bound to -p0.z.
    """
    return catalog("saddle-point", x0=p0.x, y0=p0.y, z0=-p0.z)


def family_surfaces(kind: str, **params) -> ScalarField:
    """The two families of area-stationary surfaces with a geodesic
    singular curve: planes a x + b y + c = 0 and the saddle family around
    a vertical line.
    """
    if kind == "plane_ab":
        return catalog("plane-ab", **params)
    if kind == "saddle_curve":
        return catalog("saddle-curve", **params)
    raise BadParams(f"unknown family {kind!r}; expected plane_ab or saddle_curve")


def plane_ab_singular_line_z(a: float, b: float) -> float:
    """z-level of the singular line of the plane a x + b y + c = 0.

    Exists only for a b > 0, where -a e^z + b e^-z = 0 gives
    z = log(sqrt(b/a)).
    """
    if a * b <= 0:
        raise BadParams("the plane has a singular line only for a*b > 0")
    return 0.5 * math.log(b / a)
