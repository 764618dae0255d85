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
cases of those); arbitrary sampled curves are not accepted.  Along the
base curve and along every ruling the frame components of the velocity
are constant, so F and its derivatives have closed forms:
``RuledSurface.jet`` evaluates the base curve once, takes the ruling
velocity from the constant frame pair J(a, b), and returns F with its
first and mixed/second t-derivatives from that one evaluation.  <V, T> on
every branch is the T-component of the jet's dF/deps.

The same constancy gives <V, T> in closed form.  With (a, b) the unit
frame velocity of the base curve, f(t) = <V, T> along the ruling from
Gamma(eps) solves f'' = b^2 f with f(0) = 0 and f'(0) = -1, so

    <V, T>(eps, t) = -sinh(b t) / b        (-t where b = 0)

on every branch and for every eps.  ``jacobi_vertical`` cross-checks the
jet against it; a finite difference of F stays the test oracle.

That <V, T> does not depend on eps is one case of a symmetry of the whole
sweep.  A base curve of constant frame velocity v is Gamma(eps) =
g exp(eps v), and the left translation h_s = g exp(s v) g^-1 maps
Gamma(eps) to Gamma(eps + s).  It preserves X, Y, T and J, so it maps the
ruling from Gamma(eps) onto the ruling from Gamma(eps + s):
F(eps + s, t) = h_s(F(eps, t)).  Left translations are isometries, so
every metric quantity of the sweep is a function of t alone, and
``stability`` tabulates Q(u) on one eps-row of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curves import CharacteristicCurve, _eval_raw, make_curve
from .errors import BadParams, BranchUnsupported
from .expressions import ScalarField, catalog
from .frame import CoordVector, Point, SQRT2, TangentFrame, frame_components

#: frame-component threshold of the x-integral / y-integral labels
BRANCH_TOL = 1e-12

#: singular-locus detection threshold (scaled per t-line)
EPS_SCAN = 1e-9

#: agreement of the analytic <V, T> with its closed form (rounding bound)
CLOSED_FORM_RTOL = 1e-12

#: central-difference steps of the <V, T> (in eps) and intrinsic-H (in t) oracles
VT_FD_STEP = 1e-6
H_FD_STEP = 1e-4


@dataclass(frozen=True)
class HorizontalCurve:
    """Closed-form horizontal base curve of a sweep.

    Wraps a characteristic-curve record (every built-in kind is one), so
    ``make_curve`` has already checked horizontality and normalized the
    velocity to unit frame speed.  ``kind`` is 'generic', 'x-integral' or
    'y-integral'; it only labels the sweep summary's ``branch``, since the
    closed forms hold on every kind.
    """

    curve: CharacteristicCurve
    kind: str

    @staticmethod
    def from_initial_data(p0: Point, v0: CoordVector) -> "HorizontalCurve":
        c = make_curve(p0, v0)
        a, b = c.frame_velocity()  # X- and Y-components of the unit velocity
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

    def _raw(self, eps):
        c = self.curve
        return _eval_raw(c.p0.x, c.p0.y, c.p0.z,
                         c.v0.dx, c.v0.dy, c.v0.dz, eps)


@dataclass(frozen=True)
class RuledSurface:
    """Surface swept by characteristic curves from a horizontal base curve."""

    gamma: HorizontalCurve
    eps_range: tuple
    t_range: tuple
    n_eps: int
    n_t: int
    skew: float = 0.0   # fixture knob: blends the tangent into the ruling
    # what other modules derive from the surface and keep while it lives
    # (stability.q_form keeps its quadrature patch here)
    _memo: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    # -- geometry -------------------------------------------------------

    def jet(self, eps, t):
        """(F, dF/deps, dF/dt, d2F/deps dt, d2F/dt2) at (eps, t), each a
        coordinate triple broadcast over the inputs.

        The base curve's frame components (a, b) are constant, and so are
        the ruling's, (ra, rb) = J(a, b) = (-b, a) blended with (a, b) by
        ``skew``.  The ruling from Gamma(eps) therefore starts with the
        coordinate velocity v = (-e^z rb/sqrt2, e^-z rb/sqrt2, ra) at
        z = z0 + a eps, and the one scalar ra picks the line or the
        exponential branch for the whole sweep.  Along the base v moves by
        dv/deps = (a vx, -a vy, 0), so dF/deps = Gammadot + (a vx p(t),
        -a vy q(t), 0) with the flow weights p = expm1(ra t)/ra and
        q = -expm1(-ra t)/ra (both t on line rulings).  With (x', y') the
        x and y components of dF/dt, d2F/deps dt = (a x', -a y', 0) and
        d2F/dt2 = (ra x', -ra y', 0).
        """
        a, b = self.gamma.curve.frame_velocity()
        n = math.hypot(1.0, self.skew)
        ra, rb = (-b + self.skew * a) / n, (a + self.skew * b) / n
        gx, gy, gz, dx, dy, dz = self.gamma._raw(eps)
        vx, vy = np.exp(gz) * (-rb) / SQRT2, np.exp(-gz) * rb / SQRT2
        x, y, z, tx, ty, tz = _eval_raw(gx, gy, gz, vx, vy, ra, t)
        ex, ey, *_ = _eval_raw(dx, dy, dz, a * vx, -a * vy, ra, t)
        zero = np.zeros_like(tx)
        return tuple(tuple(np.broadcast_arrays(*v)) for v in (
            (x, y, z), (ex, ey, dz), (tx, ty, tz), (a * tx, -a * ty, zero),
            (tz * tx, -tz * ty, zero)))

    def point(self, eps, t):
        """F(eps, t); broadcasts over arrays."""
        return self.jet(eps, t)[0]

    def eps_velocity(self, eps, t):
        """dF/deps, the variation field V (analytic)."""
        return self.jet(eps, t)[1]

    def t_velocity(self, eps, t):
        """dF/dt, the ruling velocity at parameter t (analytic)."""
        return self.jet(eps, t)[2]

    def chart(self, eps, t):
        """(F, (dF/deps, dF/dt), (d2F/deps dt, d2F/dt2)) from one jet: the
        coordinates, the tangents, and the rates of the ruling velocity
        that ``stability.patch_from_ruled`` reads."""
        F, F_e, F_t, F_et, F_tt = self.jet(eps, t)
        return F, (F_e, F_t), (F_et, F_tt)

    def ruling_velocity(self, eps):
        """Initial ruling velocity at Gamma(eps), J(Gammadot) by default."""
        return self.jet(eps, 0.0)[2]

    def ruling(self, eps: float) -> CharacteristicCurve:
        """The t-line through Gamma(eps) as a characteristic-curve record."""
        (gx, gy, gz), _, (vx, vy, vz), *_ = self.jet(eps, 0.0)
        return make_curve(Point(float(gx), float(gy), float(gz)),
                          CoordVector(float(vx), float(vy), float(vz)))

    # -- vertical component of the variation field -----------------------

    def vertical_component_closed(self, eps, t):
        """Closed-form <V, T>(eps, t) = -sinh(b t)/b, or -t where b = 0;
        unskewed rulings only."""
        if self.skew:
            raise BranchUnsupported("closed form needs unskewed rulings")
        _, b = self.gamma.curve.frame_velocity()
        _, t = np.broadcast_arrays(eps, np.asarray(t, dtype=float))
        return -np.sinh(b * t) / b if b else -t

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
        (_, _, z), V, *_ = self.jet(eps, t)
        return frame_components(z, *V)[2]

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
        def nu_h(tt):
            (_, _, z), tangents, _ = self.chart(eps, tt)
            n1, n2, _ = TangentFrame(z, *tangents).normal_components
            norm = np.sqrt(n1 * n1 + n2 * n2)
            return np.stack([n1 / norm, n2 / norm])

        def d_nu(step):
            return (nu_h(t + step) - nu_h(t - step)) / (2.0 * step)

        dnu = (4.0 * d_nu(H_FD_STEP / 2.0) - d_nu(H_FD_STEP)) / 3.0
        (_, _, z), tangents, _ = self.chart(eps, t)
        ta, tb, tc = TangentFrame(z, *tangents).t2
        speed = np.sqrt(ta * ta + tb * tb + tc * tc)
        # orient nu_h consistently along the center line (sign irrelevant for H)
        return -(dnu[0] / speed * (ta / speed) + dnu[1] / speed * (tb / speed))


def sweep_surface(gamma: HorizontalCurve, eps_range, t_range,
                  grid=(64, 64), skew: float = 0.0) -> RuledSurface:
    """Sweep a ruled surface from a horizontal base curve.

    The base curve is horizontal and unit speed over any range:
    ``make_curve`` checked its initial data, and its frame components are
    constant along it.
    """
    eps_lo, eps_hi = float(eps_range[0]), float(eps_range[1])
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if not (eps_hi > eps_lo and t_hi > t_lo):
        raise BadParams("degenerate parameter ranges")
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


def jacobi_vertical(surface: RuledSurface, eps, t):
    """Vertical component <V, T> of the variation field at (eps, t).

    Broadcasts over arrays from one jet; a float for scalar input.  The
    jet's values are cross-checked against the closed form -sinh(b t)/b
    at relative tolerance ``CLOSED_FORM_RTOL`` on every branch, and a
    disagreement names the first bad (eps, t); skewed sweeps have no
    closed form and return the values unchecked.
    """
    value = surface.vertical_component(eps, t)
    result = float(value) if np.ndim(value) == 0 else value
    try:
        closed = surface.vertical_component_closed(eps, t)
    except BranchUnsupported:
        return result
    bad = np.abs(closed - value) > CLOSED_FORM_RTOL * (1.0 + np.abs(value))
    if bad.any():
        i = np.argmax(bad)
        e, tt = (np.broadcast_to(v, bad.shape).flat[i] for v in (eps, t))
        raise AssertionError(
            f"closed-form and analytic vertical components disagree "
            f"at ({e}, {tt}): {closed.flat[i]} vs {value.flat[i]}")
    return result


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
    z = log(sqrt(b/a)), taken as a difference of logarithms so that b/a
    cannot overflow.
    """
    if a * b <= 0:
        raise BadParams("the plane has a singular line only for a*b > 0")
    return 0.5 * (math.log(abs(b)) - math.log(abs(a)))
