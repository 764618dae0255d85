"""Builders for complete area-stationary surfaces with singular sets.

A horizontal curve Gamma(eps) sweeps a ruled surface

    F(eps, t) = gamma_eps(t),

where gamma_eps is the characteristic curve of curvature 0 with initial
point Gamma(eps) and initial velocity J(Gammadot(eps)).  The J-rotation
makes the rulings meet the base curve orthogonally, which is exactly the
area-stationarity condition for minimal surfaces with a singular curve,
and the base curve is the singular set: the vertical component of the
variation field V = dF/deps vanishes precisely at t = 0.  Every sweep
built here is J-ruled: a sweep whose rulings leave the base curve at
another angle is not area-stationary, and this module makes none.

Supported base curves are the closed-form kinds (characteristic line and
exponential families, and integral curves of X or of Y, which are special
cases of those); arbitrary sampled curves are not accepted.  Along the
base curve and along every ruling the frame components of the velocity
are constant, so F and its derivatives have closed forms:
``RuledSurface.jet`` evaluates the base curve once, takes the ruling
velocity from the constant frame pair J(a, b), and returns F with its
two first derivatives from that one evaluation.  <V, T> on every branch
is the T-component of the jet's dF/deps.

The same constancy gives <V, T> in closed form.  With (a, b) the unit
frame velocity of the base curve, f(t) = <V, T> along the ruling from
Gamma(eps) solves f'' = b^2 f with f(0) = 0 and f'(0) = -1, so

    <V, T>(eps, t) = -sinh(b t) / b        (-t where b = 0)

on every branch and for every eps.  ``jacobi_vertical`` cross-checks the
jet against it.

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

from .curves import (LINE_FAMILY_TOL, CharacteristicCurve, _eval_raw, _exp_flow,
                     check_height, make_curve)
from .errors import BadParams
# bench/spans.py rebinds solgeo.stationary.catalog, so it stays imported here
from .expressions import catalog  # noqa: F401
from .frame import CoordVector, Point, SQRT2, TangentFrame, frame_components

#: frame-component threshold of the x-integral / y-integral labels
BRANCH_TOL = 1e-12

#: singular-locus detection threshold (scaled per t-line)
EPS_SCAN = 1e-9

#: agreement of the analytic <V, T> with its closed form (rounding bound)
CLOSED_FORM_RTOL = 1e-12

#: central-difference step in t of the intrinsic-H oracle
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
        check_height(p0.z)
        return HorizontalCurve.from_initial_data(
            p0, CoordVector(-math.exp(p0.z) / SQRT2, math.exp(-p0.z) / SQRT2, 0.0))

    def _raw(self, eps):
        c = self.curve
        return _eval_raw(c.p0.x, c.p0.y, c.p0.z,
                         c.v0.dx, c.v0.dy, c.v0.dz, eps)


@dataclass(frozen=True)
class RuledSurface:
    """Surface swept by characteristic curves from a horizontal base curve.

    ``gamma`` is the base curve (the singular curve, at t = 0), and every
    ruling leaves it with the frame velocity J(Gammadot); ``eps_range`` and
    ``t_range`` bound the parameters, and ``n_eps`` and ``n_t`` are the
    sample counts of ``eps_grid`` and ``t_grid``.
    """

    gamma: HorizontalCurve
    eps_range: tuple
    t_range: tuple
    n_eps: int
    n_t: int
    # what other modules derive from the surface and keep while it lives
    # (stability.q_form keeps its quadrature patch here)
    _memo: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    # -- geometry -------------------------------------------------------

    def jet(self, eps, t):
        """(F, dF/deps, dF/dt) at (eps, t), each a coordinate triple
        broadcast over the inputs.

        The base curve's frame components (a, b) are constant, and so are
        the ruling's, (ra, rb) (``ruling_frame_velocity``).  The ruling
        from Gamma(eps) therefore starts with the coordinate velocity
        v = (-e^z rb/sqrt2, e^-z rb/sqrt2, ra) at z = z0 + a eps, and the
        one scalar ra picks the line or the exponential branch for the
        whole sweep.  Along the base v moves by dv/deps = (a vx, -a vy, 0),
        so dF/deps = Gammadot + (a vx p(t), -a vy q(t), 0) with the flow
        weights p = expm1(ra t)/ra and q = -expm1(-ra t)/ra (both t on line
        rulings).  F and dF/deps share one range check and one set of
        exponentials: the flow of dF/deps starts at height |a| <= 1, inside
        e^z's range wherever F's |ra t| <= OVERFLOW_LIMIT holds.  dF/dt has
        the frame components (ra, rb, 0) at every t.
        """
        a, _ = self.gamma.curve.frame_velocity()
        ra, rb = self.ruling_frame_velocity()
        gx, gy, gz, dx, dy, dz = self.gamma._raw(eps)
        vx, vy = np.exp(gz) * (-rb) / SQRT2, np.exp(-gz) * rb / SQRT2
        ax, ay = a * vx, -a * vy  # the ruling data of dF/deps, flowed alike
        t = np.asarray(t, dtype=float)
        if abs(ra) < LINE_FAMILY_TOL:
            x, y, ex, ey = gx + vx * t, gy + vy * t, dx + ax * t, dy + ay * t
            z, tx, ty = gz, vx, vy  # constant along a line ruling
        else:
            z, em, em_neg, e, e_neg = _exp_flow(gz, ra, t)
            x, y = gx + vx / ra * em, gy - vy / ra * em_neg
            ex, ey = dx + ax / ra * em, dy - ay / ra * em_neg
            tx, ty = vx * e, vy * e_neg

        def fit(v):  # broadcast a component that is constant along t or eps
            return v if np.shape(v) == x.shape else np.broadcast_to(v, x.shape)

        return (x, y, fit(z)), (ex, ey, fit(dz)), (fit(tx), fit(ty), fit(ra))

    def ruling_frame_velocity(self):
        """(ra, rb), the constant X- and Y-components of every ruling's
        velocity: J(a, b) = (-b, a) of the base curve's (a, b)."""
        a, b = self.gamma.curve.frame_velocity()
        return -b, a

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
        """(F, (dF/deps, dF/dt)) from one jet: the coordinates and the
        tangents."""
        F, F_e, F_t = self.jet(eps, t)
        return F, (F_e, F_t)

    def ruling(self, eps: float) -> CharacteristicCurve:
        """The t-line through Gamma(eps) as a characteristic-curve record."""
        (gx, gy, gz), _, (vx, vy, vz) = self.jet(eps, 0.0)
        return make_curve(Point(float(gx), float(gy), float(gz)),
                          CoordVector(float(vx), float(vy), float(vz)))

    # -- vertical component of the variation field -----------------------

    def vertical_component_closed(self, eps, t):
        """Closed-form <V, T>(eps, t) = -sinh(b t)/b, or -t where b = 0."""
        _, b = self.gamma.curve.frame_velocity()
        t = np.asarray(t, dtype=float)
        if np.shape(eps) != t.shape:
            t = np.broadcast_to(t, np.broadcast_shapes(np.shape(eps), t.shape))
        return -np.sinh(b * t) / b if b else -t

    def vertical_component(self, eps, t):
        """<V, T>: the T-component of the analytic dF/deps, on every branch."""
        (_, _, z), V, _ = self.jet(eps, t)
        return frame_components(z, *V)[2]

    # -- grids ------------------------------------------------------------

    def eps_grid(self):
        return np.linspace(self.eps_range[0], self.eps_range[1], self.n_eps)

    def t_grid(self):
        return np.linspace(self.t_range[0], self.t_range[1], self.n_t)

    def intrinsic_mean_curvature(self, eps, t):
        """|H| estimated from the parametrization alone.

        The surface normal comes from the cross product of the tangents;
        the characteristic direction is the unit t-velocity.  H is the
        derivative of the horizontal unit normal along that direction
        (connection terms vanish for horizontal directions), taken by
        central differences in t, so this is an oracle independent of the
        H = 0 that ``patch_from_ruled`` takes in closed form.
        """
        def nu_h(tt):
            (_, _, z), tangents = self.chart(eps, tt)
            n1, n2, _ = TangentFrame(z, *tangents).normal_components
            norm = np.sqrt(n1 * n1 + n2 * n2)
            return np.stack([n1 / norm, n2 / norm])

        def d_nu(step):
            return (nu_h(t + step) - nu_h(t - step)) / (2.0 * step)

        dnu = (4.0 * d_nu(H_FD_STEP / 2.0) - d_nu(H_FD_STEP)) / 3.0
        (_, _, z), tangents = self.chart(eps, t)
        ta, tb, tc = TangentFrame(z, *tangents).t2
        speed = np.sqrt(ta * ta + tb * tb + tc * tc)
        # orient nu_h consistently along the center line (sign irrelevant for H)
        return -(dnu[0] / speed * (ta / speed) + dnu[1] / speed * (tb / speed))


def sweep_surface(gamma: HorizontalCurve, eps_range, t_range,
                  grid=(64, 64)) -> RuledSurface:
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
                        int(grid[0]), int(grid[1]))


def orthogonality_check(surface) -> float:
    """Largest normalized |<ruling velocity, base velocity>| over the base.

    Zero (to rounding) for every J-ruled sweep; on a surface whose
    ``ruling_frame_velocity`` is not J(a, b) it is the cosine of the angle
    between ruling and base.  The ruling velocity is the jet's dF/dt at
    t = 0.
    """
    eps = np.linspace(surface.eps_range[0], surface.eps_range[1], 257)
    x, y, z, dx, dy, dz = surface.gamma._raw(eps)
    rx, ry, rz = surface.jet(eps, 0.0)[2]
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
    disagreement names the first bad (eps, t).
    """
    value = surface.vertical_component(eps, t)
    closed = surface.vertical_component_closed(eps, t)
    bad = np.abs(closed - value) > CLOSED_FORM_RTOL * (1.0 + np.abs(value))
    if bad.any():
        i = np.argmax(bad)
        e, tt = (np.broadcast_to(v, bad.shape).flat[i] for v in (eps, t))
        raise AssertionError(
            f"closed-form and analytic vertical components disagree "
            f"at ({e}, {tt}): {closed.flat[i]} vs {value.flat[i]}")
    return float(value) if np.ndim(value) == 0 else value


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
    tg, vt = np.asarray(tg, dtype=float), np.asarray(vt, dtype=float)
    dt = tg[1] - tg[0]
    scale = EPS_SCAN * (1.0 + np.max(np.abs(vt), axis=1, keepdims=True))
    hits = np.broadcast_to(tg, vt.shape)[np.abs(vt) < scale]
    # linear interpolation of each sign change between neighbouring nodes
    row, j = np.nonzero(vt[:, :-1] * vt[:, 1:] < 0.0)
    t0, t1 = tg[j], tg[j + 1]
    f0, f1 = vt[row, j], vt[row, j + 1]
    ts = np.sort(np.concatenate([hits, t0 - f0 * (t1 - t0) / (f1 - f0)]))
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


def plane_ab_singular_line_z(a: float, b: float) -> float:
    """z-level of the singular line of the plane a x + b y + c = 0.

    Exists only for a b > 0, where -a e^z + b e^-z = 0 gives
    z = log(sqrt(b/a)), taken as a difference of logarithms so that b/a
    cannot overflow.
    """
    if a == 0.0 or b == 0.0 or (a < 0.0) != (b < 0.0):
        raise BadParams("the plane has a singular line only for a*b > 0")
    return 0.5 * (math.log(abs(b)) - math.log(abs(a)))
