"""Second-variation machinery: the stability form Q(u), the sufficient
condition for non-singular surfaces, the Jacobi profile along characteristic
curves, and quadrature-based area comparison.

For a minimal surface with singular set S0 and an admissible variation u
(compactly supported, C^1, with Z(u) = 0 in a tubular neighborhood of a
singular curve and u constant near an isolated singular point), stability
requires Q(u) >= 0 with

    Q(u) = int_Sigma { |N_h|^-1 Z(u)^2
                       + |N_h| ( (1 + <Z,Y>^2)
                                 - (|N_h| (1/2 - <Z,Y>^2) - <nabla_S nu_h, Z>)^2 ) u^2 } dA
           + 4 int_S0 <N,T> <Z,Y>^2 <Z,nu> u^2 dl
           + int_S0 S(u)^2 dl.

The singular-curve integrals are taken once over the curve; nu is the unit
normal to the curve inside the surface pointing away from it, and both
one-sided evaluations are computed and reported (they agree on every
catalog surface, and this convention reproduces the non-negative closed
forms of the catalog surfaces).

All integrals use tensor-product Gauss-Legendre rules at two grid levels
(n and 2n cells per axis); the difference between levels is the quadrature
error estimate.  Summation order is fixed by grid indexing, so results are
run-to-run identical.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadParams, GeometryError, Inadmissible, NotMinimal, SingularPointFound
from .expressions import ScalarField, catalog, neg
from .frame import SQRT2, Point, TangentFrame, frame_components
from .stationary import HorizontalCurve, RuledSurface, plane_ab_singular_line_z, sweep_surface
from .surface import EPS_SING, frame_fields, raw_fields

GL_ORDER = 8
MINIMALITY_TOL = 1e-7

#: general and closed-form Q(u) agree when their totals differ by less than
#: this many times the combined error estimate
AGREE_FACTOR = 10.0

#: sup <N, T> below which the sufficient condition counts as met
SUFFICIENT_TOL = 1e-8

#: window of the area comparison, and the share of it the bump's support spans
AREA_WINDOW = ((-2.0, 2.0), (-2.0, 2.0))
BUMP_WIDTH_FRAC = 0.8


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def _smooth_edge(s):
    """Quintic smoothstep 1 -> 0 on s in [0, 1]; C^2 at both ends."""
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _smooth_edge_deriv(s):
    return -(30.0 * s ** 2 - 60.0 * s ** 3 + 30.0 * s ** 4)


@dataclass(frozen=True)
class Bump:
    """C^2 plateau bump: 1 on |r - center| <= plateau, 0 outside width."""

    center: float
    plateau: float
    width: float

    def __post_init__(self):
        if not (0.0 <= self.plateau < self.width):
            raise BadParams(f"bump needs 0 <= plateau < width, got {self!r}")

    def _edge(self, r):
        """r - center, and the position s on the falling edge, clipped to
        [0, 1]: 0 on the plateau, 1 outside the width."""
        d = np.asarray(r, dtype=float) - self.center
        s = np.clip((np.abs(d) - self.plateau) / (self.width - self.plateau), 0.0, 1.0)
        return d, s

    def __call__(self, r):
        _, s = self._edge(r)
        # cancellation near s = 1 can undershoot zero by an ulp
        return np.clip(_smooth_edge(s), 0.0, 1.0)

    def deriv(self, r):
        d, s = self._edge(r)
        # + 0.0 turns the -0.0 at both ends of the edge into 0.0
        return _smooth_edge_deriv(s) / (self.width - self.plateau) * np.sign(d) + 0.0

    def support(self):
        return self.center - self.width, self.center + self.width

    def flat_on(self, lo: float, hi: float) -> bool:
        return (self.center - self.plateau <= lo) and (hi <= self.center + self.plateau)


@dataclass(frozen=True)
class TestFunction:
    """Separable variation u(eps, t) = phi(eps) psi(t)."""

    __test__ = False  # not a pytest collectible

    phi: Bump
    psi: Bump

    def factors(self, eps, t):
        """(phi, phi', psi, psi') on the 1-D nodes ``eps`` and ``t``; Q(u)
        reads u only through these, and psi(0) on a singular curve."""
        return self.phi(eps), self.phi.deriv(eps), self.psi(t), self.psi.deriv(t)


def battery_test_functions(patch, count: int, seed: int, delta: float):
    """Seeded admissible bumps of varying centers and widths for ``patch``."""
    rng = np.random.default_rng(seed)
    e_lo, e_hi = patch.eps_range
    t_lo, t_hi = patch.t_range
    e_half = 0.5 * (e_hi - e_lo)
    t_half = 0.5 * (t_hi - t_lo)
    out = []
    for _ in range(count):
        if patch.singular == "curve":
            # psi centered on the singular curve with a plateau covering the
            # declared tubular neighborhood
            pw = rng.uniform(delta * 1.2, 0.45 * t_half)
            ww = rng.uniform(pw + 0.2 * t_half, 0.95 * t_half)
            psi = Bump(0.0, pw, ww)
            wphi = rng.uniform(0.25 * e_half, 0.9 * e_half)
            cphi = rng.uniform(e_lo + wphi, e_hi - wphi)
            phi = Bump(cphi, rng.uniform(0.1, 0.6) * wphi, wphi)
        elif patch.singular == "point":
            pe, pt = patch.point_param
            wphi = rng.uniform(0.35 * e_half, 0.9 * min(pe - e_lo, e_hi - pe))
            pphi = min(max(delta * 1.2, rng.uniform(0.15, 0.5) * wphi), 0.9 * wphi)
            phi = Bump(pe, pphi, wphi)
            wpsi = rng.uniform(0.35 * t_half, 0.9 * min(pt - t_lo, t_hi - pt))
            ppsi = min(max(delta * 1.2, rng.uniform(0.15, 0.5) * wpsi), 0.9 * wpsi)
            psi = Bump(pt, ppsi, wpsi)
        else:
            wphi = rng.uniform(0.2 * e_half, 0.9 * e_half)
            cphi = rng.uniform(e_lo + wphi, e_hi - wphi)
            phi = Bump(cphi, rng.uniform(0.0, 0.6) * wphi, wphi)
            wpsi = rng.uniform(0.2 * t_half, 0.9 * t_half)
            cpsi = rng.uniform(t_lo + wpsi, t_hi - wpsi)
            psi = Bump(cpsi, rng.uniform(0.0, 0.6) * wpsi, wpsi)
        out.append(TestFunction(phi, psi))
    return out


# ---------------------------------------------------------------------------
# Catalog surface patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfacePatch:
    """Parametrized patch of a surface, adapted to its singular set.

    ``chart`` maps parameter arrays (eps, t) to ((x, y, z), (dF/deps,
    dF/dt), ...): the coordinates of F and its two tangents as coordinate
    triples, from one evaluation of the parametrization, followed by
    whatever else that evaluation hands to ``geometry`` (a ruled sweep's
    chart adds the second derivatives (d2F/deps dt, d2F/dt2)).  For
    surfaces with a singular curve the curve sits at t = 0 and the base
    parametrization has unit speed, so the length element along it is 1.

    ``geom`` evaluates the chart once per node set and returns |N_h|
    ("nh"), <N,T> ("nt"), Z = zx X + zy Y, <nabla_S nu_h, Z> and H, with
    the tangents' ``TangentFrame`` under "frame".  ``geometry(t, z, frame,
    *rest)`` supplies that geometry from the exact derivatives of the
    parametrization, ``rest`` being what the chart returned after the
    tangents (every sweep, see ``patch_from_ruled``); without it the
    geometry comes from the defining scalar field (``surface.frame_fields``).

    Q(u) is tabulated as a bilinear form at the quadrature nodes on first
    use, once per (n_eps, n_t, delta), and lives as long as the patch.

    ``eps_invariant`` declares that the patch is the orbit of a
    one-parameter group of left translations h_s with h_s(F(eps, t)) =
    F(eps + s, t).  A sweep from a base curve of constant frame velocity,
    Gamma(eps) = g exp(eps v), is one: h_s = g exp(s v) g^-1 maps Gamma(eps)
    to Gamma(eps + s) and preserves X, Y, T and J, so it maps each ruling
    onto a ruling; so is a coordinate plane, translated along its first
    parameter.  Left translations are isometries, so |N_h|, <N,T>, Z,
    <nabla_S nu_h, Z>, H, the area element and the coordinates of Z against
    the tangents are functions of t alone, and the tables evaluate them on
    one eps-row of nodes, checked against the last row (``_geom_rows``).
    """

    name: str
    field: ScalarField | None
    eps_range: tuple
    t_range: tuple
    chart: object                  # callable (eps, t) -> ((x, y, z), (dF/deps, dF/dt), ...)
    singular: str = "none"         # 'none' | 'curve' | 'point'
    point_param: tuple | None = None
    geometry: object = None        # callable (t, z, frame, *rest) -> dict, overrides field
    eps_invariant: bool = False    # the geometry is a function of t alone
    _tables: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def geom(self, eps, t) -> dict:
        (X, Y, Z), tangents, *rest = self.chart(eps, t)
        tf = TangentFrame(Z, *tangents)
        if self.geometry is not None:
            f = self.geometry(t, Z, tf, *rest)
        else:
            f = frame_fields(self.field, X, Y, Z)
        f["frame"] = tf
        return f


_PLANE_GRAPH = {
    # (assemble F from graph height h(s1, s2), and its partials)
    "plane-x": lambda s1, s2, h, h1, h2: ((h, s1, s2), ((h1, 1.0, 0.0), (h2, 0.0, 1.0))),
    "plane-y": lambda s1, s2, h, h1, h2: ((s1, h, s2), ((1.0, h1, 0.0), (0.0, h2, 1.0))),
    "plane-z": lambda s1, s2, h, h1, h2: ((s1, s2, h), ((1.0, 0.0, h1), (0.0, 1.0, h2))),
}


_PLANE_AREA = {
    # sub-Riemannian area of the level plane over [s1_lo, s1_hi] x [s2_lo, s2_hi],
    # for every c
    "plane-x": lambda s1, s2: (s1[1] - s1[0]) * (math.exp(s2[1]) - math.exp(s2[0])) / SQRT2,
    "plane-y": lambda s1, s2: (s1[1] - s1[0]) * (math.exp(-s2[0]) - math.exp(-s2[1])) / SQRT2,
    "plane-z": lambda s1, s2: (s1[1] - s1[0]) * (s2[1] - s2[0]),
}


def _level_graph(c: float):
    """Height function of the coordinate plane {coordinate = -c}."""
    def h(s1, s2):
        zero = np.zeros_like(s1)
        return np.full_like(s1, -c), zero, zero
    return h


def _graph_chart(kind: str, h_fn):
    """Chart of the graph of ``h_fn`` over a coordinate plane, laid out by
    ``_PLANE_GRAPH``.

    ``h_fn`` sees the nodes as given, so an (n, 1) column and a (1, m) row
    are evaluated on n + m points where h is separable; the coordinates
    are broadcast to the grid.
    """
    layout = _PLANE_GRAPH[kind]

    def chart(s1, s2):
        s1, s2 = np.asarray(s1, float), np.asarray(s2, float)
        coords, tangents = layout(s1, s2, *h_fn(s1, s2))
        return tuple(np.broadcast_arrays(*coords)), tangents
    return chart


def patch_for_catalog(name: str, params: dict | None = None) -> SurfacePatch:
    """Adapted quadrature patch for a catalog surface."""
    params = dict(params or {})
    fld = catalog(name, **params)

    if name in ("plane-x", "plane-y", "plane-z"):
        c = float(params.get("c", 0.0))
        # eps runs along a coordinate line of the plane: a left translation
        return SurfacePatch(name, fld, (-3.0, 3.0), (-3.0, 3.0),
                            _graph_chart(name, _level_graph(c)), eps_invariant=True)

    if name == "plane-ab":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        c = float(params.get("c", 0.0))
        if a * b <= 0.0:
            raise BadParams(
                "adapted plane-ab patch needs a*b > 0 (otherwise the plane has "
                "no singular line; use plane-x or plane-y)")
        # base curve: the unit-speed singular line; rulings: vertical lines (-X)
        base = HorizontalCurve.y_line(Point(-c * a / (a * a + b * b),
                                            -c * b / (a * a + b * b),
                                            plane_ab_singular_line_z(a, b)))
        return patch_from_ruled(sweep_surface(base, (-3.0, 3.0), (-3.0, 3.0)), name, fld)

    if name == "saddle-curve":
        # base curve: the vertical line (x0, y0, eps); rulings: Y-lines
        base = HorizontalCurve.x_line(Point(float(params.get("x0", 0.0)),
                                            float(params.get("y0", 0.0)), 0.0))
        return patch_from_ruled(sweep_surface(base, (-2.0, 2.0), (-3.0, 3.0)), name, fld)

    if name == "saddle-point":
        x0 = float(params.get("x0", 0.0))
        y0 = float(params.get("y0", 0.0))
        z0 = float(params.get("z0", 0.0))

        # graph x = x0 - e^(z - z0) (y - y0) over (y, z); the singular point
        # sits at (y0, -z0)
        def h(y, z):
            ee = np.exp(z - z0)
            return x0 - ee * (y - y0), -ee, -ee * (y - y0)

        return SurfacePatch(name, fld, (y0 - 3.0, y0 + 3.0), (-z0 - 2.0, -z0 + 2.0),
                            _graph_chart("plane-x", h), "point", (y0, -z0))

    raise BadParams(f"no adapted patch for catalog surface {name!r}")


def patch_from_ruled(surface, name: str = "ruled-sweep",
                     field: ScalarField | None = None) -> SurfacePatch:
    """Quadrature patch over a ruled sweep, geometry from the parametrization.

    Every sweep patch is built here; the catalog's ``plane-ab`` and
    ``saddle-curve`` pass their ``name`` and keep their ``field`` for the
    sufficient condition.  The chart is the sweep's jet, the base curve is
    the singular curve at t = 0, and the patch is invariant along eps (see
    ``SurfacePatch``).  The geometry reads z, the tangents and their rates,
    never x or y, so translation offsets do not reach it.

    The characteristic direction Z is the unit ruling velocity carrying the
    side-dependent sign that realizes it as J of the horizontal normal
    nu_h = -J(Z); the unit normal is the metric cross product of the
    tangents, its global sign fixed at a reference point.  All derivatives
    are exact: <nabla_S nu_h, Z> and H come from the closed-form second
    derivatives that the sweep's chart returns with its tangents.
    """
    if not isinstance(surface, RuledSurface):
        raise BadParams("patch_from_ruled expects a ruled surface")
    if surface.skew:
        raise BadParams("skewed fixtures have no adapted stability patch")

    def frame_data(t, tf):
        sigma = np.sign(t)
        ra, rb, _ = tf.t2
        speed = np.hypot(ra, rb)
        # Z = sigma * unit ruling velocity; nu_h = -J(Z) = (zy, -zx)
        zx = sigma * ra / speed
        zy = sigma * rb / speed
        n1, n2, n3 = tf.normal_components
        norm = np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
        return sigma, speed, zx, zy, (n1 / norm, n2 / norm, n3 / norm)

    # pin the global normal sign once, where the alignment is unambiguous
    e_ref = 0.5 * (surface.eps_range[0] + surface.eps_range[1])
    t_ref = 0.25 * (surface.t_range[1] - surface.t_range[0])
    (_, _, z_ref), tangents_ref, _ = surface.chart(e_ref, t_ref)
    tf_ref = TangentFrame(z_ref, *tangents_ref)
    *_, zx_r, zy_r, n_ref = frame_data(t_ref, tf_ref)
    s_ref = math.copysign(1.0, float(n_ref[0] * zy_r - n_ref[1] * zx_r))

    def geometry(t, z, tf, rates):
        sigma, speed, zx, zy, (n1, n2, n3) = frame_data(t, tf)
        nu1, nu2 = zy, -zx
        nh = np.hypot(n1, n2)
        nt = s_ref * n3
        ua, ub = tf.t2[0] / speed, tf.t2[1] / speed

        def nu_rate(d_ft):
            """Rate of (nu1, nu2) from the rate d_ft of the ruling velocity
            F_t along one parameter.  The frame components of F_t change by
            those of d_ft plus z' times (0, <F_t,T>, <F_t,Y>); F_t is
            horizontal, so the X- and Y-parts need no z' term."""
            da, db, _ = frame_components(z, *d_ft)
            along = ua * da + ub * db
            return sigma * (db - ub * along) / speed, -sigma * (da - ua * along) / speed

        dnu_de, dnu_dt = (nu_rate(d_ft) for d_ft in rates)

        # decompose S = nt nu_h - nh T against the tangents
        alpha_s, beta_s = tf.solve(nt * nu1, nt * nu2, -nh)
        s_nu1 = alpha_s * dnu_de[0] + beta_s * dnu_dt[0]
        s_nu2 = alpha_s * dnu_de[1] + beta_s * dnu_dt[1]
        M = (s_nu1 + nu2 * nh / 2.0) * zx + (s_nu2 - nu1 * nh / 2.0) * zy
        H = -sigma * (dnu_dt[0] * zx + dnu_dt[1] * zy) / speed
        return {"nh": nh, "nt": nt, "zx": zx, "zy": zy,
                "grad_s_nu_z": M, "H": H}

    return SurfacePatch(name, field, surface.eps_range, surface.t_range, surface.chart,
                        "curve", geometry=geometry, eps_invariant=True)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@functools.cache
def leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1]; read-only, shared."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def gl_line(lo: float, hi: float, cells: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], GL_ORDER per cell."""
    xs, ws = leggauss(GL_ORDER)
    edges = np.linspace(lo, hi, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


@dataclass
class QuadratureReport:
    surface_integral: float
    boundary_integral_tau: float
    boundary_integral_S: float
    total: float
    error_estimate: float
    grid: tuple
    extras: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "surface_integral": self.surface_integral,
            "boundary_integral_tau": self.boundary_integral_tau,
            "boundary_integral_S": self.boundary_integral_S,
            "total": self.total,
            "error_estimate": self.error_estimate,
            "grid": [int(self.grid[0]), int(self.grid[1])],
        }
        out.update(self.extras)
        return out


def _patch_frame_data(patch: SurfacePatch, E, T):
    """Geometry shared by the integrand evaluations at nodes (E, T)."""
    f = patch.geom(E, T)
    tf = f["frame"]
    alpha, beta = tf.solve(f["zx"], f["zy"], 0.0)
    return f, tf.area_element(), alpha, beta


#: relative tolerance of the check between the first and the last eps-row
ROW_RTOL = 1e-12


def _geom_rows(patch: SurfacePatch, e, t):
    """The geometry that Q(u) reads at the nodes (e, t): |N_h| ("nh"),
    <N,T> ("nt"), zx, zy, <nabla_S nu_h, Z> and H from ``patch.geom``, the
    area element "dS", the coordinates "alpha", "beta" of Z against the
    tangents, and the second tangent's frame components "ta", "tb", "tc".

    On a patch invariant along eps only the first and the last row of the
    column ``e`` are evaluated, and each entry is the first row, a (1, m)
    array over ``t``, checked against the last.  A finite entry that
    differs between the rows by more than ROW_RTOL (1 + |v|) means the
    patch is not invariant along eps as it declares: AssertionError.  A
    non-finite entry in either row passes through to the result, so the
    caller's finiteness gate gives the verdict.
    """
    if patch.eps_invariant:
        e = e[[0, -1]]
    f, dS, alpha, beta = _patch_frame_data(patch, e, t)
    ta, tb, tc = f["frame"].t2
    g = {"nh": f["nh"], "nt": f["nt"], "zx": f["zx"], "zy": f["zy"],
         "grad_s_nu_z": f["grad_s_nu_z"], "H": f["H"], "dS": dS, "alpha": alpha,
         "beta": beta, "ta": ta, "tb": tb, "tc": tc}
    if not patch.eps_invariant:
        return g
    shape = np.broadcast_shapes(np.shape(e), np.shape(t))
    for key, v in g.items():
        first, last = np.broadcast_to(v, shape)
        gap = np.isfinite(first) & np.isfinite(last) & (
            np.abs(first - last) > ROW_RTOL * (1.0 + np.abs(first)))
        if gap.any():
            j = int(np.argmax(gap))
            (e0, e1), tj = np.ravel(e).tolist(), np.ravel(t)[j].item()
            raise AssertionError(
                f"patch {patch.name!r} is not invariant along eps: {key} at t = {tj!r} "
                f"is {first[j].item()!r} at eps = {e0!r} but {last[j].item()!r} "
                f"at eps = {e1!r}")
        g[key] = np.where(np.isfinite(last), first, last)[None, :]
    return g


# Overflowing parameters produce non-finite intermediates; the finiteness
# checks on the assembled results give the verdict, so numpy stays quiet.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass
class _LevelTable:
    """Q(u) at one grid level as a bilinear form in the factors of u.

    With W_e the eps-weights ``ew``, w = dS W_t the weight along a row of
    t nodes and Z = alpha dF/deps + beta dF/dt, the surface part of
    Q(phi(eps) psi(t)) is

        (phi'^2 W_e) . K_aa psi^2 + (phi phi' W_e) . K_ab (psi psi')
          + (phi^2 W_e) . (K_bb psi'^2 + K_pot psi^2)

    with K_aa = alpha^2 w/|N_h|, K_ab = 2 alpha beta w/|N_h|,
    K_bb = beta^2 w/|N_h| and K_pot = pot w for each potential weight.
    The K arrays have a row per eps node, or one row on a patch invariant
    along eps; a row's phi products are summed over the eps nodes it
    stands for.  Nodes where |N_h| = 0 hold 0 in K_aa, K_ab and K_bb;
    their Z(u)^2/|N_h| term is kept aside in ``zero_nh``, per eps node,
    and is finite only where Z(u) = 0.  On a patch with a singular curve
    the curve runs along the eps nodes with weights W_e.
    """

    e: np.ndarray
    t: np.ndarray
    ew: np.ndarray
    k_aa: np.ndarray
    k_ab: np.ndarray
    k_bb: np.ndarray
    k_pot: dict                    # potential weight -> K_pot
    zero_nh: tuple | None          # (i, j, alpha, beta, nh, w W_e) where |N_h| = 0
    sides: tuple | None = None     # (coefficient, report extras) on a singular curve


#: singular-curve probe columns: t = 0, then each side (sign) at the offsets
#: delta/2 and delta/4
_PROBE_SIDE = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
_PROBE_FRAC = np.array([0.0, 0.5, 0.25, 0.5, 0.25])


def _level_table(patch: SurfacePatch, n_eps: int, n_t: int, delta: float) -> _LevelTable:
    """The patch's table at one grid level, built on first use.

    One ``_geom_rows`` call evaluates the geometry: on a patch invariant
    along eps at the first and the last eps node only, the first row
    standing for every row.  On a patch with a singular curve the t-nodes
    of that call end in the five probe columns of ``_side_limits``.  A
    patch that fails the minimality gate stores nothing, so every call
    raises NotMinimal.
    """
    key = (n_eps, n_t, delta)
    table = patch._tables.get(key)
    if table is not None:
        return table
    ne_nodes, ne_w = gl_line(*patch.eps_range, n_eps)
    nt_nodes, nt_w = gl_line(*patch.t_range, n_t)
    t = nt_nodes
    if patch.singular == "curve":
        t = np.concatenate((nt_nodes, _PROBE_SIDE * _PROBE_FRAC * delta))
    g = _geom_rows(patch, ne_nodes[:, None], t[None, :])
    rows = 1 if patch.eps_invariant else ne_nodes.size
    g = {k: np.broadcast_to(v, (rows, t.size)) for k, v in g.items()}
    m = nt_nodes.size
    f = {k: v[:, :m] for k, v in g.items()}

    nh = f["nh"]
    nonsing = nh > 1e-3
    h_max = float(np.max(np.abs(f["H"][nonsing]))) if nonsing.any() else 0.0
    if h_max > MINIMALITY_TOL:
        raise NotMinimal(f"patch is not minimal: max |H| = {h_max:.3e}")

    alpha, beta = f["alpha"], f["beta"]
    w = f["dS"] * nt_w
    zero = nh == 0.0
    w_nh = np.where(zero, 0.0, w / nh)
    a_w = alpha * w_nh
    weights = [_general_weight]
    if patch.name in _SIMPLIFIED:
        weights.append(_SIMPLIFIED[patch.name][0])
    zero_nh = None
    if zero.any():
        grid = (ne_nodes.size, m)
        i, j = np.nonzero(np.broadcast_to(zero, grid))
        zero_nh = (i, j, *(np.broadcast_to(a, grid)[i, j] for a in (alpha, beta, nh)),
                   np.broadcast_to(w, grid)[i, j] * ne_w[i])
    table = _LevelTable(ne_nodes, nt_nodes, ne_w, alpha * a_w, 2.0 * beta * a_w,
                        beta * beta * w_nh, {fn: fn(f) * w for fn in weights}, zero_nh)
    if patch.singular == "curve":
        table.sides = _side_limits({k: v[:, m:] for k, v in g.items()}, ne_nodes.size)
    patch._tables[key] = table
    return table


def _side_limits(g: dict, n_eps: int):
    """4 <N,T> <Z,Y>^2 <Z,nu> at the ``n_eps`` singular-curve nodes, with
    its report, from the geometry ``g`` at the probe columns (t = 0, then
    +-delta/2 and +-delta/4, see ``_PROBE_SIDE``): one row per node, or a
    single row that stands for every node.

    <N,T> is smooth across the singular curve: take it at t = 0.
    <Z,Y>^2 <Z,nu> only has one-sided limits; sample each side at the two
    probe offsets and extrapolate linearly to t -> 0.
    """
    ta, tb, tc = g["ta"], g["tb"], g["tc"]
    norm = np.sqrt(ta * ta + tb * tb + tc * tc)
    # nu points away from the singular curve on each side
    zdotnu = g["zx"] * (_PROBE_SIDE * (ta / norm)) + g["zy"] * (_PROBE_SIDE * (tb / norm))
    q = g["zy"] ** 2 * zdotnu
    nt0 = g["nt"][:, 0]
    p_plus = np.broadcast_to(nt0 * (2.0 * q[:, 2] - q[:, 1]), (n_eps,))
    p_minus = np.broadcast_to(nt0 * (2.0 * q[:, 4] - q[:, 3]), (n_eps,))
    sides = {
        "boundary_product_plus": float(np.mean(p_plus)),
        "boundary_product_minus": float(np.mean(p_minus)),
        "boundary_sides_max_gap": float(np.max(np.abs(p_plus - p_minus))),
    }
    return 4.0 * p_plus, sides


@_quiet
def _q_form_level(patch: SurfacePatch, u: TestFunction, n_eps: int, n_t: int,
                  weight_fn, delta: float, boundary_const: float | None = None):
    """Surface and singular-curve parts of Q(u) at one grid level, and
    their report extras.

    The u^2 coefficient of the singular-curve integral is
    4 <N,T> <Z,Y>^2 <Z,nu> from the patch geometry, or ``boundary_const``
    when a closed form supplies it.
    """
    lv = _level_table(patch, n_eps, n_t, delta)
    phi, dphi, psi, dpsi = u.factors(lv.e, lv.t)
    rows = len(lv.k_aa)

    def fold(v):
        """Sum of v W_e over the eps nodes of each table row."""
        return (v * lv.ew).reshape(rows, -1).sum(axis=1)

    psi2 = psi * psi
    surface = float(fold(dphi * dphi) @ (lv.k_aa @ psi2)
                    + fold(dphi * phi) @ (lv.k_ab @ (psi * dpsi))
                    + fold(phi * phi) @ (lv.k_bb @ (dpsi * dpsi) + lv.k_pot[weight_fn] @ psi2))
    if lv.zero_nh is not None:
        i, j, alpha, beta, nh, w = lv.zero_nh
        Zu = alpha * (dphi[i] * psi[j]) + beta * (phi[i] * dpsi[j])
        surface += float(np.sum(np.where(Zu == 0.0, 0.0, Zu * Zu / nh) * w))

    b_tau = 0.0
    b_s = 0.0
    sides = {}
    if lv.sides is not None:
        psi0 = u.psi(np.zeros(1))
        u0 = phi * psi0
        du0 = dphi * psi0
        b_s = float(np.sum(du0 * du0 * lv.ew))
        coeff = boundary_const
        if coeff is None:
            coeff, sides = lv.sides
        b_tau = float(np.sum(coeff * u0 * u0 * lv.ew))
    return surface, b_tau, b_s, sides


def _general_weight(f):
    nh = f["nh"]
    zy2 = f["zy"] ** 2
    return nh * ((1.0 + zy2) - (nh * (0.5 - zy2) - f["grad_s_nu_z"]) ** 2)


def _check_admissible(patch: SurfacePatch, u: TestFunction, delta: float):
    e_lo, e_hi = patch.eps_range
    t_lo, t_hi = patch.t_range
    s_lo, s_hi = u.phi.support()
    if not (e_lo < s_lo and s_hi < e_hi):
        raise Inadmissible("phi support touches the eps boundary")
    s_lo, s_hi = u.psi.support()
    if not (t_lo < s_lo and s_hi < t_hi):
        raise Inadmissible("psi support touches the t boundary")
    if patch.singular == "curve":
        if not u.psi.flat_on(-delta, delta):
            raise Inadmissible(
                f"psi must be constant on the tubular band |t| <= {delta:g}")
    elif patch.singular == "point":
        pe, pt = patch.point_param
        if not (u.phi.flat_on(pe - delta, pe + delta)
                and u.psi.flat_on(pt - delta, pt + delta)):
            raise Inadmissible(
                "u must be constant on the declared square around the singular point")


def q_form(patch, u: TestFunction, grid=(24, 24),
           delta: float | None = None) -> QuadratureReport:
    """Stability quadratic form Q(u) on an adapted patch or a ruled sweep.

    On the graph patches (the coordinate planes and saddle-point) the
    <nabla_S nu_h, Z> entry of the potential comes from the exact second
    partials of the defining function; on every sweep patch, ``plane-ab``
    and ``saddle-curve`` included, from the closed-form derivatives of the
    sweep (``patch_from_ruled``).  A ruled sweep passed as such is adapted
    through ``patch_from_ruled`` and keeps that patch, and so its tables,
    for as long as it lives.  Two grid levels give the quadrature error
    estimate; a non-finite result raises GeometryError.
    """
    if isinstance(patch, RuledSurface):
        memo = patch._memo
        if "patch" not in memo:
            memo["patch"] = patch_from_ruled(patch)
        patch = memo["patch"]
    return _two_levels(patch, u, grid, delta, _general_weight, None)


_SIMPLIFIED = {
    # closed-form integrand weight and u^2 coefficient of the singular-curve
    # integral of the catalog families
    "plane-ab": (lambda f: f["nh"] * f["nt"] ** 2, 0.0),
    "saddle-curve": (lambda f: 2.0 * f["nh"] ** 2, 4.0),
}


def q_form_simplified(patch: SurfacePatch, u: TestFunction, grid=(24, 24),
                      delta: float | None = None) -> QuadratureReport:
    """Q(u) with the closed-form integrands of the patch's catalog family.

    Only ``plane-ab`` and ``saddle-curve`` patches have one; the geometry
    table is shared with ``q_form`` on the same patch.  The two are compared
    by the acceptance suite; a persistent mismatch beyond the combined
    quadrature error is reported structurally (see ``compare_q_forms``),
    not reconciled.
    """
    if patch.name not in _SIMPLIFIED:
        raise BadParams(f"no simplified form for patch {patch.name!r}")
    weight, bconst = _SIMPLIFIED[patch.name]
    return _two_levels(patch, u, grid, delta, weight, bconst)


def _two_levels(patch, u, grid, delta, weight_fn, boundary_const) -> QuadratureReport:
    """Q(u) at grid and twice the grid; their difference is the error
    estimate."""
    if delta is None:
        delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
    _check_admissible(patch, u, delta)
    lo = _q_form_level(patch, u, grid[0], grid[1], weight_fn, delta, boundary_const)
    hi = _q_form_level(patch, u, 2 * grid[0], 2 * grid[1], weight_fn, delta,
                       boundary_const)
    parts_lo = np.array(lo[:3])
    parts_hi = np.array(hi[:3])
    if not np.all(np.isfinite(parts_lo) & np.isfinite(parts_hi)):
        raise GeometryError(f"Q(u) is not finite: parts {parts_hi.tolist()}")
    err = float(np.sum(np.abs(parts_hi - parts_lo)))
    extras = dict(hi[3])
    extras["delta"] = delta
    return QuadratureReport(
        surface_integral=float(parts_hi[0]),
        boundary_integral_tau=float(parts_hi[1]),
        boundary_integral_S=float(parts_hi[2]),
        total=float(np.sum(parts_hi)),
        error_estimate=err,
        grid=(int(grid[0]), int(grid[1])),
        extras=extras,
    )


def compare_q_forms(general: QuadratureReport, simplified: QuadratureReport) -> dict:
    """Structured comparison of the general and closed-form evaluations.

    Agreement means the totals differ by less than ``AGREE_FACTOR`` times
    the combined error estimate.  On mismatch the part with the largest
    discrepancy is named, so the outcome is reportable either way.
    """
    combined = general.error_estimate + simplified.error_estimate
    threshold = AGREE_FACTOR * combined
    diff = abs(general.total - simplified.total)
    parts = {
        "surface_u2_weight": abs(general.surface_integral - simplified.surface_integral),
        "boundary_tau": abs(general.boundary_integral_tau - simplified.boundary_integral_tau),
        "boundary_S": abs(general.boundary_integral_S - simplified.boundary_integral_S),
    }
    agree = bool(diff <= threshold)
    return {
        "agree": agree,
        "difference": diff,
        "threshold": threshold,
        "combined_error": combined,
        "mismatch_term": None if agree else max(parts, key=parts.get),
        "part_differences": parts,
    }


# ---------------------------------------------------------------------------
# Sufficient condition and Jacobi profile
# ---------------------------------------------------------------------------

def flipped(field: ScalarField) -> ScalarField:
    """The same zero set with the opposite orientation of the normal."""
    return ScalarField.from_expr(neg(field.expr))


@_quiet
def sufficient_condition(field: ScalarField, patch: SurfacePatch,
                         grid=(64, 64), flip: bool = False) -> dict:
    """Stability test for surfaces with empty singular set.

    The hypothesis is <N, T> <= 0 everywhere (with the inner-normal
    orientation; ``flip`` probes the reversed one).  The report carries the
    sup of <N, T> over the grid plus two diagnostics: the quantity
    2 Z(<N,T>/|N_h|) + (<N,T>/|N_h|)^2 and the cosh-coefficient combination
    a + b of the Jacobi profile (non-positive exactly when the profile
    never crosses zero forward in s).  The met flag gates on the
    hypothesis; the diagnostics are reported, not gated on.  A non-finite
    sup <N, T> raises GeometryError.
    """
    fld = flipped(field) if flip else field
    es = np.linspace(*patch.eps_range, grid[0])
    ts = np.linspace(*patch.t_range, grid[1])
    E, T = np.meshgrid(es, ts, indexing="ij")
    (X, Y, Z), *_ = patch.chart(E, T)
    f = raw_fields(fld, X, Y, Z)
    if bool(np.any(f["nh"] < EPS_SING)):
        raise SingularPointFound("patch contains singular points")
    sup_nt = float(np.max(f["nt"]))
    if not math.isfinite(sup_nt):
        raise GeometryError(f"sup <N,T> is not finite: {sup_nt}")
    quantity = 2.0 * f["Zq"] + f["q"] ** 2
    sup_quantity = float(np.max(quantity))
    zx = np.abs(f["zx"])
    mask = zx > 1e-9
    a_plus_b = np.full_like(zx, np.nan)
    a_plus_b[mask] = (-f["nh"][mask] * (f["Zq"][mask] + f["q"][mask] ** 2)
                      / (f["zx"][mask] ** 2) - f["nt"][mask] / zx[mask])
    sup_apb = float(np.max(a_plus_b[mask])) if mask.any() else float("nan")
    degenerate_ok = bool(np.all(np.abs(f["nt"][~mask]) <= SUFFICIENT_TOL))
    return {
        "sup_NT": sup_nt,
        "sup_quantity": sup_quantity,
        "sup_a_plus_b": sup_apb,
        "zx_degenerate_fraction": float(np.mean(~mask)),
        "zx_degenerate_vertical_ok": degenerate_ok,
        "condition_met": bool(sup_nt <= SUFFICIENT_TOL),
        "flip": bool(flip),
    }


def jacobi_profile(field: ScalarField, p: Point, s_range=(-3.0, 3.0),
                   n: int = 201) -> dict:
    """Vertical Jacobi component profile along the characteristic direction.

    Solves f''' - <Z,X>^2 f' = 0 with f(0) = -|N_h|, f'(0) = -<N,T>,
    f''(0) = -|N_h| (Z(<N,T>/|N_h|) + (<N,T>/|N_h|)^2); the coefficient
    <Z,X>^2 is constant along the characteristic curve, so the cosh/sinh
    closed form is exact.  Cross-checked against numeric integration of the
    third-order equation.
    """
    from scipy.integrate import solve_ivp

    f = raw_fields(field, p.x, p.y, p.z)
    nh = float(f["nh"])
    if bool(f["singular"]):
        raise SingularPointFound(f"profile needs a non-singular point, got {p}")
    nt = float(f["nt"])
    q = float(f["q"])
    zq = float(f["Zq"])
    zx = float(f["zx"])
    f0, f1, f2 = -nh, -nt, -nh * (zq + q * q)
    s = np.linspace(s_range[0], s_range[1], n)
    if abs(zx) < 1e-9:
        values = f0 + f1 * s + 0.5 * f2 * s * s
        return {"s": s, "values": values, "zx_zero": True,
                "a": None, "b": None, "c": None, "mu": 0.0,
                "a_plus_b": None, "ode_max_rel_dev": 0.0,
                "ode_residual_max": 0.0}
    mu = abs(zx)
    a = f2 / (mu * mu)
    b = f1 / mu
    c = f0 - a
    values = a * np.cosh(mu * s) + b * np.sinh(mu * s) + c

    def rhs(t, y):
        return [y[1], y[2], mu * mu * y[1]]

    dev = 0.0
    for lo, hi in ((0.0, s_range[1]), (0.0, s_range[0])):
        if hi == lo:
            continue
        seg = s[(s >= min(lo, hi)) & (s <= max(lo, hi))]
        if len(seg) == 0:
            continue
        sol = solve_ivp(rhs, (lo, hi), [f0, f1, f2], t_eval=np.sort(seg) if hi > lo
                        else np.sort(seg)[::-1], rtol=1e-12, atol=1e-14)
        ref = a * np.cosh(mu * sol.t) + b * np.sinh(mu * sol.t) + c
        scale = 1.0 + np.max(np.abs(ref))
        dev = max(dev, float(np.max(np.abs(sol.y[0] - ref)) / scale))
    # pointwise residual of the closed form in the ODE
    fppp = a * mu ** 3 * np.sinh(mu * s) + b * mu ** 3 * np.cosh(mu * s)
    fp = a * mu * np.sinh(mu * s) + b * mu * np.cosh(mu * s)
    residual = float(np.max(np.abs(fppp - mu * mu * fp)) / (1.0 + np.max(np.abs(fppp))))
    return {"s": s, "values": values, "zx_zero": False,
            "a": a, "b": b, "c": c, "mu": mu,
            "a_plus_b": a + b, "ode_max_rel_dev": dev,
            "ode_residual_max": residual}


# ---------------------------------------------------------------------------
# Area comparison (calibration-style)
# ---------------------------------------------------------------------------

def _graph_area(kind: str, window, h_fn, cells: int) -> float:
    """Sub-Riemannian area of a graph over the window.

    With n the metric cross product of the frame tangents, the integrand
    |N_h| dSigma collapses to the horizontal norm of n.
    """
    n1, w1 = gl_line(*window[0], cells)
    n2, w2 = gl_line(*window[1], cells)
    (_, _, z), tangents = _graph_chart(kind, h_fn)(n1[:, None], n2[None, :])
    na, nb, _ = TangentFrame(z, *tangents).normal_components
    horiz = np.hypot(na, nb)
    return float(np.sum(horiz * np.outer(w1, w2)))


@_quiet
def area_compare(base_kind: str, eta: float, grid: int = 100, c: float = 0.0) -> dict:
    """Areas of a coordinate plane and a compactly supported graph bump over it.

    The plane's area over AREA_WINDOW is the closed form ``_PLANE_AREA``,
    with the round-off of a few ulps as its error.  The bumped graph agrees
    with the plane outside the bump support, which spans BUMP_WIDTH_FRAC of
    AREA_WINDOW, so only the support is integrated, in place of the plane's
    closed-form area there.  The support's cells are as wide as
    ``grid`` cells across the window, and even in number, so the bump's
    centre, where it is only C^2, is a cell edge.  Two refinement levels
    (``grid`` and ``2 * grid``) give the quadrature error estimate, plus
    the round-off eps*n*A of each level's sum of n non-negative terms (the
    finer level has four times the nodes).
    """
    if base_kind not in _PLANE_GRAPH:
        raise BadParams(f"area comparison supports plane-x/y/z, got {base_kind!r}")
    b1, b2 = (Bump(0.5 * (lo + hi), 0.0, BUMP_WIDTH_FRAC * 0.5 * (hi - lo))
              for lo, hi in AREA_WINDOW)
    support = (b1.support(), b2.support())
    cells = 2 * max(1, round(grid * BUMP_WIDTH_FRAC / 2))

    def h_comp(s1, s2):
        return (-c + eta * b1(s1) * b2(s2),
                eta * b1.deriv(s1) * b2(s2),
                eta * b1(s1) * b2.deriv(s2))

    eps = np.finfo(float).eps
    plane_area = _PLANE_AREA[base_kind]
    a_base = plane_area(*AREA_WINDOW)
    lo = _graph_area(base_kind, support, h_comp, cells)
    hi = _graph_area(base_kind, support, h_comp, 2 * cells)
    delta = hi - plane_area(*support)
    out = {
        "A_base": a_base,
        # exp, the difference, the product and the quotient round once each
        "A_base_error": 4.0 * eps * a_base,
        "A_comp": a_base + delta,
        "A_comp_error": abs(hi - lo) + eps * (GL_ORDER * cells) ** 2 * (lo + 4 * hi),
        "delta_area": delta,
    }
    out["error_estimate"] = out["A_base_error"] + out["A_comp_error"]
    out["eta"] = float(eta)
    if not all(math.isfinite(v) for v in out.values()):
        raise GeometryError(f"area comparison is not finite at eta = {eta:g}")
    return out
