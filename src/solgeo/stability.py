"""Second-variation machinery: the stability form Q(u), the sufficient
condition for non-singular surfaces, and quadrature-based area comparison.

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
normal to the curve inside the surface pointing away from it.  On a sweep
the characteristic direction Z is the unit ruling velocity pointing away
from the curve on either side, so <Z,nu> = 1 and the u^2 coefficient is
4 <N,T> <Z,Y>^2, read on the curve itself (this convention reproduces the
non-negative closed forms of the catalog surfaces).

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

from .errors import (BadParams, EvaluationError, GeometryError, Inadmissible, NotMinimal,
                     SingularPointFound)
from .expressions import ScalarField, catalog, catalog_params, neg
from .frame import SQRT2, Point, TangentFrame
# bench/spans.py rebinds solgeo.stability.frame_components, so it stays imported here
from .frame import frame_components  # noqa: F401
from .stationary import HorizontalCurve, RuledSurface, plane_ab_singular_line_z, sweep_surface
# bench/spans.py rebinds solgeo.stability.raw_fields, so it stays imported here
from .surface import EPS_SING, _ratio_fields, frame_algebra, raw_fields  # noqa: F401

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
    if patch.singular == "curve" and delta * 1.2 > 0.45 * t_half:
        raise BadParams(f"delta {delta:g} is too wide for the patch: 1.2*delta must "
                        f"not exceed {0.45 * t_half:g}, 0.45 of its half t-range")
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
    dF/dt)): the coordinates of F and its two tangents as coordinate
    triples, from one evaluation of the parametrization.  For surfaces
    with a singular curve the curve sits at t = 0 and the base
    parametrization has unit speed, so the length element along it is 1.

    ``geom`` evaluates the chart once per node set and returns |N_h|
    ("nh"), <N,T> ("nt"), Z = zx X + zy Y, <nabla_S nu_h, Z> and H, with
    the tangents' ``TangentFrame`` under "frame".  ``geometry(eps, t, z,
    frame)`` supplies that geometry in closed form: every sweep from its
    rulings (``patch_from_ruled``), every graph patch (the coordinate
    planes and saddle-point) from the closed-form partials of its height
    function (``_graph_geometry``).  ``field``, the defining scalar field
    of a catalog patch, is what ``sufficient_condition`` evaluates.

    Q(u) is tabulated as a bilinear form at the quadrature nodes on first
    use, once per (n_eps, n_t), and lives as long as the patch.

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
    chart: object                  # callable (eps, t) -> ((x, y, z), (dF/deps, dF/dt))
    geometry: object               # callable (eps, t, z, frame) -> dict
    singular: str = "none"         # 'none' | 'curve' | 'point'
    point_param: tuple | None = None
    eps_invariant: bool = False    # the geometry is a function of t alone
    _tables: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def geom(self, eps, t) -> dict:
        (_, _, Z), tangents = self.chart(eps, t)
        tf = TangentFrame(Z, *tangents)
        f = self.geometry(eps, t, Z, tf)
        f["frame"] = tf
        return f


_PLANE_GRAPH = {
    # (assemble F from graph height h(s1, s2), and its partials)
    "plane-x": lambda s1, s2, h, h1, h2: ((h, s1, s2), ((h1, 1.0, 0.0), (h2, 0.0, 1.0))),
    "plane-y": lambda s1, s2, h, h1, h2: ((s1, h, s2), ((1.0, h1, 0.0), (0.0, h2, 1.0))),
    "plane-z": lambda s1, s2, h, h1, h2: ((s1, s2, h), ((1.0, 0.0, h1), (0.0, 1.0, h2))),
}


_GRAPH_PARTIALS = {
    # (grad u, Hess u) of the defining function u = w - h of the graph
    # w = h(s1, s2) laid out by _PLANE_GRAPH, from the partials (h1, h2) and
    # (h11, h12, h22) of h; Hess u is (uxx, uxy, uxz, uyy, uyz, uzz)
    "plane-x": (lambda h1, h2: (1.0, -h1, -h2),
                lambda h11, h12, h22: (0.0, 0.0, 0.0, -h11, -h12, -h22)),
    "plane-y": (lambda h1, h2: (-h1, 1.0, -h2),
                lambda h11, h12, h22: (-h11, 0.0, -h12, 0.0, 0.0, -h22)),
    "plane-z": (lambda h1, h2: (-h1, -h2, 1.0),
                lambda h11, h12, h22: (-h11, -h12, 0.0, -h22, 0.0, 0.0)),
}


_PLANE_AREA = {
    # sub-Riemannian area of the level plane over [s1_lo, s1_hi] x [s2_lo, s2_hi],
    # for every c
    "plane-x": lambda s1, s2: (s1[1] - s1[0]) * (math.exp(s2[1]) - math.exp(s2[0])) / SQRT2,
    "plane-y": lambda s1, s2: (s1[1] - s1[0]) * (math.exp(-s2[0]) - math.exp(-s2[1])) / SQRT2,
    "plane-z": lambda s1, s2: (s1[1] - s1[0]) * (s2[1] - s2[0]),
}


def _level_graph(c: float):
    """Height function of the coordinate plane {coordinate = -c}: h and its
    partials h1, h2, h11, h12, h22, which are the constant 0."""
    def h(s1, s2):
        return np.full_like(s1, -c), 0.0, 0.0, 0.0, 0.0, 0.0
    return h


def _graph_chart(kind: str, h_fn):
    """Chart of the graph of ``h_fn`` over a coordinate plane, laid out by
    ``_PLANE_GRAPH``.

    ``h_fn`` sees the nodes as given and returns h, h1, h2 first, each in
    its natural shape: an (n, 1) column and a (1, m) row are evaluated on
    n + m points where h is separable, and a partial that is constant
    along an axis, or everywhere, stays that way.  The coordinates and
    tangents keep those shapes; whoever reads them broadcasts.
    """
    layout = _PLANE_GRAPH[kind]

    def chart(s1, s2):
        s1, s2 = np.asarray(s1, float), np.asarray(s2, float)
        return layout(s1, s2, *h_fn(s1, s2)[:3])
    return chart


def _graph_geometry(kind: str, h_fn):
    """Closed-form ``SurfacePatch.geometry`` of the graph of ``h_fn``.

    ``h_fn`` returns h, h1, h2, h11, h12, h22; ``_GRAPH_PARTIALS`` turns
    them into the gradient and Hessian of u = w - h, and
    ``surface.frame_algebra`` turns those into the frame fields, H
    included, so no expression tree is evaluated per node.  A non-finite
    e^z or partial (an overflowing height or parameter) raises
    EvaluationError at its first node.
    """
    to_grad, to_hess = _GRAPH_PARTIALS[kind]

    def geometry(eps, t, z, frame):
        _, h1, h2, h11, h12, h22 = h_fn(eps, t)
        ez, emz = np.exp(z), np.exp(-z)
        grad, hess = to_grad(h1, h2), to_hess(h11, h12, h22)
        parts = (ez, emz, *grad, *hess)
        if not all(np.isfinite(v).all() for v in parts):
            coords, _ = _graph_chart(kind, h_fn)(eps, t)
            shape = np.broadcast_shapes(*(np.shape(v) for v in (*parts, *coords)))
            bad = ~np.logical_and.reduce([np.isfinite(np.broadcast_to(v, shape)) for v in parts])
            i = np.unravel_index(np.argmax(bad), shape)
            raise EvaluationError("field evaluation is not finite",
                                  [np.broadcast_to(c, shape)[i] for c in coords])
        return frame_algebra(ez, emz, grad, hess)[0]
    return geometry


def _graph_patch(name, field, kind, h_fn, eps_range, t_range, **kw) -> SurfacePatch:
    """Patch over the graph of ``h_fn`` laid out as ``kind``, with its
    closed-form geometry and the catalog ``field``."""
    return SurfacePatch(name, field, eps_range, t_range, _graph_chart(kind, h_fn),
                        _graph_geometry(kind, h_fn), **kw)


def patch_for_catalog(name: str, params: dict | None = None) -> SurfacePatch:
    """Adapted quadrature patch for a catalog surface."""
    p = catalog_params(name, params)
    fld = catalog(name, **p)

    if name in ("plane-x", "plane-y", "plane-z"):
        # eps runs along a coordinate line of the plane: a left translation
        return _graph_patch(name, fld, name, _level_graph(p["c"]), (-3.0, 3.0), (-3.0, 3.0),
                            eps_invariant=True)

    if name == "plane-ab":
        a, b, c = p["a"], p["b"], p["c"]
        if a * b <= 0.0:
            raise BadParams(
                "adapted plane-ab patch needs a*b > 0 (otherwise the plane has "
                "no singular line; use plane-x or plane-y)")
        # base curve: the unit-speed singular line through the foot of the
        # perpendicular from the z-axis; rulings: vertical lines (-X)
        foot = (-c * a / (a * a + b * b), -c * b / (a * a + b * b))
        if not all(map(math.isfinite, foot)):
            raise BadParams(f"plane-ab with a = {a:g}, b = {b:g}, c = {c:g}: the foot of "
                            f"its singular line overflows")
        base = HorizontalCurve.y_line(Point(*foot, plane_ab_singular_line_z(a, b)))
        return patch_from_ruled(sweep_surface(base, (-3.0, 3.0), (-3.0, 3.0)), name, fld)

    if name == "saddle-curve":
        # base curve: the vertical line (x0, y0, eps); rulings: Y-lines
        base = HorizontalCurve.x_line(Point(p["x0"], p["y0"], 0.0))
        return patch_from_ruled(sweep_surface(base, (-2.0, 2.0), (-3.0, 3.0)), name, fld)

    if name == "saddle-point":
        x0, y0, z0 = p["x0"], p["y0"], p["z0"]

        # graph x = x0 - e^(z - z0) (y - y0) over (y, z); the singular point
        # sits at (y0, -z0)
        def h(y, z):
            ee = np.exp(z - z0)
            d = ee * (y - y0)
            return x0 - d, -ee, -d, 0.0, -ee, -d

        return _graph_patch(name, fld, "plane-x", h, (y0 - 3.0, y0 + 3.0),
                            (-z0 - 2.0, -z0 + 2.0), singular="point", point_param=(y0, -z0))

    raise BadParams(f"no adapted patch for catalog surface {name!r}")


def patch_from_ruled(surface, name: str = "ruled-sweep",
                     field: ScalarField | None = None) -> SurfacePatch:
    """Quadrature patch over a ruled sweep, geometry in closed form.

    Every sweep patch is built here; the catalog's ``plane-ab`` and
    ``saddle-curve`` pass their ``name`` and ``field``.  The chart is the
    sweep's jet, the base curve is the singular curve at t = 0, and the
    patch is invariant along eps (see ``SurfacePatch``).

    The base curve's unit frame velocity (a, b) is constant, so every
    ruling has the one constant frame velocity (ra, rb, 0) = J(a, b).  The
    characteristic direction Z = sigma (ra X + rb Y), with sigma =
    copysign(1, t) the side of the singular curve, and nu_h = -J(Z) are
    then constant frame fields on each side, and the constant connection
    (nabla_T X = Y/2, nabla_T Y = -X/2) gives H = -<nabla_Z nu_h, Z> = 0
    and, with S = <N,T> nu_h - |N_h| T, <nabla_S nu_h, Z> = -|N_h|/2.
    |N_h| and <N,T> come from the unit normal N along the metric cross
    product V x dF/dt of the tangents.  Its horizontal part is
    <V,T> J(dF/dt) = -sigma <V,T> nu_h, and <V,T> = -sinh(b t)/b has the
    sign of -t (see ``stationary``), so N_h points along nu_h on both
    sides.  The geometry reads z and the tangents, never x or y, so
    translation offsets do not reach it.
    """
    if not isinstance(surface, RuledSurface):
        raise BadParams("patch_from_ruled expects a ruled surface")
    if surface.skew:
        raise BadParams("skewed fixtures have no adapted stability patch")
    ra, rb = surface.ruling_frame_velocity()

    def geometry(eps, t, z, tf):
        sigma = np.copysign(1.0, t)
        nh, nt = tf.unit_normal()
        return {"nh": nh, "nt": nt, "zx": sigma * ra, "zy": sigma * rb,
                "grad_s_nu_z": -0.5 * nh, "H": 0.0}

    return SurfacePatch(name, field, surface.eps_range, surface.t_range, surface.chart,
                        geometry, "curve", eps_invariant=True)


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
    area element "dS", and the coordinates "alpha", "beta" of Z against the
    tangents.

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
    g = {"nh": f["nh"], "nt": f["nt"], "zx": f["zx"], "zy": f["zy"],
         "grad_s_nu_z": f["grad_s_nu_z"], "H": f["H"], "dS": dS, "alpha": alpha,
         "beta": beta}
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


#: the most nodes the finest level of Q(u), of the sufficient condition or
#: of the area comparison may hold: room for ``qform --n 64`` (1024^2
#: nodes) and ``area --n 100`` (1280^2), and a bound on the run time of
#: the row blocks, which keep memory flat however large the grid
MAX_NODES = 1 << 21


def _check_nodes(count: int, what: str) -> None:
    if count > MAX_NODES:
        raise BadParams(f"{what} needs {count} nodes at its finest level, over the "
                        f"limit of {MAX_NODES}; lower --n")


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
    the curve runs along the eps nodes with weights W_e, and ``curve``
    holds <N,T> <Z,Y>^2 there, per row.
    """

    e: np.ndarray
    t: np.ndarray
    ew: np.ndarray
    k_aa: np.ndarray
    k_ab: np.ndarray
    k_bb: np.ndarray
    k_pot: dict                    # potential weight -> K_pot
    zero_nh: tuple | None          # (i, j, alpha, beta, nh, w W_e) where |N_h| = 0
    curve: np.ndarray | None       # <N,T> <Z,Y>^2 on a singular curve, or None


#: nodes per block of eps-rows in a table built on the full node grid
BLOCK_NODES = 16384


def _level_table(patch: SurfacePatch, n_eps: int, n_t: int) -> _LevelTable:
    """The patch's table at one grid level, built on first use.

    On a patch invariant along eps one ``_geom_rows`` call evaluates the
    geometry, at the first and the last eps node only, the first row
    standing for every row.  On any other patch the geometry is evaluated
    in blocks of about BLOCK_NODES nodes, whole eps-rows each, and each
    block is written into the preallocated K arrays, so peak memory does
    not grow with the grid.  On a patch with a singular curve the t-nodes
    of each call end in a column at t = 0, the curve, so the row check
    covers its coefficient too.  A patch that fails the minimality gate
    stores nothing, so every call raises NotMinimal.
    """
    key = (n_eps, n_t)
    table = patch._tables.get(key)
    if table is not None:
        return table
    ne_nodes, ne_w = gl_line(*patch.eps_range, n_eps)
    nt_nodes, nt_w = gl_line(*patch.t_range, n_t)
    t = nt_nodes
    if patch.singular == "curve":
        t = np.append(nt_nodes, 0.0)
    m = nt_nodes.size
    weights = [_general_weight]
    if patch.name in _SIMPLIFIED:
        weights.append(_SIMPLIFIED[patch.name][0])
    rows = 1 if patch.eps_invariant else ne_nodes.size
    step = rows if patch.eps_invariant else max(1, BLOCK_NODES // t.size)
    k = np.empty((3 + len(weights), rows, m))
    curve = np.empty(rows) if patch.singular == "curve" else None
    h_max, zero_nh = [], []
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        e = ne_nodes if patch.eps_invariant else ne_nodes[r0:r1]
        g = _geom_rows(patch, e[:, None], t[None, :])
        g = {key: np.broadcast_to(v, (r1 - r0, t.size)) for key, v in g.items()}
        f = {key: v[:, :m] for key, v in g.items()}

        nh = f["nh"]
        nonsing = nh > 1e-3
        if nonsing.any():
            h_max.append(np.max(np.abs(f["H"][nonsing])))
        alpha, beta = f["alpha"], f["beta"]
        w = f["dS"] * nt_w
        zero = nh == 0.0
        w_nh = np.where(zero, 0.0, w / nh)
        a_w = alpha * w_nh
        block = k[:, r0:r1]
        np.multiply(alpha, a_w, out=block[0])
        np.multiply(2.0 * beta, a_w, out=block[1])
        np.multiply(beta * beta, w_nh, out=block[2])
        for i, fn in enumerate(weights):
            np.multiply(fn(f), w, out=block[3 + i])
        if zero.any():
            # a row of a patch invariant along eps stands for every eps node
            grid = (e.size, m)
            i, j = np.nonzero(np.broadcast_to(zero, grid))
            at = [np.broadcast_to(a, grid)[i, j] for a in (alpha, beta, nh, w)]
            zero_nh.append((i + r0, j, *at[:3], at[3] * ne_w[i + r0]))
        if curve is not None:
            curve[r0:r1] = g["nt"][:, m] * g["zy"][:, m] ** 2
    h_max = float(np.max(h_max)) if h_max else 0.0
    if h_max > MINIMALITY_TOL:
        raise NotMinimal(f"patch is not minimal: max |H| = {h_max:.3e}")
    if zero_nh:
        zero_nh = tuple(np.concatenate(parts) for parts in zip(*zero_nh))
    table = _LevelTable(ne_nodes, nt_nodes, ne_w, k[0], k[1], k[2],
                        {fn: k[3 + i] for i, fn in enumerate(weights)}, zero_nh or None,
                        curve)
    patch._tables[key] = table
    return table


@_quiet
def _q_form_level(patch: SurfacePatch, u: TestFunction, n_eps: int, n_t: int,
                  weight_fn, boundary_const: float | None = None):
    """Surface and singular-curve parts of Q(u) at one grid level, and
    their report extras.

    The u^2 coefficient of the singular-curve integral is 4 <N,T> <Z,Y>^2
    from the patch geometry on the curve (<Z,nu> = 1 there, see the module
    docstring), or ``boundary_const`` when a closed form supplies it.
    """
    lv = _level_table(patch, n_eps, n_t)
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
    extras = {}
    if lv.curve is not None:
        psi0 = u.psi(np.zeros(1))
        u0 = phi * psi0
        du0 = dphi * psi0
        b_s = float(np.sum(du0 * du0 * lv.ew))
        coeff = boundary_const
        if coeff is None:
            coeff = 4.0 * lv.curve
            extras = {"boundary_product": float(np.mean(lv.curve))}
        b_tau = float(np.sum(coeff * u0 * u0 * lv.ew))
    return surface, b_tau, b_s, extras


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
    <nabla_S nu_h, Z> entry of the potential comes from the closed-form
    second partials of the graph's height; on every sweep patch, ``plane-ab``
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
    _check_nodes((2 * GL_ORDER) ** 2 * grid[0] * grid[1], "Q(u)")
    if delta is None:
        delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
    _check_admissible(patch, u, delta)
    lo = _q_form_level(patch, u, grid[0], grid[1], weight_fn, boundary_const)
    hi = _q_form_level(patch, u, 2 * grid[0], 2 * grid[1], weight_fn, boundary_const)
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
# Sufficient condition
# ---------------------------------------------------------------------------

def flipped(field: ScalarField) -> ScalarField:
    """The same zero set with the opposite orientation of the normal."""
    return ScalarField.from_expr(neg(field.expr), f"-({field.source})")


@_quiet
def sufficient_condition(patch: SurfacePatch, grid=(64, 64), flip: bool = False) -> dict:
    """Stability test for surfaces with empty singular set.

    The hypothesis is <N, T> <= 0 everywhere (with the inner-normal
    orientation of ``patch.field``; ``flip`` probes the reversed one).  The
    report carries the sup of <N, T> over the grid plus two diagnostics:
    the quantity 2 Z(<N,T>/|N_h|) + (<N,T>/|N_h|)^2 and the
    cosh-coefficient combination a + b of the vertical Jacobi profile
    a cosh(mu s) + b sinh(mu s) + c along the characteristic curve, the
    solution of f''' = mu^2 f' with mu = |<Z,X>| (non-positive exactly
    when the profile never crosses zero forward in s), left out when no
    node has |<Z,X>| > 1e-9.  The met flag gates on the
    hypothesis; the diagnostics are reported, not gated on.  The grid is
    evaluated in blocks of whole eps-rows, about BLOCK_NODES nodes each,
    and the blocks are reduced by numpy, so a NaN still reaches the sup.
    A patch that declares a singular set, or has a singular point on the
    grid, raises SingularPointFound (a grid can miss a singular curve or
    point); a non-finite sup <N, T> raises GeometryError.
    """
    if patch.singular != "none":
        raise SingularPointFound(
            f"the sufficient condition needs an empty singular set; patch "
            f"{patch.name!r} has a singular {patch.singular}")
    _check_nodes(grid[0] * grid[1], "the sufficient condition")
    fld = flipped(patch.field) if flip else patch.field
    es = np.linspace(*patch.eps_range, grid[0])
    ts = np.linspace(*patch.t_range, grid[1])
    step = max(1, BLOCK_NODES // ts.size)
    singular, degenerate_ok = False, True
    sup_nt, sup_quantity, sup_a_plus_b, degenerate = [], [], [], 0
    for r0 in range(0, es.size, step):
        E, T = np.meshgrid(es[r0:r0 + step], ts, indexing="ij")
        (X, Y, Z), _ = patch.chart(E, T)
        f, _ = _ratio_fields(fld, X, Y, Z)
        singular = singular or bool(np.any(f["nh"] < EPS_SING))
        sup_nt.append(np.max(f["nt"]))
        sup_quantity.append(np.max(2.0 * f["Zq"] + f["q"] ** 2))
        zx = np.abs(f["zx"])
        mask = zx > 1e-9
        degenerate += int(np.count_nonzero(~mask))
        degenerate_ok = degenerate_ok and bool(
            np.all(np.abs(f["nt"][~mask]) <= SUFFICIENT_TOL))
        if mask.any():
            sup_a_plus_b.append(np.max(
                -f["nh"][mask] * (f["Zq"][mask] + f["q"][mask] ** 2) / (f["zx"][mask] ** 2)
                - f["nt"][mask] / zx[mask]))
    if singular:
        raise SingularPointFound("patch contains singular points")
    sup_nt = float(np.max(sup_nt))
    if not math.isfinite(sup_nt):
        raise GeometryError(f"sup <N,T> is not finite: {sup_nt}")
    out = {
        "sup_NT": sup_nt,
        "sup_quantity": float(np.max(sup_quantity)),
        "zx_degenerate_fraction": degenerate / (es.size * ts.size),
        "zx_degenerate_vertical_ok": degenerate_ok,
        "condition_met": bool(sup_nt <= SUFFICIENT_TOL),
        "flip": bool(flip),
    }
    if sup_a_plus_b:
        out["sup_a_plus_b"] = float(np.max(sup_a_plus_b))
    return out


# ---------------------------------------------------------------------------
# Area comparison (calibration-style)
# ---------------------------------------------------------------------------

def _graph_area(kind: str, window, h_fn, cells: int) -> float:
    """Sub-Riemannian area of a graph over the window.

    The metric cross product of the chart's tangents is, up to sign, the
    frame gradient of the defining function u = w - h (the volume form is
    dx dy dz), so the integrand |N_h| dSigma is |grad_h u| = sqrt(X(u)^2 +
    Y(u)^2), with the partials of u from h1 and h2 (``_GRAPH_PARTIALS``).
    It is evaluated and weighted in blocks of whole rows of about
    BLOCK_NODES nodes, and the block sums are added in row order.
    """
    n1, w1 = gl_line(*window[0], cells)
    n2, w2 = gl_line(*window[1], cells)
    layout, (to_grad, _) = _PLANE_GRAPH[kind], _GRAPH_PARTIALS[kind]
    s2 = n2[None, :]
    step = max(1, BLOCK_NODES // n2.size)
    total = 0.0
    for r0 in range(0, n1.size, step):
        s1 = n1[r0:r0 + step, None]
        h, h1, h2 = h_fn(s1, s2)[:3]
        (_, _, z), _ = layout(s1, s2, h, h1, h2)
        ux, uy, uz = to_grad(h1, h2)
        yu = (-np.exp(z) * ux + np.exp(-z) * uy) / SQRT2
        horiz = np.sqrt(uz * uz + yu * yu)
        total += float(np.sum(horiz * (w1[r0:r0 + step, None] * w2)))
    return total


@_quiet
def area_compare(base_kind: str, eta: float, grid: int = 100, **params) -> dict:
    """Areas of a coordinate plane and a compactly supported graph bump over it.

    The plane is the catalog surface ``base_kind`` with ``params``.
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
    c = catalog_params(base_kind, params)["c"]
    b1, b2 = (Bump(0.5 * (lo + hi), 0.0, BUMP_WIDTH_FRAC * 0.5 * (hi - lo))
              for lo, hi in AREA_WINDOW)
    support = (b1.support(), b2.support())
    cells = 2 * max(1, round(grid * BUMP_WIDTH_FRAC / 2))
    _check_nodes((2 * GL_ORDER * cells) ** 2, "the area comparison")

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
