import dataclasses
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from solgeo.frame import CoordVector, Point, SQRT2, TangentFrame, frame_components
from solgeo.stationary import EPS_SCAN, RuledSurface, sweep_surface
from solgeo.surface import raw_fields

#: central-difference step in eps of the <V, T> oracle
VT_FD_STEP = 1e-6


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def horizontal_velocity(p: Point, theta: float) -> CoordVector:
    """Unit horizontal vector cos(theta) X + sin(theta) Y at p, in coordinates."""
    return CoordVector(
        -math.sin(theta) * math.exp(p.z) / SQRT2,
        math.sin(theta) * math.exp(-p.z) / SQRT2,
        math.cos(theta),
    )


def random_point(rng, scale=1.5) -> Point:
    x, y, z = rng.uniform(-scale, scale, 3)
    return Point(float(x), float(y), float(z))


def as_array(v) -> np.ndarray:
    """The components of a ``Point`` or a ``CoordVector``."""
    return np.array(dataclasses.astuple(v), dtype=float)


def vertical_component_fd(surface, eps, t):
    """<V, T> of a ruled sweep from Richardson-extrapolated central
    differences of F in eps, contracted with the frame: an oracle for the
    analytic and the closed-form vertical components."""
    def diff(step):
        xp = np.stack(surface.point(eps + step, t))
        xm = np.stack(surface.point(eps - step, t))
        return (xp - xm) / (2.0 * step)
    v = (4.0 * diff(VT_FD_STEP / 2.0) - diff(VT_FD_STEP)) / 3.0
    _, _, z = surface.point(eps, t)
    return frame_components(z, v[0], v[1], v[2])[2]


def tangent_solve(t1, t2, v):
    """The tangent route: (dS, alpha, beta) from the frame components of two
    tangents t1, t2 and a vector v, component by component.  dS is the
    square root of the Gram determinant of the tangents, and alpha t1 +
    beta t2 is the tangential part of v, by the 2x2 first-fundamental-form
    solve: the reference for the closed-form area element and coordinates
    of Z of every patch."""
    def dot(u, w):
        return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]

    g11, g12, g22 = dot(t1, t1), dot(t1, t2), dot(t2, t2)
    det = g11 * g22 - g12 * g12
    b1, b2 = dot(v, t1), dot(v, t2)
    return np.sqrt(det), (g22 * b1 - g12 * b2) / det, (-g12 * b1 + g11 * b2) / det


def chart_frame(chart, eps, t) -> TangentFrame:
    """The tangents of ``chart`` at (eps, t) in frame components."""
    (_, _, z), tangents = chart(eps, t)
    return TangentFrame(z, *tangents)


def tangent_geometry(chart, pointwise):
    """A ``SurfacePatch.geometry`` on ``chart``: ``pointwise(x, y, z)`` at
    the chart's coordinates gives |N_h|, <N,T>, Z, <nabla_S nu_h, Z> and H,
    and the tangent route against the chart's tangents gives the area
    element and Z's coordinates (dS, alpha, beta)."""
    def geometry(eps, t):
        (x, y, z), tangents = chart(eps, t)
        f = pointwise(x, y, z)
        tf = TangentFrame(z, *tangents)
        f["dS"], f["alpha"], f["beta"] = tangent_solve(tf.t1, tf.t2, (f["zx"], f["zy"], 0.0))
        return f
    return geometry


def tau_contraction(curve) -> float:
    """<tau(gammadot), gammadot> = -a*b of a characteristic curve, constant
    along it: the torsion oracle of the non-geodesic witness."""
    a, b = curve.frame_velocity()
    return -a * b


@dataclasses.dataclass(frozen=True)
class SkewedSweep(RuledSurface):
    """A sweep whose rulings blend the base velocity (a, b) into J(a, b) by
    ``skew``: they leave the base curve at another angle, so the surface is
    not area-stationary.  The negative control of the orthogonality and
    sweep-derivative checks; the jet reads ``ruling_frame_velocity``."""

    skew: float = 0.5

    def ruling_frame_velocity(self):
        a, b = self.gamma.curve.frame_velocity()
        n = math.hypot(1.0, self.skew)
        return (-b + self.skew * a) / n, (a + self.skew * b) / n


def skewed_sweep(gamma, eps_range, t_range, skew, grid=(64, 64)) -> SkewedSweep:
    """``sweep_surface`` with its rulings skewed by ``skew``."""
    s = sweep_surface(gamma, eps_range, t_range, grid)
    return SkewedSweep(s.gamma, s.eps_range, s.t_range, s.n_eps, s.n_t, skew)


def singular_loci_by_rows(tg, vt) -> list:
    """``stationary.singular_loci`` as a loop over the eps-rows, each row's
    hits and interpolated sign changes collected in turn: the reference for
    the whole-grid scan."""
    dt = tg[1] - tg[0]
    candidates = []
    for line in np.asarray(vt, dtype=float):
        scale = EPS_SCAN * (1.0 + np.max(np.abs(line)))
        candidates.extend(tg[np.abs(line) < scale])
        for j in np.nonzero(line[:-1] * line[1:] < 0.0)[0]:
            t0, t1 = tg[j], tg[j + 1]
            f0, f1 = line[j], line[j + 1]
            candidates.append(t0 - f0 * (t1 - t0) / (f1 - f0))
    if not candidates:
        return []
    ts = np.sort(np.asarray(candidates))
    bounds = np.concatenate([[0], np.nonzero(np.diff(ts) > 1.5 * dt)[0] + 1, [len(ts)]])
    return [{"t_center": float(np.median(chunk)), "t_min": float(chunk[0]),
             "t_max": float(chunk[-1]), "samples": int(len(chunk))}
            for chunk in (ts[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))
            if len(chunk)]


#: the --u forms of the residual benchmark, and a constant field
RESIDUAL_U_FORMS = ("(0.8)*x + (-1.2)*y + (0.3)", "(0.5)*x^2 + y + (0.2)",
                    "exp(z + (0.1))*(y + (-0.3)) + x + (0.2)", "z + (0.5)*x*x + (-0.3)",
                    "(0.5)*z + (0.7)*x + (1.4)*y + (0.8)", "3")


def _spaced(*parts):
    """The parts drawn in turn, each followed by a space or by nothing."""
    return st.tuples(*(p for part in parts for p in (part, st.sampled_from(["", " "])))).map(
        "".join)


#: --u sources over the expression language's token alphabet: digits, the
#: point, e, the names, the operators, parentheses and spaces.  Half are
#: token soup; half follow the grammar, with spaces between tokens, so a
#: fault past the first token of a well-formed prefix is reached too
U_SOURCES = st.one_of(
    st.lists(st.sampled_from([*"0123456789.exyz", "exp", *"+-*/^()", " "]),
             max_size=24).map("".join),
    st.recursive(
        st.sampled_from(["x", "y", "z", "0", "2.5", ".5", "1e-3", "7e5"]),
        lambda inner: st.one_of(
            _spaced(inner, st.sampled_from("+-*/"), inner),
            _spaced(inner, st.just("^"), st.sampled_from(["", "-"]), st.sampled_from("0123")),
            _spaced(st.sampled_from(["exp", "", "-"]), st.just("("), inner, st.just(")"))),
        max_leaves=6))


def grid_axes(window, n):
    """The x, y and z axes of an n^3 window grid, shaped (n,1,1), (1,n,1)
    and (1,1,n), as ``cmd_residual`` builds them."""
    x0, x1, y0, y1, z0, z1 = window
    return np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n), np.linspace(z0, z1, n),
                       indexing="ij", sparse=True)


def dense_residual_route(field, window, n):
    """The residual table built densely: X, Y and Z filled to all n^3
    nodes, ``raw_fields`` on them, and the seven CSV columns as one (n^3, 7)
    table.  The reference for the route that keeps the grid in its axes."""
    columns = np.empty((7, n, n, n))
    X, Y, Z = columns[:3]
    X[...], Y[...], Z[...] = grid_axes(window, n)
    with np.errstate(over="ignore", invalid="ignore"):
        f = raw_fields(field, X, Y, Z)
    for C, key in zip(columns[3:], ("nh", "H", "residual_coord", "nt")):
        C[...] = f[key]
    return f, columns.reshape(7, -1).T


def reference_csv(header, rows):
    """The CSV bytes of ``header`` and ``rows`` formatted cell by cell, each
    cell ``%.17g``: the reference for the block writer."""
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()
