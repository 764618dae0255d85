import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solgeo.stability as stability
from solgeo.errors import (
    BadParams,
    GeometryError,
    Inadmissible,
    NotMinimal,
    SingularPointFound,
)
from solgeo.expressions import catalog, parse
from solgeo.frame import Point, TangentFrame
from solgeo.stability import (
    Bump,
    QuadratureReport,
    SurfacePatch,
    TestFunction,
    area_compare,
    battery_test_functions,
    compare_q_forms,
    flipped,
    gl_line,
    jacobi_profile,
    patch_for_catalog,
    patch_from_ruled,
    q_form,
    q_form_simplified,
    sufficient_condition,
)


# -- bumps -------------------------------------------------------------------

def test_bump_shape():
    b = Bump(0.0, 0.5, 1.5)
    assert b(0.0) == 1.0
    assert b(0.4) == 1.0
    assert b(1.5) == 0.0
    assert b(2.0) == 0.0
    assert 0.0 < b(1.0) < 1.0
    assert b.deriv(0.2) == 0.0
    assert b.deriv(1.6) == 0.0


def test_bump_c1_continuity():
    b = Bump(0.3, 0.4, 1.1)
    rs = np.linspace(-1.5, 2.1, 2000)
    h = 1e-6
    fd = (b(rs + h) - b(rs - h)) / (2 * h)
    assert np.max(np.abs(fd - b.deriv(rs))) < 1e-4


@given(st.floats(-1, 1), st.floats(0.05, 0.4), st.floats(0.5, 1.0))
@settings(max_examples=30, deadline=None)
def test_bump_bounds(center, plateau, width):
    b = Bump(center, plateau, width)
    rs = np.linspace(center - 2, center + 2, 301)
    vals = b(rs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    lo, hi = b.support()
    assert np.all(vals[(rs < lo) | (rs > hi)] == 0.0)


def _masked_bump(b, r):
    """Bump value and derivative by masks over the three pieces, the form
    the clipped edge coordinate replaced; a zero derivative is +0.0."""
    a = np.abs(r - b.center)
    val, der = np.zeros_like(a), np.zeros_like(a)
    val[a <= b.plateau] = 1.0
    mid = (a > b.plateau) & (a < b.width)
    s = (a[mid] - b.plateau) / (b.width - b.plateau)
    val[mid] = np.clip(stability._smooth_edge(s), 0.0, 1.0)
    der[mid] = (stability._smooth_edge_deriv(s) / (b.width - b.plateau)
                * np.sign(r[mid] - b.center))
    return val, der + 0.0


@pytest.mark.parametrize("center,plateau,width", [
    (0.0, 0.5, 1.5), (0.3, 0.4, 1.1), (-1.7, 0.0, 0.35), (2.25, 0.1, 0.1000001),
    (-0.61, 0.3333, 0.9)])
def test_bump_is_the_masked_bump_bit_for_bit(center, plateau, width):
    b = Bump(center, plateau, width)
    edges = [center + k * x for k in (-1.0, 1.0) for x in (plateau, width)] + [center]
    near = [np.nextafter(x, d) for x in edges for d in (-np.inf, np.inf)]
    r = np.concatenate([np.linspace(center - 1.5 * width, center + 1.5 * width, 4001),
                        edges, near])
    val, der = _masked_bump(b, r)
    assert b(r).tobytes() == val.tobytes()
    assert b.deriv(r).tobytes() == der.tobytes()


def test_bump_validation():
    with pytest.raises(BadParams):
        Bump(0.0, 1.0, 0.5)


# -- quadrature helpers -------------------------------------------------------

def test_gl_line_integrates_polynomials():
    nodes, weights = gl_line(-1.0, 2.0, 4)
    # degree-7 polynomial integrated exactly by 8-point Gauss-Legendre
    vals = nodes ** 7 - 3 * nodes ** 4 + nodes
    exact = (2.0 ** 8 - 1.0) / 8 - 3 * (2.0 ** 5 + 1.0) / 5 + (2.0 ** 2 - 1.0) / 2
    assert np.sum(vals * weights) == pytest.approx(exact, rel=1e-13)
    # the cached reference nodes are shared, so they are read-only
    xs, ws = stability.leggauss(stability.GL_ORDER)
    assert not xs.flags.writeable and not ws.flags.writeable
    assert nodes.flags.writeable


# -- q_form -------------------------------------------------------------------

def test_q_form_zero_function():
    patch = patch_for_catalog("plane-x", {})
    u = TestFunction(Bump(0.0, 0.1, 0.5), Bump(0.0, 0.1, 0.5))
    rep = q_form(patch, u, grid=(8, 8))
    assert isinstance(rep, QuadratureReport)

    # an identically zero variation gives exactly zero; Q(u) reads u only
    # through its factors
    class ZeroFn(TestFunction):
        def factors(self, eps, t):
            e0 = np.zeros_like(np.asarray(eps, dtype=float))
            t0 = np.zeros_like(np.asarray(t, dtype=float))
            return e0, e0, t0, t0

    z = ZeroFn(Bump(0.0, 0.1, 0.5), Bump(0.0, 0.1, 0.5))
    rep0 = q_form(patch, z, grid=(8, 8))
    assert rep0.total == 0.0


def test_q_form_plane_x_matches_hand_integrand():
    # on the plane x = -c the weight is |N_h| <N,T>^2 = (1/sqrt2)(1/2)
    patch = patch_for_catalog("plane-x", {})
    u = TestFunction(Bump(0.0, 0.2, 1.0), Bump(0.0, 0.2, 1.0))
    rep = q_form(patch, u, grid=(16, 16))
    ne, we = gl_line(*patch.eps_range, 32)
    nt, wt = gl_line(*patch.t_range, 32)
    E, T = np.meshgrid(ne, nt, indexing="ij")
    W = np.outer(we, wt)
    z = T  # on this patch z = t
    dS = np.exp(z)
    uu = u.phi(E) * u.psi(T)
    # Z = -X is the -t direction with unit speed; Z(u) = -u_t
    zu = -u.phi(E) * u.psi.deriv(T)
    nh = 1.0 / math.sqrt(2.0)
    integrand = zu ** 2 / nh + nh * 0.5 * uu ** 2
    ref = float(np.sum(integrand * dS * W))
    assert rep.total == pytest.approx(ref, rel=1e-8)
    assert rep.boundary_integral_tau == 0.0
    assert rep.boundary_integral_S == 0.0


def test_q_form_battery_nonnegative_all_catalog():
    cases = [("plane-x", {}), ("plane-y", {}), ("plane-z", {}),
             ("plane-ab", {"a": 1.0, "b": 1.0, "c": 0.0}),
             ("saddle-curve", {}), ("saddle-point", {})]
    for name, params in cases:
        patch = patch_for_catalog(name, params)
        delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
        for u in battery_test_functions(patch, 8, 11, delta):
            rep = q_form(patch, u, grid=(10, 10), delta=delta)
            assert rep.total >= -rep.error_estimate, (name, rep.total, rep.error_estimate)


def test_q_form_admissibility_enforced():
    patch = patch_for_catalog("saddle-curve", {})
    # psi without a plateau over the tubular band
    bad = TestFunction(Bump(0.0, 0.2, 1.0), Bump(0.0, 0.05, 1.0))
    with pytest.raises(Inadmissible):
        q_form(patch, bad, grid=(8, 8), delta=0.5)
    # support touching the boundary
    wide = TestFunction(Bump(0.0, 0.2, 10.0), Bump(0.0, 0.6, 1.0))
    with pytest.raises(Inadmissible):
        q_form(patch, wide, grid=(8, 8), delta=0.5)


# -- catalog curve patches: sweeps against their hand-written closed forms -----

def _plane_ab_closed(a, b, c):
    """(px + yx eps, py + yy eps, zs - t): the singular line swept by -X."""
    zs = 0.5 * math.log(b / a)
    px, py = -c * a / (a * a + b * b), -c * b / (a * a + b * b)
    yx, yy = -math.exp(zs) / math.sqrt(2.0), math.exp(-zs) / math.sqrt(2.0)

    def closed(e, t):
        zero, one = np.zeros_like(e), np.ones_like(e)
        return ((px + yx * e, py + yy * e, zs - t),
                ((yx * one, yy * one, zero), (zero, zero, -one)))
    return closed


def _saddle_curve_closed(x0, y0):
    """(x0 - e^eps t/sqrt2, y0 + e^-eps t/sqrt2, eps): the axis swept by Y."""
    def closed(e, t):
        ee, r2 = np.exp(e), math.sqrt(2.0)
        return ((x0 - ee * t / r2, y0 + t / (ee * r2), e),
                ((-ee * t / r2, -t / (ee * r2), np.ones_like(e)),
                 (-ee / r2, 1.0 / (ee * r2), np.zeros_like(e))))
    return closed


@pytest.mark.parametrize("name,params,closed", [
    ("plane-ab", {"a": 1.0, "b": 1.0, "c": 0.0}, _plane_ab_closed(1.0, 1.0, 0.0)),
    ("plane-ab", {"a": 2.0, "b": 0.5, "c": 0.3}, _plane_ab_closed(2.0, 0.5, 0.3)),
    ("saddle-curve", {}, _saddle_curve_closed(0.0, 0.0)),
    ("saddle-curve", {"x0": 0.3, "y0": -0.2, "z0": 0.4}, _saddle_curve_closed(0.3, -0.2)),
])
def test_catalog_curve_patch_is_its_closed_form(name, params, closed):
    patch = patch_for_catalog(name, params)
    E, T = np.meshgrid(np.linspace(*patch.eps_range, 17), np.linspace(*patch.t_range, 19),
                       indexing="ij")
    want_points, want_tangents = closed(E, T)

    def rel(got, want):
        got, want = np.broadcast_arrays(*got), np.broadcast_arrays(*want)
        return max(np.max(np.abs(g - w) / (1.0 + np.abs(w))) for g, w in zip(got, want))

    got_points, (got_e, got_t), _ = patch.chart(E, T)
    assert rel(got_points, want_points) < 1e-14
    assert rel(got_e, want_tangents[0]) < 1e-14
    assert rel(got_t, want_tangents[1]) < 1e-14
    # the patch keeps the catalog field, so it lies on the field's zero set
    assert np.max(np.abs(patch.field.values(*got_points))) < 1e-12


def test_q_form_vs_simplified_plane_ab():
    params = {"a": 1.0, "b": 1.0, "c": 0.0}
    patch = patch_for_catalog("plane-ab", params)
    u = battery_test_functions(patch, 1, 5, 0.6)[0]
    general = q_form(patch, u, grid=(14, 14), delta=0.6)
    simple = q_form_simplified(patch, u, grid=(14, 14), delta=0.6)
    comp = compare_q_forms(general, simple)
    assert comp["agree"]
    # the closed form here is literally the same integrand
    assert comp["difference"] < 1e-10


def test_q_form_vs_simplified_saddle_curve_mismatch_named():
    patch = patch_for_catalog("saddle-curve", {})
    u = battery_test_functions(patch, 1, 5, 0.6)[0]
    general = q_form(patch, u, grid=(14, 14), delta=0.6)
    simple = q_form_simplified(patch, u, grid=(14, 14), delta=0.6)
    comp = compare_q_forms(general, simple)
    # the printed closed form carries |N_h|^2 u^2 where the general weight
    # evaluates to |N_h| u^2; the comparison must name the term either way
    assert comp["agree"] or comp["mismatch_term"] == "surface_u2_weight"
    assert not comp["agree"]
    # boundary terms agree exactly: the singular-line integrand limit is 4 u^2
    assert comp["part_differences"]["boundary_tau"] < 1e-10
    assert comp["part_differences"]["boundary_S"] < 1e-12


def test_q_form_ruled_route_matches_field_route():
    # the catalog sweeps take their geometry from the sweep's jet; the
    # field route, the catalog field's gradient and Hessian on the same
    # chart, is the reference it must reproduce to rounding
    from solgeo.stationary import HorizontalCurve, sweep_surface

    sweep = sweep_surface(HorizontalCurve.x_line(Point(0, 0, 0)), (-2.0, 2.0), (-3.0, 3.0))
    E, T = np.meshgrid(np.linspace(-1.8, 1.8, 6), np.linspace(0.2, 2.8, 6), indexing="ij")
    for name, params in (("saddle-curve", {}), ("plane-ab", {"a": 2.0, "b": 0.5, "c": 0.3})):
        jet = patch_for_catalog(name, params)
        assert jet.geometry is not None
        field = SurfacePatch(name, jet.field, jet.eps_range, jet.t_range, jet.chart, "curve",
                             geometry=None)
        gj, gf = jet.geom(E, T), field.geom(E, T)
        assert np.max(np.abs(gj["nh"] - gf["nh"])) < 1e-12, name
        assert np.max(np.abs(gj["grad_s_nu_z"] - gf["grad_s_nu_z"])) < 1e-12, name
        for u in battery_test_functions(field, 3, 21, 0.6):
            want = q_form(field, u, grid=(10, 10), delta=0.6).total
            assert q_form(jet, u, grid=(10, 10), delta=0.6).total == pytest.approx(want, abs=1e-12)
            if name == "saddle-curve":  # the vertical-axis sweep itself
                assert q_form(sweep, u, grid=(10, 10), delta=0.6).total == pytest.approx(
                    want, abs=1e-12)


#: congruent catalog sweeps.  The saddle-curve surface around the vertical
#: line (x0, y0) is a left translation of the one around the z-axis, and
#: its zero set does not depend on z0; every plane a x + b y + c = 0 with
#: a b > 0 is the image of x + y = 0 under a left translation, (a, b, c)
#: being defined up to a common factor.  Each patch's chart is the
#: translate of the first one's, over the same parameter ranges.
CONGRUENT = {
    "saddle-curve": [{"x0": 0.0, "y0": 0.0, "z0": 0.0}, {"x0": 1e6, "y0": -1e8, "z0": 0.0},
                     {"x0": 0.4, "y0": -0.3, "z0": 710.0},
                     {"x0": -1e12, "y0": 0.0, "z0": -20.0}],
    "plane-ab": [{"a": 1.0, "b": 1.0, "c": 0.0}, {"a": 2.0, "b": 0.5, "c": 0.3},
                 {"a": -0.5, "b": -2.0, "c": -0.2}, {"a": 1e-3, "b": 5e2, "c": 1e6}],
}


@pytest.mark.parametrize("name", list(CONGRUENT))
def test_q_form_is_invariant_under_left_translations(name):
    first, *rest = (patch_for_catalog(name, params) for params in CONGRUENT[name])
    delta = 0.1 * (first.t_range[1] - first.t_range[0])
    funcs = battery_test_functions(first, 3, 7, delta)
    want = [q_form(first, u, grid=(16, 16), delta=delta).total for u in funcs]
    for params, patch in zip(CONGRUENT[name][1:], rest):
        assert (patch.eps_range, patch.t_range) == (first.eps_range, first.t_range)
        for u, w in zip(funcs, want):
            got = q_form(patch, u, grid=(16, 16), delta=delta).total
            assert abs(got - w) <= 1e-12 * (1.0 + abs(w)), (params, got, w)


def test_q_form_exploratory_on_nongeodesic_sweep():
    import math

    from solgeo.frame import CoordVector, SQRT2
    from solgeo.stationary import HorizontalCurve, sweep_surface
    from solgeo.stability import patch_from_ruled

    th, z0 = 0.7, 0.3
    v0 = CoordVector(-math.exp(z0) * math.sin(th) / SQRT2,
                     math.exp(-z0) * math.sin(th) / SQRT2, math.cos(th))
    gamma = HorizontalCurve.from_initial_data(Point(0.2, -0.1, z0), v0)
    sweep = sweep_surface(gamma, (-1.2, 1.2), (-3.0, 3.0))
    patch = patch_from_ruled(sweep)
    for u in battery_test_functions(patch, 3, 3, 0.6):
        rep = q_form(sweep, u, grid=(8, 8), delta=0.6)
        assert np.isfinite(rep.total)
        assert rep.error_estimate < 0.1


def test_q_form_boundary_sides_agree():
    patch = patch_for_catalog("saddle-curve", {})
    u = battery_test_functions(patch, 1, 2, 0.6)[0]
    rep = q_form(patch, u, grid=(10, 10), delta=0.6)
    assert rep.extras["boundary_product_plus"] == pytest.approx(
        rep.extras["boundary_product_minus"], abs=1e-10)
    assert rep.extras["boundary_product_plus"] == pytest.approx(1.0, abs=1e-9)


# -- geometry table ------------------------------------------------------------

ADAPTED = (("plane-x", {}), ("plane-y", {}), ("plane-z", {}),
           ("plane-ab", {"a": 1.0, "b": 1.0, "c": 0.0}), ("saddle-curve", {}),
           ("saddle-point", {}))


def _ruled_patch():
    from solgeo.stationary import HorizontalCurve, sweep_surface

    base = HorizontalCurve.x_line(Point(0.1, -0.2, 0.3))
    return patch_from_ruled(sweep_surface(base, (-1.2, 1.2), (-3.0, 3.0)))


def _count_geometry(monkeypatch):
    """Count ``_patch_frame_data`` and ``SurfacePatch.geom`` calls, and the
    nodes of each ``geom`` call."""
    counts = {"frame_data": 0, "geom": 0, "nodes": []}
    frame_data = stability._patch_frame_data
    geom = SurfacePatch.geom

    def counting_frame_data(*args):
        counts["frame_data"] += 1
        return frame_data(*args)

    def counting_geom(patch, eps, t):
        counts["geom"] += 1
        counts["nodes"].append(int(np.prod(np.broadcast_shapes(np.shape(eps), np.shape(t)))))
        return geom(patch, eps, t)

    monkeypatch.setattr(stability, "_patch_frame_data", counting_frame_data)
    monkeypatch.setattr(SurfacePatch, "geom", counting_geom)
    return counts


@pytest.mark.parametrize(
    "make",
    [lambda name=name, params=params: patch_for_catalog(name, params)
     for name, params in ADAPTED] + [_ruled_patch],
    ids=[name for name, _ in ADAPTED] + ["ruled-sweep"])
def test_q_form_warm_table_matches_fresh_patch(make):
    warm = make()
    delta = 0.1 * (warm.t_range[1] - warm.t_range[0])
    u1, u2 = battery_test_functions(warm, 2, 17, delta)
    q_form(warm, u1, grid=(3, 3), delta=delta)  # leaves levels (3, 3) and (6, 6)
    for grid in ((6, 6), (3, 6)):
        got = q_form(warm, u2, grid=grid, delta=delta).to_json_dict()
        assert got == q_form(make(), u2, grid=grid, delta=delta).to_json_dict()


def test_ruled_q_form_keeps_one_patch(monkeypatch):
    from solgeo.stationary import HorizontalCurve, sweep_surface

    counts = _count_geometry(monkeypatch)
    sweep = sweep_surface(HorizontalCurve.x_line(Point(0.1, -0.2, 0.3)), (-1.2, 1.2),
                          (-3.0, 3.0))
    u1, u2 = battery_test_functions(patch_from_ruled(sweep), 2, 4, 0.6)
    first = q_form(sweep, u1, grid=(6, 6), delta=0.6)
    q_form(sweep, u2, grid=(6, 6), delta=0.6)
    # one geometry call per grid level, for both calls: the first and the
    # last eps-row of the table's t-nodes and the five probe columns of the
    # singular-curve limits
    assert counts["frame_data"] == 2
    assert counts["nodes"] == [2 * (8 * 6 + 5), 2 * (8 * 12 + 5)]
    assert q_form(sweep, u1, grid=(6, 6), delta=0.6) == first


def _per_node_surface(patch, u, n_eps, n_t, weight_fn):
    """The per-node surface sum of Q(u) that the bilinear-form table
    replaced, kept as its oracle."""
    ne, we = gl_line(*patch.eps_range, n_eps)
    nt, wt = gl_line(*patch.t_range, n_t)
    e, t = ne[:, None], nt[None, :]
    f, dS, alpha, beta = stability._patch_frame_data(patch, e, t)
    uu = u.phi(e) * u.psi(t)
    Zu = alpha * (u.phi.deriv(e) * u.psi(t)) + beta * (u.phi(e) * u.psi.deriv(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_term = np.where(Zu == 0.0, 0.0, Zu * Zu / f["nh"])
    pot = weight_fn(f)
    return float(np.sum((grad_term + pot * uu * uu) * dS * np.outer(we, wt)))


@pytest.mark.parametrize(
    "make",
    [lambda name=name, params=params: patch_for_catalog(name, params)
     for name, params in ADAPTED] + [_ruled_patch],
    ids=[name for name, _ in ADAPTED] + ["ruled-sweep"])
def test_bilinear_form_matches_per_node_sum(make):
    patch = make()
    delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
    weights = [stability._general_weight]
    if patch.name in stability._SIMPLIFIED:
        weights.append(stability._SIMPLIFIED[patch.name][0])
    for u in battery_test_functions(patch, 3, 29, delta):
        for n_eps, n_t in ((5, 7), (10, 14)):
            for weight in weights:
                got = stability._q_form_level(patch, u, n_eps, n_t, weight, delta)[0]
                want = _per_node_surface(patch, u, n_eps, n_t, weight)
                assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (n_eps, weight)


def _patch_with_zero_nh(column=False):
    """A flat chart whose geometry has |N_h| = 0 at the first node of every
    grid it is evaluated on, and Z = Y elsewhere.  With ``column`` it is
    declared invariant along eps and |N_h| = 0 on the whole first
    t-column."""
    def chart(e, t):
        e, t = np.broadcast_arrays(np.asarray(e, float), np.asarray(t, float))
        zero, one = np.zeros_like(e), np.ones_like(e)
        return (e, t, zero), ((one, zero, zero), (zero, one, zero))

    def geometry(t, z, frame):
        shape = np.shape(z)
        nh = np.ones(shape)
        nh[(..., 0) if column else (0,) * len(shape)] = 0.0
        zero = np.zeros(shape)
        return {"nh": nh, "nt": zero, "zx": zero, "zy": zero + 1.0,
                "grad_s_nu_z": zero, "H": zero}

    return SurfacePatch("zero-nh", None, (-1.0, 1.0), (-1.0, 1.0), chart,
                        geometry=geometry, eps_invariant=column)


def test_zero_nh_node_is_finite_where_z_u_vanishes():
    patch = _patch_with_zero_nh()
    u = TestFunction(Bump(0.0, 0.2, 0.6), Bump(0.1, 0.2, 0.7))  # zero near the corner
    rep = q_form(patch, u, grid=(4, 4))
    assert math.isfinite(rep.total) and rep.total > 0.0
    for n in (4, 8):
        got = stability._q_form_level(patch, u, n, n, stability._general_weight, 0.2)[0]
        want = _per_node_surface(patch, u, n, n, stability._general_weight)
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


def test_zero_nh_node_is_not_finite_where_z_u_does_not_vanish():
    patch = _patch_with_zero_nh()
    # the first node of the 4-cell grid, t = -0.990..., lies on the psi
    # plateau and on the falling edge of phi, so Z(u) = alpha phi' != 0 there
    u = TestFunction(Bump(0.0, 0.1, 0.998), Bump(0.0, 0.992, 0.998))
    with pytest.raises(GeometryError, match="not finite"):
        q_form(patch, u, grid=(4, 4))


def test_zero_nh_column_stands_for_every_eps_node():
    patch = _patch_with_zero_nh(column=True)
    full = dataclasses.replace(patch, eps_invariant=False)
    # psi vanishes near t = -1, so Z(u) = 0 on the first t-column
    u = TestFunction(Bump(0.0, 0.2, 0.6), Bump(0.1, 0.2, 0.7))
    for n in (4, 8):
        got = stability._q_form_level(patch, u, n, n, stability._general_weight, 0.2)[0]
        want = stability._q_form_level(full, u, n, n, stability._general_weight, 0.2)[0]
        assert _close(got, want) and got > 0.0
        assert _close(got, _per_node_surface(full, u, n, n, stability._general_weight))
        assert len(stability._level_table(patch, n, n, 0.2).zero_nh[0]) == 8 * n
    # psi is 1 on the first t-column, and phi' != 0 at some eps node there,
    # though not at the first one
    u = TestFunction(Bump(0.0, 0.1, 0.9), Bump(0.0, 0.992, 0.998))
    for p in (patch, full):
        with pytest.raises(GeometryError, match="not finite"):
            q_form(p, u, grid=(4, 4))


def test_battery_builds_geometry_once_per_level(monkeypatch):
    counts = _count_geometry(monkeypatch)
    patch = patch_for_catalog("saddle-curve", {})
    for u in battery_test_functions(patch, 8, 3, 0.6):
        q_form(patch, u, grid=(6, 6), delta=0.6)
    assert counts["frame_data"] == 2  # one geometry call per level
    # per level: two eps-rows of 8 n_t nodes and the five probe columns of
    # the singular-curve limits
    assert counts["nodes"] == [2 * (8 * 6 + 5), 2 * (8 * 12 + 5)]


@pytest.mark.parametrize("name,params", ADAPTED[3:5])
def test_compare_shares_the_geometry_table(monkeypatch, name, params):
    counts = _count_geometry(monkeypatch)
    patch = patch_for_catalog(name, params)
    funcs = battery_test_functions(patch, 3, 9, 0.6)
    q_form(patch, funcs[0], grid=(6, 6), delta=0.6)
    built = {**counts, "nodes": list(counts["nodes"])}
    for u in funcs:
        compare_q_forms(q_form(patch, u, grid=(6, 6), delta=0.6),
                        q_form_simplified(patch, u, grid=(6, 6), delta=0.6))
    assert built["frame_data"] == 2  # one geometry call per level
    assert built["nodes"] == [2 * (8 * 6 + 5), 2 * (8 * 12 + 5)]
    assert counts == built


def _ruled(base, p0):
    from solgeo.frame import CoordVector, SQRT2
    from solgeo.stationary import HorizontalCurve, sweep_surface

    if base == "exp":
        th = 1.1  # neither an integral curve of X nor of Y
        gamma = HorizontalCurve.from_initial_data(p0, CoordVector(
            -math.exp(p0.z) * math.sin(th) / SQRT2, math.exp(-p0.z) * math.sin(th) / SQRT2,
            math.cos(th)))
    else:
        gamma = {"x-line": HorizontalCurve.x_line, "y-line": HorizontalCurve.y_line}[base](p0)
    return patch_from_ruled(sweep_surface(gamma, (-1.3, 0.9), (-2.5, 2.8)))


#: every kind of patch the builders declare invariant along eps, off its
#: default parameters
INVARIANT = {
    "plane-x": lambda: patch_for_catalog("plane-x", {"c": 0.4}),
    "plane-y": lambda: patch_for_catalog("plane-y", {"c": -0.7}),
    "plane-z": lambda: patch_for_catalog("plane-z", {"c": 0.25}),
    "plane-ab": lambda: patch_for_catalog("plane-ab", {"a": 2.0, "b": 0.5, "c": 0.3}),
    "plane-ab-negative": lambda: patch_for_catalog("plane-ab", {"a": -0.5, "b": -2.0, "c": -0.2}),
    "saddle-curve": lambda: patch_for_catalog("saddle-curve", {"x0": 0.4, "y0": -0.3}),
    "ruled-exp": lambda: _ruled("exp", Point(0.3, -0.2, 0.1)),
    "ruled-x-line": lambda: _ruled("x-line", Point(0.4, -0.6, 0.2)),
    "ruled-y-line": lambda: _ruled("y-line", Point(-0.5, 0.3, -0.4)),
}


def _close(got, want):
    got, want = np.broadcast_arrays(got, want)
    return bool(np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))))


@pytest.mark.parametrize("make", list(INVARIANT.values()), ids=list(INVARIANT))
def test_one_row_table_is_the_full_grid_table(make):
    patch = make()
    assert patch.eps_invariant
    full = dataclasses.replace(patch, eps_invariant=False)
    assert not full.eps_invariant and not full._tables
    delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
    weights = [stability._general_weight]
    if patch.name in stability._SIMPLIFIED:
        weights.append(stability._SIMPLIFIED[patch.name][0])
    funcs = battery_test_functions(patch, 2, 31, delta)
    for n_eps, n_t in ((5, 7), (10, 14)):
        got = stability._level_table(patch, n_eps, n_t, delta)
        want = stability._level_table(full, n_eps, n_t, delta)
        # the one row equals every row of the full grid
        for key in ("k_aa", "k_ab", "k_bb"):
            assert getattr(got, key).shape == (1, 8 * n_t)
            assert getattr(want, key).shape == (8 * n_eps, 8 * n_t)
            assert _close(getattr(got, key), getattr(want, key)), key
        for weight in weights:
            assert got.k_pot[weight].shape == (1, 8 * n_t)
            assert _close(got.k_pot[weight], want.k_pot[weight])
        assert got.zero_nh is None and want.zero_nh is None
        if patch.singular == "curve":
            (c_got, s_got), (c_want, s_want) = got.sides, want.sides
            assert c_got.shape == (8 * n_eps,) and _close(c_got, c_want)
            assert s_got.keys() == s_want.keys()
            assert all(_close(s_got[k], s_want[k]) for k in s_got)
        for u in funcs:
            for weight in weights:
                q = stability._q_form_level(patch, u, n_eps, n_t, weight, delta)[0]
                assert _close(q, _per_node_surface(patch, u, n_eps, n_t, weight))


@pytest.mark.parametrize("x0", [-1e8, 1e6, -1e12])
def test_error_estimate_covers_the_geometry_round_off(x0):
    # the one-row and the full-grid tables evaluate the geometry at
    # different nodes; it reads z and the tangents, never x, so far from
    # the z-axis the two totals still agree within the gap between the
    # grid levels, which is the whole error estimate
    patch = patch_for_catalog("saddle-curve", {"x0": x0})
    full = dataclasses.replace(patch, eps_invariant=False)
    delta = 0.1 * (patch.t_range[1] - patch.t_range[0])
    for u in battery_test_functions(patch, 3, 7, delta):
        got, want = (q_form(p, u, grid=(16, 16), delta=delta) for p in (patch, full))
        assert abs(got.total - want.total) <= min(got.error_estimate, want.error_estimate)


def test_saddle_point_patch_keeps_the_full_grid(monkeypatch):
    # graph x = x0 - e^(z - z0) (y - y0) over (y, z): no left translation
    # moves it along y onto itself
    assert not patch_for_catalog("saddle-point", {"x0": 0.2, "z0": 0.3}).eps_invariant
    counts = _count_geometry(monkeypatch)
    patch = patch_for_catalog("saddle-point", {})
    assert not patch.eps_invariant
    for u in battery_test_functions(patch, 8, 3, 0.4):
        q_form(patch, u, grid=(6, 6), delta=0.4)
    assert counts["nodes"] == [64 * 6 * 6, 64 * 12 * 12]


def test_a_wrongly_declared_invariance_raises():
    true = patch_for_catalog("saddle-point", {})
    patch = dataclasses.replace(true, eps_invariant=True)
    u = battery_test_functions(true, 1, 5, 0.4)[0]
    e0, *_, e1 = stability.gl_line(*true.eps_range, 4)[0].tolist()
    with pytest.raises(AssertionError, match=(
            r"^patch 'saddle-point' is not invariant along eps: \w+ at t = \S+ is \S+ at "
            rf"eps = {re.escape(repr(e0))} but \S+ at eps = {re.escape(repr(e1))}$")):
        q_form(patch, u, grid=(4, 4), delta=0.4)
    assert not patch._tables  # no table, so no Q(u)
    assert math.isfinite(q_form(true, u, grid=(4, 4), delta=0.4).total)


def test_non_minimal_patch_raises_on_every_call():
    # the paraboloid z = -x^2/2 over the (x, y) plane is not minimal
    def chart(e, t):
        e, t = np.broadcast_arrays(np.asarray(e, float), np.asarray(t, float))
        zero, one = np.zeros_like(e), np.ones_like(e)
        return (e, t, -0.5 * e * e), ((one, zero, -e), (zero, one, zero))

    patch = SurfacePatch("paraboloid", parse("z + 0.5*x*x"), (-2.0, 2.0), (-2.0, 2.0),
                         chart)
    u = TestFunction(Bump(0.0, 0.2, 1.0), Bump(0.0, 0.2, 1.0))
    for _ in range(2):
        with pytest.raises(NotMinimal):
            q_form(patch, u, grid=(4, 4))


def test_q_form_simplified_needs_a_closed_form_family():
    patch = patch_for_catalog("plane-x", {})
    u = TestFunction(Bump(0.0, 0.2, 1.0), Bump(0.0, 0.2, 1.0))
    with pytest.raises(BadParams):
        q_form_simplified(patch, u, grid=(4, 4))


# -- sufficient condition ------------------------------------------------------

def test_sufficient_condition_three_plane_families():
    for name in ("plane-x", "plane-y", "plane-z"):
        patch = patch_for_catalog(name, {})
        rep = sufficient_condition(patch.field, patch, grid=(24, 24))
        assert rep["condition_met"], name
        assert rep["sup_NT"] <= 1e-8


def test_sufficient_condition_orientation_sensitive():
    patch = patch_for_catalog("plane-x", {})
    rep = sufficient_condition(patch.field, patch, grid=(24, 24), flip=True)
    assert not rep["condition_met"]
    assert rep["sup_NT"] > 0.5


def test_sufficient_condition_rejects_singular_patch():
    patch = patch_for_catalog("saddle-curve", {})
    with pytest.raises(SingularPointFound):
        sufficient_condition(patch.field, patch, grid=(17, 17))


def test_flipped_field():
    f = catalog("plane-x")
    g = flipped(f)
    assert g.value(Point(0.5, 1, 1)) == -f.value(Point(0.5, 1, 1))


# -- jacobi profile -------------------------------------------------------------

def test_jacobi_profile_constant_case():
    # initial data (-1, 0, 0) with unit coefficient gives the constant profile
    # realized on the vertical plane z + c = 0 ... use a synthetic check via
    # the closed form: a = f2/mu^2, b = f1/mu, c = f0 - a
    f = catalog("plane-y")
    p = Point(3.0, 0.0, 0.2)
    prof = jacobi_profile(f, p, (0.0, 3.0), 61)
    assert prof["values"][0] == pytest.approx(-1.0 / math.sqrt(2.0))
    assert prof["ode_max_rel_dev"] < 1e-7
    assert prof["ode_residual_max"] < 1e-9
    assert prof["a_plus_b"] == pytest.approx(0.0, abs=1e-12)


def test_jacobi_profile_never_vanishing_on_plane_x():
    f = catalog("plane-x")
    prof = jacobi_profile(f, Point(0.0, 1.0, 0.5), (-4.0, 4.0), 161)
    # closed form is -(1/sqrt2) e^{-s}: never zero
    assert np.all(prof["values"] < 0.0)
    want = -np.exp(-prof["s"]) / math.sqrt(2.0)
    assert np.max(np.abs(prof["values"] - want)) < 1e-12


def test_jacobi_profile_degenerate_zx():
    f = catalog("plane-z")
    prof = jacobi_profile(f, Point(1.0, 2.0, 0.0), (0.0, 2.0), 21)
    assert prof["zx_zero"]
    # N = -X is horizontal: f0 = -1, f1 = 0, f2 = 0: constant profile
    assert np.allclose(prof["values"], -1.0)


def test_jacobi_profile_linear_system():
    # synthetic initial data (-1, -q, 0): b = -q, crossing iff a + b > 0
    q = 0.7
    mu = 1.0
    f0, f1, f2 = -1.0, -q, 0.0
    a = f2 / mu ** 2
    b = f1 / mu
    c = f0 - a
    assert b == pytest.approx(-q)
    s = np.linspace(0, 5, 101)
    vals = a * np.cosh(s) + b * np.sinh(s) + c
    assert a + b < 0 and np.all(vals < 0)


# -- area comparison -------------------------------------------------------------

@pytest.mark.parametrize("kind", ["plane-x", "plane-y", "plane-z"])
def test_area_compare_bump_increases_area(kind):
    rep = area_compare(kind, 0.3, grid=30)
    assert rep["A_comp"] > rep["A_base"] + rep["error_estimate"]


@pytest.mark.parametrize("kind", ["plane-x", "plane-y", "plane-z"])
def test_area_compare_error_estimate_never_vacuous(kind):
    # the two levels can agree to the last bit; the round-off floor keeps
    # the estimate positive, and small next to any bump's area gain
    for grid in (25, 40, 50, 100):
        rep = area_compare(kind, 0.3, grid=grid)
        assert rep["A_base_error"] > 0.0 and rep["A_comp_error"] > 0.0, (grid, rep)
        assert 0.0 < rep["error_estimate"] < 1e-6, (grid, rep)


def test_area_compare_zero_eta_equal():
    rep = area_compare("plane-z", 0.0, grid=20)
    assert rep["A_comp"] == pytest.approx(rep["A_base"], abs=1e-12)


def test_area_compare_monotone_in_eta():
    areas = [area_compare("plane-z", eta, grid=25)["A_comp"] for eta in (0.1, 0.2, 0.4)]
    assert areas[0] < areas[1] < areas[2]


def test_area_compare_validation():
    with pytest.raises(BadParams):
        area_compare("saddle-point", 0.3)


def _full_window_area_compare(kind, eta, grid, c):
    """Both areas integrated over the whole window at grid and 2*grid, as
    ``area_compare`` did before the closed-form base; kept as its oracle."""
    b1, b2 = (Bump(0.5 * (lo + hi), 0.0, stability.BUMP_WIDTH_FRAC * 0.5 * (hi - lo))
              for lo, hi in stability.AREA_WINDOW)

    def h_comp(s1, s2):
        return (-c + eta * b1(s1) * b2(s2),
                eta * b1.deriv(s1) * b2(s2),
                eta * b1(s1) * b2.deriv(s2))

    out = {}
    for tag, fn in (("base", stability._level_graph(c)), ("comp", h_comp)):
        lo = stability._graph_area(kind, stability.AREA_WINDOW, fn, grid)
        hi = stability._graph_area(kind, stability.AREA_WINDOW, fn, 2 * grid)
        floor = np.finfo(float).eps * (stability.GL_ORDER * grid) ** 2 * (lo + 4 * hi)
        out[f"A_{tag}"], out[f"A_{tag}_error"] = hi, abs(hi - lo) + floor
    out["delta_area"] = out["A_comp"] - out["A_base"]
    out["error_estimate"] = out["A_base_error"] + out["A_comp_error"]
    return out


@pytest.mark.parametrize("kind", ["plane-x", "plane-y", "plane-z"])
def test_area_compare_matches_the_full_window_oracle(kind):
    for eta in (0.0, 0.1, 0.6):
        for grid in (25, 40):
            for c in (0.0, 0.4):
                got = area_compare(kind, eta, grid=grid, c=c)
                ref = _full_window_area_compare(kind, eta, grid, c)
                tol = got["error_estimate"] + ref["error_estimate"]
                case = (eta, grid, c, got, ref)
                for key in ("A_base", "A_comp", "delta_area"):
                    assert abs(got[key] - ref[key]) <= tol, (key, case)
                assert ((got["delta_area"] > got["error_estimate"])
                        == (ref["delta_area"] > ref["error_estimate"])), case


@pytest.mark.parametrize("kind", ["plane-x", "plane-y", "plane-z"])
@pytest.mark.parametrize("window", [stability.AREA_WINDOW, ((-0.3, 1.1), (-1.7, 0.9))],
                         ids=["full", "off-centre"])
def test_plane_area_is_the_level_graph_area(kind, window):
    for c in (-0.7, 0.0, 0.4):
        quad = stability._graph_area(kind, window, stability._level_graph(c), 25)
        assert stability._PLANE_AREA[kind](*window) == pytest.approx(quad, rel=1e-13), c


def test_area_compare_integrates_only_the_bump_support(monkeypatch):
    calls = []
    graph_area = stability._graph_area

    def counting(kind, window, h_fn, cells):
        calls.append((window, cells))
        return graph_area(kind, window, h_fn, cells)

    monkeypatch.setattr(stability, "_graph_area", counting)
    support = ((-1.6, 1.6), (-1.6, 1.6))
    for grid in (25, 40, 100):
        calls.clear()
        area_compare("plane-z", 0.3, grid=grid)
        assert len(calls) == 2, (grid, calls)
        for window, cells in calls:
            assert window == support, (grid, calls)
            assert cells % 2 == 0, (grid, calls)


def _meshgrid_graph_area(kind, window, h_fn, cells):
    """The meshgrid graph area that ``_graph_area`` replaced, kept as its oracle."""
    (a_lo, a_hi), (b_lo, b_hi) = window
    n1, w1 = gl_line(a_lo, a_hi, cells)
    n2, w2 = gl_line(b_lo, b_hi, cells)
    S1, S2 = np.meshgrid(n1, n2, indexing="ij")
    W = np.outer(w1, w2)
    h, h1, h2 = h_fn(S1, S2)
    coords, tangents = stability._PLANE_GRAPH[kind](S1, S2, h, h1, h2)
    x, y, z = np.broadcast_arrays(*coords)
    n1, n2, _ = TangentFrame(z, *tangents).normal_components
    horiz = np.hypot(n1, n2)
    return float(np.sum(horiz * W))


def _bumped_graph(c, eta):
    b1, b2 = Bump(0.1, 0.3, 1.5), Bump(-0.2, 0.0, 1.2)

    def h(s1, s2):
        return (-c + eta * b1(s1) * b2(s2),
                eta * b1.deriv(s1) * b2(s2),
                eta * b1(s1) * b2.deriv(s2))
    return h


@pytest.mark.parametrize("kind", ["plane-x", "plane-y", "plane-z"])
@pytest.mark.parametrize("height", ["level", "bumped"])
@pytest.mark.parametrize("cells", [13, 40])
def test_graph_area_is_the_meshgrid_area_bit_for_bit(kind, height, cells):
    h_fn = stability._level_graph(0.3) if height == "level" else _bumped_graph(-0.4, 0.35)
    window = ((-2.0, 2.0), (-1.5, 2.5))
    got = stability._graph_area(kind, window, h_fn, cells)
    assert got == _meshgrid_graph_area(kind, window, h_fn, cells)


@pytest.mark.parametrize("make", [lambda: patch_for_catalog("saddle-curve", {}), _ruled_patch],
                         ids=["saddle-curve", "ruled-sweep"])
def test_sweep_patch_geom_runs_the_flow_once(monkeypatch, make):
    from solgeo.stationary import RuledSurface

    patch = make()
    calls = []
    jet = RuledSurface.jet

    def counting_jet(self, eps, t):
        calls.append(np.broadcast_shapes(np.shape(eps), np.shape(t)))
        return jet(self, eps, t)

    monkeypatch.setattr(RuledSurface, "jet", counting_jet)
    e, t = np.linspace(-1.0, 1.0, 5)[:, None], np.linspace(0.3, 2.0, 7)[None, :]
    patch.geom(e, t)
    assert calls == [(5, 7)]
