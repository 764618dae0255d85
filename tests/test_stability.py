import math

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
    # the vertical-axis sweep is the saddle-curve surface with the same
    # parametrization, so the parametrization geometry must reproduce the
    # field geometry to rounding
    import math

    from solgeo.stationary import HorizontalCurve, sweep_surface
    from solgeo.stability import patch_from_ruled

    sweep = sweep_surface(HorizontalCurve.x_line(Point(0, 0, 0)), (-2.0, 2.0), (-3.0, 3.0))
    ruled = patch_from_ruled(sweep)
    field = patch_for_catalog("saddle-curve", {})
    E, T = np.meshgrid(np.linspace(-1.8, 1.8, 6), np.linspace(0.2, 2.8, 6), indexing="ij")
    gr = ruled.geom(E, T)
    gf = field.geom(E, T)
    assert np.max(np.abs(np.asarray(gr["nh"]) - gf["nh"])) < 1e-12
    assert np.max(np.abs(np.asarray(gr["grad_s_nu_z"]) - gf["grad_s_nu_z"])) < 1e-12
    for u in battery_test_functions(field, 3, 21, 0.6):
        qa = q_form(sweep, u, grid=(10, 10), delta=0.6)  # accepts the sweep directly
        qb = q_form(field, u, grid=(10, 10), delta=0.6)
        assert qa.total == pytest.approx(qb.total, abs=1e-12)


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
    """Count ``_patch_frame_data`` and ``SurfacePatch.geom`` calls."""
    counts = {"frame_data": 0, "geom": 0}
    frame_data = stability._patch_frame_data
    geom = SurfacePatch.geom

    def counting_frame_data(*args):
        counts["frame_data"] += 1
        return frame_data(*args)

    def counting_geom(*args):
        counts["geom"] += 1
        return geom(*args)

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
    assert counts["frame_data"] == 2  # one per grid level, for both calls
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


def _patch_with_zero_nh():
    """A flat chart whose geometry has |N_h| = 0 at the first node of every
    grid it is evaluated on, and Z = Y elsewhere."""
    def chart(e, t):
        e, t = np.broadcast_arrays(np.asarray(e, float), np.asarray(t, float))
        zero, one = np.zeros_like(e), np.ones_like(e)
        return (e, t, zero), ((one, zero, zero), (zero, one, zero))

    def geometry(t, z, frame):
        shape = np.shape(z)
        nh = np.ones(shape)
        nh[(0,) * len(shape)] = 0.0
        zero = np.zeros(shape)
        return {"nh": nh, "nt": zero, "zx": zero, "zy": zero + 1.0,
                "grad_s_nu_z": zero, "H": zero}

    return SurfacePatch("zero-nh", None, (-1.0, 1.0), (-1.0, 1.0), chart,
                        geometry=geometry)


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


def test_battery_builds_geometry_once_per_level(monkeypatch):
    counts = _count_geometry(monkeypatch)
    patch = patch_for_catalog("saddle-curve", {})
    for u in battery_test_functions(patch, 8, 3, 0.6):
        q_form(patch, u, grid=(6, 6), delta=0.6)
    assert counts["frame_data"] == 2


@pytest.mark.parametrize("name,params", ADAPTED[3:5])
def test_compare_shares_the_geometry_table(monkeypatch, name, params):
    counts = _count_geometry(monkeypatch)
    patch = patch_for_catalog(name, params)
    funcs = battery_test_functions(patch, 3, 9, 0.6)
    q_form(patch, funcs[0], grid=(6, 6), delta=0.6)
    built = dict(counts)
    for u in funcs:
        compare_q_forms(q_form(patch, u, grid=(6, 6), delta=0.6),
                        q_form_simplified(patch, u, grid=(6, 6), delta=0.6))
    assert built["frame_data"] == 2
    assert counts == built


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
