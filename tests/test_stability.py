import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgeo.errors import BadParams, Inadmissible, PerturbationNotCompact, SingularPointFound
from solgeo.expressions import catalog
from solgeo.frame import Point
from solgeo.stability import (
    Bump,
    QuadratureReport,
    TestFunction,
    area_compare,
    battery_test_functions,
    compare_q_forms,
    flipped,
    gl_line,
    jacobi_profile,
    patch_for_catalog,
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


# -- q_form -------------------------------------------------------------------

def test_q_form_zero_function():
    patch = patch_for_catalog("plane-x", {})
    u = TestFunction(Bump(0.0, 0.1, 0.5), Bump(0.0, 0.1, 0.5))
    rep = q_form(patch, u, grid=(8, 8))
    assert isinstance(rep, QuadratureReport)

    # an identically zero variation gives exactly zero
    class ZeroFn(TestFunction):
        def value(self, eps, t):
            return np.zeros_like(np.asarray(eps, dtype=float))

        def d_eps(self, eps, t):
            return np.zeros_like(np.asarray(eps, dtype=float))

        def d_t(self, eps, t):
            return np.zeros_like(np.asarray(eps, dtype=float))

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
    uu = u.value(E, T)
    # Z = -X is the -t direction with unit speed; Z(u) = -u_t
    zu = -u.d_t(E, T)
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


def test_q_form_vs_simplified_plane_ab():
    params = {"a": 1.0, "b": 1.0, "c": 0.0}
    patch = patch_for_catalog("plane-ab", params)
    u = battery_test_functions(patch, 1, 5, 0.6)[0]
    general = q_form(patch, u, grid=(14, 14), delta=0.6)
    simple = q_form_simplified("plane_ab", u, grid=(14, 14), params=params, delta=0.6)
    comp = compare_q_forms(general, simple)
    assert comp["agree"]
    # the closed form here is literally the same integrand
    assert comp["difference"] < 1e-10


def test_q_form_vs_simplified_saddle_curve_mismatch_named():
    patch = patch_for_catalog("saddle-curve", {})
    u = battery_test_functions(patch, 1, 5, 0.6)[0]
    general = q_form(patch, u, grid=(14, 14), delta=0.6)
    simple = q_form_simplified("saddle_curve", u, grid=(14, 14), delta=0.6)
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


def test_area_compare_zero_eta_equal():
    rep = area_compare("plane-z", 0.0, grid=20)
    assert rep["A_comp"] == pytest.approx(rep["A_base"], abs=1e-12)


def test_area_compare_monotone_in_eta():
    areas = [area_compare("plane-z", eta, grid=25)["A_comp"] for eta in (0.1, 0.2, 0.4)]
    assert areas[0] < areas[1] < areas[2]


def test_area_compare_validation():
    with pytest.raises(BadParams):
        area_compare("saddle-point", 0.3)
    with pytest.raises(PerturbationNotCompact):
        area_compare("plane-z", 0.3, bump_width_frac=1.5)
