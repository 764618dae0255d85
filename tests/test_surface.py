import math

import numpy as np
import pytest

from conftest import RESIDUAL_U_FORMS, dense_residual_route, grid_axes
from solgeo.expressions import CATALOG_NAMES, catalog, parse
from solgeo.surface import EPS_SING, raw_fields

SQ = 1.0 / math.sqrt(2.0)

#: |u|/|grad u| below which a point counts as lying on the zero set
LEVEL_TOL = 1e-9


def on_surface_fields(field, x, y, z):
    """``raw_fields`` at points that must lie on the zero set of ``field``."""
    f = raw_fields(field, x, y, z)
    assert np.all(np.abs(f["u"]) / f["grad_norm"] < LEVEL_TOL)
    return f


def unit_normal(f):
    """The inner unit normal N = -grad(u)/|grad(u)| in frame components."""
    return tuple(-f[w] / f["grad_norm"] for w in ("W1", "W2", "W3"))


def residual_frame(field, x, y, z):
    """The frame form Y(u)^2 XX(u) - Y(u) X(u) (YX(u) + XY(u)) + X(u)^2 YY(u)
    of the residual from the partials of ``field``, with X = d/dz and
    Y = (-e^z d/dx + e^-z d/dy)/sqrt2: the reference that the coordinate
    polynomial ``residual_coord`` equals twice."""
    ux, uy, uz = field.grad_arrays(x, y, z)
    uxx, uxy, uxz, uyy, uyz, uzz = field.hessian_arrays(x, y, z)
    ez, emz = np.exp(z), np.exp(-z)
    W1, W2 = uz, (-ez * ux + emz * uy) * SQ
    XX = uzz
    YX = (-ez * uxz + emz * uyz) * SQ
    XY = (-ez * (ux + uxz) + emz * (uyz - uy)) * SQ
    YY = 0.5 * (ez * ez * uxx - 2.0 * uxy + emz * emz * uyy)
    return W2 * W2 * XX - W1 * W2 * (YX + XY) + W1 * W1 * YY


def test_point_data_plane_x():
    f = on_surface_fields(catalog("plane-x"), 0.0, 1.0, 1.0)
    assert f["nh"] >= EPS_SING
    assert [f["nu1"], f["nu2"]] == pytest.approx([0, 1], abs=1e-14)
    assert [f["zx"], f["zy"]] == pytest.approx([-1, 0], abs=1e-14)
    assert f["nt"] == pytest.approx(-SQ)
    assert f["nh"] == pytest.approx(SQ)


def test_point_data_saddle_curve_axis_singular():
    f = on_surface_fields(catalog("saddle-curve"), 0.0, 0.0, 5.0)
    assert f["nh"] < EPS_SING


def test_point_data_plane_z():
    f = on_surface_fields(catalog("plane-z"), 3.0, -2.0, 0.0)
    assert f["nh"] >= EPS_SING
    assert unit_normal(f) == pytest.approx((-1, 0, 0), abs=1e-14)  # N = -X
    assert f["nh"] == pytest.approx(1.0)
    assert f["nt"] == pytest.approx(0.0)
    assert [f["zx"], f["zy"]] == pytest.approx([0, -1], abs=1e-14)


def test_point_data_invariants(rng):
    y, z = rng.uniform(-2, 2, (2, 50))
    f = on_surface_fields(catalog("saddle-point"), -np.exp(z) * y, y, z)
    n1, n2, n3 = unit_normal(f)
    assert n1 ** 2 + n2 ** 2 + n3 ** 2 == pytest.approx(np.ones(50), abs=1e-12)
    assert f["nh"] ** 2 + f["nt"] ** 2 == pytest.approx(np.ones(50), abs=1e-10)
    ok = f["nh"] >= EPS_SING
    assert ok.any()
    nu1, nu2, zx, zy, nh, nt = (f[k][ok] for k in ("nu1", "nu2", "zx", "zy", "nh", "nt"))
    n1, n2, n3 = n1[ok], n2[ok], n3[ok]
    assert np.hypot(nu1, nu2) == pytest.approx(np.ones_like(nu1), abs=1e-12)
    # Z = J(nu_h), with J(X) = Y and J(Y) = -X
    assert np.array_equal(zx, -nu2) and np.array_equal(zy, nu1)
    assert np.max(np.abs(zx * nu1 + zy * nu2)) < 1e-13
    assert np.max(np.abs(zx * n1 + zy * n2)) < 1e-12
    # S = <N,T> nu_h - |N_h| T is the unit tangent orthogonal to Z
    s1, s2, s3 = nt * nu1, nt * nu2, -nh
    assert np.max(np.abs(s1 * n1 + s2 * n2 + s3 * n3)) < 1e-12
    assert np.max(np.abs(s1 * zx + s2 * zy)) < 1e-12
    assert np.sqrt(s1 ** 2 + s2 ** 2 + s3 ** 2) == pytest.approx(np.ones_like(s1), abs=1e-12)
    # Z is horizontal unit
    assert zx ** 2 + zy ** 2 == pytest.approx(np.ones_like(zx), abs=1e-12)


def test_characteristic_field_at_a_diagonal_direction():
    # on the zero set of e^z y - z, the point with z = 1 - 1/sqrt2 has
    # frame gradient components W1 = -1/sqrt2, W2 = 1/sqrt2, so Z = (X+Y)/sqrt2;
    # off the axis of saddle-curve Z = +-Y
    z0 = 1.0 - SQ
    f = on_surface_fields(parse("exp(z)*y - z"), 0.0, z0 * math.exp(-z0), z0)
    assert [f["zx"], f["zy"]] == pytest.approx([SQ, SQ], abs=1e-12)
    f = on_surface_fields(catalog("saddle-curve"), -math.e ** 2, 1.0, 1.0)
    assert [abs(f["zx"]), abs(f["zy"])] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_nu_h_matches_generic_construction(rng):
    # independent route: contract the gradient covector with the frame fields
    # X = d/dz, Y = (-e^z d/dx + e^-z d/dy)/sqrt2, project out the Reeb
    # component, normalize, rotate by J
    for name, params in [("saddle-point", {}), ("plane-ab", {"a": 1.0, "b": 1.0}),
                         ("tilted", {"a": 0.3, "b": -0.7, "c": 1.1, "d": 0.0})]:
        f = catalog(name, **params)
        count = 0
        while count < 340:
            x, y, z = rng.uniform(-2, 2, 3)
            # project onto the zero set along x where possible
            g = f.grad_arrays(x, y, z)
            if abs(g[0]) < 1e-6:
                continue
            x = x - f.values(x, y, z) / g[0]
            d = on_surface_fields(f, x, y, z)
            if d["nh"] < EPS_SING:
                continue
            count += 1
            ux, uy, uz = f.grad_arrays(x, y, z)
            hor = np.array([-uz, -(-math.exp(z) * ux + math.exp(-z) * uy) * SQ])
            hor /= np.linalg.norm(hor)
            assert [d["nu1"], d["nu2"]] == pytest.approx(hor, abs=1e-10)
            assert [d["zx"], d["zy"]] == pytest.approx([-hor[1], hor[0]], abs=1e-10)


def test_mean_curvature_trivially_minimal():
    for field, p in ((catalog("plane-x", c=0.7), (-0.7, 3, -1)),
                     (catalog("saddle-point"), (-1, 1, 0))):
        f = on_surface_fields(field, *p)
        assert f["nh"] >= EPS_SING
        assert f["H"] == pytest.approx(0.0, abs=1e-14)


def test_mean_curvature_nonzero_for_tilted():
    f = on_surface_fields(parse("x + y + z"), 1.0, -2.0, 1.0)
    assert f["nh"] >= EPS_SING
    assert abs(f["H"]) > 1e-3


def test_minimal_residual_examples():
    minimal = raw_fields(catalog("saddle-point"), -2.0, 2.0, 0.0)
    assert minimal["residual_coord"] == pytest.approx(0.0, abs=1e-12)
    minimal = raw_fields(catalog("plane-y", c=0.3), 9.0, -0.3, 2.0)
    assert minimal["residual_coord"] == pytest.approx(0.0, abs=1e-12)
    assert abs(raw_fields(parse("x + y + z"), 1.0, -2.0, 1.0)["residual_coord"]) > 1e-2


def test_residual_forms_agree_even_with_uxx(rng):
    # fields with nonvanishing u_xx exercise the x-second-derivative term;
    # the coordinate polynomial is twice the frame form, off the surface too
    x, y, z = rng.uniform(-1.5, 1.5, (3, 50))
    field = parse("x^2 + exp(z)*y + x*y*z")
    coord, frame = raw_fields(field, x, y, z)["residual_coord"], residual_frame(field, x, y, z)
    assert np.all(np.abs(coord - 2.0 * frame) <= 1e-9 * (1.0 + np.abs(coord) + np.abs(frame)))
    assert coord == pytest.approx(2.0 * frame, rel=1e-9, abs=1e-9)


def test_residual_consistent_with_mean_curvature(rng):
    y, z = rng.uniform(-1.5, 1.5, (2, 30))
    f = on_surface_fields(catalog("tilted", a=1.0, b=1.0, c=1.0, d=0.0), -(y + z), y, z)
    ok = f["nh"] >= EPS_SING
    assert ok.any()
    normalized = f["residual_coord"][ok] / f["normalized_residual_den"][ok]
    assert normalized == pytest.approx(2.0 * f["H"][ok], rel=1e-9, abs=1e-12)


def test_residual_vanishes_iff_mean_curvature_does(rng):
    # |residual| < 1e-8 (1 + |grad u|^4)  <=>  |H| < 1e-8, per the identity
    # residual = 2 D^3 H, checked on a mix of minimal and non-minimal fields
    fields = [catalog("saddle-point"), catalog("plane-ab", a=1.0, b=2.0),
              parse("x + y + z"), parse("exp(z)*y - z")]
    for field in fields:
        for _ in range(40):
            x, y, z = rng.uniform(-1.5, 1.5, 3)
            g = field.grad_arrays(x, y, z)
            if abs(g[0]) < 1e-6:
                continue
            x = x - field.values(x, y, z) / g[0]
            f = on_surface_fields(field, x, y, z)
            if f["nh"] < EPS_SING:
                continue
            small_res = abs(f["residual_coord"]) < 1e-8 * (1.0 + f["grad_norm"] ** 4)
            small_h = abs(f["H"]) < 1e-8
            assert small_res == small_h


def test_every_exported_name_resolves():
    import solgeo

    assert [name for name in solgeo.__all__ if not hasattr(solgeo, name)] == []


def test_raw_fields_vectorized_consistency(rng):
    field = catalog("saddle-point")
    y, z = rng.uniform(-1, 1, (2, 7))
    x = -np.exp(z) * y
    out = on_surface_fields(field, x, y, z)
    for i in range(7):
        d = raw_fields(field, x[i], y[i], z[i])
        assert out["nh"][i] == pytest.approx(d["nh"], abs=1e-13)
        assert out["nt"][i] == pytest.approx(d["nt"], abs=1e-13)


def test_residual_identity_symbolically():
    # a second symbolic engine: for a generic u(x, y, z), the coordinate
    # polynomial and the frame form as ``residual_frame`` writes them differ by the
    # factor 2 exactly, and XY, YX, YY are the frame operators applied twice
    sp = pytest.importorskip("sympy")
    x, y, z = sp.symbols("x y z", real=True)
    u = sp.Function("u")(x, y, z)
    ez, emz, r2 = sp.exp(z), sp.exp(-z), sp.sqrt(2)

    def X(g):
        return sp.diff(g, z)

    def Y(g):
        return (-ez * sp.diff(g, x) + emz * sp.diff(g, y)) / r2

    var = {"x": x, "y": y, "z": z}
    d = {name: sp.diff(u, *(var[c] for c in name)) for name in
         ("x", "y", "z", "xx", "xy", "xz", "yy", "yz", "zz")}
    ux, uy, uz = d["x"], d["y"], d["z"]
    W1 = uz
    W2 = (-ez * ux + emz * uy) / r2
    G = r2 * W2
    coord = (d["zz"] * G * G
             + uz * uz * (ez * ez * d["xx"] - 2 * d["xy"] + emz * emz * d["yy"])
             - uz * G * (-2 * ez * d["xz"] - ez * ux + 2 * emz * d["yz"] - emz * uy))
    XX = d["zz"]
    YX = (-ez * d["xz"] + emz * d["yz"]) / r2
    XY = (-ez * (ux + d["xz"]) + emz * (d["yz"] - uy)) / r2
    YY = (ez * ez * d["xx"] - 2 * d["xy"] + emz * emz * d["yy"]) / 2
    frame = W2 * W2 * XX - W1 * W2 * (YX + XY) + W1 * W1 * YY

    assert sp.simplify(coord - 2 * frame) == 0
    assert sp.simplify(XY - X(Y(u))) == 0
    assert sp.simplify(YX - Y(X(u))) == 0
    assert sp.simplify(YY - Y(Y(u))) == 0
    assert sp.simplify(W1 - X(u)) == 0 and sp.simplify(W2 - Y(u)) == 0


#: bent fields on which q and Zq vary: graphs with every second partial of
#: the height non-zero, an exponential and a quotient
BENT_SOURCES = ("z - 0.3*x^2 - 0.2*x*y + 0.1*y^2", "y - 0.2*x*z - 0.1*z^2",
                "exp(z + 0.1)*(y - 0.3) + x*x*z + 0.2", "x*y - exp(-z)*x + z^3/(1 + y*y)")


@pytest.mark.parametrize("source", BENT_SOURCES)
def test_q_and_zq_match_sympy(source, rng):
    # a second symbolic engine: q = -T(u)/sqrt(X(u)^2 + Y(u)^2) and its
    # derivative along Z = (Y(u) X - X(u) Y)/D, at 30 digits
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    x, y, z = sp.symbols("x y z", real=True)
    u = sp.sympify(source.replace("^", "**"), locals={"x": x, "y": y, "z": z})
    ez, emz, r2 = sp.exp(z), sp.exp(-z), sp.sqrt(2)

    def X(g):
        return sp.diff(g, z)

    def Y(g):
        return (-ez * sp.diff(g, x) + emz * sp.diff(g, y)) / r2

    D = sp.sqrt(X(u) ** 2 + Y(u) ** 2)
    q = -(ez * sp.diff(u, x) + emz * sp.diff(u, y)) / r2 / D
    zq = (Y(u) * X(q) - X(u) * Y(q)) / D
    reference = sp.lambdify((x, y, z), (q, zq), "mpmath")
    nodes = rng.uniform(-1.0, 1.0, (3, 5))
    f = raw_fields(parse(source), *nodes)
    with mpmath.workdps(30):
        for i, node in enumerate(nodes.T):
            for key, w in zip(("q", "Zq"), reference(*map(mpmath.mpf, node))):
                want = float(w)
                assert abs(f[key][i] - want) <= 1e-12 * abs(want), (key, node, f[key][i], want)


WINDOW = (-1.7, 2.1, -2.2, 1.3, -1.1, 1.9)


@pytest.mark.parametrize("source", CATALOG_NAMES + RESIDUAL_U_FORMS)
def test_grid_axes_give_the_dense_route_bit_for_bit(source):
    field = catalog(source) if source in CATALOG_NAMES else parse(source)
    n = 9
    dense, _ = dense_residual_route(field, WINDOW, n)
    with np.errstate(over="ignore", invalid="ignore"):
        sparse = raw_fields(field, *grid_axes(WINDOW, n))
    assert sparse.keys() == dense.keys()

    def bits(a):
        # a NaN's sign bit depends on the operand order numpy's loops pick
        # (u = 3 has NaN grad_s_nu_z of both signs); "%.17g" prints either
        # as "nan", so NaNs compare by position only
        a = np.broadcast_to(a, (n, n, n))
        return np.where(np.isnan(a), np.nan, a).view(np.int64)

    for key in dense:
        assert np.array_equal(bits(sparse[key]), bits(dense[key])), key


def test_fields_keep_the_shape_they_vary_over():
    n = 6
    f = raw_fields(catalog("plane-x"), *grid_axes(WINDOW, n))
    # on a vertical plane every frame entry depends on z alone
    assert f["nh"].shape == f["H"].shape == f["residual_coord"].shape == (1, 1, n)
    assert f["u"].shape == (n, 1, 1)
    assert raw_fields(catalog("saddle-point"), *grid_axes(WINDOW, n))["nh"].shape == (1, n, n)
