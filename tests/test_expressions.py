import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgeo.errors import BadParams, EvaluationError, ExprSyntaxError
from solgeo.expressions import CATALOG_NAMES, ScalarField, catalog, parse
from solgeo.frame import Point


def test_parse_basic_derivatives():
    f = parse("x + exp(z)*y")
    p = Point(0.3, -1.2, 0.5)
    g = f.gradient(p)
    assert g.dx == pytest.approx(1.0)
    assert g.dy == pytest.approx(math.exp(p.z))
    assert g.dz == pytest.approx(math.exp(p.z) * p.y)


def test_parse_coordinate_only():
    f = parse("z")
    g = f.gradient(Point(1, 2, 3))
    assert (g.dx, g.dy, g.dz) == (0.0, 0.0, 1.0)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x + + y")
    assert exc.value.offset == 4


@pytest.mark.parametrize("src", ["", "exp", "exp(x", "(x+y", "x^", "x + * y", "2 ** 3", "w + 1"])
def test_malformed_inputs_raise(src):
    with pytest.raises(ExprSyntaxError):
        parse(src)


def test_eval_examples():
    f = parse("exp(z)*y + x")
    p = Point(1, 2, 0)
    assert f.value(p) == pytest.approx(3.0)
    g = f.gradient(p)
    assert (g.dx, g.dy, g.dz) == pytest.approx((1.0, 1.0, 2.0))

    f = parse("x")
    g = f.gradient(Point(5, 5, 5))
    assert (g.dx, g.dy, g.dz) == (1.0, 0.0, 0.0)
    assert np.allclose(f.hessian(Point(5, 5, 5)), 0.0)

    f = parse("exp(z)*y + exp(-z)*x")
    assert f.value(Point(0, 0, 0)) == 0.0
    g = f.gradient(Point(0, 0, 0))
    assert (g.dx, g.dy, g.dz) == pytest.approx((1.0, 1.0, 0.0))


def test_scientific_notation_and_powers():
    f = parse("1.5e-2*x^3 + 2E+1*z^2 - y^-1")
    p = Point(2.0, 4.0, 3.0)
    assert f.value(p) == pytest.approx(1.5e-2 * 8 + 20 * 9 - 0.25)
    g = f.gradient(p)
    assert g.dx == pytest.approx(3 * 1.5e-2 * 4)
    assert g.dy == pytest.approx(1.0 / 16.0)
    assert g.dz == pytest.approx(2 * 20 * 3)


def test_division_flag_and_pole_error():
    f = parse("x / (y - 1)")
    assert f.has_division()
    assert not parse("x + y").has_division()
    with pytest.raises(EvaluationError) as exc:
        f.value(Point(1.0, 1.0, 0.0))
    assert exc.value.point == (1.0, 1.0, 0.0)


def test_overflow_reported_with_point():
    f = parse("exp(z^2)")
    with pytest.raises(EvaluationError):
        f.value(Point(0, 0, 100.0))


def test_array_api_returns_read_only_views_of_the_tree_value():
    f = parse("x*x + 3*y")
    x, y = np.linspace(-1, 1, 5)[:, None], np.linspace(0, 2, 4)[None, :]
    ux, uy, uz = f.grad_arrays(x, y, 0.5)
    assert ux.shape == uy.shape == uz.shape == (5, 4)
    # a constant derivative is one number broadcast to the nodes, not a copy
    assert uy.strides == uz.strides == (0, 0) and np.all(uy == 3.0)
    for arr in (f.values(x, y, 0.5), ux, *f.hessian_arrays(x, y, 0.5)):
        assert not arr.flags.writeable
    # a bad node is still located on the broadcast grid
    with pytest.raises(EvaluationError) as exc:
        parse("1 / (x - 0.5)").values(x, y, 0.0)
    assert exc.value.point == (0.5, 0.0, 0.0)


def _finite_difference_grad(f, x, y, z, h=1e-5):
    out = []
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0

        def val(step):
            return f.values(x + step * e[0], y + step * e[1], z + step * e[2])

        d1 = (val(h) - val(-h)) / (2 * h)
        d2 = (val(h / 2) - val(-h / 2)) / h
        out.append((4 * d2 - d1) / 3.0)  # Richardson
    return out


CATALOG_WITH_PARAMS = [
    ("plane-x", {"c": 0.7}),
    ("plane-y", {"c": -0.4}),
    ("plane-z", {"c": 0.1}),
    ("plane-ab", {"a": 1.3, "b": 0.8, "c": -0.2}),
    ("tilted", {"a": 0.5, "b": -1.1, "c": 0.9, "d": 0.3}),
    ("saddle-point", {"x0": 0.2, "y0": -0.5, "z0": 0.4}),
    ("saddle-curve", {"x0": -0.3, "y0": 0.6, "z0": -0.2}),
]


@pytest.mark.parametrize("name,params", CATALOG_WITH_PARAMS)
def test_catalog_gradients_match_finite_differences(name, params, rng):
    f = catalog(name, **params)
    x, y, z = rng.uniform(-2, 2, (3, 1000))
    gx, gy, gz = f.grad_arrays(x, y, z)
    fx, fy, fz = _finite_difference_grad(f, x, y, z)
    for got, want in ((gx, fx), (gy, fy), (gz, fz)):
        scale = 1.0 + np.abs(want)
        assert np.max(np.abs(got - want) / scale) < 1e-6


@pytest.mark.parametrize("name,params", CATALOG_WITH_PARAMS)
def test_catalog_hessians_match_finite_differences(name, params, rng):
    f = catalog(name, **params)
    x, y, z = rng.uniform(-2, 2, (3, 200))
    uxx, uxy, uxz, uyy, uyz, uzz = f.hessian_arrays(x, y, z)
    h = 1e-5
    grads = {}
    for axis, e in enumerate(np.eye(3)):
        gp = f.grad_arrays(x + h * e[0], y + h * e[1], z + h * e[2])
        gm = f.grad_arrays(x - h * e[0], y - h * e[1], z - h * e[2])
        grads[axis] = [(a - b) / (2 * h) for a, b in zip(gp, gm)]
    pairs = [(uxx, grads[0][0]), (uxy, grads[1][0]), (uxz, grads[2][0]),
             (uyy, grads[1][1]), (uyz, grads[2][1]), (uzz, grads[2][2])]
    for got, want in pairs:
        scale = 1.0 + np.abs(want)
        assert np.max(np.abs(got - want) / scale) < 1e-5


def test_mixed_partials_symmetric(rng):
    f = catalog("saddle-curve", x0=0.1, y0=-0.2, z0=0.3)
    # differentiate in the opposite order and compare as evaluated functions
    uyx = f.grad_exprs[1].diff("x")
    uxy = f.grad_exprs[0].diff("y")
    x, y, z = rng.uniform(-2, 2, (3, 200))
    assert np.allclose(uyx.eval(x, y, z), uxy.eval(x, y, z), atol=1e-12)


def test_pretty_print_roundtrip(rng):
    sources = [
        "x + exp(z)*y",
        "-x^2 + 3.5*y/z - exp(-(x + y))",
        "(x - y)*(x + y) - z^3",
        "1e-3*x - 2.5E+2*y + .5*z",
    ] + [catalog(n, **p).source for n, p in CATALOG_WITH_PARAMS]
    x, y, z = rng.uniform(0.5, 2.0, (3, 50))
    for src in sources:
        f = parse(src)
        g = parse(f.pretty())
        assert np.allclose(f.values(x, y, z), g.values(x, y, z), rtol=1e-14, atol=1e-14)


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_polynomial_identities(a, b, n):
    f = parse(f"(x + ({a}))^{n} - y*({b})")
    x0, y0 = 0.7, -1.3
    assert f.value(Point(x0, y0, 0.0)) == pytest.approx((x0 + a) ** n - y0 * b)


def test_catalog_names_complete():
    for name in CATALOG_NAMES:
        f = catalog(name)
        assert isinstance(f, ScalarField)
    with pytest.raises(BadParams):
        catalog("nope")
    with pytest.raises(BadParams):
        catalog("plane-ab", a=0.0, b=0.0)


def test_saddle_point_equivalent_forms(rng):
    # e^{-z} x + y vanishes exactly where e^z y + x does
    f1 = parse("exp(z)*y + x")
    f2 = parse("exp(-z)*x + y")
    y, z = rng.uniform(-2, 2, (2, 100))
    x = -np.exp(z) * y  # on the zero set of f1
    assert np.max(np.abs(f1.values(x, y, z))) < 1e-12
    assert np.max(np.abs(f2.values(x, y, z))) < 1e-12
