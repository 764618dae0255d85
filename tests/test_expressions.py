import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgeo.errors import BadParams, EvaluationError, ExprSyntaxError
from solgeo.expressions import CATALOG_NAMES, ScalarField, catalog, catalog_params, parse
from solgeo.frame import Point


def _grad(f, p):
    return tuple(float(g) for g in f.grad_arrays(p.x, p.y, p.z))


def test_parse_basic_derivatives():
    f = parse("x + exp(z)*y")
    p = Point(0.3, -1.2, 0.5)
    ux, uy, uz = _grad(f, p)
    assert ux == pytest.approx(1.0)
    assert uy == pytest.approx(math.exp(p.z))
    assert uz == pytest.approx(math.exp(p.z) * p.y)


def test_parse_coordinate_only():
    f = parse("z")
    assert _grad(f, Point(1, 2, 3)) == (0.0, 0.0, 1.0)


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
    assert _grad(f, p) == pytest.approx((1.0, 1.0, 2.0))

    f = parse("x")
    assert _grad(f, Point(5, 5, 5)) == (1.0, 0.0, 0.0)
    assert np.allclose(f.hessian_arrays(5.0, 5.0, 5.0), 0.0)

    f = parse("exp(z)*y + exp(-z)*x")
    assert f.value(Point(0, 0, 0)) == 0.0
    assert _grad(f, Point(0, 0, 0)) == pytest.approx((1.0, 1.0, 0.0))


def test_scientific_notation_and_powers():
    f = parse("1.5e-2*x^3 + 2E+1*z^2 - y^-1")
    p = Point(2.0, 4.0, 3.0)
    assert f.value(p) == pytest.approx(1.5e-2 * 8 + 20 * 9 - 0.25)
    ux, uy, uz = _grad(f, p)
    assert ux == pytest.approx(3 * 1.5e-2 * 4)
    assert uy == pytest.approx(1.0 / 16.0)
    assert uz == pytest.approx(2 * 20 * 3)


def test_division_flag_and_pole_error():
    f = parse("x / (y - 1)")
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


def test_catalog_parameters_resolve_over_the_defaults():
    assert catalog_params("plane-ab", {"c": "0.5"}) == {"a": 1.0, "b": 1.0, "c": 0.5}
    assert catalog("plane-ab", c="0.5").source == catalog("plane-ab", a=1, b=1, c=0.5).source
    for name in CATALOG_NAMES:
        with pytest.raises(BadParams, match=f"{name} has no parameter C, q; its parameters: "):
            catalog(name, q=1.0, C=0.5)


def test_saddle_point_equivalent_forms(rng):
    # e^{-z} x + y vanishes exactly where e^z y + x does
    f1 = parse("exp(z)*y + x")
    f2 = parse("exp(-z)*x + y")
    y, z = rng.uniform(-2, 2, (2, 100))
    x = -np.exp(z) * y  # on the zero set of f1
    assert np.max(np.abs(f1.values(x, y, z))) < 1e-12
    assert np.max(np.abs(f2.values(x, y, z))) < 1e-12


def _sources():
    """Random sources in the grammar: numbers, x, y and z, + - * /, ^ with an
    integer from -3 to 3, exp and unary minus; every operand is
    parenthesized, so the source reads the same to sympy once ^ is **."""
    leaves = st.one_of(st.sampled_from(["x", "y", "z"]),
                       st.sampled_from(["0.5", "1", "2", "3.25", "1e-3"]))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda s: f"exp({s})"),
            inner.map(lambda s: f"-({s})"))
    return st.recursive(leaves, extend, max_leaves=6)


_COORD = st.floats(-2.0, 2.0)


@given(_sources(), st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_partials_match_sympy(source, nodes):
    # a second symbolic engine: sympy differentiates the same source; nodes
    # where either side is not finite (a pole, an overflow) are skipped
    sp = pytest.importorskip("sympy")
    f = parse(source)
    x, y, z = sp.symbols("x y z", real=True)
    u = sp.sympify(source.replace("^", "**"), locals={"x": x, "y": y, "z": z, "exp": sp.exp})
    v = (x, y, z)
    want = [sp.diff(u, a) for a in v] + [sp.diff(u, v[i], v[j])
                                         for i in range(3) for j in range(i, 3)]
    want = sp.lambdify(v, want, "numpy")
    for node in nodes:
        try:
            got = f.grad_arrays(*node) + f.hessian_arrays(*node)
        except EvaluationError:
            continue
        with np.errstate(all="ignore"):
            ref = np.asarray(want(*node), dtype=float)
        for g, w in zip(np.asarray(got, dtype=float), ref):
            if np.isfinite(w):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), (source, node)
