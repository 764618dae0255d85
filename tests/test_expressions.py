import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import U_SOURCES
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


@pytest.mark.parametrize("src", ["", "exp", "exp(x", "(x+y", "x^", "x + * y", "2 ** 3", "w + 1",
                                 "x^2.5", "x^\u0663"])
def test_malformed_inputs_raise(src):
    with pytest.raises(ExprSyntaxError):
        parse(src)


@pytest.mark.parametrize("digits", [400, 5000])
def test_exponent_out_of_range_raises(digits):
    # 10^400 has no float for the power rule's factor, and int() refuses
    # 5,000 digits
    with pytest.raises(ExprSyntaxError, match="integer exponent out of range"):
        parse("x^-" + "9" * digits)


def test_tokens_may_be_separated_by_whitespace():
    # the exponent's sign and digits are tokens too; an error's offset is
    # the start of the offending token
    assert parse("x ^ -\t2 + exp (y)").expr == parse("x^-2+exp(y)").expr
    with pytest.raises(ExprSyntaxError) as exc:
        parse("exp (x) + xy")
    assert exc.value.offset == 10


@pytest.mark.parametrize("src", ["(" * 300 + "x" + ")" * 300, "+".join(["x"] * 3000)],
                         ids=["300 parentheses", "3000 terms"])
def test_too_deep_input_raises(src):
    # the parser's own recursion, and the gradient trees' of a long sum
    with pytest.raises(ExprSyntaxError, match="expression nests too deeply"):
        parse(src)


@given(st.sampled_from("+*"), st.integers(1, 5000))
@example("+", 5000)
@example("*", 380)
@settings(max_examples=60, deadline=None)
def test_chains_walk_or_nest_too_deeply(op, n):
    # a chain folds from the left into a tree n levels deep, with no
    # recursion in the parser: parse refuses it, or one walk descends it
    try:
        field = parse(op.join(["x"] * n))
    except ExprSyntaxError as e:
        assert "expression nests too deeply" in str(e)
        return
    u, grad, hess = field.jet(0.5, 0.5, 0.5)
    assert u == (0.5 * n if op == "+" else 0.5 ** n) and len(grad) == 3 and len(hess) == 6


@given(U_SOURCES)
@example("x^- 2")
@settings(max_examples=300, deadline=None)
def test_parse_returns_a_field_or_raises_a_syntax_error(source):
    try:
        field = parse(source)
    except ExprSyntaxError:
        return
    assert isinstance(field, ScalarField)


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
    # each partial at the shape it varies over: ux along x, uy and uz constant
    assert (ux.shape, uy.shape, uz.shape) == ((5, 1), (), ())
    assert np.all(ux == 2.0 * x) and uy == 3.0 and uz == 0.0
    assert f.values(x, y, 0.5).shape == (5, 4)
    assert [h.shape for h in f.hessian_arrays(x, y, 0.5)] == [()] * 6
    for arr in (f.values(x, y, 0.5), ux, uy, *f.hessian_arrays(x, y, 0.5)):
        assert not arr.flags.writeable
    # a tree that is one coordinate is a view of it, and leaves it writeable
    u = parse("x").values(x, y, 0.5)
    assert np.shares_memory(u, x) and not u.flags.writeable and x.flags.writeable
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
    ("saddle-curve", {"x0": -0.3, "y0": 0.6}),
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


def test_product_partials_match_the_power_rule(rng):
    # u = p^k written as k factors of p = x + y z + 1/2, against closed forms
    # that share no code with the walk: grad u = k p^(k-1) grad p and Hess u
    # = k (k-1) p^(k-2) grad p grad p^T + k p^(k-1) Hess p.  Each of the
    # walk's terms takes at most 2k + 4 roundings of eps/2 on its way to the
    # root, and the k (or k(k-1)) terms of a partial sum to at most their
    # magnitude M, so |got - want| <= 2 k eps M
    k = 30
    f = parse("*".join(["(x + y*z + 0.5)"] * k))
    x, y, z = rng.uniform(-1, 1, (3, 2000))
    p = x + y * z + 0.5
    x, y, z, p = (v[np.abs(p) > 0.05] for v in (x, y, z, p))  # p^(k-2) stays normal
    dp = (np.ones_like(p), z, y)
    ddp = {(1, 2): 1.0}
    _, grad, hess = f.jet(x, y, z)
    tol = 2 * k * np.finfo(float).eps
    for i, got in enumerate(grad):
        want = k * p ** (k - 1) * dp[i]
        assert np.all(np.abs(got - want) <= tol * np.abs(want))
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for (i, j), got in zip(pairs, hess):
        c = ddp.get((i, j), 0.0)
        terms = (k * (k - 1) * p ** (k - 2) * dp[i] * dp[j], k * p ** (k - 1) * c)
        bound = tol * (np.abs(terms[0]) + np.abs(terms[1]))
        assert np.all(np.abs(got - (terms[0] + terms[1])) <= bound), (i, j)


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
_EPS = np.finfo(float).eps


def _split_occurrences(sp, source):
    """``source`` in sympy with each occurrence of x, y and z its own symbol,
    and those symbols per coordinate.  Sympy then cannot cancel terms across
    occurrences (it turns ``(y) / (y)`` into 1), so the derivative keeps the
    terms that the product, quotient, power and chain rules build."""
    occurrences = {"x": [], "y": [], "z": []}

    def rename(match):
        symbols = occurrences[match.group(0)]
        symbols.append(sp.Symbol(f"{match.group(0)}{len(symbols)}", real=True))
        return symbols[-1].name

    text = re.sub(r"(?<![a-z])[xyz](?![a-z])", rename, source).replace("^", "**")
    names = {s.name: s for symbols in occurrences.values() for s in symbols}
    return (sp.sympify(text, locals={**names, "exp": sp.exp}, evaluate=False),
            [occurrences[v] for v in "xyz"])


def _value_and_magnitude(sp, e, at):
    """``e`` evaluated in floats at the symbol values ``at``, and its
    magnitude M: the same evaluation with every Add replaced by the sum of its
    terms' magnitudes, and every product by the product of its factors' M.
    b^k with k < 0 scales |b^k| by (M_b/|b|)^|k|, and exp(a) scales its value
    by 1 + M_a, which is how an error in b or a reaches them; M >= |value|.
    A constant subtree has M = |value|, and is evaluated in floats too:
    sympy's own evaluation of exp(exp(1e6)) runs for half a minute."""
    if e.is_Symbol:
        return at[e], abs(at[e])
    if not e.args:
        # a number; zoo, which an unevaluated source can leave, has no float
        v = np.float64(float(e) if e.is_extended_real else np.nan)
        return v, abs(v)
    values, mags = zip(*(_value_and_magnitude(sp, a, at) for a in e.args))
    if e.is_Add:
        v, m = sum(values), sum(mags)
    elif e.is_Mul:
        v, m = math.prod(values), math.prod(mags)
    elif e.is_Pow:
        (b, k), (mb, _) = values, mags
        v = b ** k
        m = mb ** k if k > 0 else abs(v) * (mb / abs(b)) ** -k
    else:
        assert isinstance(e, sp.exp), e
        v = np.exp(values[0])
        m = v * (1.0 + mags[0])
    return (v, abs(v)) if e.is_number else (v, m)


def _roundings(e):
    """The most roundings on a leaf-to-root path of ``e`` evaluated in floats:
    n - 1 per n-ary sum or product, |k| + 1 per integer power k (products and
    a reciprocal), and 2 per exp (within 1 ulp, two unit roundoffs)."""
    if e.is_number or not e.args:
        return 0
    inner = max(_roundings(a) for a in e.args)
    if e.is_Add or e.is_Mul:
        return inner + len(e.args) - 1
    if e.is_Pow:
        return inner + abs(int(e.exp)) + 1
    return inner + 2


def _roundoff_misses(source, nodes):
    """The partials of ``source`` that miss their round-off bound at
    ``nodes``, each as (partial, node, got, want, tolerance).

    A second symbolic engine: sympy differentiates the same source, read
    unevaluated (so a constant such as exp(exp(1e6)) is not evaluated to
    arbitrary precision), and its derivative is evaluated in floats by
    _value_and_magnitude (lambdify prints Floats to 15 digits, an error of
    up to 22 eps in the reference).  Nodes where solgeo raises (a pole, an
    overflow) are skipped, and so is a partial whose reference value or
    magnitude M is not finite, as at a pole of sympy's derivative.

    Tolerance: max(1e-9, 1e-9 |w|), as before, plus the round-off bound
    c eps M.  M is the magnitude of the derivative with every occurrence of
    a coordinate its own symbol (_split_occurrences).  To first order, a
    formula evaluated with at most d roundings of relative size u = eps/2 on
    any leaf-to-root path errs by at most d u M (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1).  Both sides
    evaluate such a formula.  sympy's combined derivative collects the split
    one's terms, so its d and M are taken as at most the split one's.  The
    walk of `expressions` builds the split terms with at most 2 more
    roundings per path: its quotient rule (l' - (l/r) r')/r rounds l/r
    before its product with r', one more than l r'/r^2 on the path of l,
    and its power rule rounds its constant factor.  The quotient rule's
    difference has the magnitude |l'| + |l r'/r|, which the division by r
    turns into the split terms' M.  So |g - w| <= (2d + 2) u M = (d + 1)
    eps M, and c = d + 2 keeps one eps M spare.  At y = 1.4e-46, (y) / (y)
    has d_yy = -2/y^2 + 2y/y^3: M = 4/y^2 = 1.9e92 and c = 6, and the walk
    gives the exact 0.  Gradual underflow is outside this model.
    """
    sp = pytest.importorskip("sympy")
    f = parse(source)
    x, y, z = sp.symbols("x y z", real=True)
    u = sp.sympify(source.replace("^", "**"), locals={"x": x, "y": y, "z": z, "exp": sp.exp},
                   evaluate=False)
    v = (x, y, z)
    pairs = [(i,) for i in range(3)] + [(i, j) for i in range(3) for j in range(i, 3)]
    want = [sp.diff(u, *(v[i] for i in ij)) for ij in pairs]
    split, occurrences = _split_occurrences(sp, source)
    bound = [sum((sp.diff(split, *s)
                  for s in itertools.product(*(occurrences[k] for k in ij))), sp.Integer(0))
             for ij in pairs]
    misses = []
    for node in nodes:
        try:
            got = f.grad_arrays(*node) + f.hessian_arrays(*node)
        except EvaluationError:
            continue
        at = dict(zip(v, map(np.float64, node)))
        at.update((s, np.float64(c)) for c, symbols in zip(node, occurrences) for s in symbols)
        for k, (g, w, d) in enumerate(zip(np.asarray(got, dtype=float), want, bound)):
            with np.errstate(all="ignore"):
                w = _value_and_magnitude(sp, w, at)[0]
                m = _value_and_magnitude(sp, d, at)[1]
            if not (np.isfinite(w) and np.isfinite(m)):
                continue
            tol = max(1e-9, 1e-9 * abs(w)) + (_roundings(d) + 2) * _EPS * m
            if abs(g - w) > tol:
                misses.append((pairs[k], node, g, w, tol))
    return misses


@given(_sources(), st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=4))
@example("(y) / (y)", [(0.0, 1.4467581967271798e-46, 0.0)])
# sympy's evaluation of this constant, exp(e^1,000,000), runs for half a minute
@example("exp(exp((1e-3)^-2))", [(0.0, 0.0, 0.0)])
@settings(max_examples=100, deadline=None)
def test_partials_match_sympy(source, nodes):
    # Every partial within its round-off bound, a quotient's near the bottom
    # of the float range too (see test_quotient_partials_past_gradual_underflow)
    assert _roundoff_misses(source, nodes) == [], source


@pytest.mark.parametrize("source,node", [("(x) / (x)", (1.26e-81, 0.0, 0.0)),
                                         ("exp((x) / (x))", (1.26e-81, -1.2e-20, -0.49))])
def test_quotient_partials_past_gradual_underflow(source, node):
    # d2/dx2 of x/x is 0.  A quotient rule that divides by r^2 makes a
    # second partial divide by r^4, which underflows for |r| below about
    # 1e-77 (-6.2e161 here); (l' - (l/r) r')/r divides by r alone
    assert _roundoff_misses(source, [node]) == []
