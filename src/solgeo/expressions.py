"""Small expression language for scalar fields u(x, y, z).

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' '-'? digits)?
    base   := number | 'x' | 'y' | 'z' | 'exp' '(' expr ')' | '(' expr ')' | '-' factor

A token is a number (ASCII digits with an optional point and scientific
notation), a name or one character.  Tokens may be separated by whitespace,
the exponent's '-' and its digits included.  An error's offset is the start
of the offending token, and a field nested too deeply to walk is an error too.

Fields are parsed once into a tree, and one walk of it gives u with its exact
first and second partials (forward-mode differentiation to second order:
Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008), so the
geometry downstream never touches finite differences.  No trigonometric
functions: nothing in this geometry needs them.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, EvaluationError, ExprSyntaxError
from .frame import Point

# ---------------------------------------------------------------------------
# AST and its walk
# ---------------------------------------------------------------------------

class _K(float):
    """A number of the tree, or a partial that is constant by its structure.
    The operations below fold these as ``_bin`` folds numbers, so such a
    partial stays one number and each partial keeps the shape of what it
    varies over.  Arithmetic on one gives a plain float, which folds nothing."""


#: a value with its partials along x, y and z.  A walk takes x, y and z as
#: duals of duals, so a node comes out as the dual of its value's dual with
#: the duals of its partials u_i, whose own partials are the u_ij.
_Dual = namedtuple("_Dual", "v d")
_Z3 = (_K(0.0),) * 3
_E = tuple(tuple(_K(i == j) for j in range(3)) for i in range(3))  # x's, y's and z's partials


def _is_const(v, c: float) -> bool:
    return type(v) is _K and v == c


def _p(v):
    """``v`` as a float, so that a numpy scalar computes with it as numpy does."""
    return float(v) if type(v) is _K else v


def _parts(v):
    """(value, partials) of ``v``; what is not a dual has zero partials."""
    return v if type(v) is _Dual else (v, _Z3)


def _add(l, r):
    if type(l) is type(r) is _K:
        return _K(l + r)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return r if _is_const(l, 0.0) else l
    if _Dual in (type(l), type(r)):
        (a, da), (b, db) = _parts(l), _parts(r)
        return _Dual(_add(a, b), tuple(map(_add, da, db)))
    return _p(l) + _p(r)


def _sub(l, r):
    if type(l) is type(r) is _K:
        return _K(l - r)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return l if _is_const(r, 0.0) else _neg(r)
    if _Dual in (type(l), type(r)):
        (a, da), (b, db) = _parts(l), _parts(r)
        return _Dual(_sub(a, b), tuple(map(_sub, da, db)))
    return _p(l) - _p(r)


def _neg(v):
    if type(v) is _Dual:
        return _Dual(_neg(v.v), tuple(map(_neg, v.d)))
    return _K(-v) if type(v) is _K else -v


def _mul(l, r):
    if type(l) is type(r) is _K:
        return _K(l * r)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return _K(0.0)
    if _is_const(l, 1.0) or _is_const(r, 1.0):
        return r if _is_const(l, 1.0) else l
    if _Dual in (type(l), type(r)):
        (a, da), (b, db) = _parts(l), _parts(r)
        return _Dual(_mul(a, b), tuple(_add(_mul(p, b), _mul(a, q)) for p, q in zip(da, db)))
    return _p(l) * _p(r)


def _div(l, r):
    if _is_const(l, 0.0) or _is_const(r, 1.0):
        return _K(0.0) if _is_const(l, 0.0) else l
    if _Dual in (type(l), type(r)):
        (a, da), (b, db) = _parts(l), _parts(r)
        v = _div(a, b)
        # q'_j = (l'_j - q r'_j)/r never divides by r^2, which underflows long
        # before r does; a partial that is a plain number where q is a dual
        # becomes a dual with zero partials, as a constant node does
        d = (_div(_sub(p, _mul(v, q)), b) for p, q in zip(da, db))
        return _Dual(v, tuple(_Dual(e, _Z3) if type(v) is _Dual and type(e) not in (_K, _Dual)
                              else e for e in d))
    return _p(l) / _p(r)


def _pow(b, n: int):
    if type(b) is not _Dual:
        return 1.0 / _p(b) ** -n if n < 0 else _p(b) ** n
    if all(_is_const(d, 0.0) for d in b.d):
        return _Dual(_pow(b.v, n), _Z3)  # b^(n-1) is never needed, nor walked
    d1 = _mul(_K(n), _K(1.0) if n == 1 else _pow(b.v, n - 1))  # (b^n)'_i = (n b^(n-1)) b'_i
    return _Dual(_pow(b.v, n), tuple(_mul(d1, d) for d in b.d))


def _exp(a):
    if type(a) is not _Dual:
        return np.exp(a)
    v = _exp(a.v)
    return _Dual(v, tuple(_mul(v, d) for d in a.d))


class Expr:
    """Expression-tree node, whose ``jet(x, y, z)`` walks it (see ``_Dual``)."""


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def jet(self, x, y, z):
        return _K(self.value)


@dataclass(frozen=True)
class Sym(Expr):
    name: str  # 'x', 'y' or 'z'

    def jet(self, x, y, z):
        return {"x": x, "y": y, "z": z}[self.name]


@dataclass(frozen=True)
class Op(Expr):
    """``f(*args, *k)`` with its args walked, f one of _add, _sub, _mul, _div,
    _neg, _exp and _pow; _pow's k is (n,), n an integer neither 0 nor 1."""

    f: object
    args: tuple
    k: tuple = ()

    def jet(self, x, y, z):
        l, *r = self.args  # no comprehension, so a walk takes one frame per level
        v = self.f(l.jet(x, y, z), *(r and [r[0].jet(x, y, z)]), *self.k)
        # a constant that is not a number comes out as a dual with zero partials
        return v if type(v) in (_K, _Dual) else _Dual(_Dual(v, _Z3), _Z3)


def _negate(e: Expr) -> Expr:
    neg = type(e) is Op and e.f is _neg
    return Num(-e.value) if type(e) is Num else e.args[0] if neg else Op(_neg, (e,))


def _bin(op, l: Expr, r: Expr) -> Expr:
    """The node of ``op(l, r)``, folded where an operand is a number as the
    walk folds constants: numbers combine (a quotient of numbers stays a
    node), a zero factor or dividend is zero, and a zero term, a unit factor
    or divisor and 0 - r leave the other operand.  So a subtree that folds
    away, such as the pole in 0*(1/0), is never walked."""
    zero, one = Num(0.0), Num(1.0)
    if type(l) is type(r) is Num and op is not _div:
        return Num(op(l.value, r.value))
    if op is _mul and zero in (l, r) or op is _div and l == zero:
        return zero
    if op is _add and l == zero or op is _mul and l == one:
        return r
    if op in (_add, _sub) and r == zero or op in (_mul, _div) and r == one:
        return l
    return _negate(r) if op is _sub and l == zero else Op(op, (l, r))


def _depth(e: Expr) -> int:
    """The levels of the tree under ``e``; a walk takes a frame for each."""
    depth, level = 0, [e]
    while level := [a for n in level for a in getattr(n, "args", ())]:
        depth += 1
    return depth + 1


@dataclass(frozen=True)
class ScalarField:
    """Twice-differentiable function of (x, y, z), whose zero level set
    defines a surface; ``jet`` gives u with its exact first and second partials."""

    expr: Expr
    source: str

    def value(self, p: Point) -> float:
        return float(self.values(p.x, p.y, p.z))

    def jet(self, x, y, z):
        """(u, (ux, uy, uz), (uxx, uxy, uxz, uyy, uyz, uzz)) at the nodes from
        one walk, each a read-only view at the shape the walk gives it (a
        constant stays one number, a partial along one axis a line of it).
        The first entry with a pole or an overflow raises EvaluationError at
        its first node of the broadcast grid."""
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        message = "field evaluation is not finite"
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                u, g = _parts(self.expr.jet(*map(_Dual, map(_Dual, (x, y, z), _E), _E)))
                u, grad = _parts(u)[0], [_parts(d)[0] for d in g]
                hess = [h for i, d in enumerate(g) for h in _parts(d)[1][i:]]
            except (ZeroDivisionError, OverflowError) as failure:
                # a constant failed in Python floats, so at every node, in u or
                # in a partial; u comes first, and a walk of u alone says which
                grad, hess = [np.nan], []
                try:
                    u = _parts(_parts(self.expr.jet(x, y, z))[0])[0]
                    message = str(failure) if np.isfinite(u).all() else message
                except (ZeroDivisionError, OverflowError) as e:
                    u, message = np.nan, str(e)
        out = [np.asarray(v, dtype=float) for v in (u, *grad, *hess)]
        for value in out:
            bad = ~np.isfinite(value)
            if bad.any():
                shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
                i = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
                raise EvaluationError(message,
                                      tuple(np.broadcast_to(v, shape)[i] for v in (x, y, z)))
        u, *d = (np.broadcast_to(v, v.shape) for v in out)  # read-only views
        return u, tuple(d[:3]), tuple(d[3:])

    def values(self, x, y, z):
        """u (see ``jet``)."""
        return self.jet(x, y, z)[0]

    def grad_arrays(self, x, y, z):
        """(ux, uy, uz) (see ``jet``)."""
        return self.jet(x, y, z)[1]

    def hessian_arrays(self, x, y, z):
        """(uxx, uxy, uxz, uyy, uyz, uzz) (see ``jet``)."""
        return self.jet(x, y, z)[2]


#: after optional whitespace, one token: a number, a name or one character
#: ("" at the end of the input)
_TOKEN = re.compile(r"\s*((?:[0-9]+\.?[0-9]*|\.[0-9]*)(?:[eE][+-]?[0-9]+)?|\w+|.?)")


def parse(source: str) -> ScalarField:
    """Parse an expression string into a field.

    Raises ExprSyntaxError, with the offset of the offending token, on
    malformed input and on a tree deeper than half the recursion limit: a
    walk takes a frame per level and leaves the other half to its callers.
    """
    tokens = [(m[1], m.start(1)) for m in _TOKEN.finditer(source)]
    levels = ({"+": _add, "-": _sub}, {"*": _mul, "/": _div})  # loosest first
    at = 0  # index of the next token

    def fail(message):
        raise ExprSyntaxError(message, tokens[at][1])

    def accept(tok) -> bool:
        nonlocal at
        if tokens[at][0] != tok:
            return False
        at += 1
        return True

    def binary(level):
        """The operands of levels[level] combined from the left; past the
        last level, a factor."""
        nonlocal at
        if level == len(levels):
            return factor()
        node = binary(level + 1)
        while op := levels[level].get(tokens[at][0]):
            at += 1
            node = _bin(op, node, binary(level + 1))
        return node

    def factor():
        """A number, x, y, z, exp(expr), (expr) or -factor, with an optional
        '^' and integer exponent."""
        nonlocal at
        tok = tokens[at][0]
        if not tok:
            fail("unexpected end of input")
        if tok[0] in "0123456789.":
            try:
                node = Num(float(tok))
            except ValueError:
                fail(f"bad numeric literal {tok!r}")
        elif tok not in ("x", "y", "z", "exp", "(", "-"):
            fail(f"unexpected {tok!r}")
        at += 1
        if tok == "-":
            node = _negate(factor())
        elif tok in ("x", "y", "z"):
            node = Sym(tok)
        elif tok in ("exp", "("):
            if tok == "exp" and not accept("("):
                fail("expected '(' after exp")
            node = binary(0)
            if not accept(")"):
                fail("expected ')'")
            if tok == "exp":
                node = Op(_exp, (node,))
        if not accept("^"):
            return node
        sign = -1 if accept("-") else 1
        digits = tokens[at][0]
        if not (digits.isascii() and digits.isdigit()):
            fail("expected integer exponent")
        try:
            n = sign * int(digits)
            float(n)  # the constant factor of _pow's partials
        except (ValueError, OverflowError):
            fail("integer exponent out of range")
        at += 1
        return Num(1.0) if n == 0 else node if n == 1 else Op(_pow, (node,), (n,))

    try:
        expr = binary(0)
        if tokens[at][0]:
            fail(f"trailing input {source[tokens[at][1]:]!r}")
        if _depth(expr) > sys.getrecursionlimit() // 2:
            raise RecursionError
    except RecursionError:
        fail("expression nests too deeply")
    return ScalarField(expr, source)


# ---------------------------------------------------------------------------
# Catalog of named surfaces
# ---------------------------------------------------------------------------

#: name -> (defining-function template, parameter defaults).  plane-ab needs
#: (a, b) != (0, 0); tilted is not minimal when c != 0; saddle-point is
#: minimal with its one singular point at (x0, y0, -z0); saddle-curve is
#: minimal with the singular line x = x0, y = y0.
CATALOG = {
    "plane-x": ("x + {c}", {"c": 0.0}),
    "plane-y": ("y + {c}", {"c": 0.0}),
    "plane-z": ("z + {c}", {"c": 0.0}),
    "plane-ab": ("{a}*x + {b}*y + {c}", {"a": 1.0, "b": 1.0, "c": 0.0}),
    "tilted": ("{a}*x + {b}*y + {c}*z + {d}", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}),
    "saddle-point": ("exp(z - {z0})*(y - {y0}) + x - {x0}",
                     {"x0": 0.0, "y0": 0.0, "z0": 0.0}),
    "saddle-curve": ("exp(z)*(y - {y0}) + exp(-z)*(x - {x0})", {"x0": 0.0, "y0": 0.0}),
}

CATALOG_NAMES = tuple(CATALOG)


def catalog_params(name: str, params: dict | None = None) -> dict:
    """Every parameter of catalog surface ``name`` as a float, ``params``
    over the defaults; a name the surface does not take raises BadParams."""
    if name not in CATALOG:
        raise BadParams(f"unknown catalog surface {name!r}")
    defaults = CATALOG[name][1]
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BadParams(f"{name} has no parameter {', '.join(unknown)}; "
                        f"its parameters: {', '.join(defaults)}")
    return {k: float(params.get(k, v)) for k, v in defaults.items()}


def catalog(name: str, **params) -> ScalarField:
    """The defining function of catalog surface ``name`` (see ``CATALOG``),
    so CLI users need not type formulas."""
    p = catalog_params(name, params)
    if name == "plane-ab" and p["a"] == 0.0 and p["b"] == 0.0:
        raise BadParams("plane-ab needs (a, b) != (0, 0)")
    return parse(CATALOG[name][0].format(**{k: f"({v:.17g})" for k, v in p.items()}))
