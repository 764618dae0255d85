"""Small expression language for scalar fields u(x, y, z).

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' '-'? digits)?
    base   := number | 'x' | 'y' | 'z' | 'exp' '(' expr ')' | '(' expr ')' | '-' factor

A token is a number (ASCII digits with an optional point and scientific
notation), a name or one character.  Tokens may be separated by whitespace,
the exponent's '-' and its digits included.  An error's offset is the start
of the offending token, and a field nested too deeply to differentiate is an
error too.

Fields are parsed once; first and second partial derivatives are produced
by symbolic differentiation at construction time, so level-set geometry
downstream never touches finite differences.  No trigonometric functions:
nothing in this geometry needs them, and the smaller grammar keeps the test
surface small.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadParams, EvaluationError, ExprSyntaxError
from .frame import Point

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Expr:
    """Expression-tree node. Subclasses implement eval and diff."""

    def eval(self, x, y, z):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, x, y, z):
        return self.value

    def diff(self, var):
        return Num(0.0)


@dataclass(frozen=True)
class Sym(Expr):
    name: str  # 'x', 'y' or 'z'

    def eval(self, x, y, z):
        return {"x": x, "y": y, "z": z}[self.name]

    def diff(self, var):
        return Num(1.0 if var == self.name else 0.0)


@dataclass(frozen=True)
class Bin(Expr):
    """``op(left, right)``, op one of operator.add, sub, mul and truediv."""

    op: object
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.op(self.left.eval(x, y, z), self.right.eval(x, y, z))

    def diff(self, var):
        l, r = self.left, self.right
        dl, dr = l.diff(var), r.diff(var)
        if self.op is operator.add:
            return add(dl, dr)
        if self.op is operator.sub:
            return sub(dl, dr)
        if self.op is operator.mul:
            return add(mul(dl, r), mul(l, dr))
        # (l/r)' = (l' - (l/r) r')/r: no partial divides by a power of r,
        # which would underflow long before r does
        return div(sub(dl, mul(self, dr)), r)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def eval(self, x, y, z):
        b = self.base.eval(x, y, z)
        if self.exponent < 0:
            return 1.0 / b ** (-self.exponent)
        return b ** self.exponent

    def diff(self, var):
        n = self.exponent
        if n == 0:
            return Num(0.0)
        return mul(mul(Num(float(n)), Pow(self.base, n - 1) if n != 1 else Num(1.0)),
                   self.base.diff(var))


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr

    def eval(self, x, y, z):
        return np.exp(self.arg.eval(x, y, z))

    def diff(self, var):
        return mul(self, self.arg.diff(var))


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x, y, z):
        return -self.arg.eval(x, y, z)

    def diff(self, var):
        return neg(self.arg.diff(var))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def add(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value + r.value)
    if _is_const(l, 0.0):
        return r
    if _is_const(r, 0.0):
        return l
    return Bin(operator.add, l, r)


def sub(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value - r.value)
    if _is_const(r, 0.0):
        return l
    if _is_const(l, 0.0):
        return neg(r)
    return Bin(operator.sub, l, r)


def mul(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value * r.value)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return Num(0.0)
    if _is_const(l, 1.0):
        return r
    if _is_const(r, 1.0):
        return l
    return Bin(operator.mul, l, r)


def div(l: Expr, r: Expr) -> Expr:
    if _is_const(l, 0.0):
        return Num(0.0)
    if _is_const(r, 1.0):
        return l
    return Bin(operator.truediv, l, r)


def neg(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


# ---------------------------------------------------------------------------
# ScalarField
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z")


@dataclass(frozen=True)
class ScalarField:
    """Twice-differentiable function of (x, y, z) with cached derivative trees.

    The zero level set of a field defines a surface; the cached first and
    second partials feed the level-set geometry exactly, with no numerical
    differentiation.
    """

    expr: Expr
    source: str
    grad_exprs: tuple = dc_field(repr=False, default=None)
    hess_exprs: tuple = dc_field(repr=False, default=None)

    @staticmethod
    def from_expr(expr: Expr, source: str) -> "ScalarField":
        """The field of ``expr``, with its first and second partial trees;
        ``source`` is the text it stands for."""
        grad = tuple(expr.diff(v) for v in _VARS)
        # second partials from the gradient trees, upper triangle
        hess = (
            grad[0].diff("x"), grad[0].diff("y"), grad[0].diff("z"),
            grad[1].diff("y"), grad[1].diff("z"),
            grad[2].diff("z"),
        )
        return ScalarField(expr, source, grad, hess)

    def value(self, p: Point) -> float:
        return float(self.values(p.x, p.y, p.z))

    # -- array API (used by grid evaluation downstream) ----------------------

    def values(self, x, y, z):
        """u, read-only at its own shape, which broadcasts over the inputs."""
        return self._eval_arrays(self.expr, x, y, z)

    def grad_arrays(self, x, y, z):
        """(ux, uy, uz), read-only at their own shapes (see ``values``)."""
        return tuple(self._eval_arrays(g, x, y, z) for g in self.grad_exprs)

    def hessian_arrays(self, x, y, z):
        """(uxx, uxy, uxz, uyy, uyz, uzz), read-only at their own shapes (see
        ``values``)."""
        return tuple(self._eval_arrays(h, x, y, z) for h in self.hess_exprs)

    @staticmethod
    def _eval_arrays(expr: Expr, x, y, z):
        """``expr`` at the nodes as a read-only view at the shape the tree
        gives it (a constant stays one number, a partial along one axis stays
        a line of it); a pole, an overflow or a tree too deep for the stack
        raises EvaluationError at its first node of the broadcast grid."""
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        message = "field evaluation is not finite"
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                value = np.asarray(expr.eval(x, y, z), dtype=float)
        except (ZeroDivisionError, OverflowError, RecursionError) as e:
            # only constant subtrees run in Python floats, and a tree too deep
            # for the stack is too deep everywhere, so they fail at every node
            value, message = np.asarray(np.nan), str(e)
        bad = ~np.isfinite(value)
        if bad.any():
            shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
            i = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
            raise EvaluationError(message, tuple(np.broadcast_to(v, shape)[i] for v in (x, y, z)))
        return np.broadcast_to(value, value.shape)  # a read-only view


#: after optional whitespace, one token: a number, a name or one character
#: ("" at the end of the input)
_TOKEN = re.compile(r"\s*((?:[0-9]+\.?[0-9]*|\.[0-9]*)(?:[eE][+-]?[0-9]+)?|\w+|.?)")


def parse(source: str) -> ScalarField:
    """Parse an expression string into a field with cached derivatives.

    Raises ExprSyntaxError, with the offset of the offending token, on
    malformed input and on a field that nests too deeply to differentiate.
    """
    tokens = [(m[1], m.start(1)) for m in _TOKEN.finditer(source)]
    levels = ({"+": add, "-": sub}, {"*": mul, "/": div})  # loosest first
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
        """The operands of levels[level] folded from the left; past the last
        level, a factor."""
        nonlocal at
        if level == len(levels):
            return factor()
        node = binary(level + 1)
        while fold := levels[level].get(tokens[at][0]):
            at += 1
            node = fold(node, binary(level + 1))
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
            node = neg(factor())
        elif tok in ("x", "y", "z"):
            node = Sym(tok)
        elif tok in ("exp", "("):
            if tok == "exp" and not accept("("):
                fail("expected '(' after exp")
            node = binary(0)
            if not accept(")"):
                fail("expected ')'")
            if tok == "exp":
                node = Exp(node)
        if not accept("^"):
            return node
        sign = -1 if accept("-") else 1
        digits = tokens[at][0]
        if not (digits.isascii() and digits.isdigit()):
            fail("expected integer exponent")
        try:
            n = sign * int(digits)
            float(n)  # Pow.diff's constant factor
        except (ValueError, OverflowError):
            fail("integer exponent out of range")
        at += 1
        return Num(1.0) if n == 0 else node if n == 1 else Pow(node, n)

    try:
        expr = binary(0)
        if tokens[at][0]:
            fail(f"trailing input {source[tokens[at][1]:]!r}")
        return ScalarField.from_expr(expr, source)
    except RecursionError:
        fail("expression nests too deeply")


# ---------------------------------------------------------------------------
# Catalog of named surfaces
# ---------------------------------------------------------------------------

def _lit(v: float) -> str:
    return f"({v:.17g})"


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
    return parse(CATALOG[name][0].format(**{k: _lit(v) for k, v in p.items()}))
