"""Small expression language for scalar fields u(x, y, z).

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' | 'y' | 'z' | 'exp' '(' expr ')' | '(' expr ')' | '-' factor

Numbers accept scientific notation.  Fields are parsed once; first and
second partial derivatives are produced by symbolic differentiation at
construction time, so level-set geometry downstream never touches finite
differences.  No trigonometric functions: nothing in this geometry needs
them, and the smaller grammar keeps the test surface small.
"""

from __future__ import annotations

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
class Add(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) + self.right.eval(x, y, z)

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) - self.right.eval(x, y, z)

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) * self.right.eval(x, y, z)

    def diff(self, var):
        return add(
            mul(self.left.diff(var), self.right),
            mul(self.left, self.right.diff(var)),
        )


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) / self.right.eval(x, y, z)

    def diff(self, var):
        # (l/r)' = (l' - (l/r) r')/r: no partial divides by a power of r,
        # which would underflow long before r does
        return div(sub(self.left.diff(var), mul(self, self.right.diff(var))), self.right)


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
    return Add(l, r)


def sub(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value - r.value)
    if _is_const(r, 0.0):
        return l
    if _is_const(l, 0.0):
        return neg(r)
    return Sub(l, r)


def mul(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value * r.value)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return Num(0.0)
    if _is_const(l, 1.0):
        return r
    if _is_const(r, 1.0):
        return l
    return Mul(l, r)


def div(l: Expr, r: Expr) -> Expr:
    if _is_const(l, 0.0):
        return Num(0.0)
    if _is_const(r, 1.0):
        return l
    return Div(l, r)


def neg(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_DIGITS = set("0123456789")


class _Scanner:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.src):
            return ""
        return self.src[self.pos]

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def number(self) -> float:
        start = self.pos
        src = self.src
        n = len(src)
        i = self.pos
        while i < n and src[i] in _DIGITS:
            i += 1
        if i < n and src[i] == ".":
            i += 1
            while i < n and src[i] in _DIGITS:
                i += 1
        if i < n and src[i] in "eE":
            j = i + 1
            if j < n and src[j] in "+-":
                j += 1
            if j < n and src[j] in _DIGITS:
                i = j
                while i < n and src[i] in _DIGITS:
                    i += 1
        text = src[start:i]
        try:
            value = float(text)
        except ValueError:
            self.error(f"bad numeric literal {text!r}")
        self.pos = i
        return value

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.take()
        if self.peek() not in _DIGITS:
            self.error("expected integer exponent")
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            self.pos += 1
        return int(self.src[start:self.pos])


def _parse_expr(s: _Scanner) -> Expr:
    node = _parse_term(s)
    while True:
        ch = s.peek()
        if ch == "+":
            s.take()
            node = add(node, _parse_term(s))
        elif ch == "-":
            s.take()
            node = sub(node, _parse_term(s))
        else:
            return node


def _parse_term(s: _Scanner) -> Expr:
    node = _parse_factor(s)
    while True:
        ch = s.peek()
        if ch == "*":
            s.take()
            node = mul(node, _parse_factor(s))
        elif ch == "/":
            s.take()
            node = div(node, _parse_factor(s))
        else:
            return node


def _parse_factor(s: _Scanner) -> Expr:
    base = _parse_base(s)
    if s.peek() == "^":
        s.take()
        n = s.integer()
        if n == 0:
            return Num(1.0)
        if n == 1:
            return base
        return Pow(base, n)
    return base


def _parse_base(s: _Scanner) -> Expr:
    ch = s.peek()
    if ch == "":
        s.error("unexpected end of input")
    if ch == "-":
        s.take()
        return neg(_parse_factor(s))
    if ch == "(":
        s.take()
        node = _parse_expr(s)
        if s.peek() != ")":
            s.error("expected ')'")
        s.take()
        return node
    if ch in _DIGITS or ch == ".":
        s.skip_ws()
        return Num(s.number())
    if ch in "xyz":
        # reject identifiers like 'xy'
        s.skip_ws()
        nxt = s.src[s.pos + 1] if s.pos + 1 < len(s.src) else ""
        if nxt.isalnum() or nxt == "_":
            s.error(f"unknown identifier starting with {ch!r}")
        s.take()
        return Sym(ch)
    if s.src.startswith("exp", s.pos):
        s.pos += 3
        if s.peek() != "(":
            s.error("expected '(' after exp")
        s.take()
        node = _parse_expr(s)
        if s.peek() != ")":
            s.error("expected ')'")
        s.take()
        return Exp(node)
    s.error(f"unexpected character {ch!r}")


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
        a line of it); a pole or an overflow raises EvaluationError at its
        first node of the broadcast grid."""
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        message = "field evaluation is not finite"
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                value = np.asarray(expr.eval(x, y, z), dtype=float)
        except (ZeroDivisionError, OverflowError) as e:
            # only constant subtrees run in Python floats, so they fail at every node
            value, message = np.asarray(np.nan), str(e)
        bad = ~np.isfinite(value)
        if bad.any():
            shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
            i = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
            raise EvaluationError(message, tuple(np.broadcast_to(v, shape)[i] for v in (x, y, z)))
        return np.broadcast_to(value, value.shape)  # a read-only view


def parse(source: str) -> ScalarField:
    """Parse an expression string into a field with cached derivatives.

    Raises ExprSyntaxError (with byte offset) on malformed input.
    """
    s = _Scanner(source)
    expr = _parse_expr(s)
    s.skip_ws()
    if s.pos != len(s.src):
        s.error(f"trailing input {s.src[s.pos:]!r}")
    return ScalarField.from_expr(expr, source)


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
