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

from .errors import EvaluationError, ExprSyntaxError
from .frame import CoordVector, Point

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Expr:
    """Expression-tree node. Subclasses implement eval/diff/to_source."""

    def eval(self, x, y, z):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def to_source(self) -> str:
        raise NotImplementedError

    def has_division(self) -> bool:
        return any(child.has_division() for child in self.children())

    def children(self):
        return ()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_source()})"


@dataclass(frozen=True, repr=False)
class Num(Expr):
    value: float

    def eval(self, x, y, z):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def to_source(self):
        if self.value < 0:
            return f"({self.value:.17g})"
        return f"{self.value:.17g}"


@dataclass(frozen=True, repr=False)
class Sym(Expr):
    name: str  # 'x', 'y' or 'z'

    def eval(self, x, y, z):
        return {"x": x, "y": y, "z": z}[self.name]

    def diff(self, var):
        return Num(1.0 if var == self.name else 0.0)

    def to_source(self):
        return self.name


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) + self.right.eval(x, y, z)

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))

    def to_source(self):
        return f"{self.left.to_source()} + {self.right.to_source()}"

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) - self.right.eval(x, y, z)

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))

    def to_source(self):
        r = self.right.to_source()
        if isinstance(self.right, (Add, Sub)):
            r = f"({r})"
        return f"{self.left.to_source()} - {r}"

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
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

    def to_source(self):
        l = self.left.to_source()
        r = self.right.to_source()
        if isinstance(self.left, (Add, Sub)):
            l = f"({l})"
        if isinstance(self.right, (Add, Sub)):
            r = f"({r})"
        return f"{l}*{r}"

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr

    def eval(self, x, y, z):
        return self.left.eval(x, y, z) / self.right.eval(x, y, z)

    def diff(self, var):
        # (l/r)' = l'/r - l r'/r^2
        return sub(
            div(self.left.diff(var), self.right),
            div(mul(self.left, self.right.diff(var)), Pow(self.right, 2)),
        )

    def to_source(self):
        l = self.left.to_source()
        r = self.right.to_source()
        if isinstance(self.left, (Add, Sub)):
            l = f"({l})"
        if isinstance(self.right, (Add, Sub, Mul, Div)):
            r = f"({r})"
        return f"{l}/{r}"

    def children(self):
        return (self.left, self.right)

    def has_division(self):
        return True


@dataclass(frozen=True, repr=False)
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

    def to_source(self):
        b = self.base.to_source()
        if not isinstance(self.base, (Num, Sym)):
            b = f"({b})"
        return f"{b}^{self.exponent}"

    def children(self):
        return (self.base,)

    def has_division(self):
        return self.exponent < 0 or self.base.has_division()


@dataclass(frozen=True, repr=False)
class Exp(Expr):
    arg: Expr

    def eval(self, x, y, z):
        return np.exp(self.arg.eval(x, y, z))

    def diff(self, var):
        return mul(self, self.arg.diff(var))

    def to_source(self):
        return f"exp({self.arg.to_source()})"

    def children(self):
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def eval(self, x, y, z):
        return -self.arg.eval(x, y, z)

    def diff(self, var):
        return neg(self.arg.diff(var))

    def to_source(self):
        a = self.arg.to_source()
        if not isinstance(self.arg, (Num, Sym, Exp)):
            a = f"({a})"
        return f"-{a}"

    def children(self):
        return (self.arg,)


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
    def from_expr(expr: Expr, source: str | None = None) -> "ScalarField":
        grad = tuple(expr.diff(v) for v in _VARS)
        # second partials from the gradient trees, upper triangle
        hess = (
            grad[0].diff("x"), grad[0].diff("y"), grad[0].diff("z"),
            grad[1].diff("y"), grad[1].diff("z"),
            grad[2].diff("z"),
        )
        return ScalarField(expr, source if source is not None else expr.to_source(),
                           grad, hess)

    # -- scalar API ---------------------------------------------------------

    def value(self, p: Point) -> float:
        return float(self._checked(self._eval_at(self.expr, p), p))

    def gradient(self, p: Point) -> CoordVector:
        gx, gy, gz = (self._checked(self._eval_at(g, p), p) for g in self.grad_exprs)
        return CoordVector(float(gx), float(gy), float(gz))

    def hessian(self, p: Point) -> np.ndarray:
        uxx, uxy, uxz, uyy, uyz, uzz = (
            self._checked(self._eval_at(h, p), p) for h in self.hess_exprs
        )
        return np.array([[uxx, uxy, uxz], [uxy, uyy, uyz], [uxz, uyz, uzz]], dtype=float)

    @staticmethod
    def _eval_at(expr: Expr, p: Point):
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                return expr.eval(p.x, p.y, p.z)
        except (ZeroDivisionError, OverflowError) as e:
            raise EvaluationError(str(e), (p.x, p.y, p.z)) from e

    def _checked(self, value, p):
        if not np.all(np.isfinite(value)):
            raise EvaluationError("field evaluation is not finite", (p.x, p.y, p.z))
        return value

    # -- array API (used by grid evaluation downstream) ----------------------

    def values(self, x, y, z):
        return self._checked_arrays(self._eval_arrays(self.expr, x, y, z), x, y, z)

    def grad_arrays(self, x, y, z):
        return tuple(self._checked_arrays(self._eval_arrays(g, x, y, z), x, y, z)
                     for g in self.grad_exprs)

    def hessian_arrays(self, x, y, z):
        """(uxx, uxy, uxz, uyy, uyz, uzz) broadcast over the inputs."""
        return tuple(self._checked_arrays(self._eval_arrays(h, x, y, z), x, y, z)
                     for h in self.hess_exprs)

    @staticmethod
    def _eval_arrays(expr: Expr, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return expr.eval(x, y, z)

    def _checked_arrays(self, value, x, y, z):
        value = np.broadcast_to(np.asarray(value, dtype=float),
                                np.broadcast(np.asarray(x), np.asarray(y),
                                             np.asarray(z)).shape).copy()
        bad = ~np.isfinite(value)
        if bad.any():
            i = tuple(idx[0] for idx in np.nonzero(bad))
            pt = (np.broadcast_to(x, value.shape)[i],
                  np.broadcast_to(y, value.shape)[i],
                  np.broadcast_to(z, value.shape)[i])
            raise EvaluationError("field evaluation is not finite", pt)
        return value

    def has_division(self) -> bool:
        return self.expr.has_division()

    def pretty(self) -> str:
        return self.expr.to_source()


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


def catalog(name: str, **params) -> ScalarField:
    """Named defining functions so CLI users need not type formulas.

    plane-x       x + c
    plane-y       y + c
    plane-z       z + c
    plane-ab      a*x + b*y + c                  (requires (a, b) != (0, 0))
    tilted        a*x + b*y + c*z + d            (not minimal when c != 0)
    saddle-point  exp(z - z0)*(y - y0) + x - x0  (minimal for every parameter
                  choice; its single singular point sits at (x0, y0, -z0))
    saddle-curve  exp(z - z0)*(y - y0) + exp(-z - z0)*(x - x0)
                  (minimal; zero set is independent of z0, which only
                  rescales the function; the singular set is the vertical
                  line x = x0, y = y0)
    """
    from .errors import BadParams

    if name == "plane-x":
        c = float(params.get("c", 0.0))
        return parse(f"x + {_lit(c)}")
    if name == "plane-y":
        c = float(params.get("c", 0.0))
        return parse(f"y + {_lit(c)}")
    if name == "plane-z":
        c = float(params.get("c", 0.0))
        return parse(f"z + {_lit(c)}")
    if name == "plane-ab":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        c = float(params.get("c", 0.0))
        if a == 0.0 and b == 0.0:
            raise BadParams("plane-ab needs (a, b) != (0, 0)")
        return parse(f"{_lit(a)}*x + {_lit(b)}*y + {_lit(c)}")
    if name == "tilted":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        c = float(params.get("c", 1.0))
        d = float(params.get("d", 0.0))
        return parse(f"{_lit(a)}*x + {_lit(b)}*y + {_lit(c)}*z + {_lit(d)}")
    if name == "saddle-point":
        x0 = float(params.get("x0", 0.0))
        y0 = float(params.get("y0", 0.0))
        z0 = float(params.get("z0", 0.0))
        return parse(f"exp(z - {_lit(z0)})*(y - {_lit(y0)}) + x - {_lit(x0)}")
    if name == "saddle-curve":
        x0 = float(params.get("x0", 0.0))
        y0 = float(params.get("y0", 0.0))
        z0 = float(params.get("z0", 0.0))
        return parse(
            f"exp(z - {_lit(z0)})*(y - {_lit(y0)})"
            f" + exp(-z - {_lit(z0)})*(x - {_lit(x0)})"
        )
    raise BadParams(f"unknown catalog surface {name!r}")


CATALOG_NAMES = ("plane-x", "plane-y", "plane-z", "plane-ab", "tilted",
                 "saddle-point", "saddle-curve")
