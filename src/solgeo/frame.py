"""The model of E(1,1): coordinates, left-invariant frame, and flat tensors.

Underlying manifold R^3 with global coordinates (x, y, z) and orthonormal
left-invariant frame

    X = d/dz
    Y = (1/sqrt2) (-e^z d/dx + e^-z d/dy)
    T = (1/sqrt2) ( e^z d/dx + e^-z d/dy)

{X, Y} spans the horizontal distribution, T is the Reeb field, and the
complex structure acts by J(X) = Y, J(Y) = -X.  The Lie brackets are
[X,Y] = -T, [X,T] = -Y, [Y,T] = 0; the canonical connection and torsion
are constant lookup tables in this frame, so everything here is exact
arithmetic plus e^z factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT2 = math.sqrt(2.0)

#: tolerance below which the T-component of a vector counts as zero
TOL_HORIZONTAL = 1e-9

#: Webster scalar curvature of E(1,1)
WEBSTER_CURVATURE = -0.5

#: squared operator norm of the torsion endomorphism (eigenvalues +-1/2 on
#: the horizontal plane), so that -2 * TORSION_NORM_SQ equals the Webster
#: curvature; the linear identity -2|tau| = W is recorded here for
#: reference but the quadratic form is the one checked by the test suite
TORSION_NORM_SQ = 0.25


@dataclass(frozen=True)
class Point:
    """A point of E(1,1) in global coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite point {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class FrameVector:
    """Tangent vector in the orthonormal frame {X, Y, T}."""

    a: float  # X-component
    b: float  # Y-component
    c: float  # T-component

    def norm(self) -> float:
        return math.sqrt(self.a * self.a + self.b * self.b + self.c * self.c)

    def is_horizontal(self, tol: float = TOL_HORIZONTAL) -> bool:
        return abs(self.c) <= tol

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)

    def scaled(self, factor: float) -> "FrameVector":
        return FrameVector(factor * self.a, factor * self.b, factor * self.c)

    def __add__(self, other: "FrameVector") -> "FrameVector":
        return FrameVector(self.a + other.a, self.b + other.b, self.c + other.c)


@dataclass(frozen=True)
class CoordVector:
    """Tangent vector in the coordinate basis d/dx, d/dy, d/dz."""

    dx: float
    dy: float
    dz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz], dtype=float)


def inner(u: FrameVector, v: FrameVector) -> float:
    """Metric inner product; the frame is orthonormal by construction."""
    return u.a * v.a + u.b * v.b + u.c * v.c


def frame_at(p: Point):
    """Coordinate components of (X, Y, T) at ``p``.

    The frame depends on z only; x and y translations leave it unchanged.
    """
    ez = math.exp(p.z)
    emz = math.exp(-p.z)
    X = CoordVector(0.0, 0.0, 1.0)
    Y = CoordVector(-ez / SQRT2, emz / SQRT2, 0.0)
    T = CoordVector(ez / SQRT2, emz / SQRT2, 0.0)
    return X, Y, T


def to_frame(p: Point, v: CoordVector) -> FrameVector:
    """Express a coordinate vector in the frame {X, Y, T} at ``p``."""
    a, b, c = frame_components(p.z, v.dx, v.dy, v.dz)
    return FrameVector(float(a), float(b), float(c))


def to_coord(p: Point, w: FrameVector) -> CoordVector:
    """Express a frame vector in coordinate components at ``p``."""
    dx, dy, dz = coord_components(p.z, w.a, w.b, w.c)
    return CoordVector(float(dx), float(dy), float(dz))


def frame_components(z, dx, dy, dz):
    """Vectorized coordinate-to-frame conversion.

    a = dz, b = (dy e^z - dx e^-z)/sqrt2, c = (dy e^z + dx e^-z)/sqrt2.
    """
    return _in_frame(np.exp(z), np.exp(-z), dx, dy, dz)


def _in_frame(ez, emz, dx, dy, dz):
    """``frame_components`` with e^z and e^-z given."""
    a = np.asarray(dz, dtype=float)
    b = (dy * ez - dx * emz) / SQRT2
    c = (dy * ez + dx * emz) / SQRT2
    return a, b, c


def coord_components(z, a, b, c):
    """Vectorized frame-to-coordinate conversion (inverse of the above)."""
    ez = np.exp(z)
    emz = np.exp(-z)
    dx = ez * (c - b) / SQRT2
    dy = emz * (b + c) / SQRT2
    dz = np.asarray(a, dtype=float)
    return dx, dy, dz


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


class TangentFrame:
    """Two coordinate tangents of a parametrized surface, in the frame.

    ``t1`` and ``t2`` are the (a, b, c) frame components of the tangents at
    height ``z``, one array per component; scalar tangent components
    broadcast against ``z``; e^z and e^-z are taken once for both.
    ``normal_components`` is their metric cross product and ``solve`` the
    first-fundamental-form solve against them, both component by component.
    """

    def __init__(self, z, t1, t2):
        ez, emz = np.exp(z), np.exp(-z)
        self.t1 = _in_frame(ez, emz, *t1)
        self.t2 = _in_frame(ez, emz, *t2)

    @cached_property
    def normal_components(self) -> tuple:
        """t1 x t2 in frame components (the frame is orthonormal)."""
        (a1, b1, c1), (a2, b2, c2) = self.t1, self.t2
        return b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2

    @cached_property
    def gram(self):
        """(g11, g12, g22, det) of the first fundamental form."""
        g11 = _dot(self.t1, self.t1)
        g12 = _dot(self.t1, self.t2)
        g22 = _dot(self.t2, self.t2)
        return g11, g12, g22, g11 * g22 - g12 * g12

    def area_element(self) -> np.ndarray:
        return np.sqrt(self.gram[3])

    def solve(self, a, b, c):
        """(alpha, beta) with alpha t1 + beta t2 the tangential part of the
        vector with frame components (a, b, c)."""
        g11, g12, g22, det = self.gram
        b1 = _dot((a, b, c), self.t1)
        b2 = _dot((a, b, c), self.t2)
        return (g22 * b1 - g12 * b2) / det, (-g12 * b1 + g11 * b2) / det


_FRAME_INDEX = {"X": 0, "Y": 1, "T": 2}

# [X,Y] = -T, [X,T] = -Y, [Y,T] = 0, extended antisymmetrically
_BRACKET_TABLE = {
    ("X", "Y"): (0.0, 0.0, -1.0),
    ("X", "T"): (0.0, -1.0, 0.0),
    ("Y", "T"): (0.0, 0.0, 0.0),
}

# nabla_u v for frame symbols u, v; only the T-row is nonzero, and the
# Reeb field itself is parallel (nabla T = 0)
_CONNECTION_TABLE = {
    ("X", "X"): (0.0, 0.0, 0.0),
    ("Y", "X"): (0.0, 0.0, 0.0),
    ("T", "X"): (0.0, 0.5, 0.0),
    ("X", "Y"): (0.0, 0.0, 0.0),
    ("Y", "Y"): (0.0, 0.0, 0.0),
    ("T", "Y"): (-0.5, 0.0, 0.0),
    ("X", "T"): (0.0, 0.0, 0.0),
    ("Y", "T"): (0.0, 0.0, 0.0),
    ("T", "T"): (0.0, 0.0, 0.0),
}


def _check_symbol(s: str) -> str:
    if s not in _FRAME_INDEX:
        raise ValueError(f"unknown frame symbol {s!r}; expected one of 'X', 'Y', 'T'")
    return s


def lie_bracket(u: str, v: str) -> FrameVector:
    """Bracket of two frame symbols, a constant frame vector."""
    _check_symbol(u)
    _check_symbol(v)
    if u == v:
        return FrameVector(0.0, 0.0, 0.0)
    if (u, v) in _BRACKET_TABLE:
        return FrameVector(*_BRACKET_TABLE[(u, v)])
    a, b, c = _BRACKET_TABLE[(v, u)]
    return FrameVector(-a, -b, -c)


def connection(u: FrameVector, v: str) -> FrameVector:
    """Covariant derivative nabla_u v of a frame symbol, linear in ``u``.

    The table is point independent.
    """
    _check_symbol(v)
    out = np.zeros(3)
    for coeff, sym in ((u.a, "X"), (u.b, "Y"), (u.c, "T")):
        out += coeff * np.asarray(_CONNECTION_TABLE[(sym, v)])
    return FrameVector(*out)


def torsion(v: FrameVector) -> FrameVector:
    """Torsion endomorphism tau(aX + bY + cT) = -(b/2) X - (a/2) Y."""
    return FrameVector(-0.5 * v.b, -0.5 * v.a, 0.0)


def webster_curvature() -> float:
    """Webster scalar curvature, constant on E(1,1)."""
    return WEBSTER_CURVATURE


def j_rotate(v: FrameVector) -> FrameVector:
    """Complex structure on the horizontal plane: J(X) = Y, J(Y) = -X.

    The Reeb component is annihilated.
    """
    return FrameVector(-v.b, v.a, 0.0)
