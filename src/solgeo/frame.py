"""The model of E(1,1): coordinates, left-invariant frame, frame components.

Underlying manifold R^3 with global coordinates (x, y, z) and orthonormal
left-invariant frame

    X = d/dz
    Y = (1/sqrt2) (-e^z d/dx + e^-z d/dy)
    T = (1/sqrt2) ( e^z d/dx + e^-z d/dy)

{X, Y} spans the horizontal distribution, T is the Reeb field, and the
complex structure acts by J(X) = Y, J(Y) = -X.  The Lie brackets are
[X,Y] = -T, [X,T] = -Y, [Y,T] = 0.  The frame depends on z alone, so the
conversions here are exact arithmetic plus e^z factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT2 = math.sqrt(2.0)

#: tolerance below which the T-component of a vector counts as zero
TOL_HORIZONTAL = 1e-9


@dataclass(frozen=True)
class Point:
    """A point of E(1,1) in global coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite point {(self.x, self.y, self.z)}")


@dataclass(frozen=True)
class CoordVector:
    """Tangent vector in the coordinate basis d/dx, d/dy, d/dz."""

    dx: float
    dy: float
    dz: float


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


class TangentFrame:
    """Two coordinate tangents of a parametrized surface, in the frame.

    ``t1`` and ``t2`` are the (a, b, c) frame components of the tangents at
    height ``z``, one array per component; scalar tangent components
    broadcast against ``z``; e^z and e^-z are taken once for both.
    ``normal_components`` is their metric cross product and
    ``unit_normal`` its horizontal norm and T-component after
    normalization, with its norm, the area element, all component by
    component.
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

    def unit_normal(self):
        """(|N_h|, <N,T>, |t1 x t2|) of the unit normal N along t1 x t2."""
        n1, n2, n3 = self.normal_components
        norm = np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
        return np.hypot(n1, n2) / norm, n3 / norm, norm
