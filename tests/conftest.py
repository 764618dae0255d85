import dataclasses
import math

import numpy as np
import pytest

from solgeo.frame import CoordVector, Point, SQRT2, frame_components

#: central-difference step in eps of the <V, T> oracle
VT_FD_STEP = 1e-6


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def horizontal_velocity(p: Point, theta: float) -> CoordVector:
    """Unit horizontal vector cos(theta) X + sin(theta) Y at p, in coordinates."""
    return CoordVector(
        -math.sin(theta) * math.exp(p.z) / SQRT2,
        math.sin(theta) * math.exp(-p.z) / SQRT2,
        math.cos(theta),
    )


def random_point(rng, scale=1.5) -> Point:
    x, y, z = rng.uniform(-scale, scale, 3)
    return Point(float(x), float(y), float(z))


def as_array(v) -> np.ndarray:
    """The components of a ``Point``, ``FrameVector`` or ``CoordVector``."""
    return np.array(dataclasses.astuple(v), dtype=float)


def vertical_component_fd(surface, eps, t):
    """<V, T> of a ruled sweep from Richardson-extrapolated central
    differences of F in eps, contracted with the frame: an oracle for the
    analytic and the closed-form vertical components."""
    def diff(step):
        xp = np.stack(surface.point(eps + step, t))
        xm = np.stack(surface.point(eps - step, t))
        return (xp - xm) / (2.0 * step)
    v = (4.0 * diff(VT_FD_STEP / 2.0) - diff(VT_FD_STEP)) / 3.0
    _, _, z = surface.point(eps, t)
    return frame_components(z, v[0], v[1], v[2])[2]
