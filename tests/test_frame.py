import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_array
from solgeo.frame import CoordVector, Point, SQRT2, TangentFrame, to_frame


def frame_at(p: Point):
    """Coordinate components of (X, Y, T) at ``p``, from the module docstring
    of ``solgeo.frame``: X = d/dz, Y = (-e^z d/dx + e^-z d/dy)/sqrt2,
    T = (e^z d/dx + e^-z d/dy)/sqrt2."""
    ez, emz = math.exp(p.z), math.exp(-p.z)
    return (CoordVector(0.0, 0.0, 1.0),
            CoordVector(-ez / SQRT2, emz / SQRT2, 0.0),
            CoordVector(ez / SQRT2, emz / SQRT2, 0.0))


def in_frame(p: Point):
    """``to_frame`` of the frame at ``p``, one row per field X, Y, T."""
    return np.array([as_array(to_frame(p, v)) for v in frame_at(p)])


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_frame_at_origin():
    X, Y, T = frame_at(Point(0, 0, 0))
    assert as_array(X) == pytest.approx([0, 0, 1])
    assert as_array(Y) == pytest.approx([-1 / SQRT2, 1 / SQRT2, 0])
    assert as_array(T) == pytest.approx([1 / SQRT2, 1 / SQRT2, 0])
    assert in_frame(Point(0, 0, 0)) == pytest.approx(np.eye(3), abs=1e-15)


def test_frame_depends_only_on_z():
    # to_frame reads the height only: x and y translations leave it unchanged
    v = CoordVector(0.3, -1.2, 0.7)
    for z in (0.0, 1.0, -2.5):
        assert to_frame(Point(5, -3, z), v) == to_frame(Point(0, 0, z), v)


def test_frame_at_z_one():
    assert in_frame(Point(0, 0, 1)) == pytest.approx(np.eye(3), abs=1e-15)


def test_to_frame_examples():
    x = to_frame(Point(0, 0, 0), CoordVector(0, 0, 1))
    assert as_array(x) == pytest.approx([1, 0, 0])
    w = to_frame(Point(0, 0, 0), CoordVector(1, 1, 0))
    assert as_array(w) == pytest.approx([0, 0, SQRT2])
    z0 = 0.8
    y_coord = CoordVector(-math.exp(z0) / SQRT2, math.exp(-z0) / SQRT2, 0.0)
    assert as_array(to_frame(Point(0, 0, z0), y_coord)) == pytest.approx([0, 1, 0])


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=60, deadline=None)
def test_roundtrip_coord_frame(x, y, z, a, b, c):
    # a X + b Y + c T, assembled in coordinates, comes back as (a, b, c)
    p = Point(x, y, z)
    X, Y, T = (as_array(e) for e in frame_at(p))
    v = CoordVector(*(a * X + b * Y + c * T))
    assert as_array(to_frame(p, v)) == pytest.approx([a, b, c], abs=1e-12, rel=1e-12)


def test_orthonormality_bulk(rng):
    # the frame fields, converted through to_frame, form the identity Gram
    zs = rng.uniform(-3, 3, 10_000)
    for z in zs[:: len(zs) // 100]:
        vecs = in_frame(Point(0.0, 0.0, float(z)))
        assert np.max(np.abs(vecs @ vecs.T - np.eye(3))) < 1e-12


def _stacked(components):
    """(..., 3) array of a frame's component triple."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def test_tangent_frame_normal_and_solve(rng):
    z = rng.uniform(-2, 2, 50)
    t1, t2 = (tuple(rng.normal(size=(3, 50))) for _ in range(2))
    tf = TangentFrame(z, t1, t2)
    e1, e2, n = _stacked(tf.t1), _stacked(tf.t2), _stacked(tf.normal_components)
    assert e1 == pytest.approx(np.stack(
        [as_array(to_frame(Point(0.0, 0.0, zi), CoordVector(*v)))
         for zi, v in zip(z, np.stack(t1, axis=-1))]))
    assert np.max(np.abs(np.sum(n * e1, -1)) + np.abs(np.sum(n * e2, -1))) < 1e-12
    assert tf.area_element() == pytest.approx(np.linalg.norm(n, axis=-1))
    # the unit normal's horizontal norm and T-component
    nh, nt = tf.unit_normal()
    unit = n / np.linalg.norm(n, axis=-1, keepdims=True)
    assert nh == pytest.approx(np.hypot(unit[:, 0], unit[:, 1]))
    assert nt == pytest.approx(unit[:, 2])
    # a tangential vector plus a normal part: the solve recovers its coefficients
    alpha, beta = rng.normal(size=(2, 50))
    v = alpha[:, None] * e1 + beta[:, None] * e2 + 0.7 * n
    got_a, got_b = tf.solve(*np.moveaxis(v, -1, 0))
    assert got_a == pytest.approx(alpha) and got_b == pytest.approx(beta)
    # scalar components broadcast against z
    flat = TangentFrame(z, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert _stacked(flat.t1).shape == _stacked(flat.t2).shape == (50, 3)


def _stacked_solve_and_area(e1, e2, v):
    """The (..., 3) first-fundamental-form solve and area element that the
    componentwise ``TangentFrame`` replaced, kept as its oracle."""
    g11 = np.sum(e1 * e1, axis=-1)
    g12 = np.sum(e1 * e2, axis=-1)
    g22 = np.sum(e2 * e2, axis=-1)
    det = g11 * g22 - g12 * g12
    b1 = np.sum(v * e1, axis=-1)
    b2 = np.sum(v * e2, axis=-1)
    return (g22 * b1 - g12 * b2) / det, (-g12 * b1 + g11 * b2) / det, np.sqrt(det)


def test_componentwise_frame_matches_stacked_formulas(rng):
    z = rng.uniform(-2, 2, (40, 30))
    t1, t2, v = (tuple(rng.normal(size=(3, 40, 30))) for _ in range(3))
    tf = TangentFrame(z, t1, t2)
    e1, e2 = _stacked(tf.t1), _stacked(tf.t2)
    want_a, want_b, want_area = _stacked_solve_and_area(e1, e2, np.stack(v, axis=-1))
    got_a, got_b = tf.solve(*v)
    for got, want in ((got_a, want_a), (got_b, want_b), (tf.area_element(), want_area)):
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-13
    # the normal is the numpy cross product, bit for bit
    assert np.array_equal(_stacked(tf.normal_components), np.cross(e1, e2))
    # a scalar component broadcasts, as the Z solve passes a zero T-part
    got_a, got_b = tf.solve(v[0], v[1], 0.0)
    want_a, want_b, _ = _stacked_solve_and_area(
        e1, e2, np.stack([v[0], v[1], np.zeros_like(z)], axis=-1))
    assert np.max(np.abs(got_a - want_a) / (1.0 + np.abs(want_a))) < 1e-13
    assert np.max(np.abs(got_b - want_b) / (1.0 + np.abs(want_b))) < 1e-13


#: [X,Y] = -T, [X,T] = -Y, [Y,T] = 0 in frame components, extended
#: antisymmetrically; rows and columns in the order X, Y, T
BRACKETS = np.array([
    [[0, 0, 0], [0, 0, -1], [0, -1, 0]],
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
], dtype=float)


def test_lie_bracket_table():
    # the frame depends on z alone, so [U,V] = U^z dV/dz - V^z dU/dz with the
    # exact z-derivatives dY/dz = -T and dT/dz = -Y of the coordinate fields
    for z in (0.0, 0.8, -1.7):
        p = Point(0.0, 0.0, z)
        X, Y, T = (as_array(e) for e in frame_at(p))
        fields = (X, Y, T)
        dz = (np.zeros(3), -T, -Y)
        for i in range(3):
            for j in range(3):
                coord = fields[i][2] * dz[j] - fields[j][2] * dz[i]
                got = as_array(to_frame(p, CoordVector(*coord)))
                assert got == pytest.approx(BRACKETS[i, j], abs=1e-15)


def test_bracket_matches_numerical_commutator(rng):
    # [U,V]^i = U(V^i) - V(U^i) on coordinate component functions
    def fields(p):
        return [as_array(c) for c in frame_at(p)]

    h = 1e-6
    for _ in range(20):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        p = Point(float(x), float(y), float(z))
        comps = fields(p)
        for i in range(3):
            for j in range(3):
                acc = np.zeros(3)
                for axis in range(3):
                    step = np.zeros(3)
                    step[axis] = h
                    pp = Point(p.x + step[0], p.y + step[1], p.z + step[2])
                    pm = Point(p.x - step[0], p.y - step[1], p.z - step[2])
                    dV = (fields(pp)[j] - fields(pm)[j]) / (2 * h)
                    dU = (fields(pp)[i] - fields(pm)[i]) / (2 * h)
                    acc += comps[i][axis] * dV - comps[j][axis] * dU
                got = as_array(to_frame(p, CoordVector(*acc)))
                assert np.max(np.abs(got - BRACKETS[i, j])) < 1e-6


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0, 0.0)
