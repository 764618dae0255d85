import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgeo.frame import (
    CoordVector,
    FrameVector,
    Point,
    SQRT2,
    TORSION_NORM_SQ,
    TangentFrame,
    connection,
    frame_at,
    inner,
    j_rotate,
    lie_bracket,
    to_coord,
    to_frame,
    torsion,
    webster_curvature,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_frame_at_origin():
    X, Y, T = frame_at(Point(0, 0, 0))
    assert X.as_array() == pytest.approx([0, 0, 1])
    assert Y.as_array() == pytest.approx([-1 / SQRT2, 1 / SQRT2, 0])
    assert T.as_array() == pytest.approx([1 / SQRT2, 1 / SQRT2, 0])


def test_frame_depends_only_on_z():
    a = frame_at(Point(5, -3, 0))
    b = frame_at(Point(0, 0, 0))
    for u, v in zip(a, b):
        assert u.as_array() == pytest.approx(v.as_array())


def test_frame_at_z_one():
    _, Y, _ = frame_at(Point(0, 0, 1))
    assert Y.as_array() == pytest.approx([-math.e / SQRT2, math.exp(-1) / SQRT2, 0])


def test_to_frame_examples():
    assert to_frame(Point(0, 0, 0), CoordVector(0, 0, 1)).as_array() == pytest.approx([1, 0, 0])
    w = to_frame(Point(0, 0, 0), CoordVector(1, 1, 0))
    assert w.as_array() == pytest.approx([0, 0, SQRT2])
    z0 = 0.8
    y_coord = CoordVector(-math.exp(z0) / SQRT2, math.exp(-z0) / SQRT2, 0.0)
    assert to_frame(Point(0, 0, z0), y_coord).as_array() == pytest.approx([0, 1, 0])


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=60, deadline=None)
def test_roundtrip_coord_frame(x, y, z, dx, dy, dz):
    p = Point(x, y, z)
    v = CoordVector(dx, dy, dz)
    back = to_coord(p, to_frame(p, v))
    assert back.as_array() == pytest.approx(v.as_array(), abs=1e-12, rel=1e-12)


def test_orthonormality_bulk(rng):
    # the frame matrix rows, converted through to_frame, form the identity Gram
    zs = rng.uniform(-3, 3, 10_000)
    for z in zs[:: len(zs) // 100]:
        p = Point(0.0, 0.0, float(z))
        vecs = [to_frame(p, c) for c in frame_at(p)]
        gram = np.array([[inner(u, v) for v in vecs] for u in vecs])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def _stacked(components):
    """(..., 3) array of a frame's component triple."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def test_tangent_frame_normal_and_solve(rng):
    z = rng.uniform(-2, 2, 50)
    t1, t2 = (tuple(rng.normal(size=(3, 50))) for _ in range(2))
    tf = TangentFrame(z, t1, t2)
    e1, e2, n = _stacked(tf.t1), _stacked(tf.t2), _stacked(tf.normal_components)
    assert e1 == pytest.approx(np.stack(
        [to_frame(Point(0.0, 0.0, zi), CoordVector(*v)).as_array()
         for zi, v in zip(z, np.stack(t1, axis=-1))]))
    assert np.max(np.abs(np.sum(n * e1, -1)) + np.abs(np.sum(n * e2, -1))) < 1e-12
    assert tf.area_element() == pytest.approx(np.linalg.norm(n, axis=-1))
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


def test_lie_bracket_table():
    assert lie_bracket("X", "Y").as_array() == pytest.approx([0, 0, -1])
    assert lie_bracket("Y", "X").as_array() == pytest.approx([0, 0, 1])
    assert lie_bracket("Y", "T").as_array() == pytest.approx([0, 0, 0])
    assert lie_bracket("X", "T").as_array() == pytest.approx([0, -1, 0])
    assert lie_bracket("T", "T").as_array() == pytest.approx([0, 0, 0])


def test_bracket_matches_numerical_commutator(rng):
    # [U,V]^i = U(V^i) - V(U^i) on coordinate component functions
    def fields(p):
        return [c.as_array() for c in frame_at(p)]

    h = 1e-6
    names = ("X", "Y", "T")
    for _ in range(20):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        p = Point(float(x), float(y), float(z))
        comps = fields(p)
        for i, ui in enumerate(names):
            for j, vj in enumerate(names):
                acc = np.zeros(3)
                for axis in range(3):
                    step = np.zeros(3)
                    step[axis] = h
                    pp = Point(p.x + step[0], p.y + step[1], p.z + step[2])
                    pm = Point(p.x - step[0], p.y - step[1], p.z - step[2])
                    dV = (fields(pp)[j] - fields(pm)[j]) / (2 * h)
                    dU = (fields(pp)[i] - fields(pm)[i]) / (2 * h)
                    acc += comps[i][axis] * dV - comps[j][axis] * dU
                got = to_frame(p, CoordVector(*acc)).as_array()
                want = lie_bracket(ui, vj).as_array()
                assert np.max(np.abs(got - want)) < 1e-6


def test_connection_table_and_linearity():
    assert connection(FrameVector(0, 0, 1), "X").as_array() == pytest.approx([0, 0.5, 0])
    assert connection(FrameVector(1, 0, 0), "X").as_array() == pytest.approx([0, 0, 0])
    got = connection(FrameVector(1, 0, 2), "Y")
    assert got.as_array() == pytest.approx([-1, 0, 0])
    # Reeb field parallel
    for u in (FrameVector(1, 0, 0), FrameVector(0, 1, 0), FrameVector(0, 0, 1)):
        assert connection(u, "T").norm() == 0.0


def test_metric_compatibility_on_frame_pairs():
    # <nabla_u v, w> + <v, nabla_u w> = 0 for orthonormal constant fields
    syms = ("X", "Y", "T")
    basis = {s: FrameVector(*(1.0 if s2 == s else 0.0 for s2 in syms)) for s in syms}
    for u in syms:
        for v in syms:
            for w in syms:
                lhs = inner(connection(basis[u], v), basis[w]) + inner(
                    basis[v], connection(basis[u], w))
                assert lhs == pytest.approx(0.0, abs=1e-15)


def test_torsion_examples():
    assert torsion(FrameVector(1, 0, 0)).as_array() == pytest.approx([0, -0.5, 0])
    assert torsion(FrameVector(0, 0, 1)).as_array() == pytest.approx([0, 0, 0])
    assert torsion(FrameVector(1, 1, 0)).as_array() == pytest.approx([-0.5, -0.5, 0])


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=50, deadline=None)
def test_torsion_symmetric(a1, b1, c1, a2, b2, c2):
    u = FrameVector(a1, b1, c1)
    v = FrameVector(a2, b2, c2)
    assert inner(torsion(u), v) == pytest.approx(inner(u, torsion(v)), abs=1e-12)


def test_torsion_consistent_with_connection_and_brackets():
    # tau(V) = nabla_T V - nabla_V T - [T, V] for frame symbols
    syms = ("X", "Y", "T")
    basis = {s: FrameVector(*(1.0 if s2 == s else 0.0 for s2 in syms)) for s in syms}
    for s in syms:
        tor = connection(basis["T"], s).as_array() - connection(basis[s], "T").as_array()
        tor -= -lie_bracket(s, "T").as_array()
        assert tor == pytest.approx(torsion(basis[s]).as_array(), abs=1e-15)


def test_webster_curvature_and_torsion_norm():
    assert webster_curvature() == -0.5
    assert -2.0 * TORSION_NORM_SQ == webster_curvature()


def test_complex_structure_involution():
    X = FrameVector(1, 0, 0)
    Y = FrameVector(0, 1, 0)
    assert j_rotate(X).as_array() == pytest.approx(Y.as_array())
    assert j_rotate(Y).as_array() == pytest.approx([-1, 0, 0])
    assert j_rotate(j_rotate(X)).as_array() == pytest.approx([-1, 0, 0])
    assert j_rotate(FrameVector(0, 0, 1)).norm() == 0.0


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0, 0.0)
