"""Oracles for ROADMAP item 1: Q(u) should be the second variation of area.

On plane-z at c = 0, the graph z = eta u(x, y) of the bump u = b1(x) b2(y)
of ``area_compare`` has the area

    A(eta) = int sqrt(1 + eta^2 F^2 / 2) dx dy,
    F = u_x e^{eta u} - u_y e^{-eta u},

so A''(0) = int (Yu)^2 dx dy with Yu = (u_x e^z - u_y e^{-z}) / sqrt(2) at
z = 0.  Expanding, with a = u_x - u_y,

    2 (A(eta) - A(0)) / eta^2 = int a^2 / 2 + eta int u (u_x^2 - u_y^2)
                                + eta^2 K + O(eta^3),
    K = int u^2 (u_x^2 + u_y^2) - int a^4 / 16.

Here b1 = b2, so the eta term vanishes; A is even in eta, since
(x, y, eta) -> (y, x, -eta) leaves F^2 unchanged, so the remainder is
O(eta^4).  The integrals below are taken on tensor Gauss-Legendre nodes, not
by ``area_compare``'s graph quadrature.
"""

import numpy as np
import pytest

from solgeo.stability import (AREA_WINDOW, BUMP_WIDTH_FRAC, Bump, TestFunction, area_compare,
                              patch_for_catalog, q_form)

#: area_compare's bumps: centred on the window, no plateau, BUMP_WIDTH_FRAC of it wide
B1, B2 = (Bump(0.5 * (lo + hi), 0.0, BUMP_WIDTH_FRAC * 0.5 * (hi - lo)) for lo, hi in AREA_WINDOW)


def _nodes(bump, order):
    """Gauss-Legendre nodes and weights on each half of the bump's support:
    it is a polynomial of degree 5 on each, joined C^2 at the centre."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = bump.support()
    halves = [(lo, bump.center), (bump.center, hi)]
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b in halves])
    weights = np.concatenate([0.5 * (b - a) * w for a, b in halves])
    return nodes, weights


def _integrals(order):
    """(int (Yu)^2, K) on the tensor grid of ``order`` nodes per half-axis."""
    x, wx = _nodes(B1, order)
    y, wy = _nodes(B2, order)
    b1, d1 = B1(x)[:, None], B1.deriv(x)[:, None]
    b2, d2 = B2(y)[None, :], B2.deriv(y)[None, :]
    u, ux, uy = b1 * b2, d1 * b2, b1 * d2
    w = wx[:, None] * wy[None, :]
    a = ux - uy
    yu2 = float(np.sum(w * a * a / 2.0))
    k = float(np.sum(w * (u * u * (ux * ux + uy * uy) - a ** 4 / 16.0)))
    return yu2, k


def _a2():
    """int (Yu)^2 and its error: the integrands are polynomials of degree at
    most 20 per axis on each half, which 12 and 16 nodes integrate exactly, so
    the difference of the two is round-off; 64 eps of the value is added."""
    (lo, _), (hi, k) = _integrals(12), _integrals(16)
    return hi, abs(hi - lo) + 64 * np.finfo(float).eps * hi, k


def test_area_limit_is_the_integral_of_yu_squared():
    a2, a2_error, k = _a2()
    assert a2 == pytest.approx(2.238714, abs=1e-6)
    # K = 0.7406 here; 2|K| eta^2 bounds the eta^2 term and the O(eta^4) rest
    assert 0.5 < k < 1.0
    for eta in (0.01, 0.003):
        result = area_compare("plane-z", eta, grid=100)
        limit = 2.0 * result["delta_area"] / eta ** 2
        tolerance = 2.0 * result["error_estimate"] / eta ** 2 + a2_error + 2.0 * abs(k) * eta ** 2
        assert abs(limit - a2) <= tolerance, (eta, limit, a2, tolerance)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: Q(u) is not yet the second "
                   "variation of area; on plane-z it gives 5.382139 against 2.238714")
def test_q_form_is_the_second_variation_on_plane_z():
    a2, a2_error, _ = _a2()
    report = q_form(patch_for_catalog("plane-z"), TestFunction(B1, B2))
    assert abs(report.total - a2) <= report.error_estimate + a2_error, report.total
