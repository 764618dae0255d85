"""Pointwise sub-Riemannian geometry of a level-set surface u = 0.

Conventions used throughout:

* the frame gradient of u has components W1 = X(u), W2 = Y(u), W3 = T(u);
* the inner unit normal is N = -grad(u)/|grad(u)| in frame components, so
  nu_h = -(W1 X + W2 Y)/D and Z = J(nu_h) = (W2 X - W1 Y)/D with
  D = sqrt(W1^2 + W2^2).  Callers wanting the opposite orientation negate u;
* a point is singular when |N_h| (with unit N) drops below EPS_SING;
* the mean curvature is H = -<nabla_Z nu_h, Z>.  The connection terms in
  nabla_Z vanish because Z is horizontal, so H reduces to directional
  derivatives of the nu_h components along Z, which come from the exact
  second partials of u.

The unnormalized minimal-surface residual is the coordinate polynomial

    u_zz G^2 + u_z^2 (e^{2z} u_xx - 2 u_xy + e^{-2z} u_yy)
      - u_z G (-2 e^z u_xz - e^z u_x + 2 e^{-z} u_yz - e^{-z} u_y),

with G = -e^z u_x + e^{-z} u_y.  It equals exactly twice the frame form

    Y(u)^2 XX(u) - Y(u) X(u) (YX(u) + XY(u)) + X(u)^2 YY(u)

and both equal 2 D^3 H at non-singular points; the sign of the e^{2z} u_xx
term is forced by that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, OffSurface, SingularPoint
from .expressions import ScalarField
from .frame import FrameVector, Point, SQRT2

EPS_SING = 1e-9
EPS_LEVEL = 1e-9

#: relative agreement demanded between the coordinate and frame residuals
RESIDUAL_CROSSCHECK_RTOL = 1e-9

#: agreement demanded between the three forms of the stability quantity
STABILITY_QUANTITY_TOL = 1e-12


def raw_fields(field: ScalarField, x, y, z):
    """All pointwise surface quantities on broadcastable coordinate arrays.

    Returns a dict of arrays.  Entries that need division by D (nu_h, Z,
    curvature, ...) are valid only where ``singular`` is False; they are
    computed with errors silenced and contain garbage on the singular set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ez = np.exp(z)
    emz = np.exp(-z)

    u = field.values(x, y, z)
    ux, uy, uz = field.grad_arrays(x, y, z)
    uxx, uxy, uxz, uyy, uyz, uzz = field.hessian_arrays(x, y, z)

    W1 = uz
    W2 = (-ez * ux + emz * uy) / SQRT2
    W3 = (ez * ux + emz * uy) / SQRT2

    # coordinate partials of W1, W2, W3, needed for derivatives of nu_h
    dW1 = (uxz, uyz, uzz)
    dW2 = ((-ez * uxx + emz * uxy) / SQRT2,
           (-ez * uxy + emz * uyy) / SQRT2,
           (-ez * (ux + uxz) + emz * (uyz - uy)) / SQRT2)
    dW3 = ((ez * uxx + emz * uxy) / SQRT2,
           (ez * uxy + emz * uyy) / SQRT2,
           (ez * (ux + uxz) + emz * (uyz - uy)) / SQRT2)

    D2 = W1 * W1 + W2 * W2
    gn2 = D2 + W3 * W3

    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.sqrt(D2)
        gn = np.sqrt(gn2)
        nh = D / gn
        nt = -W3 / gn
        nu1 = -W1 / D
        nu2 = -W2 / D
        zx = W2 / D
        zy = -W1 / D

        dD = tuple((W1 * dW1[i] + W2 * dW2[i]) / D for i in range(3))
        dnu1 = tuple(-dW1[i] / D + W1 * dD[i] / D2 for i in range(3))
        dnu2 = tuple(-dW2[i] / D + W2 * dD[i] / D2 for i in range(3))

        # Z and S in coordinate components
        Zc = (-ez * zy / SQRT2, emz * zy / SQRT2, zx)
        sb = nt * nu2
        Sc = (ez * (-nh - sb) / SQRT2, emz * (sb - nh) / SQRT2, nt * nu1)

        def along(vec, df):
            return vec[0] * df[0] + vec[1] * df[1] + vec[2] * df[2]

        H = -(along(Zc, dnu1) * zx + along(Zc, dnu2) * zy)
        # <nabla_S nu_h, Z>; S carries a T-component -nh, which turns on the
        # constant connection terms nabla_T X = Y/2, nabla_T Y = -X/2
        grad_s_nu_z = ((along(Sc, dnu1) + nu2 * nh / 2.0) * zx
                       + (along(Sc, dnu2) - nu1 * nh / 2.0) * zy)

        # ratio <N,T>/|N_h| and its derivative along Z (|grad u| cancels)
        q = -W3 / D
        dq = tuple(-dW3[i] / D + W3 * dD[i] / D2 for i in range(3))
        Zq = along(Zc, dq)

        normalized_residual_den = D2 * D

    G = SQRT2 * W2
    residual_coord = (
        uzz * G * G
        + uz * uz * (ez * ez * uxx - 2.0 * uxy + emz * emz * uyy)
        - uz * G * (-2.0 * ez * uxz - ez * ux + 2.0 * emz * uyz - emz * uy)
    )
    # cancellation-free magnitude of the residual's summands; eps times this
    # bounds the evaluation noise, which matters when dividing by D^3 near
    # the singular set (G itself is a difference of same-size products)
    g_abs = ez * np.abs(ux) + emz * np.abs(uy)
    residual_scale = (
        np.abs(uzz) * g_abs * g_abs
        + uz * uz * (ez * ez * np.abs(uxx) + 2.0 * np.abs(uxy) + emz * emz * np.abs(uyy))
        + np.abs(uz) * g_abs * (2.0 * ez * np.abs(uxz) + ez * np.abs(ux)
                                + 2.0 * emz * np.abs(uyz) + emz * np.abs(uy))
    )
    XX = uzz
    YX = (-ez * uxz + emz * uyz) / SQRT2
    XY = dW2[2]
    YY = 0.5 * (ez * ez * uxx - 2.0 * uxy + emz * emz * uyy)
    residual_frame = W2 * W2 * XX - W1 * W2 * (YX + XY) + W1 * W1 * YY

    return {
        "u": u, "W1": W1, "W2": W2, "W3": W3, "D": D, "D2": D2,
        "grad_norm": gn, "nh": nh, "nt": nt,
        "nu1": nu1, "nu2": nu2, "zx": zx, "zy": zy,
        "H": H, "grad_s_nu_z": grad_s_nu_z, "q": q, "Zq": Zq,
        "residual_coord": residual_coord, "residual_frame": residual_frame,
        "residual_scale": residual_scale,
        "normalized_residual_den": normalized_residual_den,
        "singular": nh < EPS_SING,
        "degenerate": gn == 0.0,
    }


@dataclass(frozen=True)
class SurfacePointData:
    """Adapted frame of the surface u = 0 at one point."""

    p: Point
    N: FrameVector          # inner unit normal
    nh_norm: float          # |N_h|
    nt: float               # <N, T>
    nu_h: FrameVector | None
    Z: FrameVector | None
    S: FrameVector | None
    singular: bool


def point_data(field: ScalarField, p: Point) -> SurfacePointData:
    """Adapted surface frame at ``p``, which must lie on the zero set.

    Raises DegeneratePoint when the full gradient vanishes and OffSurface
    when |u(p)| / |grad u(p)| exceeds EPS_LEVEL; the point is singular
    when |N_h| < EPS_SING.
    """
    f = raw_fields(field, p.x, p.y, p.z)
    gn = float(f["grad_norm"])
    if gn == 0.0:
        raise DegeneratePoint(f"gradient vanishes at {p}")
    if abs(float(f["u"])) / gn >= EPS_LEVEL:
        raise OffSurface(f"|u|={float(f['u']):.3e} exceeds level tolerance at {p}")
    W1, W2, W3 = float(f["W1"]), float(f["W2"]), float(f["W3"])
    N = FrameVector(-W1 / gn, -W2 / gn, -W3 / gn)
    nh = float(f["nh"])
    nt = float(f["nt"])
    if nh < EPS_SING:
        return SurfacePointData(p, N, nh, nt, None, None, None, True)
    nu_h = FrameVector(float(f["nu1"]), float(f["nu2"]), 0.0)
    Z = FrameVector(float(f["zx"]), float(f["zy"]), 0.0)
    S = FrameVector(nt * nu_h.a, nt * nu_h.b, -nh)
    return SurfacePointData(p, N, nh, nt, nu_h, Z, S, False)


def mean_curvature(field: ScalarField, p: Point) -> float:
    """H = -<nabla_Z nu_h, Z> from exact second partials of u."""
    d = point_data(field, p)
    if d.singular:
        raise SingularPoint(f"mean curvature undefined on the singular set at {p}")
    f = raw_fields(field, p.x, p.y, p.z)
    return float(f["H"])


def minimal_residual(field: ScalarField, p: Point) -> float:
    """Unnormalized minimal-surface residual; defined even off the surface.

    Cross-checks the coordinate polynomial against the frame form
    (they agree identically; see the module docstring).
    """
    f = raw_fields(field, p.x, p.y, p.z)
    coord = float(f["residual_coord"])
    frame = float(f["residual_frame"])
    scale = 1.0 + abs(coord) + abs(frame)
    if abs(coord - 2.0 * frame) > RESIDUAL_CROSSCHECK_RTOL * scale:
        raise AssertionError(
            f"coordinate and frame residual forms disagree at {p}: "
            f"{coord!r} vs 2*{frame!r}")
    return coord


def frame_minimal_residual(field: ScalarField, p: Point) -> float:
    """The frame form Y(u)^2 XX(u) - Y(u)X(u)(YX+XY)(u) + X(u)^2 YY(u)."""
    f = raw_fields(field, p.x, p.y, p.z)
    return float(f["residual_frame"])


def normalized_minimal_residual(field: ScalarField, p: Point) -> float:
    """Residual divided by D^3; scale invariant, equals 2H off the singular set."""
    f = raw_fields(field, p.x, p.y, p.z)
    den = float(f["normalized_residual_den"])
    if den == 0.0:
        raise SingularPoint(f"normalized residual undefined at singular point {p}")
    return float(f["residual_coord"]) / den


def surface_torsion_terms(field: ScalarField, p: Point):
    """Torsion contractions in the adapted frame: (<tau(Z),Z>, <tau(Z),nu_h>).

    Returns the surface-adapted identities

        <tau(Z), Z>    = -<Z,X><Z,Y>
        <tau(Z), nu_h> = (1/2)(<Z,Y>^2 - <Z,X>^2)

    The first is also the direct matrix contraction of the constant torsion
    endomorphism with Z.  The direct contraction of the second identity
    comes out with the opposite sign under this frame's torsion table and
    J-orientation; ``torsion_terms_detail`` exposes both values.
    """
    d = _require_nonsingular(field, p)
    zx, zy = d.Z.a, d.Z.b
    tau_zz = -zx * zy
    tau_znu = 0.5 * (zy * zy - zx * zx)
    return tau_zz, tau_znu


def torsion_terms_detail(field: ScalarField, p: Point) -> dict:
    """Adapted-frame identities plus the direct endomorphism contractions."""
    from .frame import inner, torsion

    d = _require_nonsingular(field, p)
    tau_zz, tau_znu = surface_torsion_terms(field, p)
    tz = torsion(d.Z)
    return {
        "tau_zz": tau_zz,
        "tau_znu": tau_znu,
        "tau_zz_direct": inner(tz, d.Z),
        "tau_znu_direct": inner(tz, d.nu_h),
    }


def necessary_stability_quantity(field: ScalarField, p: Point) -> float:
    """<Z,X>^2 - 1, the non-positive quantity every stable non-singular
    surface must exhibit.

    Asserts that the three equivalent expressions

        W - <tau(Z), nu_h>  ==  <nu_h, Y>^2 - 1  ==  <Z, X>^2 - 1

    agree to STABILITY_QUANTITY_TOL (with <tau(Z),nu_h> taken in the
    adapted-frame form above and W = -1/2).
    """
    from .frame import webster_curvature

    d = _require_nonsingular(field, p)
    zx = d.Z.a
    _, tau_znu = surface_torsion_terms(field, p)
    e1 = webster_curvature() - tau_znu
    e2 = d.nu_h.b ** 2 - 1.0
    e3 = zx * zx - 1.0
    if abs(e1 - e3) > STABILITY_QUANTITY_TOL or abs(e2 - e3) > STABILITY_QUANTITY_TOL:
        raise AssertionError(
            f"stability quantity expressions disagree at {p}: {e1}, {e2}, {e3}")
    return e3


def _require_nonsingular(field: ScalarField, p: Point) -> SurfacePointData:
    d = point_data(field, p)
    if d.singular:
        raise SingularPoint(f"operation needs a non-singular point, got {p}")
    return d
