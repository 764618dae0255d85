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

``frame_algebra`` is that geometry as arithmetic on e^z, e^-z and the
coordinate partials of u, whatever supplies them: ``raw_fields`` takes them
from one walk of a scalar field's tree, adding u, the residual, q =
<N,T>/|N_h| and Zq, and the graph patches of ``stability`` from a height
function in closed form.

The unnormalized minimal-surface residual is the coordinate polynomial

    u_zz G^2 + u_z^2 (e^{2z} u_xx - 2 u_xy + e^{-2z} u_yy)
      - u_z G (-2 e^z u_xz - e^z u_x + 2 e^{-z} u_yz - e^{-z} u_y),

with G = -e^z u_x + e^{-z} u_y.  It equals exactly twice the frame form

    Y(u)^2 XX(u) - Y(u) X(u) (YX(u) + XY(u)) + X(u)^2 YY(u)

and both equal 2 D^3 H at non-singular points; the sign of the e^{2z} u_xx
term is forced by that identity.
"""

from __future__ import annotations

import numpy as np

from .expressions import ScalarField
from .frame import SQRT2

EPS_SING = 1e-9


def _along(vec, df):
    """Derivative along the coordinate vector ``vec`` from coordinate partials."""
    return vec[0] * df[0] + vec[1] * df[1] + vec[2] * df[2]


def frame_algebra(ez, emz, grad, hess):
    """The adapted-frame entries a surface patch reads, from e^z, e^-z and
    the coordinate partials of u, grad u = (ux, uy, uz) and Hess u = (uxx,
    uxy, uxz, uyy, uyz, uzz): |N_h| ("nh"), <N,T> ("nt"), Z = zx X + zy Y,
    <nabla_S nu_h, Z> and H, with the frame gradient and nu_h they are
    built from; plus (d(D), Z in coordinates).  The inputs broadcast
    against each other, so a partial that is constant along an axis, or
    everywhere, can be passed in its natural shape."""
    ux, uy, uz = grad
    uxx, uxy, uxz, uyy, uyz, uzz = hess

    W1 = uz
    W2 = (-ez * ux + emz * uy) / SQRT2
    W3 = (ez * ux + emz * uy) / SQRT2

    # coordinate partials of W1 and W2, needed for derivatives of nu_h
    dW1 = (uxz, uyz, uzz)
    dW2 = ((-ez * uxx + emz * uxy) / SQRT2,
           (-ez * uxy + emz * uyy) / SQRT2,
           (-ez * (ux + uxz) + emz * (uyz - uy)) / SQRT2)

    D2 = W1 * W1 + W2 * W2
    gn2 = D2 + W3 * W3

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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

        H = -(_along(Zc, dnu1) * zx + _along(Zc, dnu2) * zy)
        # <nabla_S nu_h, Z>; S carries a T-component -nh, which turns on the
        # constant connection terms nabla_T X = Y/2, nabla_T Y = -X/2
        grad_s_nu_z = ((_along(Sc, dnu1) + nu2 * nh / 2.0) * zx
                       + (_along(Sc, dnu2) - nu1 * nh / 2.0) * zy)

    f = {
        "W1": W1, "W2": W2, "W3": W3, "D": D, "D2": D2,
        "grad_norm": gn, "nh": nh, "nt": nt,
        "nu1": nu1, "nu2": nu2, "zx": zx, "zy": zy,
        "H": H, "grad_s_nu_z": grad_s_nu_z,
    }
    return f, (dD, Zc)


def raw_fields(field: ScalarField, x, y, z):
    """All pointwise surface quantities on broadcastable coordinate arrays.

    The one place a field's tree is walked, once per call (``field.jet``).
    Returns a dict of arrays: the ``frame_algebra`` entries plus u, the
    coordinate residual, the ratio q = <N,T>/|N_h| and its derivative Zq
    along Z.
    Entries that need division by D (nu_h, Z, curvature, q, ...) are valid
    only where |N_h| >= EPS_SING; they are computed with errors silenced
    and contain garbage on the singular set.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    u, (ux, uy, uz), hess = field.jet(x, y, z)
    uxx, uxy, uxz, uyy, uyz, uzz = hess
    ez, emz = np.exp(z), np.exp(-z)
    f, (dD, Zc) = frame_algebra(ez, emz, (ux, uy, uz), hess)

    W3, D, D2 = f["W3"], f["D"], f["D2"]
    dW3 = ((ez * uxx + emz * uxy) / SQRT2,
           (ez * uxy + emz * uyy) / SQRT2,
           (ez * (ux + uxz) + emz * (uyz - uy)) / SQRT2)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # |grad u| cancels from the ratio
        q = -W3 / D
        Zq = _along(Zc, tuple(-dW3[i] / D + W3 * dD[i] / D2 for i in range(3)))

    G = SQRT2 * f["W2"]
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
    f.update({
        "u": u, "q": q, "Zq": Zq,
        "residual_coord": residual_coord,
        "residual_scale": residual_scale,
        "normalized_residual_den": D2 * D,
    })
    return f
