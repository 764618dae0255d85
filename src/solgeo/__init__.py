"""Computational toolkit for the sub-Riemannian geometry of Sol / E(1,1).

The group of rigid motions of the Minkowski plane, modeled on R^3 with a
left-invariant orthonormal frame {X, Y, T}, carries a natural sub-Riemannian
structure.  This package evaluates the minimal-surface equation on level
sets, integrates characteristic curves in closed form, builds ruled
area-stationary surfaces from horizontal singular curves, and evaluates the
second-variation (stability) quadratic form by quadrature.
"""

__version__ = "0.1.0"

from .frame import CoordVector, Point
from .expressions import ScalarField, catalog, parse
from .curves import CharacteristicCurve, eval_curve, integrate_ode, is_geodesic, make_curve
from .stationary import (
    HorizontalCurve,
    RuledSurface,
    jacobi_vertical,
    orthogonality_check,
    sweep_surface,
    uniqueness_scan,
)
from .stability import (
    QuadratureReport,
    TestFunction,
    area_compare,
    q_form,
    q_form_simplified,
    sufficient_condition,
)

__all__ = [
    "CharacteristicCurve",
    "CoordVector",
    "HorizontalCurve",
    "Point",
    "QuadratureReport",
    "RuledSurface",
    "ScalarField",
    "TestFunction",
    "area_compare",
    "catalog",
    "eval_curve",
    "integrate_ode",
    "is_geodesic",
    "jacobi_vertical",
    "make_curve",
    "orthogonality_check",
    "parse",
    "q_form",
    "q_form_simplified",
    "sufficient_condition",
    "sweep_surface",
    "uniqueness_scan",
]
