"""Exception types shared across the toolkit."""


class GeometryError(Exception):
    """Base class for precondition and numerical failures."""


class NotHorizontal(GeometryError):
    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"initial velocity is not horizontal (defect {defect:.3e})")


class ZeroVelocity(GeometryError):
    pass


class CurveOverflow(GeometryError):
    pass


class DegeneratePoint(GeometryError):
    pass


class OffSurface(GeometryError):
    pass


class SingularPoint(GeometryError):
    pass


class DegenerateRuling(GeometryError):
    pass


class BranchUnsupported(GeometryError):
    pass


class Inadmissible(GeometryError):
    pass


class NotMinimal(GeometryError):
    pass


class SingularPointFound(GeometryError):
    pass


class BadParams(GeometryError):
    pass


class EvaluationError(GeometryError):
    """Raised when a field evaluation hits a pole or overflows.

    Carries the offending point when known.
    """

    def __init__(self, message: str, point=None):
        self.point = None if point is None else tuple(float(c) for c in point)
        if point is not None:
            message = f"{message} at point {self.point}"
        super().__init__(message)


class ExprSyntaxError(ValueError):
    """Parse failure with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (offset {offset})")
