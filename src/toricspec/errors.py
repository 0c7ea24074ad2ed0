"""Exception hierarchy shared by all toricspec modules."""


class ToricSpecError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ToricSpecError):
    """An input that names no valid problem; the CLI exits 2 on it."""


# -- polytope -----------------------------------------------------------------

class Unbounded(InputError):
    pass


class EmptyInterior(InputError):
    pass


class RedundantFacet(InputError):
    pass


class NonPrimitiveNormal(InputError):
    pass


class NotDelzant(InputError):
    pass


class PointOutside(InputError):
    pass


class DimensionUnsupported(InputError):
    pass


class ChartFailure(ToricSpecError):
    pass


# -- potential ----------------------------------------------------------------

class BoundaryPoint(ToricSpecError):
    pass


class NotPositiveDefinite(ToricSpecError):
    pass


class ChartMismatch(ToricSpecError):
    pass


class ModeOutsidePolytope(InputError):
    pass


# -- curvature ----------------------------------------------------------------

class SingularG(ToricSpecError):
    pass


class SingularA(ToricSpecError):
    pass


class StepTooLarge(ToricSpecError):
    pass


class RegionTouchesCodimTwo(ToricSpecError):
    pass


# -- operator -----------------------------------------------------------------

class NotPositiveDefiniteMass(ToricSpecError):
    pass


class CoefficientOverflow(ToricSpecError):
    pass


class ConvergenceFailure(ToricSpecError):
    pass


class NegativeEigenvalue(ToricSpecError):
    pass


# -- limit --------------------------------------------------------------------

class TruncationTooSmall(ToricSpecError):
    pass

