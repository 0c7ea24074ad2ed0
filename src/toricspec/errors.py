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
    def __init__(self, facet_index, msg=None):
        self.facet_index = facet_index
        super().__init__(msg or f"facet {facet_index} is redundant")


class NonPrimitiveNormal(InputError):
    def __init__(self, facet_index, msg=None):
        self.facet_index = facet_index
        super().__init__(msg or f"facet normal {facet_index} is not primitive")


class NotDelzant(InputError):
    def __init__(self, vertex, msg=None):
        self.vertex = vertex
        super().__init__(msg or f"vertex {vertex} has a non-unimodular cone")


class PointOutside(InputError):
    pass


class DimensionUnsupported(ToricSpecError):
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

class NotSeparable(ToricSpecError):
    pass


class TruncationTooSmall(ToricSpecError):
    pass

