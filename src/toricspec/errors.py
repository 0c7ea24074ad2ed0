"""Exception hierarchy shared by all toricspec modules, and the two input rules.

Every guard decides "an integer" with _is_integer and "a finite real" with
_finite_float, so the scalar and the JSON paths accept the same values.
"""

import math
import numbers


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


# -- input rules --------------------------------------------------------------

def _is_integer(value):
    """True for an integer, not a bool; numpy integers count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite_float(value, rule):
    """A real number as a finite float, or ValueError(f"{rule}, got {value!r}").

    A bool is not a number, and neither is an integer too large for a float.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{rule}, got {value!r}")
    return x
