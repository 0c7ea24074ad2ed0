"""The package's exception classes, and the input rules.

Callers tell two categories apart, so there are two classes to raise: an
InputError is an input that names no valid problem (the CLI exits 2), and a
ToricSpecError raised directly is a computation that failed on valid input
(exit 3). The message names the guard. The five Delzant kinds are
InputErrors too; delzant_violations returns them and `toricspec check`
prints their names.

Every guard decides "an integer" with _is_integer and "a finite real" with
_finite_float, so the scalar and the JSON paths accept the same values; the
_check_* rules built on them give each rule its one message.
"""

import math
import numbers


class ToricSpecError(Exception):
    """Raised directly, a computation that failed on valid input (exit 3); InputError's base."""


class InputError(ToricSpecError):
    """An input that names no valid problem; the CLI exits 2 on it."""


# -- the Delzant kinds that delzant_violations returns --------------------------

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


def _check_integer(value, name, low):
    """value as an int; it must be an integer >= low."""
    if not _is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_positive(value, name):
    """value as a float; it must be finite and positive."""
    rule = f"{name} must be finite and positive"
    x = _finite_float(value, rule)
    if x <= 0:
        raise ValueError(f"{rule}, got {value!r}")
    return x


def _check_s_list(s_list, name):
    """A non-empty, strictly descending tuple of s, each by _check_positive(s, name)."""
    s = tuple(_check_positive(v, name) for v in s_list)
    if not s:
        raise ValueError(f"s_list must name at least one s, got {s_list!r}")
    if any(a <= b for a, b in zip(s, s[1:])):
        raise ValueError(f"s_list must be strictly descending, got {s}")
    return s


def _check_mode(mode, n):
    """A lattice mode as a tuple of n ints; each entry must be an integer."""
    try:
        entries = tuple(mode)
    except TypeError:
        entries = ()
    if len(entries) != n or not all(map(_is_integer, entries)):
        raise ValueError(f"mode must have {n} integer entries, got {mode!r}")
    return tuple(int(v) for v in entries)
