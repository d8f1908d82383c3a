"""Exception types shared across the package, and the checks that turn
outside values into numbers and objects.

Every number or flag read from a config, a ``--set`` override or a data
file, and every number a caller passes to a library entry, passes through
``real``, ``integer``, ``flag`` or ``items``: a real is a finite number, an
integer is an int, a flag is true or false, and a bool is never a number.
``reals`` is ``real`` over a sequence, with a 1-D float64 array checked as
a whole.
Every JSON object a reader takes passes through ``obj``, which checks that
it is an object with all of its required keys and no unknown one.  Each
error names the path or parameter of the offending value.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np


class MemobsError(Exception):
    """Base class for all package errors."""


class ValidationError(MemobsError, ValueError):
    """Malformed input: bad parameters, bad configuration, out-of-range arguments."""


class NumericalError(MemobsError, ArithmeticError):
    """A computation failed or left its guaranteed accuracy regime."""


class StabilityError(NumericalError):
    """Step size outside the stability region of the time integrator."""


class SeriesDivergenceError(NumericalError):
    """The kernel series failed to reach the requested tolerance."""


def real(v, path: str, positive: bool = False, nonneg: bool = False) -> float:
    """``v`` as a finite float; bools and non-numbers are rejected."""
    if isinstance(v, bool) or not isinstance(v, Real):
        raise ValidationError(f"{path} must be a number")
    v = float(v)
    if not math.isfinite(v):
        raise ValidationError(f"{path} must be finite")
    if positive and v <= 0:
        raise ValidationError(f"{path} must be positive")
    if nonneg and v < 0:
        raise ValidationError(f"{path} must be nonnegative")
    return v


def reals(v, path: str, positive: bool = False, nonneg: bool = False) -> np.ndarray:
    """Every entry of ``v`` through ``real``, as a 1-D float array.

    A 1-D float64 array is checked as a whole, with the same outcome: the
    first entry that ``real`` rejects raises ``real``'s error.  Any other
    input is checked entry by entry.
    """
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 1):
        return np.array([real(x, path, positive, nonneg) for x in v], dtype=float)
    bad = ~np.isfinite(v)
    if positive:
        bad |= v <= 0
    if nonneg:
        bad |= v < 0
    if bad.any():
        real(float(v[np.argmax(bad)]), path, positive, nonneg)
    return v


def integer(v, path: str, lo: int | None = None) -> int:
    """``v`` as an int of at least ``lo``; bools and floats are rejected."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise ValidationError(f"{path} must be an integer")
    if lo is not None and v < lo:
        raise ValidationError(f"{path} must be >= {lo}")
    return int(v)


def flag(v, path: str) -> bool:
    """``v`` if it is true or false; numbers and strings are rejected."""
    if not isinstance(v, bool):
        raise ValidationError(f"{path} must be true or false")
    return v


def items(v, path: str, each, **bounds) -> list:
    """A nonempty JSON list, every entry passed through the checker ``each``."""
    if not isinstance(v, list) or not v:
        raise ValidationError(f"{path} must be a nonempty list")
    return [each(x, f"{path}[{i}]", **bounds) for i, x in enumerate(v)]


def obj(v, path: str, required=frozenset(), optional=frozenset()) -> dict:
    """``v`` if it is a JSON object with every key of ``required`` and no key
    outside ``required`` and ``optional``."""
    if not isinstance(v, dict):
        raise ValidationError(f"{path} must be a JSON object")
    missing = required - v.keys()
    if missing:
        raise ValidationError(f"{path}: missing required fields {sorted(missing)}")
    unknown = v.keys() - required - optional
    if unknown:
        raise ValidationError(f"{path}: unknown fields {sorted(unknown)}")
    return v
