"""Exception types shared across the package, and the two rules of what
a caller's number is: :func:`whole` for an integer field of a
configuration, and :func:`as_numbers` for every array that enters a
model (coordinates, responses, levels, parameters and bounds), so that
no entry point reads text, a boolean, None or a complex number as a
number."""

import numbers

import numpy as np


class MixedGPError(Exception):
    """Base class for all package-specific errors."""


class ParamDomainError(MixedGPError, ValueError):
    """A parameter value lies outside its admissible domain."""


class ParamArityError(MixedGPError, ValueError):
    """A parameter vector has the wrong length for the requested structure."""


class RankRangeError(MixedGPError, ValueError):
    """A low-rank approximation rank is outside 2 <= rank < s."""


class NumericalRankError(MixedGPError, RuntimeError):
    """A matrix is numerically rank deficient even after regularization.

    Carries the smallest eigenvalue observed so callers can report it.
    """

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class IllConditionedError(MixedGPError, RuntimeError):
    """A model correlation matrix could not be factorized."""


class FitFailureError(MixedGPError, RuntimeError):
    """Every optimizer start failed; per-start diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class CriterionUndefinedError(MixedGPError, ValueError):
    """A quality criterion is undefined for the given data."""


class DesignValidationError(MixedGPError, ValueError):
    """An imported design violates a structural property.

    ``violated`` names the first property that failed.
    """

    def __init__(self, message, violated=None):
        super().__init__(message)
        self.violated = violated


class ConfigError(MixedGPError, ValueError):
    """A study or fit configuration is invalid; ``issues`` lists every problem."""

    def __init__(self, issues):
        issues = [issues] if isinstance(issues, str) else list(issues)
        super().__init__("; ".join(issues))
        self.issues = issues

    @classmethod
    def check(cls, rules, issues=()) -> None:
        """Raise one ConfigError, unless every (name, value, rule, holds) of
        ``rules`` holds and ``issues`` is empty, that lists them all."""
        issues = [f"{name}: must be {rule}, got {value!r}"
                  for name, value, rule, holds in rules if not holds] + list(issues)
        if issues:
            raise cls(issues)


def whole(value) -> bool:
    """Whether ``value`` is an integer (a Python or numpy int, not 2.0 and
    not True): the rule of every integer field of a configuration. numpy's
    ``bool_`` is no ``numbers.Integral``; Python's ``bool`` is one."""
    # an int first: the ABC check costs about ten times as much
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def as_numbers(value, what: str, integral: bool = False, copy: bool | None = None) -> np.ndarray:
    """``value`` as a float array, or with ``integral`` as a new int array.

    No bool, text, None or complex number is a number (numpy reads True
    as 1 and "1.5" as 1.5, and drops an imaginary part), nor, with
    ``integral``, a non-integral value or an integer beyond int64 (2.0
    is the integer 2): each raises ``ParamDomainError``. A list of rows
    of unequal length, or a list nested deeper than rows, raises
    ``ParamArityError``. Both name ``what``. ``copy`` is numpy's: None
    converts an array only if it is no float array; a list always gives
    a new array.
    """
    items, shape = value, None
    if type(value) in (list, tuple) and value and isinstance(value[0], (list, tuple, np.ndarray)):
        # a matrix is read as one flat list, which numpy converts faster
        try:
            shape = (len(value), *set(map(len, value)))  # 3 entries or more if ragged
        except TypeError as exc:  # a number among the rows
            raise ParamArityError(f"{exc}; {what} must be rows of equal length") from None
        items = [x for row in value for x in row]
    elif type(value) not in (list, tuple):
        items = np.asarray(value)
        if items.dtype.kind == ("i" if integral else "f"):  # numbers of the kind asked for
            return items.astype(int) if integral else np.array(items, float, copy=copy)
        if items.dtype.kind == "O":  # Python objects, each checked as a list's are
            items, shape = items.ravel().tolist(), items.shape
    kinds = {items.dtype.type} if isinstance(items, np.ndarray) else set(map(type, items))
    if len(shape or ()) > 2 or kinds & {list, tuple, np.ndarray}:
        raise ParamArityError(f"{what} must be numbers or rows of numbers of equal length")
    rule = f"{what} must be " + ("integers within int64" if integral else "real numbers")
    others = sorted(k.__name__ for k in kinds if k is bool or not issubclass(k, numbers.Real))
    if others:
        raise ParamDomainError(f"must hold numbers only, not {', '.join(others)}; {rule}")
    try:
        if not integral:
            array = np.array(items, float, copy=copy)
        # by Python's int(): NaN and inf raise, where numpy's cast warns; 2.5 becomes 2
        elif not np.array_equal(array := np.asarray(items).astype(object).astype(int), items):
            raise ParamDomainError(rule)
    except (OverflowError, ValueError) as exc:  # beyond the float range or int64, or NaN
        raise ParamDomainError(rule if integral else f"{exc}; {rule}") from None
    return array if shape is None else array.reshape(shape)
