"""Exception types shared across the package."""

import numbers


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
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
