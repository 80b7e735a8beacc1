"""Exception types shared across the package."""


class CancelPutError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(CancelPutError):
    """Model parameters violate a hard constraint (positivity, martingale condition)."""


class DegenerateCancellation(CancelPutError):
    """The cancellation exponent does not exist: the log-price drifts upward."""


class PoleError(CancelPutError):
    """Laplace exponent evaluated at or beyond the pole of the jump term."""


class DegenerateRoots(CancelPutError):
    """Two roots of the discount equation coincide; partial fractions break down."""


class DomainError(CancelPutError):
    """Function argument outside its mathematical domain."""


class ThresholdOutOfRange(CancelPutError):
    """Optimal exercise threshold fell outside the open interval (0, K)."""


class InconsistentBasis(CancelPutError):
    """Scale-basis coefficients break the sign conditions the closed-form threshold needs."""


class ConfigError(CancelPutError):
    """A flag, config file, grid, curve or simulation setting violates a precondition."""


class NumericsWarning(RuntimeWarning):
    """A result needed clamping beyond the documented numerical slack."""
