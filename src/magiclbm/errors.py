"""Exception hierarchy shared across the package.

The command line front end maps these onto process exit codes, so the
classes distinguish *why* a run failed rather than *where* it failed:
bad input (ConfigurationError), a simulation that never settled
(ConvergenceError), and a settled simulation whose result could not be
reduced to a wall location or transport coefficient (LocalizationError,
FitError, MeasurementError).
"""


class MagicLBMError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MagicLBMError):
    """Invalid configuration or parameters.

    Carries an optional list of individual violations so that a single
    parse pass can report every problem at once.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else [message]

    def __str__(self):
        base = super().__str__()
        if self.violations == [base]:
            return base
        return "\n".join([base] + ["  - " + v for v in self.violations])


class ConvergenceError(MagicLBMError):
    """A time march diverged or exhausted its step budget before steady state."""

    def __init__(self, message, last_change=None, steps=None):
        super().__init__(message)
        self.last_change = last_change
        self.steps = steps


class FitError(MagicLBMError):
    """Least-squares profile fit failed (too few points, no curvature)."""


class LocalizationError(MagicLBMError):
    """A wall location or parameter root could not be pinned down."""


class MeasurementError(MagicLBMError):
    """A transport-coefficient measurement ran out of usable signal."""
