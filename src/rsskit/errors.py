"""Exception types shared across the toolkit."""


class RssError(Exception):
    """Base class for all toolkit errors."""


class ParamError(RssError):
    """Invalid static parameter set."""


class OrderViolation(ParamError):
    """Braking rates violate the required strict ordering."""


class NonPositive(ParamError):
    """A parameter that must be strictly positive is not."""


class Negative(ParamError):
    """A parameter that must be nonnegative is negative."""


class NonFinite(ParamError):
    """A parameter is NaN or infinite."""


class DomainError(RssError):
    """An input is outside the admissible domain (e.g. negative velocity)."""


class StepError(RssError):
    """Bad integration step size."""


class EmptyTrajectory(RssError):
    """An operation requiring samples was given none."""


class NoCollision(RssError):
    """Liability attribution requires a trajectory containing a collision."""


class ConfigError(RssError):
    """Malformed tool configuration (files, campaign settings, supervisor)."""


class InvariantBreach(RssError):
    """The supervised loop was driven into a state it promises to avoid."""


class TrajectoryFormatError(RssError):
    """Trajectory CSV file could not be parsed."""
