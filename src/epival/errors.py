"""Exception types shared across the engine."""


class ConvexityViolation(ValueError):
    """An input (or the base |x|^2 of a mixed difference) failed the discrete
    convexity test."""


class DomainExceeded(ValueError):
    """A geometric object left the grid domain it must live in."""


class FormatError(ValueError):
    """A serialized file does not conform to the documented schema."""


class StepAgreementError(ValueError):
    """Mixed-difference evaluations at step h and h/2 disagree beyond tolerance."""
