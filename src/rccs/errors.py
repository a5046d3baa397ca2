"""Exception types shared across the package."""


def echo(value: object) -> str:
    """``repr(value)`` for a diagnostic, cut after 60 characters with its full length noted."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


class RccsError(Exception):
    """Base class for every error raised by this package."""


class InputError(RccsError, ValueError):
    """Malformed or structurally invalid input.

    Raised for bad rationals, non-canonical interval lists, invalid
    weights, non-partitions, and out-of-range parameters.  The command
    line maps this to exit code 1.
    """


class PreconditionError(RccsError, ValueError):
    """A mathematical precondition of an operation does not hold.

    Examples: carving a measure outside the admissible open interval,
    asking for a common cause system of an uncorrelated pair, or running
    the size-3 construction on events that are not logically independent.
    The command line maps this to exit code 2.
    """


class InternalInvariantError(RccsError, RuntimeError):
    """A law that must hold in every model failed.

    This always indicates a bug in an event model or in the package
    itself, never a user error, so it is raised loudly instead of being
    folded into a boolean result.
    """
