"""Shared exception types and the one size-guard override.

PreconditionError marks a call outside an operation's contract, SizeGuardError a
desk-scale enumeration guard, and VerificationError a certified identity that
failed an exact check.

Every size guard refuses as `used > CAP and not FORCED.get()`, comparing the
cap first, so a loop under its cap never reads the switch.  `with forced():`
turns it on for every guard in every function called inside the block; the
CLI's --force-size does exactly that around its command.  A generator such as
iter_independent_sets or a face walk reads the switch while it is iterated,
not when it is created, so iterate it inside the block.  Only the refusals at
the recursion limit of tutte_polynomial and iter_independent_sets ignore it.
"""

from contextlib import contextmanager
from contextvars import ContextVar

FORCED = ContextVar("FORCED", default=False)


@contextmanager
def forced(on: bool = True):
    """Set the override to on for the block, and restore it on any exit."""
    token = FORCED.set(on)
    try:
        yield
    finally:
        FORCED.reset(token)


class PreconditionError(ValueError):
    """Arguments violate the operation's stated preconditions."""


class SizeGuardError(RuntimeError):
    """The requested enumeration exceeds a size guard; `with forced():`
    overrides it."""


class VerificationError(RuntimeError):
    """An exact identity or inequality that the construction certifies did not hold."""
