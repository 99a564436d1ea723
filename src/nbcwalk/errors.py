"""Shared exception types.

PreconditionError marks a call outside an operation's contract, SizeGuardError a
desk-scale enumeration guard, and VerificationError a certified identity that
failed an exact check.  force=True overrides a size guard in every call that
takes it; local_walk_matrix and down_up_matrix take none, and read an
NbcComplex's facets unforced.
"""


class PreconditionError(ValueError):
    """Arguments violate the operation's stated preconditions."""


class SizeGuardError(RuntimeError):
    """The requested enumeration exceeds a size guard; where the call takes
    force, force=True overrides it."""


class VerificationError(RuntimeError):
    """An exact identity or inequality that the construction certifies did not hold."""
