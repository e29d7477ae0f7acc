"""Exception types shared across the package."""

from __future__ import annotations


class OpintError(Exception):
    """Base class for all package-specific errors."""


class NotSquare(OpintError):
    """A square matrix was required but a rectangular one was supplied."""


class NotNormal(OpintError):
    """The commutator of a matrix with its adjoint exceeds tolerance."""


class EigFailure(OpintError):
    """The underlying eigensolver failed to converge."""


class ShapeMismatch(OpintError):
    """Array shapes or axis lists are inconsistent."""


class EvaluationFailure(OpintError):
    """A user-supplied callable produced a non-finite value."""


class BadPosition(OpintError):
    """Unknown embedding position for a two-variable symbol."""


class OrderTooLarge(OpintError):
    """Grid order exceeds the supported contraction cap."""


class NumericalBreakdown(OpintError):
    """A computation broke down in floating point: an interior-point linear
    system could not be solved reliably, or a result overflowed."""


class NotPsd(OpintError):
    """A matrix expected to be positive semidefinite is not."""


class ParseError(OpintError):
    """Malformed JSON input."""


class BudgetExceeded(OpintError):
    """Requested problem size exceeds the default computational budget."""
