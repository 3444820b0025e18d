"""Exception hierarchy shared by all plovkit modules.

The CLI maps these onto exit codes: input problems exit 1, violated
preconditions exit 2, and internal cross-check failures (which always
indicate a bug, never a mathematical failure) exit 3.
"""


class PlovkitError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(PlovkitError):
    """Malformed input document (bad JSON, non-square matrix, bad entry)."""


class PreconditionError(PlovkitError):
    """An operation was called on input outside its contract."""


class DimensionMismatchError(PreconditionError):
    """Operands have incompatible dimensions or arity."""


class NotQuasiUnipotentError(PreconditionError):
    """The matrix has an eigenvalue that is not a root of unity."""


class NotUnipotentError(PreconditionError):
    """The matrix has an eigenvalue different from 1."""


class NotPseudoAnalyticError(PreconditionError):
    """The Jordan profile does not split into conjugate halves."""


class NotSymmetricPositiveDefiniteError(PreconditionError):
    """The matrix is not symmetric positive definite."""


class OddDimensionError(PreconditionError):
    """An even matrix dimension 2g is required."""


class DegenerateFormError(PreconditionError):
    """The chosen 2-form is zero or produced an identically zero top
    intersection."""


class DegreeBoundError(PreconditionError):
    """A caller's degree bound is too small: the check node is missed."""


class CrossCheckError(PlovkitError):
    """An internal re-verification failed; this signals an arithmetic bug."""
