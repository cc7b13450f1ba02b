"""Error types shared across the package.

Everything user-input-shaped raises a subclass of ValueError so callers can
catch one base; CapacityError and SearchBudgetError are kept distinct because
the CLI maps them to their own exit codes.
"""
from __future__ import annotations


class DimensionError(ValueError):
    """A dimension is invalid or two objects' dimensions do not match."""


class DegreeError(ValueError):
    """A degree is invalid or two objects' degrees do not match."""


class FieldError(ValueError):
    """Mixed 'rational' and 'f64' operands, or an unknown field tag."""


class CapacityError(RuntimeError):
    """A result would exceed a size cap: a monomial basis over the cap, or
    an f64 value past the largest double."""


class SingularMatrixError(ValueError):
    """Exact inversion was requested for a singular matrix."""


class DegenerateInputError(ValueError):
    """An input is degenerate for the requested operation (e.g. y = 0)."""


class SearchBudgetError(RuntimeError):
    """A deterministic witness search exhausted its point budget."""


class PreconditionError(ValueError):
    """A documented precondition does not hold for the given inputs."""
