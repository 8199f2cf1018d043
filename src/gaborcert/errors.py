"""Exception and warning types shared across the package, and the stack
level at which a warning names its caller.

Two error families matter for exit-code mapping in the CLI: precondition
violations (caller passed something the operation does not accept) and
numerical degeneracies discovered while computing (vanishing sums, kernel
singularities, parameters that cannot be snapped to a finite grid or
leave the double range).
"""

import os
import sys

import numpy as np


class GaborcertError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(GaborcertError):
    """An input violates a documented precondition of the operation."""


class NumericalError(GaborcertError):
    """Base class for degeneracies detected during a computation."""


class ZeroSumError(NumericalError):
    """Every term of a lattice sum vanished up to the truncation limit."""


class DegenerateError(NumericalError):
    """A denominator sum is zero, so the density ratio is undefined."""


class DegenerateAngleError(NumericalError):
    """Fractional Fourier angle too close to a multiple of pi.

    The quadrature kernel blows up there; callers should pass the exact
    special angle (0 or pi, which have closed-form actions) instead.
    """


class ParameterNotRepresentable(NumericalError):
    """Lattice parameters cannot be snapped onto the discrete model grid, or a
    lattice's co-volume leaves the double range."""


class DivergentSeriesError(NumericalError):
    """A closed-form series was requested outside its convergence region."""


class TruncationRiskWarning(UserWarning):
    """Input decay is too weak for the requested truncated computation."""


_INTERNAL_DIRS = tuple(os.path.dirname(path) + os.sep for path in (__file__, np.__file__))


def _caller_level() -> int:
    """The stacklevel, for a warnings.warn in the calling function, of the
    first frame outside this package and numpy (whose errstate wrapper sits
    between the engine's functions): a warning names that caller."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_INTERNAL_DIRS):
        frame, level = frame.f_back, level + 1
    return level
