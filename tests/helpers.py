"""Checks shared by several test modules: the Wirtinger inequality on samples,
and the parity defect of the sampled metaplectic operators."""

import math

import numpy as np

from gaborcert.errors import PreconditionError
from gaborcert.metaplectic import SampledFunction, chirp, dilate_sampled, frac_fourier


def wirtinger_residual(values):
    """Quadrature check of the endpoint Wirtinger inequality on [0, 1].

    Given samples of f on a uniform grid over [0, 1] with f(0)*f(1) = 0,
    returns (lhs, rhs) with lhs = integral |f|^2 and rhs = (4/pi^2) *
    integral |f'|^2, derivative by central differences.  The inequality
    asserts lhs <= rhs, with equality for the quarter-period sine.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < 101:
        raise PreconditionError("need at least 101 samples of f on a uniform [0, 1] grid")
    if abs(values[0] * values[-1]) > 1e-8:
        raise PreconditionError(
            "boundary condition f(0)*f(1) = 0 violated: "
            f"|f(0)*f(1)| = {abs(values[0] * values[-1]):.3e}"
        )
    h = 1.0 / (values.size - 1)
    lhs = float(np.trapezoid(np.abs(values) ** 2, dx=h))
    deriv = np.gradient(values, h)
    rhs = float(4.0 / math.pi**2 * np.trapezoid(np.abs(deriv) ** 2, dx=h))
    return lhs, rhs


_OPERATORS = {
    "frac_fourier": frac_fourier,
    "chirp": chirp,
    "dilate": dilate_sampled,
}


def _sample_sign(f: SampledFunction) -> int:
    scale = float(np.max(np.abs(f.values)))
    if scale == 0.0:
        raise PreconditionError("cannot classify the parity of the zero function")
    flipped = f.values[::-1]
    if float(np.max(np.abs(f.values - flipped))) <= 1e-9 * scale:
        return 1
    if float(np.max(np.abs(f.values + flipped))) <= 1e-9 * scale:
        return -1
    raise PreconditionError("samples are neither even nor odd")


def parity_residual(op: str, f: SampledFunction, param: float) -> float:
    """Relative parity defect of op applied to a definite-parity input.

    All three operators preserve the parity class, so the output of an
    even (odd) input should again be even (odd); the returned number is
    max |out(t) - sign * out(-t)| / max |out|.
    """
    try:
        operator = _OPERATORS[op]
    except KeyError:
        raise PreconditionError(
            f"unknown operator {op!r}; expected one of {sorted(_OPERATORS)}"
        ) from None
    sign = _sample_sign(f)
    out = operator(f, param)
    scale = float(np.max(np.abs(out.values)))
    if scale == 0.0:
        return 0.0
    defect = float(np.max(np.abs(out.values - sign * out.values[::-1])))
    return defect / scale
