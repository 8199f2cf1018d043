"""Checks shared by several test modules: the Wirtinger inequality on samples,
the parity defect of the sampled reduction's operators, and how far a window's
transform exceeds its envelope."""

import math

import numpy as np

from gaborcert.errors import PreconditionError
from gaborcert.metaplectic import reduce_samples
from gaborcert.window import Window, sample_grid, sampled_window


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


def on_grid(values):
    """The sampled (file:) window of values on the standard grid."""
    return sampled_window(sample_grid(), values)


# each operator of the reduction alone, on standard-grid samples: the
# fractional Fourier transform, the chirp exp(i pi q t^2), the dilation
_OPERATORS = {
    "frac_fourier": lambda values, r: reduce_samples(on_grid(values), r, 0.0, 1.0),
    "chirp": lambda values, q: reduce_samples(on_grid(values), 0.0, q, 1.0),
    "dilate": lambda values, a: reduce_samples(on_grid(values), 0.0, 0.0, a),
}


def _sample_sign(values: np.ndarray) -> int:
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise PreconditionError("cannot classify the parity of the zero function")
    flipped = values[::-1]
    if float(np.max(np.abs(values - flipped))) <= 1e-9 * scale:
        return 1
    if float(np.max(np.abs(values + flipped))) <= 1e-9 * scale:
        return -1
    raise PreconditionError("samples are neither even nor odd")


def parity_residual(op: str, values: np.ndarray, param: float) -> float:
    """Relative parity defect of op applied to definite-parity samples on the standard grid.

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
    sign = _sample_sign(values)
    out = operator(values, param)
    scale = float(np.max(np.abs(out)))
    if scale == 0.0:
        return 0.0
    defect = float(np.max(np.abs(out - sign * out[::-1])))
    return defect / scale


def envelope_violation(w: Window) -> float:
    """Worst violation of w's envelope on 101 probes on each side, |xi| in [1, 10].

    Returns max(|ghat(xi)| - bound(xi)) over the probe grid; nonpositive
    values mean the envelope held everywhere it was checked.
    """
    if w.envelope is None:
        raise PreconditionError(f"window {w.label!r} has no envelope")
    xi = np.linspace(1.0, 10.0, 101)
    xi = np.concatenate([-xi[::-1], xi])
    mag = np.abs(np.asarray(w.freq_eval(xi), dtype=complex))
    return float(np.max(mag - w.envelope.bound(xi)))
