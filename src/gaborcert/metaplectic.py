"""Metaplectic reduction of sampled windows.

The fractional Fourier transform of angle r acts by the integral kernel

    k_r(s, t) = sqrt(1 - i*cot r) * exp(i*pi*(cot(r)*s^2 - 2*csc(r)*s*t
                                              + cot(r)*t^2)),

with the principal branch of the square root.  Under that normalization
the family satisfies the exact group law F_r F_s = F_(r+s) away from
multiples of pi, F_(pi/2) is the ordinary Fourier transform for the
convention ghat(xi) = integral g(t) exp(-2*pi*i*xi*t) dt, F_0 is the
identity and F_pi is the reflection f(t) -> f(-t).  Hermite windows are
eigenvectors with eigenvalue exp(-i*n*r).

Closed-form windows map exactly through window.ClosedForm.fractional, which
shares the kernel and its special angles (_angle_kernel).  A sampled (file:)
window is reduced here, on the standard grid (window.sample_grid), in one
step: the chain lattice.reduce_general applies, the transform F_r, the chirp
V_q = exp(i*pi*q*t^2) and the dilation (D_a g)(t) = a^(-1/2) g(t/a), is one
linear canonical transform (Ozaktas, Arikan, Kutay and Bozdagi 1996),

    (D_a V_q F_r g)(t) = a^(-1/2) * sqrt(1 - i*cot r)
                         * exp(i*pi*(cot r + q)*(t/a)^2) * Q[g*c](csc(r)*t/a),

with c(s) = exp(i*pi*cot(r)*s^2) and Q the trapezoid transform of the
chirped samples: one chirp-z transform (window._chirp_z), an FFT
convolution of length about 2n between two chirp multiplications, O(n log n)
time and O(n) memory for an n-point grid.  Every chirp phase is reduced
modulo 2*pi exactly.  The trapezoid sum converges spectrally for smooth
rapidly decaying data as long as the chirped integrand stays below the
grid's Nyquist rate.  An angle snapped to a multiple of pi needs no
transform: the result is the output chirp times the sampled dilate, reversed
for the reflection.  Angles too close to a multiple of pi make csc blow up
and are rejected rather than mis-sampled.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateAngleError, PreconditionError, TruncationRiskWarning, _caller_level
from .window import (
    Window,
    _chirp_z,
    _half_turns,
    _unit_phase,
    dilate,
    sample_grid,
    trapezoid_weights,
)

TWO_PI = 2.0 * math.pi
SNAP_TOL = 1e-12
DEGENERATE_TOL = 1e-6
_END_DECAY = 1e-10


def sample_window(w: Window) -> np.ndarray:
    """w.time_eval on the standard grid (window.sample_grid): a sampled
    window's band-limited interpolant, which on that grid is its samples.
    Warns when the values have not decayed at the grid ends
    (_warn_end_decay), since the grid then cuts w off.
    """
    values = np.asarray(w.time_eval(sample_grid()), dtype=complex)
    _warn_end_decay(values)
    return values


def _warn_end_decay(values: np.ndarray) -> None:
    edge = max(abs(values[0]), abs(values[-1]))
    if edge > _END_DECAY:
        warnings.warn(
            f"samples still {edge:.3e} at the grid ends; quadrature tails are uncontrolled",
            TruncationRiskWarning,
            stacklevel=_caller_level(),
        )


def _warn_aliasing(bandwidth: float, spacing: float) -> None:
    """Warn when the kernel's integrand, of up to bandwidth cycles, nears the Nyquist rate."""
    nyquist = 0.5 / spacing
    if bandwidth > 0.9 * nyquist:
        warnings.warn(
            f"chirped integrand reaches {bandwidth:.1f} cycles against a grid "
            f"Nyquist of {nyquist:.1f}; expect aliasing",
            TruncationRiskWarning,
            stacklevel=_caller_level(),
        )


def _chirp(rate: float, n: int, h: float) -> np.ndarray:
    """exp(i pi rate t^2) on the n nodes t = h*u, u the centred index.

    The phase is reduced modulo 2*pi exactly (window._half_turns), as twice
    u is an integer.
    """
    twice_u = np.arange(n) * 2.0 - (n - 1)
    return _unit_phase(-0.5 * _half_turns(0.25 * rate * h * h, twice_u * twice_u))


def _chirped_kernel_apply(
    values: np.ndarray, h: float, cot: float, csc: float, amplitude: complex, out_rate: float
) -> np.ndarray:
    """out(t) = amplitude * exp(i pi out_rate t^2)
                 * sum_s wgt(s) values(s) exp(i pi cot s^2) exp(-2 pi i csc s t).

    s and t run over the n nodes h*u (u the centred index) and wgt is the
    trapezoid rule: the transform of the chirped samples at csc * t, one
    chirp-z transform on those nodes (window._chirp_z).
    """
    n = values.size
    nodes = h * (np.arange(n) - 0.5 * (n - 1))
    weighted = values * _chirp(cot, n, h) * trapezoid_weights(n, h)
    return amplitude * _chirp(out_rate, n, h) * _chirp_z(nodes, weighted, csc * nodes[0], csc * h, n)


def reduce_samples(w: Window, angle: float, rate: float, stretch: float) -> np.ndarray:
    """D_stretch V_rate F_angle w on the standard grid (window.sample_grid).

    F_angle is the fractional Fourier transform, V_rate the chirp
    exp(i pi rate t^2) and D_stretch the unitary dilation.  Off the snapped
    angles this is one _chirped_kernel_apply of w's samples; at a snapped
    angle the chirp times sample_window(dilate(w, stretch)), reversed for the
    reflection.  Warns (TruncationRiskWarning) when the samples of w or of
    the result have not decayed at the grid ends, and when the kernel's
    integrand, of up to (|cot| + |csc|/stretch) * GRID_HALF_WIDTH cycles,
    nears the grid's Nyquist rate.
    """
    if not (stretch > 0 and math.isfinite(stretch)) or not math.isfinite(rate):
        raise PreconditionError(f"chirp rate and dilation must be finite, got {rate!r}, {stretch!r}")
    kernel = _angle_kernel(angle)
    grid = sample_grid()
    n = grid.size
    h = (grid[-1] - grid[0]) / (n - 1)
    if kernel in (1, -1):
        _warn_aliasing(grid[-1] / stretch, h)
        # the grid is symmetric, so reversal realizes t -> -t exactly
        return _chirp(rate / (stretch * stretch), n, h) * sample_window(dilate(w, stretch))[::kernel]
    cot, csc, amplitude = kernel
    _warn_aliasing((abs(cot) + abs(csc) / stretch) * grid[-1], h)
    out_rate = (cot + rate) / (stretch * stretch)
    out = _chirped_kernel_apply(
        sample_window(w), h, cot, csc / stretch, amplitude / math.sqrt(stretch), out_rate
    )
    _warn_end_decay(out)
    return out


def _angle_kernel(r: float):
    """Classify the angle r of a fractional Fourier transform.

    Returns 1 for the identity and -1 for the reflection f(t) -> f(-t)
    (angles within 1e-12 of a multiple of pi), else the kernel's
    (cot r, csc r, sqrt(1 - i*cot r)), exactly (0, +-1, 1) within 1e-12 of
    +-pi/2.  Angles within 1e-6 of a multiple of pi, but not snapped, raise
    DegenerateAngleError instead of giving a useless kernel.
    """
    if not math.isfinite(r):
        raise PreconditionError(f"angle must be finite, got {r!r}")
    rr = math.remainder(r, TWO_PI)
    if rr <= -math.pi + SNAP_TOL:
        rr = math.pi
    if abs(rr) <= SNAP_TOL:
        return 1
    if abs(abs(rr) - math.pi) <= SNAP_TOL:
        return -1
    if min(abs(rr), math.pi - abs(rr)) < DEGENERATE_TOL:
        raise DegenerateAngleError(
            f"angle {r!r} is within {DEGENERATE_TOL} of a multiple of pi"
        )
    if abs(rr - 0.5 * math.pi) <= SNAP_TOL:
        return 0.0, 1.0, complex(1.0)
    if abs(rr + 0.5 * math.pi) <= SNAP_TOL:
        return 0.0, -1.0, complex(1.0)
    sin_r = math.sin(rr)
    cot = math.cos(rr) / sin_r
    return cot, 1.0 / sin_r, np.sqrt(complex(1.0, -cot))
