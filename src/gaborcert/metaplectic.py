"""Metaplectic operators on sampled functions.

The fractional Fourier transform of angle r acts by the integral kernel

    k_r(s, t) = sqrt(1 - i*cot r) * exp(i*pi*(cot(r)*s^2 - 2*csc(r)*s*t
                                              + cot(r)*t^2)),

with the principal branch of the square root.  Under that normalization
the family satisfies the exact group law F_r F_s = F_(r+s) away from
multiples of pi, F_(pi/2) is the ordinary Fourier transform for the
convention ghat(xi) = integral g(t) exp(-2*pi*i*xi*t) dt, F_0 is the
identity and F_pi is the reflection f(t) -> f(-t).  Hermite windows are
eigenvectors with eigenvalue exp(-i*n*r).

Everything here acts on functions sampled on a uniform symmetric grid,
the reduction route for sampled (file:) windows; closed-form windows map
exactly through window.ClosedForm.fractional, which shares the kernel and
its special angles (_angle_kernel).  The sampled transform is evaluated by
trapezoid quadrature, which converges spectrally for smooth rapidly
decaying data as long as the chirped integrand stays below the grid's
Nyquist rate.  Angles too close to a multiple of pi make csc blow up and
are rejected rather than mis-sampled.

The quadrature sum is a chirp-z transform (Bluestein's factoring).  With
the chirp c(t) = exp(i*pi*cot*t^2) the kernel's sum is c(s) times the
trapezoid transform of the chirped samples f*c at frequency csc*s, and on
the ideal nodes t = h*u (u the centred index) that transform is the one
chirp-z transform of window._chirp_z: one FFT convolution of length about
2n between two chirp multiplications, O(n log n) time and O(n) memory for
an n-point grid.  Every chirp phase is reduced modulo 2*pi exactly, so the
result stays within about 7e-15 of the exact Hermite eigen-images on the
standard 3201-point grid.

Dilation goes through the same kernel: a forward Fourier transform, then
an inverse one whose frequency is scaled by 1/a.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngleError, PreconditionError, TruncationRiskWarning
from .window import (
    Quadrature,
    Window,
    _chirp_z,
    _half_turns,
    _unit_phase,
    check_samples,
    sample_grid,
    sampled_window,
)

TWO_PI = 2.0 * math.pi
SNAP_TOL = 1e-12
DEGENERATE_TOL = 1e-6
MIN_HALF_WIDTH = 8.0
_END_DECAY = 1e-10


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a uniform grid over a symmetric interval.

    The grid passes window.check_samples (nodes within 1e-9 of t_0 + j*h,
    symmetric about 0, spacing at most 0.01) and has half-width at least 8,
    dense and wide enough for the quadrature rules used throughout.  The
    chirp-z kernel of frac_fourier computes on the ideal nodes h*u, u the
    centred index, so a node's recorded offset from its ideal place (at most
    about 1.5e-9) is not seen there.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid, values = check_samples(self.grid, self.values)
        if grid[-1] < MIN_HALF_WIDTH - 1e-9:
            raise PreconditionError(f"grid half-width {grid[-1]!r} is below {MIN_HALF_WIDTH}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def half_width(self) -> float:
        return float(self.grid[-1])

    @property
    def size(self) -> int:
        return int(self.grid.size)

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(grid=self.grid, values=np.asarray(values, dtype=complex))

    def l2_norm(self) -> float:
        return float(math.sqrt(np.trapezoid(np.abs(self.values) ** 2, dx=self.spacing)))

    def flipped(self) -> "SampledFunction":
        # symmetric grid, so reversal realizes t -> -t exactly
        return self.with_values(self.values[::-1])


def sample_window(w: Window) -> SampledFunction:
    """w on the standard grid (window.sample_grid); warns when the samples have
    not decayed at its ends (_warn_end_decay), since the grid then cuts w off.

    A quadrature window is resampled through its transform, not by linear
    interpolation: ghat on m points over one period 1/h of the quadrature (h
    its spacing), then the trapezoid rule over them at minus each grid point,
    which repeats g with period about m*h, longer than any node-to-grid
    distance.
    """
    grid = sample_grid()
    quad = w.quadrature
    if quad is None:
        values = np.asarray(w.time_eval(grid), dtype=complex)
    else:
        nodes = quad.nodes
        h = (nodes[-1] - nodes[0]) / (nodes.size - 1)
        m = 2 * math.ceil(0.5 * (nodes[-1] + grid[-1]) / h) + 1
        # a step of 24 significant bits makes every point j*step exact, so the
        # second rule's nodes are exactly the points the first one evaluated
        step = float(np.float32(1.0 / (m * h)))
        freqs = (np.arange(m) - 0.5 * (m - 1)) * step
        spectrum = _chirp_z(quad, freqs[0], step, m)
        spacing = (grid[-1] - grid[0]) / (grid.size - 1)
        values = _chirp_z(Quadrature.of(freqs, spectrum), -grid[0], -spacing, grid.size)
    f = SampledFunction(grid=grid, values=values)
    _warn_end_decay(f)
    return f


def to_window(f: SampledFunction, label: str) -> Window:
    return sampled_window(f.grid, f.values, label=label)


def _warn_end_decay(f: SampledFunction) -> None:
    edge = max(abs(f.values[0]), abs(f.values[-1]))
    if edge > _END_DECAY:
        warnings.warn(
            f"samples still {edge:.3e} at the grid ends; quadrature tails are uncontrolled",
            TruncationRiskWarning,
            stacklevel=3,
        )


def _warn_aliasing(f: SampledFunction, cot: float, csc: float) -> None:
    """Warn when the kernel's integrand, up to (|cot| + |csc|) * half_width cycles, nears Nyquist."""
    nyquist = 0.5 / f.spacing
    bandwidth = (abs(cot) + abs(csc)) * f.half_width
    if bandwidth > 0.9 * nyquist:
        warnings.warn(
            f"chirped integrand reaches {bandwidth:.1f} cycles against a grid "
            f"Nyquist of {nyquist:.1f}; expect aliasing",
            TruncationRiskWarning,
            stacklevel=3,
        )


def _chirped_kernel_apply(
    f: SampledFunction, cot: float, csc: float, amplitude: complex
) -> SampledFunction:
    """out(s) = amplitude * sum_t wgt(t) f(t) exp(i pi (cot s^2 - 2 csc s t + cot t^2)).

    With the chirp c(t) = exp(i pi cot t^2) this is amplitude * c(s) times
    the quadrature transform of the chirped samples f * c at xi = csc * s,
    one chirp-z transform on the ideal nodes (window._chirp_z).  The chirp's
    phase is reduced modulo 2*pi exactly (window._half_turns), as twice the
    centred index u of t = h*u is an integer.
    """
    n = f.size
    # the ideal spacing: a difference of two neighbours carries the rounding
    # of the nodes, about 2e-14 relative on the standard grid
    h = (f.grid[-1] - f.grid[0]) / (n - 1)
    twice_u = np.arange(n) * 2.0 - (n - 1)
    c = _unit_phase(-0.5 * _half_turns(0.25 * cot * h * h, twice_u * twice_u))
    quad = Quadrature.of(f.grid, f.values * c)
    return f.with_values(amplitude * c * _chirp_z(quad, csc * quad.nodes[0], csc * h, n))


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


def frac_fourier(f: SampledFunction, r: float) -> SampledFunction:
    """Fractional Fourier transform of angle r on the function's own grid.

    Angles within 1e-12 of a multiple of pi/2 take the exact special
    path (identity, reflection, forward or inverse Fourier transform);
    angles within 1e-6 of a multiple of pi, but not snapped, raise
    DegenerateAngleError (see _angle_kernel).
    """
    kernel = _angle_kernel(r)
    if kernel == 1:
        return f.with_values(f.values.copy())
    if kernel == -1:
        return f.flipped()
    _warn_end_decay(f)
    cot, csc, amplitude = kernel
    if cot != 0.0:
        _warn_aliasing(f, cot, csc)
    return _chirped_kernel_apply(f, cot, csc, amplitude)


def chirp(f: SampledFunction, q: float) -> SampledFunction:
    """Multiply by the unit chirp exp(i pi q t^2)."""
    if not math.isfinite(q):
        raise PreconditionError(f"chirp rate must be finite, got {q!r}")
    if q == 0.0:
        return f.with_values(f.values.copy())
    return f.with_values(f.values * np.exp(1j * math.pi * q * f.grid**2))


def dilate_sampled(f: SampledFunction, a: float) -> SampledFunction:
    """Unitary dilation (D_a f)(t) = a^(-1/2) f(t/a), resampled on the same grid.

    Spectral resampling through the chirp-z kernel: the Fourier transform
    fhat on the function's own grid, then f(t/a) = integral fhat(s)
    exp(2 pi i s t/a) ds on the same grid.  Both sums assume f and fhat have
    decayed at the grid ends; the second warns when its integrand, of up to
    half_width/a cycles, nears the grid's Nyquist rate, and the output warns
    when it has not decayed at the grid ends, where the grid cuts it off.
    """
    if not (a > 0 and math.isfinite(a)):
        raise PreconditionError(f"dilation scale must be positive, got {a!r}")
    if a == 1.0:
        return f.with_values(f.values.copy())
    _warn_aliasing(f, 0.0, -1.0 / a)
    spectrum = _chirped_kernel_apply(f, 0.0, 1.0, complex(1.0))
    out = _chirped_kernel_apply(spectrum, 0.0, -1.0 / a, complex(1.0))
    out = out.with_values(out.values / math.sqrt(a))
    _warn_end_decay(out)
    return out
