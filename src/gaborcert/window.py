"""Window functions with paired time/frequency evaluators.

The Fourier transform convention throughout the package is

    ghat(xi) = integral g(t) exp(-2*pi*i*xi*t) dt,

under which the standard Gaussian exp(-pi*t^2) is its own transform and the
Hermite function of order n is an eigenfunction with eigenvalue (-i)^n.

A window bundles closed-form (or quadrature-backed) evaluators with the
metadata the certification machinery needs: a parity classification and,
when available, a Gaussian decay envelope

    |ghat(xi)| <= amplitude * exp(-rate * xi^2)   for all real xi,

which drives rigorous truncation bounds for lattice sums.  Windows without
an envelope are still accepted; downstream truncation is then heuristic and
results carry a non-rigorous flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite as _herm

from .errors import PreconditionError
from .tables import read_csv, write_csv

# Standard sampling grid used for quadrature-backed transforms and for
# turning closed-form windows into sample vectors.
GRID_HALF_WIDTH = 8.0
GRID_SPACING = 0.005

# Sampled windows: coarsest grid spacing accepted, and the tolerance to which
# nodes must sit on their uniform grid t_0 + j*h and the grid be symmetric.
MAX_SPACING = 0.01
_GRID_TOL = 1e-9

# ghat_lattice forms a quadrature window's column factors exp(-2*pi*i*k*t_m)
# for at most this many (node, k) pairs at once.
_FACTOR_VALUES = 1 << 18

# Relative symmetry residual below which a window counts as even or odd.
PARITY_TOL = 1e-10
_PARITY_PROBES = np.linspace(-5.0, 5.0, 201)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Normalisation making hermite(1) exactly t*exp(-pi*t^2).
_HERMITE_NORM = 1.0 / (2.0 * _SQRT_2PI)

# Relative headroom applied to derived envelope amplitudes so a bound that is
# mathematically tight still holds after float rounding.
_ENVELOPE_PAD = 1.0 + 1e-12


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    NEITHER = "neither"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Envelope:
    """Pointwise bound |ghat(xi)| <= amplitude * exp(-rate * xi^2)."""

    amplitude: float
    rate: float

    def __post_init__(self) -> None:
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise PreconditionError("envelope amplitude must be positive and finite")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise PreconditionError("envelope rate must be positive and finite")

    def bound(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.amplitude * np.exp(-self.rate * xi * xi)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid-rule weights for n uniform nodes of spacing h: h, with halved ends."""
    wgt = np.full(n, h)
    wgt[0] *= 0.5
    wgt[-1] *= 0.5
    return wgt


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Trapezoid rule for the transform of a sampled window.

    ghat(xi) = sum_m weighted[m] * exp(-2*pi*i*xi*nodes[m]), with weighted the
    samples times trapezoid_weights on the spacing of the first step.
    """

    nodes: np.ndarray
    weighted: np.ndarray

    @staticmethod
    def of(t: np.ndarray, values: np.ndarray) -> "Quadrature":
        return Quadrature(t, values * trapezoid_weights(t.size, float(t[1] - t[0])))

    def freq_eval(self, xi):
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        pts = np.atleast_1d(xi)
        kernel = np.exp(-2j * math.pi * np.outer(pts, self.nodes))
        out = kernel @ self.weighted
        return out[0] if scalar else out


@dataclass(frozen=True)
class Window:
    """A window function with paired time and frequency evaluators.

    Both evaluators are vectorised: they accept a float or an ndarray and
    return complex values of matching shape.  A quadrature-backed window
    also carries its Quadrature, which freq_eval evaluates; ghat_lattice
    uses it to factor lattice evaluations.
    """

    label: str
    time_eval: Callable = None  # type: ignore[assignment]
    freq_eval: Callable = None  # type: ignore[assignment]
    parity: Parity = Parity.UNKNOWN
    envelope: Envelope | None = None
    known_minimizer: float | None = None
    quadrature: Quadrature | None = None

    def __repr__(self) -> str:  # callables are noise in reprs
        return (
            f"Window(label={self.label!r}, "
            f"parity={self.parity.value}, envelope={self.envelope!r})"
        )


def gaussian() -> Window:
    """The standard Gaussian window exp(-pi*t^2), self-dual under the FT.

    Its density profile attains its minimum at omega = 1/2, so the grid
    minimiser found by the criterion is known to be global.
    """

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-math.pi * t * t) + 0.0j

    return Window(
        label="gaussian",
        time_eval=evaluate,
        freq_eval=evaluate,
        parity=Parity.EVEN,
        envelope=Envelope(amplitude=1.0, rate=math.pi),
        known_minimizer=0.5,
    )


def _monomial_peak(j: int, beta: float) -> float:
    # sup over x >= 0 of x^j * exp(-beta*x^2)
    if j == 0:
        return 1.0
    return (j / (2.0 * beta)) ** (j / 2.0) * math.exp(-j / 2.0)


def hermite(n: int) -> Window:
    """Hermite window of order n in the self-dual scaling.

    h_n(t) = H_n(sqrt(2*pi)*t) * exp(-pi*t^2) / (2*sqrt(2*pi)) with H_n the
    physicists' Hermite polynomial, so h_1(t) = t*exp(-pi*t^2) exactly and
    the transform satisfies ghat = (-i)^n * g.
    """
    if not isinstance(n, int) or n < 0:
        raise PreconditionError(f"hermite order must be a nonnegative integer, got {n!r}")

    herm_coef = [0.0] * n + [1.0]
    eigenvalue = (-1j) ** n

    def time_eval(t):
        t = np.asarray(t, dtype=float)
        poly = _herm.hermval(_SQRT_2PI * t, herm_coef)
        return _HERMITE_NORM * poly * np.exp(-math.pi * t * t) + 0.0j

    def freq_eval(xi):
        return eigenvalue * time_eval(xi)

    # Global envelope with rate pi/2: bound |H_n| by the absolute-coefficient
    # polynomial and absorb each monomial's peak against exp(-(pi/2)*xi^2).
    power_coef = _herm.herm2poly(herm_coef)
    beta = math.pi / 2.0
    amplitude = _HERMITE_NORM * math.fsum(
        abs(a) * _SQRT_2PI**j * _monomial_peak(j, beta)
        for j, a in enumerate(power_coef)
        if a != 0.0
    )

    return Window(
        label=f"hermite{n}",
        time_eval=time_eval,
        freq_eval=freq_eval,
        parity=Parity.EVEN if n % 2 == 0 else Parity.ODD,
        envelope=Envelope(amplitude=amplitude, rate=beta),
    )


def dilate(w: Window, b: float) -> Window:
    """L2-normalised dilation: (D_b w)(t) = b^(-1/2) * w(t/b), b > 0.

    The transform picks up the reciprocal scale: (D_b w)^hat(xi)
    = b^(1/2) * what(b*xi).  Parity is preserved.
    """
    b = float(b)
    if not (b > 0 and math.isfinite(b)):
        raise PreconditionError(f"dilation scale must be positive and finite, got {b!r}")
    if b == 1.0:
        return w

    base_time = w.time_eval
    base_freq = w.freq_eval
    inv_sqrt = b**-0.5
    sqrt_b = b**0.5

    def time_eval(t):
        t = np.asarray(t, dtype=float)
        return inv_sqrt * base_time(t / b)

    def freq_eval(xi):
        xi = np.asarray(xi, dtype=float)
        return sqrt_b * base_freq(b * xi)

    # a sampled window stays a quadrature on the dilated nodes, so
    # ghat_lattice keeps factoring its lattice evaluations
    quad = None
    if w.quadrature is not None:
        quad = Quadrature(w.quadrature.nodes * b, w.quadrature.weighted * sqrt_b)
        freq_eval = quad.freq_eval

    env = None
    if w.envelope is not None:
        # pad a hair: rescaled exponents travel a different float path than
        # the bound's, and a tight envelope must survive that ulp noise
        env = Envelope(
            amplitude=sqrt_b * w.envelope.amplitude * _ENVELOPE_PAD,
            rate=w.envelope.rate * b * b,
        )

    return Window(
        label=f"dilate({w.label},b={b!r})",
        time_eval=time_eval,
        freq_eval=freq_eval,
        parity=w.parity,
        envelope=env,
        quadrature=quad,
    )


def chirp_window(w: Window, q: float) -> Window:
    """Multiply a window by the unit chirp exp(i*pi*q*t^2).

    The chirp factor is even, so parity is preserved.  No decay envelope is
    propagated; the transform is evaluated by quadrature on the standard
    grid, and downstream truncation becomes heuristic.
    """
    q = float(q)
    if q == 0.0:
        return w
    base_time = w.time_eval

    def time_eval(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * math.pi * q * t * t) * base_time(t)

    n = int(round(2 * GRID_HALF_WIDTH / GRID_SPACING)) + 1
    t_grid = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, n)
    quad = Quadrature.of(t_grid, np.asarray(time_eval(t_grid), dtype=complex))

    return Window(
        label=f"chirp({w.label},q={q!r})",
        time_eval=time_eval,
        freq_eval=quad.freq_eval,
        parity=w.parity,
        envelope=None,
        quadrature=quad,
    )


def combine(terms: Sequence[tuple[float, Window]], label: str | None = None) -> Window:
    """Finite linear combination sum_i c_i * w_i of windows.

    Envelopes add in absolute value (with the weakest rate) when every
    component carries one; otherwise the combination has no envelope.
    """
    terms = [(float(c), w) for c, w in terms]
    if not terms:
        raise PreconditionError("combine needs at least one (coefficient, window) term")

    def time_eval(t):
        t = np.asarray(t, dtype=float)
        acc = terms[0][0] * terms[0][1].time_eval(t)
        for c, w in terms[1:]:
            acc = acc + c * w.time_eval(t)
        return acc

    def freq_eval(xi):
        xi = np.asarray(xi, dtype=float)
        acc = terms[0][0] * terms[0][1].freq_eval(xi)
        for c, w in terms[1:]:
            acc = acc + c * w.freq_eval(xi)
        return acc

    env = None
    if all(w.envelope is not None for _, w in terms):
        env = Envelope(
            amplitude=math.fsum(abs(c) * w.envelope.amplitude for c, w in terms) * _ENVELOPE_PAD,
            rate=min(w.envelope.rate for _, w in terms),
        )

    if label is None:
        label = " + ".join(f"{c!r}*{w.label}" for c, w in terms)
    out = Window(
        label=label,
        time_eval=time_eval,
        freq_eval=freq_eval,
        parity=Parity.UNKNOWN,
        envelope=env,
    )
    return replace(out, parity=classify_parity(out))


def classify_parity(w: Window) -> Parity:
    """Classify parity from a 201-point probe grid on [-5, 5].

    Even or odd requires the corresponding symmetry residual to stay below
    PARITY_TOL relative to the largest probe magnitude.  A window that
    vanishes at every probe shows no symmetry there and is UNKNOWN.
    """
    vals = np.asarray(w.time_eval(_PARITY_PROBES), dtype=complex)
    flipped = vals[::-1]
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return Parity.UNKNOWN
    even_res = float(np.max(np.abs(vals - flipped))) / scale
    odd_res = float(np.max(np.abs(vals + flipped))) / scale
    if even_res < PARITY_TOL:
        return Parity.EVEN
    if odd_res < PARITY_TOL:
        return Parity.ODD
    return Parity.NEITHER


def envelope_violation(w: Window, n_probes: int = 101) -> float:
    """Worst violation of the declared envelope on probes with |xi| in [1, 10].

    Returns max(|ghat(xi)| - bound(xi)) over the probe grid; nonpositive
    values mean the envelope held everywhere it was checked.
    """
    if w.envelope is None:
        raise PreconditionError(f"window {w.label!r} declares no envelope")
    xi = np.linspace(1.0, 10.0, n_probes)
    xi = np.concatenate([-xi[::-1], xi])
    mag = np.abs(np.asarray(w.freq_eval(xi), dtype=complex))
    return float(np.max(mag - w.envelope.bound(xi)))


def sampled_window(
    t: np.ndarray,
    values: np.ndarray,
    label: str = "sampled",
    envelope: Envelope | None = None,
) -> Window:
    """Window backed by samples on a uniform symmetric grid (check_samples).

    Evaluation interpolates linearly inside the grid and is 0 outside; the
    transform is a trapezoid quadrature over the samples at their recorded
    nodes (a node may sit up to 1e-9 off its ideal place t_0 + j*h; the
    metaplectic chirp-z kernel uses the ideal nodes).  A declared envelope
    is checked on a probe grid before being accepted.
    """
    t, values = check_samples(t, values)

    def time_eval(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, t, values, left=0.0 + 0.0j, right=0.0 + 0.0j)

    quad = Quadrature.of(t, values)

    out = Window(
        label=label,
        time_eval=time_eval,
        freq_eval=quad.freq_eval,
        parity=Parity.UNKNOWN,
        envelope=envelope,
        quadrature=quad,
    )
    out = replace(out, parity=classify_parity(out))
    if envelope is not None:
        violation = envelope_violation(out)
        if violation > 1e-12:
            raise PreconditionError(
                f"declared envelope violated by {violation:.3e} on the probe grid"
            )
    return out


def check_samples(t, values) -> tuple[np.ndarray, np.ndarray]:
    """Validate samples on a uniform grid symmetric about 0; return them as arrays.

    Requires matching 1-d arrays of at least 2 points; a positive first
    step h with every step within 1e-9 of it; every node within 1e-9 of
    its ideal place t_0 + j*(t_last - t_0)/(n - 1); h at most 0.01;
    |t_0 + t_last| at most 1e-9; finite values.  Raises PreconditionError
    otherwise.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=complex)
    if t.ndim != 1 or t.shape != values.shape or t.size < 2:
        raise PreconditionError("samples must be two matching 1-d arrays with at least 2 points")
    h = float(t[1] - t[0])
    ideal = t[0] + (t[-1] - t[0]) / (t.size - 1) * np.arange(t.size)
    if not (
        h > 0
        and np.allclose(np.diff(t), h, rtol=0.0, atol=_GRID_TOL)
        and np.allclose(t, ideal, rtol=0.0, atol=_GRID_TOL)
    ):
        raise PreconditionError("sample grid must be strictly increasing and uniform")
    if h > MAX_SPACING + 1e-12:
        raise PreconditionError(f"sample grid spacing {h!r} exceeds {MAX_SPACING}")
    if abs(t[0] + t[-1]) > _GRID_TOL:
        raise PreconditionError("sample grid must be symmetric about 0")
    if not (np.all(np.isfinite(values.real)) and np.all(np.isfinite(values.imag))):
        raise PreconditionError("sample values must be finite")
    return t, values


def ghat_lattice(w: Window, omegas: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """ghat on an (omega x k) lattice: returns at(rows, ks), the array
    ghat(ks[None, :] + omegas[rows, None]) for row indices rows and integer ks.

    Closed-form windows evaluate freq_eval on the flattened lattice.  A
    quadrature-backed window factors each node's phase,

        ghat(k + omega) = sum_m (c_m exp(-2 pi i omega t_m)) exp(-2 pi i k t_m),

    so the row factors (computed here, once) and the column factors of each
    call (in blocks of at most _FACTOR_VALUES node values) meet in one matrix
    product: (rows + columns) x n exponentials instead of rows x columns x n.
    The row table holds omegas.size x n values, so callers pass bounded chunks.
    """
    quad = w.quadrature
    if quad is None:

        def at(rows, ks):
            xi = ks[None, :] + omegas[rows, None]
            return np.asarray(w.freq_eval(xi.ravel()), dtype=complex).reshape(xi.shape)

        return at

    nodes = quad.nodes
    row_factor = _unit_phase(np.outer(omegas, nodes))
    row_factor *= quad.weighted
    block = max(1, _FACTOR_VALUES // nodes.size)

    def at(rows, ks):
        lhs = row_factor[rows]
        out = np.empty((lhs.shape[0], ks.size), dtype=complex)
        for c in range(0, ks.size, block):
            out[:, c : c + block] = lhs @ _unit_phase(np.outer(nodes, ks[c : c + block]))
        return out

    return at


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """exp(-2*pi*i*x) for a real array, from one cos and one sin pass."""
    phase = x * (-2.0 * math.pi)
    out = np.empty(x.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def sample_grid(half_width: float = GRID_HALF_WIDTH, spacing: float = GRID_SPACING) -> np.ndarray:
    """Uniform symmetric grid [-half_width, half_width] including 0."""
    n = int(round(2 * half_width / spacing))
    if n % 2 == 1:
        n += 1
    return np.linspace(-half_width, half_width, n + 1)


CSV_HEADER = ("t", "re", "im")


def write_sampled_csv(path, t: np.ndarray, values: np.ndarray) -> None:
    """Write samples in the interchange format: header t,re,im."""
    values = np.asarray(values, dtype=complex)
    write_csv(path, CSV_HEADER, (t, values.real, values.imag))


def read_sampled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Samples from the interchange format (tables.read_csv under header t,re,im)."""
    t, re, im = read_csv(path, CSV_HEADER)
    values = re.astype(complex)
    values.imag = im
    return t, values


def window_from_csv(path, label: str | None = None) -> Window:
    t, values = read_sampled_csv(path)
    return sampled_window(t, values, label=label or f"file:{path}")
