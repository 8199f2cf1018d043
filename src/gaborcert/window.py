"""Window functions with paired time/frequency evaluators.

The Fourier transform convention throughout the package is

    ghat(xi) = integral g(t) exp(-2*pi*i*xi*t) dt,

under which the standard Gaussian exp(-pi*t^2) is its own transform and the
Hermite function of order n is an eigenfunction with eigenvalue (-i)^n.

Every analytic window is one closed form (ClosedForm),
g(t) = sum_n c_n H_n(sqrt(2*pi*z) t) exp(-pi*z*t^2) with Re z > 0, a family
closed under the Fourier transform, dilation, chirps and sums at one z; the
constructors only map (c, z), and from_form derives a window's transform,
parity and Gaussian decay envelope

    |ghat(xi)| <= amplitude * exp(-rate * xi^2)   for all real xi,

which drives rigorous truncation bounds for lattice sums.  Sampled windows
carry a trapezoid quadrature and no envelope unless one is declared;
downstream truncation is then heuristic and results carry a non-rigorous
flag.
"""

from __future__ import annotations

import cmath
import enum
import functools
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

# Relative symmetry residual below which a sampled window counts as even or odd.
PARITY_TOL = 1e-10
_PARITY_PROBES = np.linspace(-5.0, 5.0, 201)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Normalisation making hermite(1) exactly t*exp(-pi*t^2).
_HERMITE_NORM = 1.0 / (2.0 * _SQRT_2PI)

# Relative headroom applied to derived envelope amplitudes so a bound that is
# mathematically tight still holds after float rounding.
_ENVELOPE_PAD = 1.0 + 1e-12

# A coefficient counts as real after its phase is divided out when its
# imaginary part is within a few roundings of the division.
_U = 2.0**-53
_PHASE_ULPS = 4

# (-i)^n by n mod 4, exactly.
_MINUS_I_POWERS = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


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


def _interpolant(nodes: np.ndarray, values: np.ndarray) -> Callable:
    """Linear interpolation of samples, 0 outside the nodes."""
    return functools.partial(np.interp, xp=nodes, fp=values, left=0.0 + 0.0j, right=0.0 + 0.0j)


@functools.lru_cache(maxsize=256)
def _peak_sum(n: int, rho: float) -> float:
    """sum_j |a_j| (2 pi rho)^(j/2) sup_x x^j exp(-(pi/2) x^2) over the
    power-basis coefficients a_j of H_n (see ClosedForm.envelope); the sup
    is (j/pi)^(j/2) exp(-j/2)."""
    root = _SQRT_2PI * math.sqrt(rho)
    power = _herm.herm2poly([0.0] * n + [1.0])
    return math.fsum(
        abs(float(a)) * root**j * ((j / math.pi) ** (j / 2.0) * math.exp(-j / 2.0))
        for j, a in enumerate(power)
        if a != 0.0
    )


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """g(t) = sum_n coef[n] H_n(sqrt(2*pi*z) t) exp(-pi*z*t^2) with Re z > 0.

    H_n are the physicists' Hermite polynomials and the root is principal.
    Calling the form evaluates g (vectorised, complex output).  Trailing
    zero coefficients are dropped; at least one must be nonzero.
    """

    coef: tuple[complex, ...]
    z: complex

    def __post_init__(self) -> None:
        coef = tuple(map(complex, self.coef))
        while coef and coef[-1] == 0:
            coef = coef[:-1]
        z = complex(self.z)
        if not coef or not all(map(cmath.isfinite, coef)):
            raise PreconditionError("a closed form needs finite coefficients, not all zero")
        if not (z.real > 0 and cmath.isfinite(z)):
            raise PreconditionError(f"a closed form needs finite z with Re z > 0, got {z!r}")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "z", z)

    @property
    def parity(self) -> Parity:
        orders = {n % 2 for n, c in enumerate(self.coef) if c != 0}
        if orders == {0}:
            return Parity.EVEN
        return Parity.ODD if orders == {1} else Parity.NEITHER

    @functools.cached_property
    def _plan(self):
        """(root, -pi z, phase, poly): a real root and rate for real z, and
        real coefficients poly times one phase where the coefficients are
        real up to it; else phase None and poly the coefficients."""
        lead = max(self.coef, key=abs)
        phase = lead / abs(lead)
        units = [c * phase.conjugate() for c in self.coef]
        if all(abs(u.imag) <= _PHASE_ULPS * _U * abs(u) for u in units):
            poly = [u.real for u in units]
        else:
            phase, poly = None, list(self.coef)
        z = self.z.real if self.z.imag == 0.0 else self.z
        root = math.sqrt(2.0 * math.pi * z) if isinstance(z, float) else cmath.sqrt(2.0 * math.pi * z)
        return root, -math.pi * z, phase, poly

    @property
    def real(self) -> bool:
        """g is real up to one constant phase."""
        return self.z.imag == 0.0 and self._plan[2] is not None

    def __call__(self, t):
        root, rate, phase, poly = self._plan
        t = np.asarray(t, dtype=float)
        decay = np.exp(rate * t * t)
        out = poly[0] * decay if len(poly) == 1 else _herm.hermval(root * t, poly) * decay
        return out if phase is None else phase * out

    def transform(self) -> "ClosedForm":
        """The Fourier transform: coef[n] -> (-i)^n z^(-1/2) coef[n], z -> 1/z."""
        root = 1.0 / cmath.sqrt(self.z)
        return ClosedForm(
            tuple(c * _MINUS_I_POWERS[n % 4] * root for n, c in enumerate(self.coef)), 1.0 / self.z
        )

    def scaled(self, s: float, factor: complex = 1.0) -> "ClosedForm":
        """factor * g(s*t) for real s != 0: z -> s^2 z, coef[n] -> factor sign(s)^n coef[n]."""
        signs = (factor, factor if s > 0 else -factor)
        return ClosedForm(tuple(c * signs[n % 2] for n, c in enumerate(self.coef)), self.z * (s * s))

    def dilate(self, b: float) -> "ClosedForm":
        """b^(-1/2) g(t/b), b > 0."""
        return self.scaled(1.0 / b, b**-0.5)

    def chirp(self, q: float) -> "ClosedForm":
        """exp(i*pi*q*t^2) g(t): z -> z - i*q, and each H_n(gamma*x) re-expanded,
        gamma = sqrt(z)/sqrt(z - i*q), by the multiplication theorem
        H_n(gamma*x) = sum_i gamma^(n-2i) (gamma^2 - 1)^i n!/(i! (n-2i)!) H_(n-2i)(x)."""
        if q == 0.0:
            return self
        z = complex(self.z.real, self.z.imag - q)
        gamma = cmath.sqrt(self.z) / cmath.sqrt(z)
        coef = [0j] * len(self.coef)
        for n, c in enumerate(self.coef):
            for i in range(n // 2 + 1):
                count = math.factorial(n) // (math.factorial(i) * math.factorial(n - 2 * i))
                coef[n - 2 * i] += c * gamma ** (n - 2 * i) * (gamma * gamma - 1.0) ** i * count
        return ClosedForm(tuple(coef), z)

    def fractional(self, kernel) -> "ClosedForm":
        """The image under a kernel of metaplectic.frac_fourier (_angle_kernel):
        1 the identity, -1 the reflection, else (cot, csc, amplitude) for
        amplitude * exp(i pi cot s^2) * FT[g * exp(i pi cot t^2)](csc * s)."""
        if kernel in (1, -1):
            return self.scaled(kernel)
        cot, csc, amplitude = kernel
        return self.chirp(cot).transform().scaled(csc, amplitude).chirp(cot)

    def envelope(self) -> Envelope:
        """|g(t)| <= amplitude * exp(-rate * t^2): rate pi Re z for a constant
        polynomial, else (pi/2) Re z with each |H_n| bounded by its
        absolute-coefficient polynomial, whose monomials peak against
        exp(-(pi/2) Re z t^2) at |sqrt(z)|^j (Re z)^(-j/2) = (|z|/Re z)^(j/2)
        times their real-z peaks."""
        re = self.z.real
        if len(self.coef) == 1:
            return Envelope(amplitude=abs(self.coef[0]) * _ENVELOPE_PAD, rate=math.pi * re)
        rho = abs(self.z) / re
        amplitude = math.fsum(abs(c) * _peak_sum(n, rho) for n, c in enumerate(self.coef) if c != 0)
        return Envelope(amplitude=amplitude * _ENVELOPE_PAD, rate=0.5 * math.pi * re)


@dataclass(frozen=True)
class Window:
    """A window function with paired time and frequency evaluators.

    Both evaluators are vectorised: they accept a float or an ndarray and
    return complex values of matching shape.  A closed-form window also
    carries its ClosedForm, and a quadrature-backed window its Quadrature,
    which freq_eval evaluates; ghat_lattice uses it to factor lattice
    evaluations.
    """

    label: str
    time_eval: Callable = None  # type: ignore[assignment]
    freq_eval: Callable = None  # type: ignore[assignment]
    parity: Parity = Parity.UNKNOWN
    envelope: Envelope | None = None
    known_minimizer: float | None = None
    quadrature: Quadrature | None = None
    form: ClosedForm | None = None

    def __repr__(self) -> str:  # callables are noise in reprs
        return (
            f"Window(label={self.label!r}, "
            f"parity={self.parity.value}, envelope={self.envelope!r})"
        )

    @property
    def even_modulus(self) -> bool:
        """|ghat| is even: the window is even or odd, or real up to a constant
        phase (a real closed form, or real samples)."""
        if self.parity in (Parity.EVEN, Parity.ODD):
            return True
        if self.form is not None:
            return self.form.real
        return self.quadrature is not None and not np.any(self.quadrature.weighted.imag)


def from_form(form: ClosedForm, label: str, known_minimizer: float | None = None) -> Window:
    """The window of a closed form: its transform, parity and envelope."""
    freq = form.transform()
    return Window(label, form, freq, form.parity, freq.envelope(), known_minimizer, form=form)


def gaussian() -> Window:
    """The standard Gaussian window exp(-pi*t^2), self-dual under the FT.

    Its density profile attains its minimum at omega = 1/2, so the grid
    minimiser found by the criterion is known to be global.
    """
    return from_form(ClosedForm((1.0,), 1.0), "gaussian", known_minimizer=0.5)


def hermite(n: int) -> Window:
    """Hermite window of order n in the self-dual scaling.

    h_n(t) = H_n(sqrt(2*pi)*t) * exp(-pi*t^2) / (2*sqrt(2*pi)) with H_n the
    physicists' Hermite polynomial, so h_1(t) = t*exp(-pi*t^2) exactly and
    the transform satisfies ghat = (-i)^n * g.
    """
    if not isinstance(n, int) or n < 0:
        raise PreconditionError(f"hermite order must be a nonnegative integer, got {n!r}")
    return from_form(ClosedForm((0.0,) * n + (_HERMITE_NORM,), 1.0), f"hermite{n}")


def dilate(w: Window, b: float) -> Window:
    """L2-normalised dilation: (D_b w)(t) = b^(-1/2) * w(t/b), b > 0.

    The transform picks up the reciprocal scale: (D_b w)^hat(xi)
    = b^(1/2) * what(b*xi).  Parity is preserved.  A sampled window stays
    a quadrature on the dilated nodes, so ghat_lattice keeps factoring its
    lattice evaluations.
    """
    b = float(b)
    if not (b > 0 and math.isfinite(b)):
        raise PreconditionError(f"dilation scale must be positive and finite, got {b!r}")
    if b == 1.0:
        return w
    label = f"dilate({w.label},b={b!r})"
    if w.form is not None:
        return from_form(w.form.dilate(b), label)
    if w.quadrature is None:
        raise PreconditionError(f"window {w.label!r} has neither a closed form nor samples to dilate")
    nodes = w.quadrature.nodes
    quad = Quadrature(nodes * b, w.quadrature.weighted * b**0.5)
    env = None
    if w.envelope is not None:
        # pad a hair: rescaled exponents travel a different float path than
        # the bound's, and a tight envelope must survive that ulp noise
        env = Envelope(b**0.5 * w.envelope.amplitude * _ENVELOPE_PAD, w.envelope.rate * b * b)
    time_eval = _interpolant(quad.nodes, w.time_eval(nodes) * b**-0.5)
    return Window(label, time_eval, quad.freq_eval, w.parity, env, quadrature=quad)


def chirp_window(w: Window, q: float) -> Window:
    """Multiply a closed-form window by the unit chirp exp(i*pi*q*t^2).

    The chirp factor is even, so parity is preserved.
    """
    q = float(q)
    if q == 0.0:
        return w
    if w.form is None:
        raise PreconditionError(f"chirp_window needs a closed-form window, not {w.label!r}")
    return from_form(w.form.chirp(q), f"chirp({w.label},q={q!r})")


def combine(terms: Sequence[tuple[float, Window]], label: str | None = None) -> Window:
    """Finite linear combination sum_i c_i * w_i of closed-form windows of one z.

    The coefficients of each Hermite order add up.  Raises PreconditionError
    for windows without a closed form or of different z, and for a sum that
    vanishes identically.
    """
    terms = [(float(c), w) for c, w in terms]
    if not terms:
        raise PreconditionError("combine needs at least one (coefficient, window) term")
    if any(w.form is None for _, w in terms):
        raise PreconditionError("combine needs closed-form windows")
    z = terms[0][1].form.z
    if any(w.form.z != z for _, w in terms):
        raise PreconditionError("combine needs windows of one z")
    coef = [0j] * max(len(w.form.coef) for _, w in terms)
    for c, w in terms:
        for n, a in enumerate(w.form.coef):
            coef[n] += c * a
    if label is None:
        label = " + ".join(f"{c!r}*{w.label}" for c, w in terms)
    return from_form(ClosedForm(tuple(coef), z), label)


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
    quad = Quadrature.of(t, values)
    out = Window(label, _interpolant(t, values), quad.freq_eval, envelope=envelope, quadrature=quad)
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
