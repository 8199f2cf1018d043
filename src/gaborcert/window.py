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

which drives rigorous truncation bounds for lattice sums.  Only closed forms
carry an envelope.  A sampled window is one trapezoid quadrature (its values
are the band-limited interpolant of its transform), whose transform is
periodic with period 1/h in xi (h the grid spacing), so no Gaussian envelope
holds for it; truncation is then heuristic and results are non-rigorous.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import hermite as _herm

from .errors import NumericalError, PreconditionError
from .tables import read_csv, write_csv

# Standard sampling grid used for quadrature-backed transforms and for
# turning closed-form windows into sample vectors.
GRID_HALF_WIDTH = 8.0
GRID_SPACING = 0.005

# Sampled windows: coarsest grid spacing accepted, the tolerance to which
# nodes must sit on their uniform grid t_0 + j*h and the grid be symmetric,
# and the one in ulps for the grid of points they evaluate on.
MAX_SPACING = 0.01
_GRID_TOL = 1e-9
_GRID_ULPS = 16

# ghat_lattice evaluates a quadrature window's transform on at most
# _STRETCH_POINTS lattice points per chirp-z transform (its rounding grows
# with the length: on the 1001-omega grid, 1e-14 of the peak with 32,768
# points, 2.2e-15 with 8,192), and off a grid takes the columns k
# _SPLIT_COLUMNS at a time (a zero sum scans some 8,000 new k in one cutoff
# step; a block's arrays hold rows x 57 x 128 values on the standard grid).
_STRETCH_POINTS = 1 << 13
_SPLIT_COLUMNS = 1 << 7

# Relative symmetry residual below which a sampled window counts as even or odd.
PARITY_TOL = 1e-10

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


def ideal_nodes(t: np.ndarray) -> np.ndarray:
    """The uniform grid t_0 + j*(t_last - t_0)/(n - 1) that the nodes t sit on,
    as centre + h*u with u = j - (n - 1)/2 the centred index."""
    n = t.size
    h = (t[-1] - t[0]) / (n - 1)
    return 0.5 * (t[0] + t[-1]) + h * (np.arange(n) - 0.5 * (n - 1))


@dataclass(frozen=True, eq=False)
class Quadrature:
    """The one model of a sampled window: its samples and their trapezoid rule.

    ghat(xi) = sum_m weighted[m] * exp(-2*pi*i*xi*nodes[m]), with nodes the
    ideal nodes of the samples (ideal_nodes, the metaplectic kernel's too)
    and weighted the samples times trapezoid_weights on the ideal spacing.
    g is the band-limited interpolant of that transform (time_eval): samples[m]
    at an interior node, half of it at the two ends, whose weights are halved.
    """

    nodes: np.ndarray
    weighted: np.ndarray
    samples: np.ndarray

    @staticmethod
    def of(t: np.ndarray, values: np.ndarray) -> "Quadrature":
        nodes = ideal_nodes(t)
        return Quadrature(nodes, values * trapezoid_weights(t.size, (t[-1] - t[0]) / (t.size - 1)), values)

    def freq_eval(self, xi):
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        pts = np.atleast_1d(xi)
        kernel = np.exp(-2j * math.pi * np.outer(pts, self.nodes))
        out = kernel @ self.weighted
        return out[0] if scalar else out

    def time_eval(self, t):
        """g at t, a scalar or a uniform 1-d grid in either direction (to
        _GRID_ULPS ulps of its largest point; else PreconditionError): the
        samples where t is the nodes to that tolerance, elsewhere the inverse
        trapezoid rule over ghat on m points of one period 1/h (h the
        spacing), one chirp-z transform each way.  That rule repeats g with
        period about m*h, longer than any distance from a node to a point of t.
        """
        t = np.asarray(t, dtype=float)
        pts = np.atleast_1d(t)
        tol = _GRID_ULPS * _U * float(np.max(np.abs(pts), initial=0.0))
        step = (pts[-1] - pts[0]) / (pts.size - 1) if pts.ndim == 1 and pts.size > 1 else 0.0
        if pts.ndim != 1 or not pts.size or not np.all(np.abs(pts - pts[0] - step * np.arange(pts.size)) <= tol):
            raise PreconditionError("a sampled window evaluates on a scalar or a uniform 1-d grid only")
        nodes = self.nodes
        if pts.size == nodes.size and np.all(np.abs(pts - nodes) <= tol):
            return self.samples.copy()
        h = (nodes[-1] - nodes[0]) / (nodes.size - 1)
        m = 2 * math.ceil(0.5 * max(pts.max() - nodes[0], nodes[-1] - pts.min()) / h) + 1
        # a step of 24 significant bits makes every point j*df exact, so the
        # second rule's nodes are exactly the points the first one evaluated
        df = float(np.float32(1.0 / (m * h)))
        freqs = (np.arange(m) - 0.5 * (m - 1)) * df
        rule = Quadrature.of(freqs, _chirp_z(nodes, self.weighted, 0.0, df, m))
        out = _chirp_z(rule.nodes, rule.weighted, -pts[0] + 0.5 * (pts.size - 1) * -step, -step, pts.size)
        return out[0] if t.ndim == 0 else out


@functools.lru_cache(maxsize=256)
def _peak_sum(n: int, rho: float) -> float:
    """sum_j |a_j| (2 pi rho)^(j/2) sup_x x^j exp(-(pi/2) x^2) over the
    power-basis coefficients a_j of H_n (see ClosedForm.envelope); the sup
    is (j/pi)^(j/2) exp(-j/2).  Not finite (inf or NaN) where it overflows."""
    root = _SQRT_2PI * math.sqrt(rho)
    with np.errstate(over="ignore", invalid="ignore"):
        power = _herm.herm2poly([0.0] * n + [1.0])
    try:
        return math.fsum(
            abs(float(a)) * root**j * ((j / math.pi) ** (j / 2.0) * math.exp(-j / 2.0))
            for j, a in enumerate(power)
            if a != 0.0
        )
    except OverflowError:
        return math.inf


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

    def derivative(self) -> "ClosedForm":
        """g'/(2*pi): with x = alpha*t, alpha = sqrt(2*pi*z), g' = alpha * sum_n c_n
        (2n H_(n-1)(x) - x H_n(x)) exp(-pi*z*t^2), and x H_n = H_(n+1)/2 + n H_(n-1)
        gives coef[n-1] += alpha*n*c_n/(2*pi) and coef[n+1] -= alpha*c_n/(4*pi)."""
        alpha = cmath.sqrt(2.0 * math.pi * self.z)
        coef = [0j] * (len(self.coef) + 1)
        for n, c in enumerate(self.coef):
            if n:
                coef[n - 1] += alpha * n * c / (2.0 * math.pi)
            coef[n + 1] -= alpha * c / (4.0 * math.pi)
        return ClosedForm(tuple(coef), self.z)

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
        peaks = math.fsum(abs(c) * _peak_sum(n, rho) for n, c in enumerate(self.coef) if c != 0)
        amplitude = peaks * _ENVELOPE_PAD
        if not math.isfinite(amplitude):
            degree = len(self.coef) - 1
            raise NumericalError(f"envelope amplitude of a degree-{degree} closed form overflows")
        return Envelope(amplitude=amplitude, rate=0.5 * math.pi * re)


@dataclass(frozen=True)
class Window:
    """A window function with paired time and frequency evaluators.

    Both evaluators are vectorised: they accept a float or an ndarray and
    return complex values of matching shape.  A closed-form window also
    carries its ClosedForm and the envelope from_form derives from it; a
    sampled window carries its Quadrature, its one model: freq_eval is the
    trapezoid rule (ghat_lattice evaluates it on whole lattices), time_eval
    its band-limited interpolant, which takes only a scalar or a uniform
    grid; it has no envelope.
    """

    label: str
    time_eval: Callable = None  # type: ignore[assignment]
    freq_eval: Callable = None  # type: ignore[assignment]
    parity: Parity = Parity.UNKNOWN
    envelope: Envelope | None = None
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


def from_form(form: ClosedForm, label: str) -> Window:
    """The window of a closed form: its transform, parity and envelope."""
    freq = form.transform()
    return Window(label, form, freq, form.parity, freq.envelope(), form=form)


def gaussian() -> Window:
    """The standard Gaussian window exp(-pi*t^2), self-dual under the FT."""
    return from_form(ClosedForm((1.0,), 1.0), "gaussian")


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
    a quadrature on the dilated nodes, which ghat_lattice evaluates as it
    does the undilated ones, and its interpolant is the dilated one.
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
    q = w.quadrature
    quad = Quadrature(q.nodes * b, q.weighted * b**0.5, q.samples * b**-0.5)
    return Window(label, quad.time_eval, quad.freq_eval, w.parity, quadrature=quad)


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


def classify_parity(values: np.ndarray) -> Parity:
    """The parity of samples on a grid symmetric about 0 (check_samples).

    Even or odd requires values - values[::-1], or values + values[::-1],
    to stay below PARITY_TOL relative to the largest sample.  All-zero
    samples show no symmetry and are UNKNOWN.
    """
    vals = np.asarray(values, dtype=complex)
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


def sampled_window(t: np.ndarray, values: np.ndarray, label: str = "sampled") -> Window:
    """Window backed by samples on a uniform symmetric grid (check_samples).

    Its one model is a Quadrature: the transform is the trapezoid rule over
    the samples at their ideal nodes t_0 + j*h (a recorded node may sit up
    to 1e-9 off its ideal place; the metaplectic chirp-z kernel uses the
    ideal nodes too), and evaluation is that transform's band-limited
    interpolant, which returns the samples at the nodes.  The parity is the
    samples' own (classify_parity).  The window carries no envelope: the
    quadrature's transform repeats with period 1/h, so it never decays, and
    sums over it are never rigorous.
    """
    t, values = check_samples(t, values)
    quad = Quadrature.of(t, values)
    return Window(label, quad.time_eval, quad.freq_eval, classify_parity(values), quadrature=quad)


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
    if not (
        h > 0
        and np.allclose(np.diff(t), h, rtol=0.0, atol=_GRID_TOL)
        and np.allclose(t, ideal_nodes(t), rtol=0.0, atol=_GRID_TOL)
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
    quadrature-backed window on omegas that form a uniform grid of step 1/L,
    L a positive integer (_grid_steps), sees every xi = k + omega on one grid
    of step 1/L, which chirp-z transforms evaluate a stretch at a time
    (_grid_lattice, which holds what it transformed: a sweep's cutoff steps
    transform each point once).  Off such a grid (min_delta's at most 14
    stencil points, one omega) it splits the nodes into baby and giant
    steps (_split_lattice): about 2 sqrt(n) phases per omega and per k in
    place of n.
    """
    quad = w.quadrature
    if quad is None:

        def at(rows, ks):
            xi = ks[None, :] + omegas[rows, None]
            return np.asarray(w.freq_eval(xi.ravel()), dtype=complex).reshape(xi.shape)

        return at

    steps = _grid_steps(omegas)
    if steps is not None:
        return _grid_lattice(quad, omegas[0], steps)
    return _split_lattice(quad, omegas)


def _grid_steps(omegas: np.ndarray) -> int | None:
    """L when omegas[j] = omegas[0] + j/L for a positive integer L, to a few
    ulps, and the omegas fill more than half of a unit interval (2*size > L:
    a chirp-z transform evaluates every point of the step-1/L grid between
    the ones needed); else None."""
    if omegas.size < 2 or not omegas[-1] > omegas[0]:
        return None
    steps = round((omegas.size - 1) / float(omegas[-1] - omegas[0]))
    if not 1 <= steps < 2 * omegas.size:
        return None
    grid = omegas[0] + np.arange(omegas.size) / steps
    tol = 8.0 * _U * max(1.0, float(np.max(np.abs(omegas))))
    return steps if bool(np.all(np.abs(omegas - grid) <= tol)) else None


def _grid_lattice(quad: Quadrature, origin: float, steps: int):
    """at(rows, ks) for omegas[j] = origin + j/steps, holding what it transformed.

    Lattice point (row, k) is point k*steps + row of the grid origin + i/steps.
    A call looks up the points it holds and cuts the others into stretches,
    one chirp-z transform each: a stretch ends before a gap longer than the
    node count n, whose points would cost more than a second transform, and
    after at most _STRETCH_POINTS points.  A transform costs about its FFT
    length, the 11-smooth length at or above n + size, so a stretch shorter
    than n/2 widens to n, and every stretch to the size that fills its FFT
    length, away from grid point 0 (both ways if it holds that point), where
    a sweep's later cutoff steps ask.  After the call the evaluator drops
    every stretch within the span of the points it served: a sweep asks
    next for points farther out and the outermost columns again, which
    only a stretch reaching past that span can hold.
    """
    n = quad.nodes.size
    held: list[tuple[int, np.ndarray]] = []  # (first grid point, values) of each stretch kept

    def at(rows, ks):
        index = ks.astype(np.int64)[None, :] * steps + np.asarray(rows, dtype=np.int64)[:, None]
        points, where = np.unique(index, return_inverse=True)
        values = np.empty(points.size, dtype=complex)
        missing = np.ones(points.size, dtype=bool)
        for first, stretch in held:
            lo, hi = np.searchsorted(points, (first, first + stretch.size))
            values[lo:hi] = stretch[points[lo:hi] - first]
            missing[lo:hi] = False
        todo = np.flatnonzero(missing)
        need = points[todo]
        starts = np.flatnonzero(np.diff(need) > n) + 1
        for lo, hi in zip(np.r_[0, starts], np.r_[starts, need.size]):
            while lo < hi:
                first = int(need[lo])
                end = min(hi, lo + int(np.searchsorted(need[lo:hi], first + _STRETCH_POINTS)))
                size = int(need[end - 1]) + 1 - first
                wide = min(_fast_length(n + (n if 2 * size < n else size)) - n, _STRETCH_POINTS)
                extra = wide - size
                below = extra if first + size <= 0 else 0 if first > 0 else extra // 2
                start = first - below
                mid = origin + (2 * start + wide - 1) / (2 * steps)
                stretch = _chirp_z(quad.nodes, quad.weighted, mid, 1.0 / steps, wide)
                values[todo[lo:end]] = stretch[need[lo:end] - start]
                held.append((start, stretch))
                lo = end
        if points.size:
            held[:] = [(first, v) for first, v in held if first < points[0] or first + v.size > points[-1] + 1]
        return values[where.reshape(index.shape)]

    return at


def _split_lattice(quad: Quadrature, omegas: np.ndarray):
    """at(rows, ks) for any omegas, by a baby-step/giant-step split of the nodes.

    With the nodes t_m = c + h*u_m (u centred) and m = q*B + r, B = ceil(sqrt(n))
    and Q = ceil(n/B) (weights past n are zero), u_m = g_q + b_r with
    g_q = q*B - (n - B)/2 and b_r = r - (B - 1)/2, so

        ghat(k + omega) = exp(-2 pi i (k + omega) c)
                          * sum_q G(omega, q) G(k, q) sum_r B(omega, r) B(k, r) c_rq,

    G(x, q) = exp(-2 pi i x h g_q) and B(x, r) = exp(-2 pi i x h b_r): B + Q
    phases for each omega (once) and each k.  The products B(omega, r) B(k, r)
    of a call's (omega, k) pairs, one row each, meet the (B x Q) weights in
    one matrix product, and a sum over q finishes.  Twice g_q and b_r are
    integers, so the phases of an integer k are reduced modulo 2*pi exactly
    (_half_turns).  The ks go in blocks of _SPLIT_COLUMNS.

    A row's values depend on its own omega and the ks only, however many
    rows a call holds: numpy's matrix kernel computes each row of a product
    alike wherever it sits, but takes a vector kernel for a lone row, so a
    lone (omega, k) pair goes twice; and the sum over q runs down the first
    axis, q after q, where a sum along the last one is split into pieces
    that depend on the array's size.
    """
    nodes = quad.nodes
    n = nodes.size
    h = (nodes[-1] - nodes[0]) / (n - 1)
    centre = 0.5 * (nodes[0] + nodes[-1])
    baby = math.isqrt(n - 1) + 1
    giant = -(-n // baby)
    twice_b = 2.0 * np.arange(baby) - (baby - 1)
    twice_g = 2.0 * baby * np.arange(giant) - (n - baby)
    weights = np.pad(quad.weighted, (0, giant * baby - n)).reshape(giant, baby).T.copy()
    omega_b = _unit_phase(np.outer(omegas, 0.5 * h * twice_b))
    omega_g = _unit_phase(np.outer(omegas, 0.5 * h * twice_g))

    def at(rows, ks):
        out = np.empty((len(rows), ks.size), dtype=complex)
        row_b, row_g = omega_b[rows][:, None, :], omega_g[rows][:, None, :]
        for c in range(0, ks.size, _SPLIT_COLUMNS):
            k = ks[c : c + _SPLIT_COLUMNS]
            k_b = _unit_phase(0.5 * _half_turns(h, np.outer(k, twice_b)))
            k_g = _unit_phase(0.5 * _half_turns(h, np.outer(k, twice_g)))
            babies = (row_b * k_b).reshape(-1, baby)
            giants = (row_g * k_g).reshape(-1, giant)
            if babies.shape[0] == 1:
                babies, giants = np.tile(babies, (2, 1)), np.tile(giants, (2, 1))
            terms = np.ascontiguousarray(((babies @ weights) * giants).T)
            out[:, c : c + _SPLIT_COLUMNS] = terms.sum(axis=0)[: len(rows) * k.size].reshape(len(rows), k.size)
        if centre != 0.0:
            out *= _unit_phase((ks[None, :] + omegas[rows, None]) * centre)
        return out

    return at


def _chirp_z(nodes: np.ndarray, weighted: np.ndarray, mid: float, step: float, size: int) -> np.ndarray:
    """sum_m weighted[m] exp(-2 pi i xi nodes[m]), the transform ghat of a
    quadrature, at the size points xi = mid + v*step, v = j - (size - 1)/2
    centred, by one chirp-z transform.  Every point inherits the rounding
    of mid, so a caller passes mid itself, not a far end point.

    On the nodes t_m = c + h*u_m (u centred), 2*u*v = u^2 + v^2 - (v - u)^2 gives
    (Bluestein's factoring)

        ghat(xi) = exp(-2 pi i xi c) exp(-i pi a v^2)
                   * sum_m [c_m exp(-2 pi i mid h u_m) exp(-i pi a u_m^2)] exp(i pi a (v - u_m)^2)

    with a = h*step: one chirp on the nodes, one FFT convolution of length
    about n + size (the metaplectic kernel is this transform too) and one chirp
    on the points.  Twice u, v and v - u are integers, and the chirps' phases
    are reduced modulo 2*pi exactly (_half_turns), so they carry a few ulps
    however far the indices run.
    """
    n = weighted.size
    h = (nodes[-1] - nodes[0]) / (n - 1)
    centre = 0.5 * (nodes[0] + nodes[-1])
    quarter = 0.25 * h * step  # a/4, the phase per squared doubled index
    twice_u = np.arange(n) * 2.0 - (n - 1)
    twice_v = np.arange(size) * 2.0 - (size - 1)
    twice_d = np.arange(n + size - 1) * 2.0 - 2.0 * (n - 1) + (n - size)
    weighted = weighted * _unit_phase(
        0.5 * (_half_turns(mid * h, twice_u) + _half_turns(quarter, twice_u * twice_u))
    )
    kernel = _unit_phase(-0.5 * _half_turns(quarter, twice_d * twice_d))
    # the part of the linear convolution of weighted and kernel that sees all
    # of weighted, by FFT
    length = _fast_length(kernel.size)
    out = np.fft.ifft(np.fft.fft(weighted, length) * np.fft.fft(kernel, length))[n - 1 : kernel.size]
    out *= _unit_phase(0.5 * _half_turns(quarter, twice_v * twice_v))
    if centre != 0.0:
        out *= _unit_phase((mid + 0.5 * step * twice_v) * centre)
    return out


def _half_turns(a: float, s: np.ndarray) -> np.ndarray:
    """a*s modulo 2, in about [-1, 1], for integer-valued floats s.

    a splits into hi + lo with hi short enough that hi*s is exact, so it
    reduces modulo 2 exactly; lo*s is below 2^(b - 52) of a*s for |s| < 2^b.
    The result carries a few ulps of 1 where a*s itself carries ulps of a*s.
    """
    spare = 52 - math.frexp(float(np.max(np.abs(s))))[1]  # bits of hi that keep hi*s exact
    mantissa, exponent = math.frexp(a)
    hi = math.ldexp(round(math.ldexp(mantissa, spare)), exponent - spare) if spare > 0 else 0.0
    turns = hi * s
    turns -= 2.0 * np.rint(0.5 * turns)
    turns += (a - hi) * s
    return turns


def _fast_length(m: int) -> int:
    """The smallest 11-smooth integer at or above m: an FFT length pocketfft splits fully."""
    n = m
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """exp(-2*pi*i*x) for a real array, from one cos and one sin pass."""
    phase = x * (-2.0 * math.pi)
    out = np.empty(x.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def sample_grid() -> np.ndarray:
    """The standard sampling grid: [-GRID_HALF_WIDTH, GRID_HALF_WIDTH] at spacing
    GRID_SPACING, an odd number of points, so 0 among them."""
    n = round(2 * GRID_HALF_WIDTH / GRID_SPACING)
    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, n + 1)


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
