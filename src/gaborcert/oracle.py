"""Finite-dimensional Gabor frame operators as desk-scale evidence.

A window sampled on n points with spacing h, periodized to the circle
of circumference L = n*h, generates a finite Gabor system from cyclic
time shifts by p samples and modulations in steps of q DFT bins.  The
frame operator of that system collapses to

    S[m, m'] = (n/q) * [m = m' mod n/q] * sum_k g(m - p k) conj(g(m' - p k)),

because the modulation sum is a full set of roots of unity; its extreme
eigenvalues are the frame bounds.  S couples m only with m' = m mod n/q,
so it splits into n/q independent q x q blocks (the Walnut / Zak-domain
structure of Zibulski and Zeevi), one per residue r:

    B_r = (n/q) * G_r^T conj(G_r),    G_r[k, j] = g(r + (n/q) j - p k).

S commutes with the time shift by p samples, which maps residue r to
r + p mod n/q: G_{r+p} is G_r with its rows k cycled, and with its
columns j cycled where r + p passes n/q, so B_{r+p} is B_r or a cyclic
permutation of it, with the same eigenvalues.  The orbits of r -> r + p
are the residues mod gcd(p, n/q), so only the blocks r < gcd(p, n/q)
are built and solved: gcd(p, n/q) (n/p) q^2 multiply-adds and
gcd(p, n/q) eigensolves of q x q blocks, against n^2 q/p and n/q for all
the blocks and n^3/p and n^3 for the dense S.  Samples that are exactly
even or odd about index n//2, g[(c - i) mod n] = +-g[i] with c =
2*(n//2), halve that again: under the reflection t -> -t, G_r[k, j] =
+-G_{r'}[-k, s - j] (k mod n/p, j mod q) where c - r = r' + (n/q) s with
r' < n/q, so B_r is B_{r'} with its rows and columns permuted.  Blocks r
and (c - r) mod gcd(p, n/q) form a mirror pair with one spectrum, and
only the smaller of each pair is solved.  Real windows get real
multiply-adds and a real symmetric eigensolve, complex ones complex
arithmetic.

The model represents the continuous system over a*Z x b*Z when a = p*h
and b = q/(n*h); given targets (a, b), `snap_lattice` picks divisors p, q
of n and the spacing h that spreads the snap error evenly over both
axes, so both are scaled by the same factor rho = sqrt(p*q/(n*a*b)),
and whose interval of n samples holds the window: a closed form's time
envelope bounds the mass outside it, and only where that bound does not
settle the question is the window probed there.

The model is evidence, not proof: bounds carry the snapped lattice (and
n) and never override the criterion.  Snapping deliberately refuses to
move a subcritical target (a*b < 1) onto the critical product p*q = n,
where finite models sit on the frame boundary and the smallest
eigenvalue reflects symmetry accidents rather than the target system:
with p, q both even it vanishes identically.  Interior products can
still land on genuine obstructions (for the first Hermite window,
p*q/n = 1/2 yields an exactly singular frame operator), which is
faithful behavior, not noise; the snapped co-volume in the report is
what the evidence speaks about.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import one_sided_gauss_tail_log
from .errors import DegenerateError, GaborcertError, ParameterNotRepresentable, PreconditionError
from .window import Window, dilate

_WRAP_TOL = 1e-8  # relative l2 mass allowed outside the covered interval
# the factor that pads an envelope bound on that mass outward: more than the
# relative rounding of the samples (a few ulps times an exponent below 746)
# and of the probe's sums, so a probe whose squares stay normal never reads
# above a passing bound
_WRAP_PAD = 1.0 + 1e-9
_LENIENT_LOG_RHO = math.log(1.25)
_EQUIV_RHO_TOL = 0.01
_PERIODIZE_COPIES = 2
_MAX_PROBE = 1 << 20  # points of one _wrap_defect probe
MAX_DENSE_DIM = 512
DEFAULT_DIM = 240


@dataclass(frozen=True)
class FrameBounds:
    """Extreme eigenvalues of a finite frame operator, 0 <= A <= B."""

    A: float
    B: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.A <= self.B) or self.B <= 0.0:
            raise PreconditionError(f"need 0 <= A <= B with B > 0, got {self.A!r}, {self.B!r}")

    @property
    def ratio(self) -> float:
        return self.A / self.B


@dataclass(frozen=True)
class FiniteGaborModel:
    """Periodized window plus the discrete lattice steps it is paired with."""

    n: int
    p: int
    q: int
    spacing: float
    window: np.ndarray
    target_a: float
    target_b: float
    label: str

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        if self.p <= 0 or self.q <= 0 or self.n % self.p or self.n % self.q:
            raise PreconditionError(
                f"steps must be positive divisors of n = {self.n}, got p = {self.p}, q = {self.q}"
            )
        if self.p * self.q > self.n:
            raise PreconditionError(
                f"p*q = {self.p * self.q} exceeds n = {self.n}; the discrete system is undersampled"
            )
        window = np.asarray(self.window, dtype=complex)
        if window.shape != (self.n,):
            raise PreconditionError("window must hold n complex samples")
        if abs(float(np.linalg.norm(window)) - 1.0) > 1e-9:
            raise PreconditionError("window samples must have unit norm")
        object.__setattr__(self, "window", window)

    @property
    def snapped_a(self) -> float:
        return self.p * self.spacing

    @property
    def snapped_b(self) -> float:
        return self.q / (self.n * self.spacing)

    @property
    def covolume(self) -> float:
        return self.snapped_a * self.snapped_b

    @property
    def rho(self) -> float:
        return self.snapped_a / self.target_a


def _check_dimension(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or not 0 < n <= MAX_DENSE_DIM:
        raise PreconditionError(f"dimension must be an integer in 1..{MAX_DENSE_DIM}, got {n!r}")


def _periodized(w: Window, n: int, spacing: float) -> np.ndarray:
    """Window samples wrapped onto the circle of circumference n*spacing, unnormalized."""
    m = (np.arange(n) - n // 2) * spacing
    # the copies side by side are one uniform grid; the rows add in loop order
    shifts = range(-_PERIODIZE_COPIES, _PERIODIZE_COPIES + 1)
    copies = w.time_eval(np.concatenate([m + j * n * spacing for j in shifts]))
    return np.asarray(copies, dtype=complex).reshape(len(shifts), n).sum(axis=0)


def _wrap_defect(w: Window, n: int, spacing: float) -> float:
    """The relative l2 mass the window carries outside the interval of n samples.

    Mass beyond the covered interval against the mass of the central
    samples: it measures how faithful the periodization at this spacing is.
    The central samples are the n points j*spacing from j = -n//2, the
    outside mass is at |j| > n//2, so for even n the point j = n//2 is in
    neither.  A closed form evaluates only the central samples and bounds
    the outside mass by its time envelope |g(t)| <= A exp(-r t^2): twice
    A^2 sum_(j > n//2) exp(-2 r h^2 j^2), by one_sided_gauss_tail_log,
    padded outward by _WRAP_PAD.  Where that bound exceeds _WRAP_TOL, where
    the envelope or the tail raises, and for sampled windows, one time_eval
    call probes the grid for |j| <= n//2 + ceil(16/spacing) instead.  A
    spacing below 32/_MAX_PROBE, whose probe would pass _MAX_PROBE points,
    counts as not covering: the defect is then inf.
    """
    if spacing * _MAX_PROBE < 32.0:
        return math.inf
    half = n // 2
    if w.form is not None:
        inside = _inside_norm(w.time_eval(np.arange(-half, n - half) * spacing))
        try:
            envelope = w.form.envelope()
            tail = one_sided_gauss_tail_log(2.0 * envelope.rate * spacing * spacing, 0, float(half + 1))
        except GaborcertError:
            pass
        else:
            bound = math.sqrt(2.0) * envelope.amplitude * math.exp(0.5 * tail) * _WRAP_PAD / inside
            if bound <= _WRAP_TOL:
                return bound
    reach = half + int(math.ceil(16.0 / spacing))
    j = np.arange(-reach, reach + 1)
    values = np.asarray(w.time_eval(j * spacing), dtype=complex)
    inside = _inside_norm(values[reach - half : reach - half + n])
    outside_sq = float(np.sum(np.abs(values[np.abs(j) > half]) ** 2))
    return math.sqrt(outside_sq) / inside


def _inside_norm(values) -> float:
    inside = float(np.linalg.norm(values))
    if inside == 0.0:
        raise PreconditionError("window vanishes on the sampling grid")
    return inside


def build_model(
    w: Window,
    n: int,
    p: int,
    q: int,
    spacing: float,
    target_a: float | None = None,
    target_b: float | None = None,
) -> FiniteGaborModel:
    """Assemble a model at explicit steps; snapped values follow from the grid."""
    _check_dimension(n)
    if not (spacing > 0 and math.isfinite(spacing)):
        raise PreconditionError(f"spacing must be positive, got {spacing!r}")
    samples = _periodized(w, n, spacing)
    norm = float(np.linalg.norm(samples))
    if norm == 0.0:
        raise PreconditionError("periodized window is identically zero")
    return FiniteGaborModel(
        n=n,
        p=p,
        q=q,
        spacing=spacing,
        window=samples / norm,
        target_a=p * spacing if target_a is None else target_a,
        target_b=q / (n * spacing) if target_b is None else target_b,
        label=w.label,
    )


def _frame_blocks(model: FiniteGaborModel, residues: np.ndarray) -> np.ndarray:
    """The diagonal blocks of the frame operator at the given residues r < n/q.

    Shape (len(residues), q, q).  Block r acts on the indices m = r + (n/q)*j,
    j = 0..q-1, which the collapsed operator couples only among themselves:
    B_r[j, j'] = (n/q) * sum_k g(r + (n/q) j - p k) conj(g(r + (n/q) j' - p k)).
    """
    n, p, q = model.n, model.p, model.q
    N = n // q
    r = residues[:, None, None]
    k = np.arange(n // p)[None, :, None]
    j = np.arange(q)[None, None, :]
    g = model.window if model.window.imag.any() else model.window.real  # real windows: real blocks
    G = g[(r + N * j - p * k) % n]
    return (n / q) * np.matmul(G.transpose(0, 2, 1), G.conj())


def finite_frame_bounds(model: FiniteGaborModel) -> FrameBounds:
    """Smallest and largest eigenvalues of the (symmetrized) frame operator.

    The eigenvalues are those of the G = gcd(p, n/q) blocks r < G, one per
    time-shift orbit.  When the samples are exactly even or odd about
    index n//2, g[(c - i) % n] = +-g[i] with c = 2*(n//2), the reflection
    t -> -t maps block r to a row and column permutation of block
    (c - r) mod G, so only the representatives r <= (c - r) mod G are
    solved; any other window solves all G.  One batched call.  Zero floor:
    with `low` the smallest eigenvalue and B the largest, `low <
    -1e-10*B` raises `DegenerateError`, `low <= n*eps*B` reports A = 0
    (an exactly singular operator comes out as rounding noise of either
    sign at that scale), and otherwise A = low.
    """
    n, g = model.n, model.window
    c = 2 * (n // 2)
    residues = np.arange(math.gcd(model.p, n // model.q))
    # (c - i) mod n keeps sample 0 and reverses the others for even n, and
    # reverses all of them for odd n; up to two orbits are their own mirrors
    rest = g[1 - n % 2 :]
    if len(residues) > 2 and (
        (rest == rest[::-1]).all() or ((rest == -rest[::-1]).all() and (n % 2 or g[0] == 0))
    ):
        residues = residues[residues <= (c - residues) % len(residues)]
    blocks = _frame_blocks(model, residues)
    upper_scale = float(np.max(np.abs(blocks)))
    adjoint = blocks.conj().transpose(0, 2, 1)
    asym = float(np.max(np.abs(blocks - adjoint)))
    if asym > 1e-10 * max(upper_scale, 1.0):
        raise DegenerateError(f"frame operator asymmetry {asym!r} exceeds tolerance")
    eigenvalues = np.linalg.eigvalsh(0.5 * (blocks + adjoint))
    low, high = float(np.min(eigenvalues[:, 0])), float(np.max(eigenvalues[:, -1]))
    if high <= 0.0:
        raise DegenerateError("frame operator has no positive spectrum")
    if low < -1e-10 * high:
        raise DegenerateError(f"frame operator eigenvalue {low!r} is negative beyond rounding")
    if low <= model.n * np.finfo(float).eps * high:
        low = 0.0
    return FrameBounds(A=low, B=high)


@dataclass(frozen=True)
class SnapChoice:
    p: int
    q: int
    spacing: float
    rho: float
    coverage: float


@functools.lru_cache(maxsize=2 * MAX_DENSE_DIM)
def _divisor_pairs(n: int, subcritical: bool) -> tuple[np.ndarray, np.ndarray]:
    """The steps (p, q), divisors of n with p*q <= n, or p*q < n when subcritical."""
    divisors = np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1
    products = divisors[:, None] * divisors
    p, q = divisors[np.argwhere(products < n if subcritical else products <= n)].T
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def snap_lattice(w: Window, a: float, b: float, n: int = DEFAULT_DIM) -> SnapChoice:
    """Pick divisor steps (p, q) and a spacing representing a*Z x b*Z on n points.

    The spacing h = sqrt(a*q/(b*p*n)) splits the mismatch evenly: both
    snapped axes are the targets scaled by rho = sqrt(p*q/(n*a*b)).
    Candidates must keep the window's l2 mass inside the covered
    interval (relative defect <= 1e-8) and, for subcritical targets,
    stay strictly below the critical product p*q = n.  Preference order:
    smallest |log rho|, then circumference nearest 16, then smallest p.
    The divisor pairs of each n are found once (_divisor_pairs).  One
    array pass screens every pair by np.log and sorts them into groups
    split where the screen gaps by more than 1e-9, far more than np.log
    and math.log differ.  Group by group, best first, math.log orders the
    pairs and the defect test runs in that order up to the first pass:
    the choice testing every pair makes, near-ties included.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"lattice sides must be positive, got {a!r}, {b!r}")
    _check_dimension(n)
    p, q = _divisor_pairs(n, a * b < 1.0 - 1e-12)
    with np.errstate(divide="ignore", over="ignore"):
        spacing = np.sqrt(a * q / (b * p * n))
        rho = np.sqrt(p * q / (n * a * b))
        # np.log screens and groups the pairs, math.log (whose rounding ties hang on) decides
        screen = np.abs(np.log(rho))
        near = np.flatnonzero((screen < _LENIENT_LOG_RHO + 1e-9) & (0.0 < spacing) & (spacing < math.inf))
    coverage = n * spacing
    near = near[np.argsort(screen[near])]
    # a gap of 1e-9 in the screen is far more than np.log and math.log
    # differ by, so no pair of a later group can score below one of this
    edges = [0, *(np.flatnonzero(np.diff(screen[near]) > 1e-9) + 1).tolist(), len(near)]
    for start, stop in zip(edges, edges[1:]):
        scores = []
        for i in near[start:stop].tolist():
            log_rho = abs(math.log(rho[i]))
            if log_rho <= _LENIENT_LOG_RHO:
                scores.append((log_rho, abs(math.log(coverage[i] / 16.0)), p[i], i))
        for *_, i in sorted(scores):
            if _wrap_defect(w, n, float(spacing[i])) <= _WRAP_TOL:
                return SnapChoice(int(p[i]), int(q[i]), float(spacing[i]), float(rho[i]), float(coverage[i]))
    raise ParameterNotRepresentable(
        f"no divisor pair of n = {n} represents a = {a!r}, b = {b!r} "
        f"within {math.exp(_LENIENT_LOG_RHO):.3g}x while covering the window"
    )


def model_for(w: Window, a: float, b: float, n: int = DEFAULT_DIM) -> FiniteGaborModel:
    """Snap the lattice and build the periodized model for (w, a*Z x b*Z)."""
    choice = snap_lattice(w, a, b, n)
    return build_model(w, n, choice.p, choice.q, choice.spacing, target_a=a, target_b=b)


@dataclass(frozen=True)
class EquivalenceReport:
    """A/B evidence that (w, aZ x bZ) and (D_b w, abZ x Z) agree as frames."""

    bounds_rect: FrameBounds
    bounds_square: FrameBounds
    model_rect: FiniteGaborModel
    model_square: FiniteGaborModel

    @property
    def rel_gap(self) -> float:
        return abs(self.bounds_rect.ratio - self.bounds_square.ratio)


def equivalence_check(w: Window, a: float, b: float, n: int = DEFAULT_DIM) -> EquivalenceReport:
    """Compare frame-bound ratios of the two unitarily equivalent systems.

    Requires both snapped lattices within 1% of their targets; the
    deviation would otherwise dominate the very gap being measured.
    """
    model_rect = model_for(w, a, b, n)
    model_square = model_for(dilate(w, b), a * b, 1.0, n)
    for model in (model_rect, model_square):
        if abs(model.rho - 1.0) > _EQUIV_RHO_TOL:
            raise ParameterNotRepresentable(
                f"lattice ({model.target_a!r}, {model.target_b!r}) snaps {100 * abs(model.rho - 1):.2f}% "
                f"off on n = {n} points; need 1% for an equivalence comparison"
            )
    return EquivalenceReport(
        bounds_rect=finite_frame_bounds(model_rect),
        bounds_square=finite_frame_bounds(model_square),
        model_rect=model_rect,
        model_square=model_square,
    )
