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

Building the blocks takes n^2 q/p complex multiply-adds, against n^3/p
for the dense S, and their eigenvalues cost about n q^2 against n^3.

The model represents the continuous system over a*Z x b*Z when a = p*h
and b = q/(n*h); given targets (a, b), `snap_lattice` picks divisors p, q
of n and the spacing h that spreads the snap error evenly over both
axes, so both are scaled by the same factor rho = sqrt(p*q/(n*a*b)).

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, ParameterNotRepresentable, PreconditionError
from .window import Window, dilate

_WRAP_TOL = 1e-8  # relative l2 mass allowed outside the covered interval
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
    snapped_a: float
    snapped_b: float
    target_a: float
    target_b: float
    label: str

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n > MAX_DENSE_DIM:
            raise PreconditionError(f"dimension must be in 1..{MAX_DENSE_DIM}, got {self.n!r}")
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
    def covolume(self) -> float:
        return self.snapped_a * self.snapped_b

    @property
    def rho(self) -> float:
        return self.snapped_a / self.target_a


def _periodized(w: Window, n: int, spacing: float) -> np.ndarray:
    """Window samples wrapped onto the circle of circumference n*spacing, unnormalized."""
    m = (np.arange(n) - n // 2) * spacing
    # the copies side by side are one uniform grid; the rows add in loop order
    shifts = range(-_PERIODIZE_COPIES, _PERIODIZE_COPIES + 1)
    copies = w.time_eval(np.concatenate([m + j * n * spacing for j in shifts]))
    return np.asarray(copies, dtype=complex).reshape(len(shifts), n).sum(axis=0)


def _wrap_defect(w: Window, n: int, spacing: float) -> float:
    """The relative l2 mass the window carries outside the interval of n samples.

    Probe mass beyond the covered interval against the mass of the central
    samples: it measures how faithful the periodization at this spacing is.
    One time_eval call covers the grid j*spacing for |j| <= n//2 +
    ceil(16/spacing).  The central samples are the n points from j = -n//2,
    the outside mass is at |j| > n//2, so for even n the point j = n//2 is
    in neither.  A spacing below 32/_MAX_PROBE, whose probe would pass
    _MAX_PROBE points, counts as not covering: the defect is then inf.
    """
    if spacing * _MAX_PROBE < 32.0:
        return math.inf
    half = n // 2
    reach = half + int(math.ceil(16.0 / spacing))
    j = np.arange(-reach, reach + 1)
    values = np.asarray(w.time_eval(j * spacing), dtype=complex)
    inside = float(np.linalg.norm(values[reach - half : reach - half + n]))
    if inside == 0.0:
        raise PreconditionError("window vanishes on the sampling grid")
    outside_sq = float(np.sum(np.abs(values[np.abs(j) > half]) ** 2))
    return math.sqrt(outside_sq) / inside


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
    if not (spacing > 0 and math.isfinite(spacing)):
        raise PreconditionError(f"spacing must be positive, got {spacing!r}")
    samples = _periodized(w, n, spacing)
    norm = float(np.linalg.norm(samples))
    if norm == 0.0:
        raise PreconditionError("periodized window is identically zero")
    snapped_a = p * spacing
    snapped_b = q / (n * spacing)
    return FiniteGaborModel(
        n=n,
        p=p,
        q=q,
        spacing=spacing,
        window=samples / norm,
        snapped_a=snapped_a,
        snapped_b=snapped_b,
        target_a=snapped_a if target_a is None else target_a,
        target_b=snapped_b if target_b is None else target_b,
        label=w.label,
    )


def _frame_blocks(model: FiniteGaborModel) -> np.ndarray:
    """The n/q diagonal blocks of the frame operator, shape (n/q, q, q).

    Block r acts on the indices m = r + (n/q)*j, j = 0..q-1, which the
    collapsed operator couples only among themselves:
    B_r[j, j'] = (n/q) * sum_k g(r + (n/q) j - p k) conj(g(r + (n/q) j' - p k)).
    """
    n, p, q = model.n, model.p, model.q
    N = n // q
    r = np.arange(N)[:, None, None]
    k = np.arange(n // p)[None, :, None]
    j = np.arange(q)[None, None, :]
    G = model.window[(r + N * j - p * k) % n]
    return (n / q) * np.matmul(G.transpose(0, 2, 1), G.conj())


def finite_frame_bounds(model: FiniteGaborModel) -> FrameBounds:
    """Smallest and largest eigenvalues of the (symmetrized) frame operator.

    The eigenvalues are those of the n/q diagonal blocks, solved in one
    batched call.  Zero floor: with `low` the smallest eigenvalue and B
    the largest, `low < -1e-10*B` raises `DegenerateError`, `low <=
    n*eps*B` reports A = 0 (an exactly singular operator comes out as
    rounding noise of either sign at that scale), and otherwise A = low.
    """
    blocks = _frame_blocks(model)
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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def snap_lattice(w: Window, a: float, b: float, n: int = DEFAULT_DIM) -> SnapChoice:
    """Pick divisor steps (p, q) and a spacing representing a*Z x b*Z on n points.

    The spacing h = sqrt(a*q/(b*p*n)) splits the mismatch evenly: both
    snapped axes are the targets scaled by rho = sqrt(p*q/(n*a*b)).
    Candidates must keep the window's l2 mass inside the covered
    interval (relative defect <= 1e-8) and, for subcritical targets,
    stay strictly below the critical product p*q = n.  Preference order:
    smallest |log rho|, then circumference nearest 16, then smallest p.
    The defect test runs in that order and stops at the first candidate
    that passes, the same choice as testing every candidate.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"lattice sides must be positive, got {a!r}, {b!r}")
    if n <= 0 or n > MAX_DENSE_DIM:
        raise PreconditionError(f"dimension must be in 1..{MAX_DENSE_DIM}, got {n!r}")
    subcritical = a * b < 1.0 - 1e-12
    divisors = _divisors(n)
    candidates = []
    for p in divisors:
        for q in divisors:
            if p * q > n or (subcritical and p * q == n):
                continue
            spacing = math.sqrt(a * q / (b * p * n))
            rho = math.sqrt(p * q / (n * a * b))
            if abs(math.log(rho)) > _LENIENT_LOG_RHO:
                continue
            coverage = n * spacing
            score = (abs(math.log(rho)), abs(math.log(coverage / 16.0)), p)
            candidates.append((score, SnapChoice(p=p, q=q, spacing=spacing, rho=rho, coverage=coverage)))
    candidates.sort(key=lambda item: item[0])
    for _, choice in candidates:
        if _wrap_defect(w, n, choice.spacing) <= _WRAP_TOL:
            return choice
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
    rel_gap: float
    model_rect: FiniteGaborModel
    model_square: FiniteGaborModel


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
    bounds_rect = finite_frame_bounds(model_rect)
    bounds_square = finite_frame_bounds(model_square)
    rel_gap = abs(bounds_rect.ratio - bounds_square.ratio)
    return EquivalenceReport(
        bounds_rect=bounds_rect,
        bounds_square=bounds_square,
        rel_gap=rel_gap,
        model_rect=model_rect,
        model_square=model_square,
    )
