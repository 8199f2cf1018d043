"""Planar lattice algebra and reduction to the square-lattice criterion.

A full-rank lattice in the plane is the integer span of a nonsingular
2x2 basis.  Dividing out the co-volume leaves an SL(2, R) matrix, which
factors as

    B = delta * R_r * V_q * D_a,       delta = sqrt(|det B|),

with the clockwise rotation R_r = [[cos r, sin r], [-sin r, cos r]],
the lower shear V_q = [[1, 0], [q, 1]] and the dilation
D_a = diag(a, 1/a).  Each factor lifts to a unitary operator on
windows (fractional Fourier transform, chirp, dilation), exact on
closed-form windows and by quadrature on sampled ones, and
conjugating the window by the inverse chain turns any lattice Gabor
system into an equivalent one over the square lattice
delta*Z x delta*Z, i.e. a rectangular system with co-volume delta^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterNotRepresentable, PreconditionError
from .metaplectic import _angle_kernel, reduce_samples
from .window import Parity, Window, dilate, from_form, sample_grid, sampled_window

_SNAP = 1e-12


@dataclass(frozen=True)
class Lattice2D:
    """Integer span of the columns of a nonsingular 2x2 basis."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (2, 2) or not np.all(np.isfinite(basis)):
            raise PreconditionError("basis must be a finite 2x2 matrix")
        # the test runs on the basis with column j scaled by 2^-e_j, an exact
        # scaling, so its verdict is the unscaled one wherever that stays in
        # the double range: singular iff the columns are parallel to within
        # 1e-12, |det| <= 1e-12 |c_1| |c_2|, whatever their lengths
        e = np.frexp(np.max(np.abs(basis), axis=0))[1]  # one exponent per column
        scaled = np.ldexp(basis, -e)
        det = float(np.linalg.det(scaled))
        if abs(det) <= 1e-12 * math.hypot(*scaled[:, 0]) * math.hypot(*scaled[:, 1]):
            raise PreconditionError("basis is singular")
        # |det B| = |det| * 2^(e_1 + e_2) is a normal double iff its binary exponent is
        if not sys.float_info.min_exp <= math.frexp(det)[1] + int(e.sum()) <= sys.float_info.max_exp:
            raise ParameterNotRepresentable(f"the co-volume of basis {basis.tolist()} is outside the double range")
        object.__setattr__(self, "basis", basis)

    @property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))


def rect(a: float, b: float) -> Lattice2D:
    """The rectangular lattice aZ x bZ."""
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise PreconditionError(f"rectangle sides must be positive, got {a!r}, {b!r}")
    return Lattice2D(basis=np.diag([a, b]).astype(float))


def rotation_matrix(r: float) -> np.ndarray:
    c, s = math.cos(r), math.sin(r)
    return np.array([[c, s], [-s, c]])


def shear_matrix(q: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [q, 1.0]])


def dilation_matrix(a: float) -> np.ndarray:
    if not (a > 0 and math.isfinite(a)):
        raise PreconditionError(f"dilation parameter must be positive, got {a!r}")
    return np.diag([a, 1.0 / a])


@dataclass(frozen=True)
class IwasawaFactors:
    """Factorization basis = scale * R_r * V_q * D_a (sign-normalized basis)."""

    scale: float
    r: float
    q: float
    a: float

    def __post_init__(self) -> None:
        if not (self.scale > 0 and self.a > 0):
            raise PreconditionError("scale and dilation factors must be positive")
        if not (-math.pi < self.r <= math.pi):
            raise PreconditionError(f"rotation angle {self.r!r} outside (-pi, pi]")

    def compose(self) -> Lattice2D:
        basis = self.scale * rotation_matrix(self.r) @ shear_matrix(self.q) @ dilation_matrix(self.a)
        return Lattice2D(basis=basis)

    def as_dict(self) -> dict:
        return asdict(self)


def iwasawa(L: Lattice2D) -> IwasawaFactors:
    """Decompose a lattice basis into scaled rotation, shear and dilation.

    The basis is first sign-normalized by a column swap (same lattice),
    then scale = sqrt(det).  The angle is read off the second column of
    S = basis/scale, after which R_(-r) S is lower triangular with a
    positive diagonal.
    """
    basis = L.basis
    if float(np.linalg.det(basis)) < 0:
        basis = basis[:, ::-1]
    det = float(np.linalg.det(basis))
    scale = math.sqrt(det)
    with np.errstate(all="ignore"):
        S = basis / scale
        r = math.atan2(S[0, 1], S[1, 1])
        if r <= -math.pi:
            r = math.pi
        T = rotation_matrix(-r) @ S
        a, q = float(T[0, 0]), float(T[1, 0] / T[0, 0])
    # columns whose lengths differ by more than the double range holds
    if not (np.all(np.isfinite(T)) and math.isfinite(q)):
        raise ParameterNotRepresentable(f"the Iwasawa factors of basis {L.basis.tolist()} are outside the double range")
    if a <= 0:
        raise PreconditionError("factorization produced a nonpositive dilation")
    return IwasawaFactors(scale=scale, r=r, q=q, a=a)


@dataclass(frozen=True)
class ReductionResult:
    """Square-lattice form of a Gabor system.

    The criterion verdict for (window, delta_eff * (Z x Z)) transfers
    to the original pair; steps records the operator chain that was
    applied to the window.
    """

    window: Window
    delta_eff: float
    steps: tuple[tuple[str, float], ...]
    factors: IwasawaFactors
    parity_preserved: bool

    def to_json(self) -> dict:
        return {
            "label": self.window.label,
            "parity": self.window.parity.name.lower(),
            "delta_eff": self.delta_eff,
            "steps": [[tag, value] for tag, value in self.steps],
            "factors": self.factors.as_dict(),
            "parity_preserved": self.parity_preserved,
        }


def reduce_general(w: Window, L: Lattice2D) -> ReductionResult:
    """Conjugate (w, L) to an equivalent system over a square lattice.

    Peels the Iwasawa factors off the lattice by applying the inverse
    operator chain to the window: fractional Fourier transform for the
    rotation, chirp for the shear, then one combined dilation for D_a
    and the final rescale of the unit square to side scale.  Rectangular
    lattices take a single dilation.  A closed-form window maps exactly
    (ClosedForm.fractional, chirp and dilate); a sampled one is reduced
    on the standard grid by metaplectic.reduce_samples.
    """
    factors = iwasawa(L)
    delta_eff = factors.scale**2
    stretch = factors.scale / factors.a
    if abs(factors.r) <= _SNAP and abs(factors.q) <= _SNAP:
        reduced = dilate(w, stretch)
        return ReductionResult(
            window=reduced,
            delta_eff=delta_eff,
            steps=(("dilate", stretch),),
            factors=factors,
            parity_preserved=reduced.parity is w.parity,
        )
    label = f"reduced({w.label})"
    angle, rate = -factors.r, -factors.q
    if w.form is None:
        reduced = sampled_window(sample_grid(), reduce_samples(w, angle, rate, stretch), label=label)
    else:
        form = w.form.fractional(_angle_kernel(angle))
        reduced = from_form(form.chirp(rate).dilate(stretch), label)
    definite = w.parity in (Parity.EVEN, Parity.ODD)
    return ReductionResult(
        window=reduced,
        delta_eff=delta_eff,
        steps=(("frac_fourier", angle), ("chirp", rate), ("dilate", stretch)),
        factors=factors,
        parity_preserved=(not definite) or reduced.parity is w.parity,
    )
