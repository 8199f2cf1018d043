"""The odd-window obstruction at the integer frequency line.

Any window whose Fourier transform vanishes at 0 (odd windows in
particular) has every numerator term of the density criterion at
omega = 0 dominated termwise by the matching denominator term:
|ghat(k)|^2 <= k^2 |ghat(k)|^2 for k != 0, while the k = 0 term is
absent from the numerator.  Hence delta_g(0) <= 1/2, and the
inequality is strict as soon as ghat(k) != 0 for some |k| >= 2.

For dilates of the first Hermite window the sums at omega = 0 are
explicit:  S_p = 2 * sum_{k>=1} k^(2p) * exp(-2*pi*b^2*k^2) up to a
common positive prefactor, so delta = (1/2)*sqrt(S_1/S_2) has a closed
scan.  Factoring exp(-c) out of each sum (c = 2*pi*b^2) keeps every
stored quantity near 1 for any b, and the strictness margin
1/2 - delta >= E/(4*S_2') with E = S_2' - S_1' >= 12*exp(-3c) (first
surviving term, k = 2) stays certifiable in log scale long after the
terms themselves underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criterion import (
    DEFAULT_TAIL_TOL,
    _check_tail_tol,
    delta_g,
    one_sided_gauss_tail_log,
)
from .errors import PreconditionError
from .tables import CsvTable
from .window import Parity, Window, classify_parity

_GHAT_ZERO_TOL = 1e-20
_LOG12 = math.log(12.0)


@dataclass(frozen=True)
class BarrierReport:
    """delta_g at omega = 0 together with the strictness facts."""

    label: str
    parity: Parity
    num0: float
    den0: float
    delta0: float
    delta0_high: float
    strict: bool
    ghat0_sq: float


def delta_at_zero(w: Window, tail_tol: float = DEFAULT_TAIL_TOL) -> BarrierReport:
    """Evaluate the criterion at omega = 0 and certify delta0 < 1/2 if possible.

    For a window classified odd, checks that |ghat(0)|^2 is numerically
    zero; a visible value means the window is not actually odd.  strict
    is True when the certified upper end of the numerator still sits
    below the certified lower end of the denominator, which pins
    delta0 < 1/2 whenever the termwise domination applies (ghat0_sq ~ 0).
    Past a gap of about the rounding budget (1e-14 relative; hermite:1
    dilated by b = 1.5 has 5e-18) float sums cannot show it, and strict
    is False; h1_barrier_scan certifies such gaps in log scale.
    """
    parity = classify_parity(w)
    ghat0_sq = abs(complex(w.freq_eval(np.asarray([0.0]))[0])) ** 2
    if parity is Parity.ODD and ghat0_sq > _GHAT_ZERO_TOL:
        raise PreconditionError(
            f"window {w.label!r} classifies as odd but |ghat(0)|^2 = {ghat0_sq!r}"
        )
    enc = delta_g(w, 0.0, tail_tol=tail_tol)
    strict = ghat0_sq <= _GHAT_ZERO_TOL and enc.num.upper < enc.den.lower
    return BarrierReport(
        label=w.label,
        parity=parity,
        num0=enc.num.value,
        den0=enc.den.value,
        delta0=enc.value,
        delta0_high=enc.high,
        strict=strict,
        ghat0_sq=ghat0_sq,
    )


def termwise_gap(w: Window, k_max: int = 12) -> float:
    """max over 2 <= |k| <= k_max of (k^2 - 1)|ghat(k)|^2.

    Positive iff some tabulated frequency past |k| = 1 carries energy,
    which is what upgrades delta0 <= 1/2 to a strict inequality.
    """
    if k_max < 2:
        raise PreconditionError("k_max must be at least 2")
    ks = np.arange(2, k_max + 1, dtype=float)
    ks = np.concatenate([-ks, ks])
    vals = np.abs(np.asarray(w.freq_eval(ks), dtype=complex)) ** 2
    return float(np.max((ks**2 - 1.0) * vals))


def odd_barrier_suite(
    corpus: Sequence[Window], tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[BarrierReport, ...]:
    """delta_at_zero across a corpus that must classify odd throughout."""
    reports = []
    for w in corpus:
        if classify_parity(w) is not Parity.ODD:
            raise PreconditionError(f"window {w.label!r} is not odd")
        reports.append(delta_at_zero(w, tail_tol=tail_tol))
    return tuple(reports)


@dataclass(frozen=True)
class BarrierScanRow:
    """One dilation step of the closed-form scan.

    log_gap_lb is a certified log lower bound on 1/2 - delta0; strict
    records that the enclosure's upper end is provably below 1/2.
    """

    b: float
    delta0_low: float
    delta0: float
    delta0_high: float
    strict: bool
    log_gap_lb: float


SCAN_CSV_HEADER = ("b", "delta0_low", "delta0", "delta0_high")


@dataclass(frozen=True)
class BarrierScan(CsvTable):
    rows: tuple[BarrierScanRow, ...]

    CSV_HEADER = SCAN_CSV_HEADER

    @property
    def all_strict(self) -> bool:
        return all(row.strict for row in self.rows)

    @property
    def max_delta0_high(self) -> float:
        return max(row.delta0_high for row in self.rows)

    def csv_rows(self):
        return ((row.b, row.delta0_low, row.delta0, row.delta0_high) for row in self.rows)


def _scaled_sums(c: float, tail_tol: float) -> tuple[float, float, float, float, float]:
    """Partial sums of k^(2p) * exp(-c*(k^2-1)) for p = 1, 2 plus log tails.

    Returns (sigma2, sigma4, log_tail2, log_tail4, log_e_lb) where the
    true sums lie in [sigma_p, sigma_p + exp(log_tail_p)] and
    E = sum k^2 (k^2-1) exp(-c*(k^2-1)) >= exp(log_e_lb).
    """
    sigma2 = 1.0
    sigma4 = 1.0
    e_partial = 0.0
    k = 2
    while True:
        w = math.exp(-c * (k * k - 1))
        k2 = float(k * k)
        sigma2 += k2 * w
        sigma4 += k2 * k2 * w
        e_partial += k2 * (k2 - 1.0) * w
        # one-sided tail of k^(2p) exp(-c k^2) from k+1, rescaled by e^c
        log_t2 = c + one_sided_gauss_tail_log(c, 1, float(k + 1))
        log_t4 = c + one_sided_gauss_tail_log(c, 2, float(k + 1))
        if math.exp(log_t4) <= tail_tol * sigma4 and math.exp(log_t2) <= tail_tol * sigma2:
            break
        if k > 10_000:
            raise PreconditionError("scan sums did not settle; c is too small")
        k += 1
    # haircut: exponent arguments c*(k^2-1) round before exp, so the float
    # path can overstate E by ~ulp(c); shaving a c-proportional sliver in
    # log scale keeps the bound one-sided for any dilation
    pad = 1e-13 + 1e-12 * c
    if e_partial > 0.0:
        log_e_lb = math.log(e_partial) - pad
    else:
        log_e_lb = _LOG12 - 3.0 * c - pad  # first term, k = 2, survives any underflow
    return sigma2, sigma4, log_t2, log_t4, log_e_lb


def h1_barrier_scan(
    b_min: float,
    b_max: float,
    steps: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> BarrierScan:
    """Closed-form scan of delta0 for dilates of the first Hermite window.

    Dilation scales are log-uniform over [b_min, b_max].  Every row is
    expected strict: the scan raises if any fails, since that would
    contradict the termwise domination.
    """
    if not (0.0 < b_min < b_max) or not math.isfinite(b_max):
        raise PreconditionError(f"need 0 < b_min < b_max, got {b_min!r}, {b_max!r}")
    if not isinstance(steps, int) or steps < 2:
        raise PreconditionError(f"steps must be an integer >= 2, got {steps!r}")
    _check_tail_tol(tail_tol)
    rows = []
    for b in np.geomspace(b_min, b_max, steps):
        b = float(b)
        c = 2.0 * math.pi * b * b
        sigma2, sigma4, log_t2, log_t4, log_e_lb = _scaled_sums(c, tail_tol)
        t2 = math.exp(log_t2)
        t4 = math.exp(log_t4)
        delta0 = 0.5 * math.sqrt(sigma2 / sigma4)
        low = 0.5 * math.sqrt(sigma2 / (sigma4 + t4))
        high = 0.5 * math.sqrt((sigma2 + t2) / sigma4)
        # 1/2 - delta >= (1/4 - delta^2) = E / (4 S_2') at the true sums
        log_gap_lb = log_e_lb - math.log(4.0 * (sigma4 + t4))
        strict = log_t2 < log_e_lb
        if not strict:
            raise PreconditionError(
                f"tail bound swamped the strictness margin at b = {b!r}"
            )
        rows.append(
            BarrierScanRow(
                b=b,
                delta0_low=low,
                delta0=delta0,
                delta0_high=min(high, 0.5),
                strict=strict,
                log_gap_lb=log_gap_lb,
            )
        )
    return BarrierScan(rows=tuple(rows))
