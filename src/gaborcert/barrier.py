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

The scan sums every dilation row at once, outward in k: each new k
column (one math.exp per active row) is added to the scaled sums of all
active rows, so every row is still summed left to right.  A row retires
at the first k where its closed-form tails (one_sided_gauss_tail_log,
one array call per k step for both sums) pass the criterion's stopping
rule, tail <= 1e-12 * value, for both sums, the rule a row-by-row loop
stops on.  Rows, and the CSV written from them, are bit-identical to that
loop's, with memory proportional to the row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criterion import _converged, delta_g, one_sided_gauss_tail_log
from .errors import PreconditionError
from .tables import CsvTable
from .window import Parity, Window

_GHAT_ZERO_TOL = 1e-20
_LOG12 = math.log(12.0)
_K_MAX = 10_000  # a row whose sums have not settled past this k raises


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


def delta_at_zero(w: Window) -> BarrierReport:
    """Evaluate the criterion at omega = 0 and certify delta0 < 1/2 if possible.

    For a window whose parity (w.parity, set by its constructor) is odd,
    checks that |ghat(0)|^2 is numerically zero; a visible value means the
    window is not actually odd.  strict is True when the certified upper
    end of the numerator still sits below the certified lower end of the
    denominator, which pins delta0 < 1/2 whenever the termwise domination
    applies (ghat0_sq ~ 0).
    Past a gap of about the rounding budget (1e-14 relative; hermite:1
    dilated by b = 1.5 has 5e-18) float sums cannot show it, and strict
    is False; h1_barrier_scan certifies such gaps in log scale.
    """
    ghat0_sq = abs(complex(w.freq_eval(np.asarray([0.0]))[0])) ** 2
    if w.parity is Parity.ODD and ghat0_sq > _GHAT_ZERO_TOL:
        raise PreconditionError(
            f"window {w.label!r} classifies as odd but |ghat(0)|^2 = {ghat0_sq!r}"
        )
    enc = delta_g(w, 0.0)
    strict = ghat0_sq <= _GHAT_ZERO_TOL and enc.num.upper < enc.den.lower
    return BarrierReport(
        label=w.label,
        parity=w.parity,
        num0=enc.num.value,
        den0=enc.den.value,
        delta0=enc.value,
        delta0_high=enc.high,
        strict=strict,
        ghat0_sq=ghat0_sq,
    )


def odd_barrier_suite(corpus: Sequence[Window]) -> tuple[BarrierReport, ...]:
    """delta_at_zero across a corpus whose windows must all have parity ODD."""
    reports = []
    for w in corpus:
        if w.parity is not Parity.ODD:
            raise PreconditionError(f"window {w.label!r} is not odd")
        reports.append(delta_at_zero(w))
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

    def csv_columns(self):
        table = np.array([(row.b, row.delta0_low, row.delta0, row.delta0_high) for row in self.rows])
        return table.reshape(-1, len(self.CSV_HEADER)).T


def _scaled_sums(cs: np.ndarray):
    """Partial sums of k^(2p) * exp(-c*(k^2-1)) for p = 1, 2 plus log tails, per finite c.

    One sweep outward in k over every row at once: each new k column is
    added to sigma2, sigma4 and E of all active rows (a per-row += in k
    order, the left-to-right sum of a row-by-row loop), and a row retires
    at the first k where exp(log_t4) and exp(log_t2) pass _converged
    against sigma4 and sigma2 (both at least 1), with
    log_tp = c + one_sided_gauss_tail_log(c, p, k + 1) from one array call
    for every active row and both weights.  The caller has checked the
    smallest c with a scalar tail call; every larger c has a smaller tail
    ratio, so no array tail here fails.

    Returns (sigma2, sigma4, e_partial, log_t2, log_t4) as arrays over the
    rows: the true sums lie in [sigma_p, sigma_p + exp(log_t_p)] and
    E = sum k^2 (k^2-1) exp(-c*(k^2-1)) >= e_partial.  Raises if a row is
    still summing past _K_MAX.
    """
    n = cs.size
    sigma2, sigma4, e_partial = np.ones(n), np.ones(n), np.zeros(n)
    log_t2, log_t4 = np.empty(n), np.empty(n)
    idx = np.arange(n)
    c, s2, s4, e = cs.copy(), np.ones(n), np.ones(n), np.zeros(n)
    k = 2
    while idx.size:
        k2 = float(k * k)
        # the same float product c * (k^2 - 1) and math.exp as the scalar loop
        w = np.fromiter(map(math.exp, (-c * (k * k - 1)).tolist()), float, idx.size)
        s2 += k2 * w
        s4 += k2 * k2 * w
        e += k2 * (k2 - 1.0) * w
        # one-sided tails of k^(2p) exp(-c k^2) from k+1, rescaled by e^c
        lt = c + np.array(one_sided_gauss_tail_log(c, (1, 2), float(k + 1)))
        t2, t4 = np.exp(lt)
        done = _converged(t4, s4) & _converged(t2, s2)
        rows = idx[done]
        sigma2[rows], sigma4[rows], e_partial[rows] = s2[done], s4[done], e[done]
        log_t2[rows], log_t4[rows] = lt[:, done]
        if done.any():
            keep = ~done
            idx, c, s2, s4, e = idx[keep], c[keep], s2[keep], s4[keep], e[keep]
        if idx.size and k > _K_MAX:
            raise PreconditionError("scan sums did not settle; c is too small")
        k += 1
    return sigma2, sigma4, e_partial, log_t2, log_t4


def _scan_row(
    b: float, c: float, sigma2: float, sigma4: float, e_partial: float, log_t2: float, log_t4: float
) -> BarrierScanRow:
    # haircut: exponent arguments c*(k^2-1) round before exp, so the float
    # path can overstate E by ~ulp(c); shaving a c-proportional sliver in
    # log scale keeps the bound one-sided for any dilation
    pad = 1e-13 + 1e-12 * c
    if e_partial > 0.0:
        log_e_lb = math.log(e_partial) - pad
    else:
        log_e_lb = _LOG12 - 3.0 * c - pad  # first term, k = 2, survives any underflow
    t2 = math.exp(log_t2)
    t4 = math.exp(log_t4)
    delta0 = 0.5 * math.sqrt(sigma2 / sigma4)
    low = 0.5 * math.sqrt(sigma2 / (sigma4 + t4))
    high = 0.5 * math.sqrt((sigma2 + t2) / sigma4)
    # 1/2 - delta >= (1/4 - delta^2) = E / (4 S_2') at the true sums
    log_gap_lb = log_e_lb - math.log(4.0 * (sigma4 + t4))
    strict = log_t2 < log_e_lb
    if not strict:
        raise PreconditionError(f"tail bound swamped the strictness margin at b = {b!r}")
    return BarrierScanRow(
        b=b,
        delta0_low=low,
        delta0=delta0,
        delta0_high=min(high, 0.5),
        strict=strict,
        log_gap_lb=log_gap_lb,
    )


def h1_barrier_scan(b_min: float, b_max: float, steps: int) -> BarrierScan:
    """Closed-form scan of delta0 for dilates of the first Hermite window.

    Dilation scales are log-uniform over [b_min, b_max].  Every row is
    expected strict: the scan raises if any fails, since that would
    contradict the termwise domination.  Rows are built in b order, so the
    first failing row decides which error is raised.
    """
    if not (0.0 < b_min < b_max) or not math.isfinite(b_max):
        raise PreconditionError(f"need 0 < b_min < b_max, got {b_min!r}, {b_max!r}")
    if not isinstance(steps, int) or steps < 2:
        raise PreconditionError(f"steps must be an integer >= 2, got {steps!r}")
    bs = np.geomspace(b_min, b_max, steps)
    with np.errstate(over="ignore"):  # c = inf past b ~ 1e154; such rows raise below
        cs = 2.0 * math.pi * bs * bs
    # c grows with b and the tail ratio exp(-2*c*a) shrinks with c and a, so
    # the first tail of row 0 raises where a row-by-row loop would, and no
    # later tail of a finite c can
    one_sided_gauss_tail_log(float(cs[0]), (1, 2), 3.0)
    finite = int(np.searchsorted(cs, math.inf))
    rows = [_scan_row(*map(float, row)) for row in zip(bs, cs, *_scaled_sums(cs[:finite]))]
    if finite < steps:
        one_sided_gauss_tail_log(math.inf, (1, 2), 3.0)  # raises for the first row with c = inf
    return BarrierScan(rows=tuple(rows))
