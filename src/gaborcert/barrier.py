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
at the first k where its exact closed-form tails (one_sided_gauss_tail_log)
fall below tail_tol of both sums, the same rule a row-by-row loop stops
on; a vectorised copy of the tail bound only rules rows out, so the exact
tail runs about once per row and sum.  Rows, and the CSV written from them, are
bit-identical to that loop's, with memory proportional to the row count.
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
from .errors import GaborcertError, PreconditionError
from .tables import CsvTable
from .window import Parity, Window, classify_parity

_GHAT_ZERO_TOL = 1e-20
_LOG12 = math.log(12.0)
_K_MAX = 10_000  # a row whose sums have not settled past this k raises
# The vectorised tail filter rules a row out only with this much log-scale
# room above a threshold, and never where a threshold nears the subnormal
# range, in which the exact test's exp rounds by far more than the room.
_FILTER_MARGIN = 1e-9
_FILTER_MIN_LOG = -700.0


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
    return _delta_at_zero(w, classify_parity(w), tail_tol)


def _delta_at_zero(w: Window, parity: Parity, tail_tol: float) -> BarrierReport:
    """delta_at_zero for a window whose parity is already classified."""
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
        reports.append(_delta_at_zero(w, Parity.ODD, tail_tol))
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


def _approx_tail_logs(c: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c + one_sided_gauss_tail_log(c, p, a) for p = 1, 2 over an array of c.

    The same closed form in numpy (np.exp, np.log and a plain sum in place
    of math.exp, math.log and math.fsum), so it is off by a few ulps of
    log(poly), plus the last bit of r amplified up to 5/(1 - r) times by the
    1/(1 - r)^5 factor: below 6e-11 while 1 - r > 1e-5, far inside
    _FILTER_MARGIN.  Where 1 - r <= 1e-5 no row can settle, so a larger
    error rules out nothing the exact test would pass: there
    c*a^2 ~ a*(1 - r)/2 <= 0.051 for a <= 10,001, so
    log_t4 >= log(24/(1 - r)^5) - 0.051 > 60, while
    tail_tol * sigma4 <= 1e-2 * a^5 ~ 1e18.  `finite` marks the rows where
    the copy is a number at all (c = 0 or inf, or r rounding to 1, are left
    to the exact tail, which raises).
    """
    with np.errstate(all="ignore"):
        r = np.exp(-2.0 * c * a)
        one = 1.0 - r
        g0 = 1.0 / one
        g1 = r / one**2
        g2 = r * (1.0 + r) / one**3
        g3 = r * (1.0 + 4.0 * r + r * r) / one**4
        g4 = r * (1.0 + r * (11.0 + r * (11.0 + r))) / one**5
        poly2 = a * a * g0 + 2.0 * a * g1 + g2
        poly4 = a**4 * g0 + 4.0 * a**3 * g1 + 6.0 * a * a * g2 + 4.0 * a * g3 + g4
        log_t2 = c + (-c * a * a + np.log(poly2))
        log_t4 = c + (-c * a * a + np.log(poly4))
    finite = np.isfinite(log_t2) & np.isfinite(log_t4)
    return log_t2, log_t4, finite


def _scaled_sums(cs: np.ndarray, tail_tol: float):
    """Partial sums of k^(2p) * exp(-c*(k^2-1)) for p = 1, 2 plus log tails, per c.

    One sweep outward in k over every row at once: each new k column is
    added to sigma2, sigma4 and E of all active rows (a per-row += in k
    order, the left-to-right sum of a row-by-row loop), and a row retires
    at the first k where the exact test
    exp(log_t4) <= tail_tol * sigma4 and exp(log_t2) <= tail_tol * sigma2
    holds, with log_tp = c + one_sided_gauss_tail_log(c, p, k + 1).  The
    vectorised tail copy only rules rows out: a row it places more than
    _FILTER_MARGIN (in log scale) above either threshold fails the exact
    test too, so the exact tail runs only for the rest, about once per row
    and sum.

    Returns ((sigma2, sigma4, e_partial, log_t2, log_t4), fail_at, failure),
    the five as arrays over the rows: the true sums lie in
    [sigma_p, sigma_p + exp(log_t_p)] and
    E = sum k^2 (k^2-1) exp(-c*(k^2-1)) >= e_partial.  Row fail_at (len(cs)
    if none) is the first whose sums raised, and failure its exception; the
    rows before it are complete and the rows after it are left unfinished,
    as a row-by-row loop would have stopped there.
    """
    n = cs.size
    sigma2, sigma4, e_partial = np.ones(n), np.ones(n), np.zeros(n)
    log_t2, log_t4 = np.empty(n), np.empty(n)
    fail_at, failure = n, None
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
        a = float(k + 1)
        approx2, approx4, finite = _approx_tail_logs(c, a)
        thresh2 = np.log(tail_tol * s2)
        thresh4 = np.log(tail_tol * s4)
        ruled_out = (
            finite
            & (np.minimum(thresh2, thresh4) > _FILTER_MIN_LOG)
            & ((approx2 > thresh2 + _FILTER_MARGIN) | (approx4 > thresh4 + _FILTER_MARGIN))
        )
        done = np.zeros(idx.size, dtype=bool)
        for j in np.flatnonzero(~ruled_out).tolist():
            cj = float(c[j])
            # one-sided tail of k^(2p) exp(-c k^2) from k+1, rescaled by e^c
            try:
                lt2 = cj + one_sided_gauss_tail_log(cj, 1, a)
                lt4 = cj + one_sided_gauss_tail_log(cj, 2, a)
                settled = (
                    math.exp(lt4) <= tail_tol * float(s4[j])
                    and math.exp(lt2) <= tail_tol * float(s2[j])
                )
            except (GaborcertError, ArithmeticError) as exc:
                fail_at, failure = int(idx[j]), exc
                break
            if settled:
                done[j] = True
                i = idx[j]
                sigma2[i], sigma4[i], e_partial[i] = s2[j], s4[j], e[j]
                log_t2[i], log_t4[i] = lt2, lt4
        if k > _K_MAX:
            stuck = idx[~done]
            if stuck.size and stuck[0] < fail_at:
                fail_at = int(stuck[0])
                failure = PreconditionError("scan sums did not settle; c is too small")
        keep = ~done & (idx < fail_at)
        if not keep.all():
            idx, c, s2, s4, e = idx[keep], c[keep], s2[keep], s4[keep], e[keep]
        k += 1
    return (sigma2, sigma4, e_partial, log_t2, log_t4), fail_at, failure


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


def h1_barrier_scan(
    b_min: float,
    b_max: float,
    steps: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> BarrierScan:
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
    _check_tail_tol(tail_tol)
    bs = np.geomspace(b_min, b_max, steps)
    with np.errstate(over="ignore"):  # c = inf past b ~ 1e154 fails in its row
        cs = 2.0 * math.pi * bs * bs
    sums, fail_at, failure = _scaled_sums(cs, tail_tol)
    rows = []
    for i, row in enumerate(zip(bs, cs, *sums)):
        if i == fail_at:
            raise failure
        rows.append(_scan_row(*map(float, row)))
    return BarrierScan(rows=tuple(rows))
