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

The scan sums every dilation row at once, outward in k, one block of k
columns per step for all active rows (at most criterion._MAX_BLOCK =
4,096 (row, k) values): one math.exp per value, and one np.cumsum along
k over the three sums stacked, from each row's carried sums, so every row
is still summed left to right.  A row retires at the first k where the
closed-form tails of both sums pass the criterion's stopping rule,
tail <= 1e-12 * value, the rule a row-by-row loop stops on.  A next-term
screen keeps rows that cannot stop in a block (their first term past the
block already fails the rule) out of the block's one
one_sided_gauss_tail_log call.  Rows, and the CSV written from them, are
bit-identical to that loop's, with memory proportional to the row count;
the scan keeps them as columns and makes row objects only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .criterion import _MAX_BLOCK, _converged, delta_g, one_sided_gauss_tail_log
from .errors import PreconditionError
from .tables import CsvTable
from .window import Parity, Window

_GHAT_ZERO_TOL = 1e-20
_LOG12 = math.log(12.0)
_MIN_NORMAL = 2.0**-1022
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
_ROW_FIELDS = tuple(f.name for f in fields(BarrierScanRow))


class BarrierScan(CsvTable):
    """The scan's rows in b order, kept as one array per BarrierScanRow field.

    h1_barrier_scan hands over these columns; BarrierScan(rows=...) builds
    them from rows.  The CSV, all_strict and max_delta0_high read the
    arrays, and row objects are made only when rows is first read.  Scans
    compare equal when their rows do.
    """

    CSV_HEADER = SCAN_CSV_HEADER

    def __init__(
        self, rows: Sequence[BarrierScanRow] = (), *, columns: dict[str, np.ndarray] | None = None
    ):
        if columns is None:
            rows = tuple(rows)
            columns = {name: np.array([getattr(row, name) for row in rows]) for name in _ROW_FIELDS}
        self.columns = columns

    @cached_property
    def rows(self) -> tuple[BarrierScanRow, ...]:
        return tuple(BarrierScanRow(*row) for row in zip(*(col.tolist() for col in self.columns.values())))

    def __eq__(self, other):
        return self.rows == other.rows if isinstance(other, BarrierScan) else NotImplemented

    def __repr__(self):
        return f"BarrierScan(rows={self.rows!r})"

    @property
    def all_strict(self) -> bool:
        return bool(self.columns["strict"].all())

    @property
    def max_delta0_high(self) -> float:
        return float(self.columns["delta0_high"].max())

    def csv_columns(self):
        return [self.columns[name] for name in self.CSV_HEADER]


def _scaled_sums(cs: np.ndarray):
    """Partial sums of k^(2p) * exp(-c*(k^2-1)) for p = 1, 2 plus log tails, per finite c.

    A sweep outward in k over every row at once, one block of k columns
    per step for all active rows: at most _MAX_BLOCK (row, k) values (one
    column while more rows are active), and never past k = _K_MAX + 1,
    where a row still summing raises as in the loop.  A block's terms are
    one math.exp per value of the float product -c*(k^2-1), and one
    np.cumsum along k over sigma2, sigma4 and E stacked, each row started
    from its carried sums in column 0, adds them in k order: the
    left-to-right sum of a row-by-row loop.

    A row stops at the first k where exp(log_t4) and exp(log_t2) pass
    _converged against sigma4 and sigma2 (both at least 1), with
    log_tp = c + one_sided_gauss_tail_log(c, p, k + 1).  Before the
    tails, a next-term screen: the first term past the block, at
    a = k_last + 1, is a lower bound on every tail of the block, and the
    thresholds rise along k, so a row whose next term fails the rule at
    the block's last column cannot stop in this block.  Its exp is shaved
    by 1e-9 in log scale, more than its own rounding while it is a normal
    double; a subnormal one screens nothing.  One one_sided_gauss_tail_log
    call per block then gives both tails at every k of the rows left.  A
    2,026-row scan from b = 0.01 to 100 takes 15 blocks, with 16,780
    (row, k) tails where unscreened blocks took 58,561.  The caller has
    checked the smallest c with a scalar tail call; every larger c and
    later start has a smaller tail ratio, so no array tail here fails.

    Returns (sigma2, sigma4, e_partial, log_t2, log_t4) as arrays over the
    rows: the true sums lie in [sigma_p, sigma_p + exp(log_t_p)] and
    E = sum k^2 (k^2-1) exp(-c*(k^2-1)) >= e_partial.  Raises if a row is
    still summing past _K_MAX.
    """
    n = cs.size
    sigma2, sigma4, e_partial = np.ones(n), np.ones(n), np.zeros(n)
    log_t2, log_t4 = np.empty(n), np.empty(n)
    idx = np.arange(n)
    c, carry = cs[:, None], np.array([np.ones(n), np.ones(n), np.zeros(n)])
    k = 2
    while idx.size:
        ks = np.arange(k, min(k + max(1, _MAX_BLOCK // idx.size), _K_MAX + 2))
        k2 = (ks * ks).astype(float)
        # the same float product c * (k^2 - 1) and math.exp as the scalar loop;
        # a product past the largest double is inf, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            x = -c * (ks * ks - 1)
        w = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
        # sigma2, sigma4 and E stacked, each row's carried sums in column 0
        sums = np.empty((3, idx.size, 1 + ks.size))
        sums[:, :, 0] = carry
        np.multiply(np.array([k2, k2 * k2, k2 * (k2 - 1.0)])[:, None, :], w, out=sums[:, :, 1:])
        sums = np.cumsum(sums, axis=2, out=sums)[:, :, 1:]
        # next-term screen: rows that cannot stop in this block skip the tails
        a = float(ks[-1] + 1)
        with np.errstate(over="ignore"):
            nxt = np.exp(-c[:, 0] * (a * a - 1.0) - 1e-9)
        hopeless = (nxt >= _MIN_NORMAL) & ~(
            _converged(a * a * nxt, sums[0, :, -1]) & _converged(a**4 * nxt, sums[1, :, -1])
        )
        live = np.flatnonzero(~hopeless)
        # one-sided tails of k^(2p) exp(-c k^2) from k+1, rescaled by e^c
        lt = c[live] + np.array(one_sided_gauss_tail_log(c[live], (1, 2), ks + 1.0))
        t2, t4 = np.exp(lt)
        done = _converged(t4, sums[1, live]) & _converged(t2, sums[0, live])
        hit = done.any(axis=1)
        first = done.argmax(axis=1)[hit]
        rows = live[hit]
        out = idx[rows]
        sigma2[out], sigma4[out], e_partial[out] = sums[:, rows, first]
        log_t2[out], log_t4[out] = lt[:, hit, first]
        keep = np.ones(idx.size, bool)
        keep[rows] = False
        idx, c, carry = idx[keep], c[keep], sums[:, keep, -1]
        k = int(ks[-1]) + 1
        if idx.size and k > _K_MAX + 1:
            raise PreconditionError("scan sums did not settle; c is too small")
    return sigma2, sigma4, e_partial, log_t2, log_t4


def _scan_columns(bs, cs, sigma2, sigma4, e_partial, log_t2, log_t4) -> dict[str, np.ndarray]:
    """The scan's columns from _scaled_sums, with the float operations of a per-row loop.

    math.log and math.exp go per element, np.sqrt and np.minimum are
    correctly rounded like math.sqrt and min; the first non-strict row in
    b order raises.
    """

    def per_element(f, xs):
        return np.fromiter(map(f, xs.tolist()), float, xs.size)

    # haircut: exponent arguments c*(k^2-1) round before exp, so the float
    # path can overstate E by ~ulp(c); shaving a c-proportional sliver in
    # log scale keeps the bound one-sided for any dilation
    pad = 1e-13 + 1e-12 * cs
    positive = e_partial > 0.0
    with np.errstate(over="ignore"):  # 3c overflows to inf like a float product
        log_e_lb = _LOG12 - 3.0 * cs - pad  # first term, k = 2, survives any underflow
    log_e_lb[positive] = per_element(math.log, e_partial[positive]) - pad[positive]
    t2 = per_element(math.exp, log_t2)
    t4 = per_element(math.exp, log_t4)
    delta0 = 0.5 * np.sqrt(sigma2 / sigma4)
    low = 0.5 * np.sqrt(sigma2 / (sigma4 + t4))
    high = 0.5 * np.sqrt((sigma2 + t2) / sigma4)
    # 1/2 - delta >= (1/4 - delta^2) = E / (4 S_2') at the true sums
    log_gap_lb = log_e_lb - per_element(math.log, 4.0 * (sigma4 + t4))
    strict = log_t2 < log_e_lb
    if not strict.all():
        b = float(bs[np.argmin(strict)])
        raise PreconditionError(f"tail bound swamped the strictness margin at b = {b!r}")
    columns = (bs, low, delta0, np.minimum(high, 0.5), strict, log_gap_lb)
    return dict(zip(_ROW_FIELDS, columns))


def h1_barrier_scan(b_min: float, b_max: float, steps: int) -> BarrierScan:
    """Closed-form scan of delta0 for dilates of the first Hermite window.

    Dilation scales are log-uniform over [b_min, b_max].  Every row is
    expected strict: the scan raises if any fails, since that would
    contradict the termwise domination.  Rows are checked in b order, so
    the first failing row decides which error is raised.  steps may be a
    Python or numpy integer, not a bool.
    """
    if not (0.0 < b_min < b_max) or not math.isfinite(b_max):
        raise PreconditionError(f"need 0 < b_min < b_max, got {b_min!r}, {b_max!r}")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 2:
        raise PreconditionError(f"steps must be an integer >= 2, got {steps!r}")
    bs = np.geomspace(b_min, b_max, steps)
    with np.errstate(over="ignore"):  # c = inf past b ~ 1e154; such rows raise below
        cs = 2.0 * math.pi * bs * bs
    # c grows with b and the tail ratio exp(-2*c*a) shrinks with c and a, so
    # the first tail of row 0 raises where a row-by-row loop would, and no
    # later tail of a finite c can
    one_sided_gauss_tail_log(float(cs[0]), (1, 2), 3.0)
    finite = int(np.searchsorted(cs, math.inf))
    columns = _scan_columns(bs[:finite], cs[:finite], *_scaled_sums(cs[:finite]))
    if finite < steps:
        one_sided_gauss_tail_log(math.inf, (1, 2), 3.0)  # raises for the first row with c = inf
    return BarrierScan(columns=columns)
