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

Each row is summed on the shorter of two sides.  The k side sums
k = 1..K outward; the dual side sums the Poisson dual of the same sums,
sigma_p = (e^c/2) sqrt(pi/c) sum_n exp(-pi^2 n^2/c) P_p(n), over
|n| <= N, which converges fast exactly where the k side is slow (c
below about 2.4 at the default tolerance, where the k side needs up to
K = 228 at b = 0.01 and the dual N <= 2).  A row takes the dual side iff
its N is below its K and the dual's derived rounding bound passes the
criterion's stopping rule, as criterion._time_side decides for profiles;
there is no crossover constant.  Both sides carry a derived rounding
bound, and every row's enclosure goes through one rule, so each contains
the exact value.

The scan sums every dilation row at once, one column per step (n = j - 1
paired with k = j) for all active rows: one math.exp per row and one
add per sum, so every row is still summed left to right, and one
one_sided_gauss_tail_log call per side for the column's tails.  A row
retires at the first column where either side's closed-form tails pass
the criterion's stopping rule, tail <= 1e-12 * value; at that tolerance
every row stops by the third column.  The scan keeps its rows as
columns, with memory proportional to the row count, and makes row
objects only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .criterion import (
    _MAX_DOUBLE,
    _TINY,
    _U,
    _converged,
    _enclose,
    _from_log,
    _gamma,
    delta_g,
    one_sided_gauss_tail_log,
)
from .errors import NumericalError, PreconditionError
from .tables import CsvTable
from .window import Parity, Window

_GHAT_ZERO_TOL = 1e-20
_LOG12 = math.log(12.0)
_K_MAX = 10_000  # a row whose sums have not settled past this k raises
# The dual side (_dual_sums): pi^2, and the rounding units of a term n >= 1
# of T_1 and T_2 and of the prefactors s_1 and s_2 (less ceil(9 x_n) and
# ceil(4c), which depend on the row).
_PI2 = math.pi * math.pi
_TERM_UNITS = np.array([[12.0], [22.0]])
_PREFACTOR_UNITS = np.array([[13.0], [17.0]])
# The k side (_scaled_sums): the rounding units of a term k >= 2 of sigma_1
# and sigma_2, less ceil(5 x) for its exponent x = c (k^2 - 1).
_K_TERM_UNITS = np.array([[4.0], [5.0]])


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
    records that delta0 < 1/2 is proven for the row, log_gap_lb > -inf.
    side is "k" or "dual", the series that summed the row, and terms its
    cutoff there: K (terms k = 1..K) or N (|n| <= N).
    """

    b: float
    delta0_low: float
    delta0: float
    delta0_high: float
    strict: bool
    log_gap_lb: float
    side: str
    terms: int


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


def _per_element(f, xs):
    """f on every element of a float array, one Python float call each."""
    return np.fromiter(map(f, xs.tolist()), float, xs.size)


def _dual_tails(g1, g2, rate, a2):
    """The n-tails of _dual_sums from G_q >= sum_{m>=a} m^(2q) exp(-rate m^2), q = 1, 2, a^2 = a2.

    The tail of T_1 is 2 sum_{m>=a} exp(-x_m) (1/2 + x_m), x_m = rate m^2, and
    m^0 <= m^2/a^2 bounds it by 2 G_1 (1/(2a^2) + rate); the tail of T_2 by
    2 G_2 ((3/(4a^2) + 3 rate)/a^2 + rate^2) the same way.
    """
    return 2.0 * g1 * (0.5 / a2 + rate), 2.0 * g2 * ((0.75 / a2 + 3.0 * rate) / a2 + rate * rate)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _dual_sums(cs, rate, n_cut, logs):
    """The dual side of rows with decay rates cs, each summed over |n| <= N = n_cut.

    Poisson summation turns sigma_p = sum_{k>=1} k^(2p) exp(-c (k^2 - 1))
    into sigma_p = s_p * T_p, with s_p = (e^c / 2) sqrt(pi/c) / c^p and

        T_1 = sum_n exp(-x_n) (1/2 - x_n),  T_2 = sum_n exp(-x_n) (3/4 - 3 x_n + x_n^2),

    x_n = (pi^2/c) n^2, summed over |n| <= N as the n = 0 term (the mean,
    1/2 or 3/4) plus 2 exp(-x_n) q(x_n) for n = 1..N, each one math.exp.
    The n-tails are _dual_tails, with G_q from logs (one math.exp each,
    within 2^-1074 where it underflows) at rate r, the caller's pi^2/c
    shrunk by 16 units: below the exact rate, which only widens the tail.

    Rounding, against the exact sums at the exact c = 2 pi b^2, in the
    style of criterion._DualSeries (|computed - exact| <= gamma_L times the
    shadow, the same sums on moduli; Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sections 3.1 and 3.6).  c carries 3 units
    (pi and two products), pi^2/c 7 and x_n 8; q(x) then 9 (p = 1) or 19
    (p = 2), exp 2 more and the product 1, so the term n carries 12 or 22
    units, plus ceil(9 x_n) for its exponent's error (exp(gamma_8 x) - 1 <=
    gamma_ceil(9x)).  A term that underflows errs by at most 2^-1074 q
    absolute.  Adding N + 1 terms costs gamma_N times their moduli.  The
    prefactor s_p carries P = ceil(4c) + 13 or 17 units: exp(c) 2 and
    ceil(4c) for c's error, sqrt(pi/c) 6, a product 1 and 4 per division
    by c.  The product s_p T_p and each end's add or subtract take 3 more,
    and s_p's error scales the tail and the rest by 1 + gamma_P.  The
    bounds are evaluated in floats with less than 2^-29 relative error,
    which the last factor covers; with the rate's 16-unit shrink it also
    covers the tail's coefficients r and r^2 (within 50 units of the exact
    ones).

    Returns (sigma2, sigma4, width2, width4, settled): the true sums lie
    in sigma_p -+ width_p, and settled is the rule's rounding check, the
    rounding bound of T_p passing _converged against the mean.  A prefactor
    past the double range gives inf or NaN sums, which the caller reports.
    """
    d = _PI2 / cs
    sums = np.array([np.full(cs.size, 0.5), np.full(cs.size, 0.75)])
    shadow, err = sums.copy(), np.zeros((2, cs.size))
    for m in range(1, n_cut + 1):
        x = d * float(m * m)
        e2 = 2.0 * _per_element(math.exp, -x)
        bracket = np.array([0.5 + x, (x + 3.0) * x + 0.75])
        sums += e2 * np.array([0.5 - x, (x - 3.0) * x + 0.75])
        term_bar = e2 * bracket
        shadow += term_bar
        err += _gamma(np.ceil(9.0 * x) + _TERM_UNITS) * term_bar + 4.0 * _TINY * bracket
    units = np.ceil(4.0 * cs) + _PREFACTOR_UNITS
    grow = (1.0 + _gamma(units)) * (1.0 + 2.0**-29)
    rounding = grow * (_gamma(float(n_cut)) * shadow + err + _gamma(units + 3.0) * np.abs(sums))
    settled = _converged(rounding[0], 0.5) & _converged(rounding[1], 0.75)
    g1, g2 = (_per_element(math.exp, lg) + _TINY for lg in logs)
    a = n_cut + 1.0
    tails = np.array(_dual_tails(g1, g2, rate, a * a))
    scale2 = 0.5 * _per_element(math.exp, cs) * np.sqrt(math.pi / cs) / cs
    scales = np.array([scale2, scale2 / cs])
    sigma2, sigma4 = scales * sums
    width2, width4 = scales * (grow * tails + rounding)
    return sigma2, sigma4, width2, width4, settled


# c (k^2 - 1), pi^2/c (for a subnormal c) and a dual row's sums may pass the
# largest double: exp(-inf) = 0, and the column loop checks the dual sums
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _scaled_sums(bs: np.ndarray, cs: np.ndarray) -> dict[str, np.ndarray]:
    """Each row's sums on the side the rule picks, per finite positive c, as columns over the rows.

    The k side sums k^(2p) exp(-c (k^2 - 1)), p = 1, 2, outward in k; the
    dual side sums their Poisson dual (_dual_sums).  N and K are where each
    series stops, the first n (k >= 2) whose closed-form tails pass
    _converged, the dual's against its means (as criterion._time_side), the
    k side's against its partial sums; a row takes the dual iff its N is
    below its K and its rounding passes.

    One loop over columns j = 1, 2, ... pairs n = j - 1 with k = j (column
    1 is the dual's n = 0 alone) on every active row: one math.exp of the
    float product x = c (k^2 - 1) per row adds the k = j term, and one
    array call one_sided_gauss_tail_log(c, p, k + 1) gives the k tails,
    log_tp once rescaled by e^c; the dual's n-tails from n + 1 take one
    more call, on the rows it may still win.  A row retires at the first
    column where either side stops, the dual on a tie; a dual row whose
    rounding fails goes on with k alone, and one whose sums leave the
    double range raises, naming its b.  A NaN k tail (where a float call
    raises) raises at once, as a row summing past k = _K_MAX + 1 does.

    k-side rounding, against the exact sums at the exact c = 2 pi b^2, as in
    _dual_sums: c carries 3 units (pi, two products) and x one more, which
    moves exp(-x) by exp(gamma_4 x) - 1 <= gamma_ceil(5x) (x <= 746; past
    it exp(-x) is 0).  math.exp adds 2 units, the product by k^(2p) 1 or 2
    (k^4 rounds past 2^53), and one more reads the bound off the computed
    term; a term that underflows errs by at most 2 * 2^-1074 k^(2p).  The
    first term is exactly 1.  At the stop K, rounding_p = gamma_(K+2)
    sigma_p plus the term errors: gamma_(K-1) for the adds, one unit for
    reading it off the computed sigma_p, one for the end's add or subtract
    and the bound's own (second-order) rounding.  The true tail is at most
    exp(log_tp) padded by gamma_3 c (a^2 + 1), a = K + 1, for c's rounding
    (in the peel -c a^2 and the rescale e^c; (a + j)^2 >= a^2 + 2aj leaves
    c j^2 to absorb it in the geometric ratio) and by 4u |log_tp| for the
    adds, through criterion._from_log.  Only up_p is padded: the stopping
    rule reads the logs as they are.

    Returns columns over the rows: dual (bool), terms (K or N), and sigma,
    down and up, one row each for p = 1, 2, where the true sums lie in
    [sigma_p - down_p, sigma_p + up_p].  down_p is the rounding and up_p
    the rounding plus the tail on k rows; both are _dual_sums' width_p on
    dual rows.
    """
    n = cs.size
    out = {name: np.zeros((2, n)) for name in ("sigma", "down", "up")}
    out["dual"], out["terms"] = np.zeros(n, bool), np.zeros(n, int)
    rate = np.minimum(_PI2 / cs * (1.0 - 16.0 * _U), _MAX_DOUBLE)
    idx, dual_open = np.arange(n), np.ones(n, bool)
    sums, err = np.ones((2, n)), np.zeros((2, n))  # sigma2 and sigma4, and their term roundings
    for j in range(1, _K_MAX + 2):
        if not idx.size:
            break
        c = cs[idx]
        k_stops, lt = np.zeros(idx.size, bool), np.zeros((2, idx.size))
        if j > 1:
            k2 = float(j * j)
            powers = np.array([[k2], [k2 * k2]])
            x = c * (j * j - 1)
            terms = powers * _per_element(math.exp, -x)
            sums += terms
            err += _gamma(np.ceil(5.0 * np.minimum(x, 746.0)) + _K_TERM_UNITS) * terms + 2.0 * _TINY * powers
            # one-sided tails of k^(2p) exp(-c k^2) from k + 1, rescaled by e^c
            lt = c + np.array(one_sided_gauss_tail_log(c, (1, 2), j + 1.0))
            if np.isnan(lt).any():
                raise PreconditionError("scan sums did not settle; c is too small")
            k_stops = _converged(np.exp(lt), sums).all(axis=0)
        dual_stops = np.zeros(idx.size, bool)
        rows = np.flatnonzero(dual_open)
        if rows.size:
            at = idx[rows]
            logs = np.array(one_sided_gauss_tail_log(rate[at], (1, 2), float(j)))
            tail2, tail4 = _dual_tails(*np.exp(logs), rate[at], float(j * j))
            wins = _converged(tail2, 0.5) & _converged(tail4, 0.75)
            rows, at, logs = rows[wins], at[wins], logs[:, wins]
            sigma2, sigma4, width2, width4, settled = _dual_sums(cs[at], rate[at], j - 1, logs)
            finite = np.isfinite(sigma2 + width2) & np.isfinite(4.0 * (sigma4 + width4))  # as _scan_columns forms them
            if not finite[settled].all():
                b = float(bs[at[settled & ~finite][0]])
                raise NumericalError(f"dual scan sums at b = {b!r} leave the double range")
            dual_open[rows[~settled]] = False
            dual_stops[rows[settled]] = True
            at = at[settled]
            out["sigma"][:, at] = sigma2[settled], sigma4[settled]
            out["down"][:, at] = out["up"][:, at] = width2[settled], width4[settled]
            out["dual"][at], out["terms"][at] = True, j - 1
        k_stops &= ~dual_stops
        at = idx[k_stops]
        out["sigma"][:, at], out["terms"][at] = sums[:, k_stops], j
        out["down"][:, at] = rounding = _gamma(j + 2.0) * sums[:, k_stops] + err[:, k_stops]
        lt = lt[:, k_stops]
        lt_up = np.maximum(lt * (1.0 - 4.0 * _U), lt * (1.0 + 4.0 * _U)) + _gamma(4.0) * c[k_stops] * ((j + 1.0) ** 2 + 1.0)
        out["up"][:, at] = rounding + _from_log(lt_up)
        keep = ~(k_stops | dual_stops)
        idx, dual_open, sums, err = idx[keep], dual_open[keep], sums[:, keep], err[:, keep]
    if idx.size:
        raise PreconditionError("scan sums did not settle; c is too small")
    return out


def _scan_columns(bs, cs, s) -> dict[str, np.ndarray]:
    """The scan's columns from _scaled_sums, one rule for every row.

    _enclose turns the ends of the sums into delta0's enclosure, clamped at
    1/2.  1/2 - delta0 >= E / (4 S_2'), and E = S_2' - S_1' is at least the
    gap of the ends and its first term 12 exp(-3c): log_gap_lb takes the
    larger, and a row is strict where it is finite; the first non-strict row
    in b order raises.  math.log goes per element, as in a per-row loop.
    """
    (sigma2, sigma4), (down2, down4), (up2, up4) = s["sigma"], s["down"], s["up"]
    sigma4_high = sigma4 + up4
    delta0, low, high = _enclose(sigma2, sigma2 - down2, sigma2 + up2, sigma4, sigma4 - down4, sigma4_high)
    high = np.minimum(high, 0.5)
    # (S_2' - S_1') / (4 S_2') from below: three roundings, each within u
    ratio = ((sigma4 - down4) - (sigma2 + up2)) / (4.0 * sigma4_high) * (1.0 - 4.0 * _U)
    from_ends = np.full(cs.size, -math.inf)
    positive = ratio > 0.0
    log_ratio = _per_element(math.log, ratio[positive])  # within one ulp, 2u |log|
    from_ends[positive] = log_ratio - 4.0 * _U * np.abs(log_ratio)
    log_s4 = _per_element(math.log, 4.0 * sigma4_high)
    with np.errstate(over="ignore"):  # 3c overflows to inf like a float product
        from_first = _LOG12 - 3.0 * cs - log_s4 - (1e-13 + 1e-12 * cs + 4.0 * _U * np.abs(log_s4))
    log_gap_lb = np.maximum(from_ends, from_first)
    strict = log_gap_lb > -math.inf
    if not strict.all():
        b = float(bs[np.argmin(strict)])
        raise PreconditionError(f"tail bound swamped the strictness margin at b = {b!r}")
    side = np.where(s["dual"], "dual", "k")
    columns = (bs, low, delta0, high, strict, log_gap_lb, side, s["terms"])
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
    # c rounds to 0 below b ~ 1e-162 and to inf above b ~ 1e154, where no
    # side can sum the row; c grows with b, so a row with c = 0 comes first
    # and raises the float tail call's error, and c = inf after the others
    if cs[0] == 0.0:
        one_sided_gauss_tail_log(0.0, (1, 2), 3.0)
    finite = int(np.searchsorted(cs, math.inf))
    columns = _scan_columns(bs[:finite], cs[:finite], _scaled_sums(bs[:finite], cs[:finite]))
    if finite < steps:
        one_sided_gauss_tail_log(math.inf, (1, 2), 3.0)
    return BarrierScan(columns=columns)
