"""Density criterion for Gabor frames over rectangular lattices.

For a window g and offset omega in [0, 1], define the weighted lattice sums

    S_p(omega) = sum_{k in Z} (k + omega)^(2p) * |ghat(k + omega)|^2 .

The criterion value is

    delta_g(omega) = (1/2) * sqrt( S_0(omega) / S_1(omega) ),

and the Gabor system generated by g over the lattice delta*Z x Z is a frame
whenever delta < min over omega of delta_g(omega).  This module computes the
sums with certified truncation error (driven by the window's decay
envelope), encloses delta_g between rigorous bounds, profiles it over an
omega grid with local refinement, and turns the profile into a one-sided
certification verdict.

A profile sums each window on one of two sides, decided once per profile
(_time_side).  The frequency side adds the terms |k| <= K above (_sweep).
The time side, for a closed-form window whose Poisson dual series
S_p(omega) = sum_n a_p(n) exp(2 pi i n omega) needs fewer terms, adds
|n| <= N of those (_DualSeries); its truncation tails (a profile's
tail_bound_num and tail_bound_den) are the n-tails.  The one-omega delta_g
always sums on the frequency side.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateError,
    DivergentSeriesError,
    NumericalError,
    PreconditionError,
    TruncationRiskWarning,
    ZeroSumError,
    _caller_level,
)
from .tables import CsvTable
from .window import Window, dilate, ghat_lattice

# The stopping rule of every lattice sum (_converged) and barrier scan row:
# the truncation tail must fall below TAIL_TOL times the sum.  A sum whose
# value is exactly zero is still held to it: its tail must fall below
# TAIL_TOL * FLOOR_GUARD before we conclude.
TAIL_TOL = 1e-12
FLOOR_GUARD = 1e-30

DEFAULT_GRID_POINTS = 1001

# Smallest positive double, 2^-1074: it clamps log-space tail bounds that
# underflow, so a reported bound is never below the true tail, and it is the
# absolute rounding of a subnormal result.
_TINY = 2.0**-1074
_LOG_TINY = math.log(_TINY)

# Windows without a decay envelope: a sum still 0 scans on to the first cutoff
# past _ZERO_SCAN_K (12,138) before it counts as vanishing, and one still
# summing at the first cutoff past _WARN_K (2,398) stops there, truncated.
_WARN_K = 2048
_ZERO_SCAN_K = 10_000

# The enveloped cutoff K grows through 2, 4, 6, 9, 13, ... and gives up past
# this; an envelope that weak never engaged.
_MAX_CUTOFF = 100_000
# The one-omega engine takes the cutoffs this many steps at a time: the first
# batch, K = 2, 4, 6, 9, is where most sums stop.
_BATCH_STEPS = 4

# Rounding model of the summed terms (see _rounding_budget): unit roundoff,
# ulps per term for the polynomial and constant factors, ulps per unit of
# exponent for the exp factor.
_U = 2.0**-53
_TERM_ULPS = 32
_EXP_ULPS = 8
_MAX_DOUBLE = float(np.finfo(float).max)

# The sweep engine evaluates each cutoff step's new terms for blocks of rows
# of at most _MAX_BLOCK (k, omega) values, so its working arrays stay small
# however many omegas or terms there are, and a default grid's first step
# (1001 rows, 5,005 values) is one block.
_MAX_BLOCK = 1 << 13
# The weight p of S_0 and S_1, as a column against the sweep's (2, rows) arrays.
_WEIGHTS = np.array([[0], [1]])
# Outward factor on delta enclosures: the ratio and the square root each
# round once.
_RATIO_PAD = 4.0 * _U
# Outward factor on the tail's peel -c*a^2 (one_sided_gauss_tail_log).
_PEEL_PAD = 1.0 - 8.0 * _U

def one_sided_gauss_tail_log(c, p, a):
    """log of an upper bound for sum_{j>=0} (a+j)^(2p) * exp(-c*(a+j)^2), p in {0, 1, 2}.

    Uses (a+j)^2 >= a^2 + 2*a*j to peel off a geometric factor, then sums
    the polynomial-weighted geometric series in closed form:
    exp(-c*a^2) * sum_s C(2p, s) a^(2p-s) G_s(r) with r = exp(-2*c*a) and
    G_s(r) = sum_{j>=0} j^s r^j.  The peel -c*a^2 is shrunk by 8 units
    of roundoff (_PEEL_PAD), more than its own roundings and that of its sum
    with the log of the polynomial move the log (at most u * c*a^2 each).
    Requires c > 0 and a > 0 so the series converges.  p may be a tuple of
    weights, which share one exp pass; the logs then come back in that
    order, as a list of floats or as one array with a leading weight axis.

    c and a are floats, or numpy arrays evaluated elementwise (math.exp and
    math.log on floats, np.exp and np.log on arrays).  Where a float call
    raises, an array call holds NaN instead; a bound whose exponent
    overflows is -inf either way.
    """
    weights = tuple(p) if isinstance(p, tuple) else (p,)
    if any(q not in (0, 1, 2) for q in weights):
        raise PreconditionError(f"weight exponent p must be 0, 1 or 2, got {p!r}")
    if isinstance(c, np.ndarray) or isinstance(a, np.ndarray):
        with np.errstate(all="ignore"):
            r = np.exp(-2.0 * c * a)
            ok = (r < 1.0) & (a < math.inf) & ((c > 0.0) & (c < math.inf))  # r < 1 needs a > 0 here
            r = np.where(ok, r, math.nan)
            logs = np.empty((len(weights),) + r.shape)
            for i, poly in enumerate(_tail_polys(r, a, weights)):
                np.log(poly, out=logs[i, ...])
            logs += -c * a * a * _PEEL_PAD
    else:
        if not (c > 0.0 and math.isfinite(c)):
            raise DivergentSeriesError(f"decay rate must be positive, got {c!r}")
        if not (a > 0.0 and math.isfinite(a)):
            raise PreconditionError(f"tail start must be positive, got {a!r}")
        r = math.exp(-2.0 * c * a)
        if not r < 1.0:
            raise DivergentSeriesError(f"geometric ratio must lie in [0, 1), got {r!r}")
        peel = -c * a * a * _PEEL_PAD
        logs = [peel + math.log(poly) for poly in _tail_polys(r, a, weights)]
    return logs if isinstance(p, tuple) else logs[0]


def _tail_polys(r, a, weights):
    """sum_s C(2p, s) a^(2p-s) G_s(r) for each p in weights, on floats or arrays."""
    one = 1.0 - r
    for p in weights:
        if p == 0:
            yield 1.0 / one  # G_0
        elif p == 1:
            yield a * a / one + 2.0 * a * r / one**2 + r * (1.0 + r) / one**3  # a^2 G_0 + 2a G_1 + G_2
        else:  # a^4 G_0 + 4a^3 G_1 + 6a^2 G_2 + 4a G_3 + G_4, by Horner in a
            g2 = 6.0 * r * (1.0 + r) / one**3
            g3 = 4.0 * r * (1.0 + 4.0 * r + r * r) / one**4
            g4 = r * (1.0 + r * (11.0 + r * (11.0 + r))) / one**5
            yield (((a / one + 4.0 * r / one**2) * a + g2) * a + g3) * a + g4


def envelope_tail_log(amplitude: float, rate: float, p, m: int, omega):
    """log upper bound for the two-sided lattice tail over |k| >= m.

    Bounds sum over k >= m of (k+omega)^(2p) |ghat|^2 plus the side
    k <= -m, assuming |ghat(xi)| <= amplitude * exp(-rate * xi^2).
    Needs m >= 2 so both tail starts m - omega and m + omega are >= 1.
    p may be a tuple of weights, as in one_sided_gauss_tail_log; the
    bounds then come back stacked in that order.  omega is a float, or a
    1-d array whose two tail starts, stacked, share one
    one_sided_gauss_tail_log call (one exp and one log pass for every
    weight), NaN where a float call raises; the two sides are then views of
    its result, which one logaddexp reads.
    """
    if m < 2:
        raise PreconditionError("tail bound needs cutoff m >= 2")
    c, starts = 2.0 * rate, (m + omega, m - omega)
    if isinstance(omega, np.ndarray):
        logs = one_sided_gauss_tail_log(c, p, np.stack(starts))
        sides = logs[..., 0, :], logs[..., 1, :]
    else:
        sides = [one_sided_gauss_tail_log(c, p, a) for a in starts]
    return 2.0 * math.log(amplitude) + np.logaddexp(*sides)


def _from_log(log_bound):
    # Upper bound survives the exp: clamp underflow to the smallest positive
    # double and pad a couple of ulps against rounding; elementwise on
    # arrays, where an overflowing bound comes out as inf.
    with np.errstate(over="ignore"):
        return np.where(log_bound < _LOG_TINY, _TINY, np.exp(log_bound) * (1.0 + 4e-16))


def _cutoffs():
    """The cutoff schedule K = 2, 4, 6, 9, 13, 19, ... up to _MAX_CUTOFF."""
    k_cut = 2
    while k_cut <= _MAX_CUTOFF:
        yield k_cut
        k_cut += max(2, k_cut // 2)


def _cutoff_batches():
    """_cutoffs() in runs of _BATCH_STEPS steps: (2, 4, 6, 9), (13, 19, 28, 42), ..."""
    cutoffs = _cutoffs()
    while batch := list(itertools.islice(cutoffs, _BATCH_STEPS)):
        yield batch


def _converged(tail, value):
    """The stopping rule: tail <= TAIL_TOL * max(value, FLOOR_GUARD); elementwise on arrays."""
    return tail <= TAIL_TOL * np.maximum(value, FLOOR_GUARD)


def _exponent_weight(xi: np.ndarray, rate: float) -> np.ndarray:
    """E(xi) = 4*rate*|xi|*max(|xi|, 1) for the rounding model (see _rounding_budget)."""
    axi = np.abs(xi)
    return 4.0 * rate * axi * np.maximum(axi, 1.0)


def _rounding_budget(value, weighted, n_terms: int, p: int):
    """Bound on the float error of a sum of n_terms computed nonnegative terms of S_p.

    Error model for the closed-form windows (a polynomial times exp(-x)):
    each computed term t_k = (k+omega)^(2p) |ghat(k+omega)|^2 carries a
    relative error of at most (_TERM_ULPS + _EXP_ULPS * E(xi_k)) * u, where
    E = 4*rate*|xi|*max(|xi|, 1) bounds the exponent of |ghat|^2 (at most
    4*rate*xi^2 for every enveloped window the package builds) and its
    response to an argument error of a few ulps of max(|xi|, 1); _TERM_ULPS
    covers the polynomial and constant factors away from their zeros.
    weighted is sum_k E(xi_k) * t_k.  Summing the terms in any order adds
    at most gamma_n * value.

    Below the normal range rounding is absolute, not relative: a square or
    product whose result is subnormal rounds by at most 2^-1075 (half the
    smallest subnormal), and adds whose result is subnormal are exact.  The
    square |ghat|^2 so errs by at most 2^-1075, and the product of that
    square with xi^2 by at most (1 + xi^2) * 2^-1075, with |xi| <= K + 1 for
    the n_terms = 2K + 1 terms; n_terms * (1 + (K + 1)^2)^p * 2^-1074 covers
    them all, with room to spare.
    """
    reach = 0.5 * (n_terms + 1)  # K + 1
    underflow = n_terms * (1.0 + reach * reach) ** p * _TINY
    return (_gamma(n_terms) + _TERM_ULPS * _U) * value + _EXP_ULPS * _U * weighted + underflow


@dataclass(frozen=True)
class LatticeSumResult:
    """A truncated lattice sum with bounds on the discarded tail and on rounding.

    The true sum lies in [lower, upper] = [value - rounding, value +
    tail_bound + rounding].  tail_bound is the truncation tail alone;
    rounding bounds the float error of the summed terms (_rounding_budget).
    rigorous is True when the tail bound came from a declared decay
    envelope; heuristic truncations (windows without an envelope) report
    estimates instead and must be treated as unverified.
    """

    value: float
    tail_bound: float
    terms_used: int
    rigorous: bool
    rounding: float = 0.0

    @property
    def lower(self) -> float:
        return self.value - self.rounding

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound + self.rounding


# the two engines below evaluate and sum terms that may overflow (a Hermite
# order in the hundreds): they check their sums instead of warning
@np.errstate(over="ignore", invalid="ignore")
def _enveloped_sums(w: Window, omega: float) -> tuple[LatticeSumResult, LatticeSumResult, complex]:
    """S_0(omega), S_1(omega) and ghat(omega) from one walk over the cutoffs: the one-omega engine.

    The cutoffs come in batches (_cutoff_batches), so numpy's per-call cost
    is paid once per batch, not once per step.  Each batch evaluates ghat
    once, at its new k in step order (both weights share it), and makes one
    tail pass: the float one_sided_gauss_tail_log at both tail starts of
    each of its cutoffs, then one logaddexp and one _from_log for all of
    them, as envelope_tail_log would per cutoff.  The batch's steps are
    then walked in order: each adds its own slice of the terms, and each sum
    stops at the first cutoff where its own tail passes _converged; the
    batch's later cutoffs are discarded.  A sum's bits depend on its
    cutoffs only, not on the batches.  Values are math.fsum of the terms,
    so exactly rounded; the rounding weight adds one dot product per step.
    A vanishing sum comes back with value 0; callers raise.  A sum, or the
    rounding weight of its terms, that is not finite raises NumericalError
    (_overflow) at the step that made it so.  ghat(omega) is the value
    behind the k = 0 term, as freq_eval gave it.
    """
    amp, rate = w.envelope.amplitude, w.envelope.rate
    terms: tuple[list[float], list[float]] = ([], [])
    weighted = [0.0, 0.0]
    results: list[LatticeSumResult | None] = [None, None]
    ghat_omega = None
    k_done = -1  # terms for |k| <= k_done are in hand
    for batch in _cutoff_batches():
        # each step's new k, -K..-k_done-1 then k_done+1..K, step after step
        runs, edges = [], [0]
        for k_cut in batch:
            runs += [np.arange(-k_cut, min(-k_done, 0)), np.arange(k_done + 1, k_cut + 1)]
            edges.append(edges[-1] + runs[-2].size + runs[-1].size)
            k_done = k_cut
        xi = np.concatenate(runs) + omega
        ghat = np.asarray(w.freq_eval(xi), dtype=complex)
        if ghat_omega is None:  # the first batch opens with -K..-1, so k = 0 sits at K
            ghat_omega = complex(ghat[batch[0]])
        mag2 = np.abs(ghat) ** 2
        step_terms = (mag2, xi**2 * mag2)
        e = _exponent_weight(xi, rate)
        starts = [a for k_cut in batch for a in (k_cut + 1 + omega, k_cut + 1 - omega)]
        sides = [one_sided_gauss_tail_log(2.0 * rate, (0, 1), a) for a in starts]
        tails = _from_log(2.0 * math.log(amp) + np.logaddexp(sides[0::2], sides[1::2])).tolist()
        for k_cut, lo, hi, step_tails in zip(batch, edges, edges[1:], tails):
            for p, tail in enumerate(step_tails):
                if results[p] is not None:
                    continue
                t = step_terms[p][lo:hi]
                terms[p].extend(t.tolist())
                weighted[p] += float(np.dot(e[lo:hi], t))
                try:
                    value = math.fsum(terms[p])
                except OverflowError:
                    value = math.inf
                if not (math.isfinite(value) and math.isfinite(weighted[p])):
                    raise _overflow(w, k_cut)
                if tail <= TAIL_TOL * max(value, FLOOR_GUARD):  # _converged, on floats
                    n_terms = 2 * k_cut + 1
                    rounding = _rounding_budget(value, weighted[p], n_terms, p)
                    results[p] = LatticeSumResult(value, tail, k_cut, rigorous=True, rounding=rounding)
            if None not in results:
                return results[0], results[1], ghat_omega
    raise DivergentSeriesError(
        f"tail bound for {w.label!r} did not reach tolerance by K={_MAX_CUTOFF}"
    )


def _overflow(w: Window, k_cut: int) -> NumericalError:
    """The error for a sum, or the rounding weight of its terms, past the double range."""
    return NumericalError(f"lattice sums for {w.label!r} overflow the double range by K={k_cut}")


@dataclass(frozen=True)
class DeltaEnclosure:
    """delta_g(omega) together with a certified (or estimated) enclosure."""

    value: float
    low: float
    high: float
    num: LatticeSumResult
    den: LatticeSumResult
    rigorous: bool


def _enclose(num_value, num_lower, num_upper, den_value, den_lower, den_upper):
    """delta = (1/2) sqrt(S_0/S_1) and its enclosure from the sums' bounds.

    Works on floats and arrays alike, with the same roundings (sqrt is
    correctly rounded in math and numpy); the outward
    _RATIO_PAD covers the rounding of the ratio and the square root.  A
    lower sum bound at or below 0 gives a lower end of 0 (numerator) or an
    upper end of inf (denominator).  A ratio that overflows (a subnormal
    S_1) gives an inf value and upper end; its exact value is then above
    the largest double, which bounds the lower end.
    """
    if isinstance(num_value, float):  # one omega: plain floats, clear of numpy's per-call cost
        sqrt = math.sqrt
        value = num_value / den_value
        low = min(max(num_lower, 0.0) / den_upper, _MAX_DOUBLE)
        high = num_upper / den_lower if den_lower > 0.0 else math.inf
    else:
        sqrt = np.sqrt
        with np.errstate(divide="ignore", over="ignore"):
            value = num_value / den_value
            low = np.minimum(np.maximum(num_lower, 0.0) / den_upper, _MAX_DOUBLE)
            high = num_upper / np.maximum(den_lower, 0.0)
    return 0.5 * sqrt(value), 0.5 * sqrt(low) * (1.0 - _RATIO_PAD), 0.5 * sqrt(high) * (1.0 + _RATIO_PAD)


def delta_g(w: Window, omega: float) -> DeltaEnclosure:
    """Criterion value (1/2)*sqrt(S_0/S_1) at a single omega with enclosure.

    The numerator uses weight p=0, the denominator p=1.  The enclosure
    brackets the exact ratio: the true sums lie in [lower, upper], which
    accounts for the truncation tail and the rounding of the summed terms.
    Without an envelope the sums are the row of a one-row _sweep and their
    tails estimates only.  Raises ZeroSumError when the numerator vanishes
    and DegenerateError when the denominator vanishes identically.
    """
    return _delta_g(w, omega)[0]


def _delta_g(w: Window, omega: float) -> tuple[DeltaEnclosure, complex | None]:
    """delta_g(w, omega) and ghat(omega) as the one-omega engine evaluated it
    for the k = 0 term; None without an envelope, whose one-row _sweep keeps
    its terms to itself."""
    omega = float(omega)
    if not 0.0 <= omega <= 1.0:
        raise PreconditionError(f"omega must lie in [0, 1], got {omega!r}")
    if w.envelope is None:
        sums = _sweep(w, np.array([omega]))[:, :, 0]
        if not sums[0, 0] > 0.0:
            raise ZeroSumError(
                f"all lattice-sum terms vanish for {w.label!r} at omega={omega} "
                f"(scanned |k| <= {int(sums[0, 3])})"
            )
        num, den = (
            LatticeSumResult(float(v), float(t), int(k), rigorous=False, rounding=float(r))
            for v, t, r, k in sums
        )
        ghat_omega = None
    else:
        num, den, ghat_omega = _enveloped_sums(w, omega)
        if num.value == 0.0:
            raise ZeroSumError(f"all lattice-sum terms vanish for {w.label!r} at omega={omega}")
    if den.value == 0.0:
        raise DegenerateError(f"denominator sum is zero for {w.label!r} at omega={omega}")
    value, low, high = _enclose(num.value, num.lower, num.upper, den.value, den.lower, den.upper)
    enclosure = DeltaEnclosure(value, low, high, num, den, rigorous=num.rigorous and den.rigorous)
    return enclosure, ghat_omega


@np.errstate(over="ignore", invalid="ignore")
def _sweep(w: Window, omegas: np.ndarray) -> np.ndarray:
    """S_0 and S_1 at every omega, summed as (k x omega) arrays.

    Each (omega, p) sum runs through the cutoffs of _cutoffs(), but ghat is
    evaluated once per cutoff step for both weights, only at the new k, and
    over all omegas still summing.  Returns sums of shape (2, 4,
    len(omegas)): sums[p] = (value, tail, rounding, K) of S_p.  A sum that
    vanishes holds value 0 and stops its row's other sum, which may then
    hold NaN; such a row is lost to delta_g (ZeroSumError or
    DegenerateError).

    With an envelope each sum stops at delta_g's rule: the first K
    whose closed-form tail bound passes _converged.  Without one the tail
    is an estimate, the sum of the terms that the row's last two cutoff
    steps added (at least four consecutive |k| on each side), and it must
    pass the same test; a sum still 0 scans on to the first cutoff past
    _ZERO_SCAN_K before it counts as vanishing, and one still summing at
    the first cutoff past _WARN_K stops there, under one
    TruncationRiskWarning per call.  The rounding of such a sum covers the
    summation and the per-term constant only.  Partial sums that are not
    finite raise NumericalError (_overflow).

    A cutoff step makes one term pass per block of at most _MAX_BLOCK (k,
    omega) values: ghat_lattice's lattice xi and ghat(xi), both (k, rows),
    fill one (k, summand, rows) array whose reduction over k gives each
    row's new terms (a quadrature window's ghat comes from one call for all
    live rows).  Then one tail pass (envelope_tail_log) for both weights
    and all live rows, and one _converged test, whose passing (p, row)
    records are copied through one mask.  The live rows' state is kept
    compact and gathered anew only when rows retire.

    Every row is summed at its own omega.  A row adds each step's new
    terms, the runs -K..-k_done-1 and k_done+1..K, as one group, whatever
    other rows the call holds, so with a closed-form ghat (freq_eval
    elementwise) its sums depend on its own omega only: any subset of a
    grid gives the grid's rows bit for bit.
    """
    env = w.envelope
    if env is not None and not math.exp(-8.0 * env.rate) < 1.0:  # the tail's ratio check at a >= 2
        raise DivergentSeriesError(f"envelope rate of {w.label!r} too small for a tail bound")
    ghat_at = ghat_lattice(w, omegas)
    out = np.full((2, 4, omegas.size), math.nan)
    # the rows still summing, in increasing omega, and their state, kept
    # compact as rows retire: the partial sums of the terms of S_0 and S_1,
    # then, with an envelope, of E(xi) * term for each; which sums still
    # run; the records (value, tail, rounding, K) of the sums, which out
    # holds itself until the first row retires
    live = np.arange(omegas.size)
    acc = np.zeros((2 if env is None else 4, live.size))
    summing = np.ones((2, live.size), dtype=bool)
    record = out
    # without an envelope: the terms of S_0 and S_1 that each of the last
    # two cutoff steps added
    recent = np.zeros((2, 2, live.size)) if env is None else None
    truncated = False
    k_done = -1  # terms for |k| <= k_done are summed
    for step, k_cut in enumerate(_cutoffs()):
        # the new terms k_done < |k| <= k_cut, as two runs in increasing k
        ks = np.concatenate((np.arange(-k_cut, min(-k_done, 0)), np.arange(k_done + 1, k_cut + 1))).astype(float)
        block = max(1, _MAX_BLOCK // ks.size)
        # a quadrature window's chirp-z transforms cost per call, not per
        # value: one call per step for all live rows
        lattice = None if w.quadrature is None else ghat_at(live, ks)
        for b in range(0, live.size, block):
            rows = slice(b, b + block)
            xi, g = ghat_at(live[rows], ks) if lattice is None else (a[:, rows] for a in lattice)
            # each row's new terms as one group, added k by k down the first
            # axis: numpy sums pairwise along the fastest axis only, and the
            # summand axis keeps k off it, even for a single row
            terms = np.empty((ks.size, acc.shape[0], xi.shape[1]))
            t0, t1 = terms[:, 0], terms[:, 1]
            np.abs(g, out=t0)
            t0 *= t0
            np.square(xi, out=t1)
            t1 *= t0
            if env is not None:
                e = _exponent_weight(xi, env.rate)
                np.multiply(e, t0, out=terms[:, 2])
                np.multiply(e, t1, out=terms[:, 3])
            added = np.add.reduce(terms, axis=0)
            acc[:, rows] += added
            if recent is not None:
                recent[step % 2][:, rows] = added
        if not np.isfinite(acc).all():
            raise _overflow(w, k_cut)
        k_done = k_cut
        value = acc[:2]
        if env is None:
            tails = recent[0] + recent[1]
        else:
            # an overflowing bound comes out as inf, which fails the stopping rule
            tails = _from_log(envelope_tail_log(env.amplitude, env.rate, (0, 1), k_cut + 1, omegas[live]))
        stop = _converged(tails, value)
        if env is None:
            zero = value == 0.0
            cut = ~stop & ~zero & (k_cut > _WARN_K)
            stop = np.where(zero, k_cut > _ZERO_SCAN_K, stop | cut)
        # a vanishing S_0 loses its row before S_1 is tested
        summing[1] &= ~(summing[0] & stop[0] & (value[0] == 0.0))
        stop &= summing
        if env is None:
            truncated |= bool((cut & summing).any())
        if not stop.any():
            continue
        rounding = _rounding_budget(value, 0.0 if env is None else acc[2:], 2 * k_cut + 1, _WEIGHTS)
        for field, entry in enumerate((value, tails, rounding, k_cut)):
            np.copyto(record[:, field], entry, where=stop)
        # a vanishing sum loses its row
        vanished = stop & (value == 0.0)
        summing &= ~(stop | vanished[0] | vanished[1])
        keep = summing[0] | summing[1]
        if not keep.all():
            if record is not out:
                out[:, :, live] = record
            if not keep.any():
                break
            live, acc, summing = live[keep], acc[:, keep], summing[:, keep]
            recent = None if recent is None else recent[:, :, keep]
            record = out[:, :, live]
    else:
        raise DivergentSeriesError(
            f"tail bound for {w.label!r} did not reach tolerance by K={_MAX_CUTOFF}"
        )
    if truncated:
        warnings.warn(
            f"lattice sum for {w.label!r} still active at K={_WARN_K}; "
            "truncating without decay evidence",
            TruncationRiskWarning,
            stacklevel=_caller_level(),
        )
    return out


def _sweep_rows(w: Window, series: _DualSeries | None, omegas: np.ndarray) -> np.ndarray:
    """Profile rows (value, low, high, num tail, den tail) on the side _time_side chose.

    With its dual series the window sums on the time side, without one
    through one _sweep.  A frequency-side tail only adds to the truncated
    sum; a dual-side one bounds terms of either sign, so it widens the
    enclosure both ways.  A row where either sum vanishes or, on the time
    side, is not positive (delta_g's ZeroSumError or DegenerateError) holds
    NaN.
    """
    sums = _sweep(w, omegas) if series is None else series.sums(w, omegas)
    sums[:, :, ~((sums[0, 0] > 0.0) & (sums[1, 0] > 0.0))] = math.nan
    (nv, nt, nr, _), (dv, dt, dr, _) = sums
    num_low, den_low = (nv - nr, dv - dr) if series is None else (nv - nt - nr, dv - dt - dr)
    value, low, high = _enclose(nv, num_low, nv + nt + nr, dv, den_low, dv + dt + dr)
    return np.array([value, low, high, nt, dt])


# --- the time side: Poisson-dual sums of closed-form windows ------------------


def _gamma(m):
    """gamma_m = m*u / (1 - m*u): m relative roundings of at most u compound to
    at most gamma_m (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 3)."""
    return m * _U / (1.0 - m * _U)


@functools.lru_cache(maxsize=16)
def _shift_tables(size: int):
    """Tables on k, i < size for the Appell shift H_k(y + h) = sum_{i<=k}
    C(k, i) (2h)^(k-i) H_i(y): C(k, i) (0 above the diagonal), the power
    k - i (0 above the diagonal), the unit (-i)^m by m, and the Hermite
    norms 2^i i!.  The floats are exact below 2^53 and within one rounding
    above."""
    k, i = np.indices((size, size))
    binom = np.array([[math.comb(a, b) for b in range(size)] for a in range(size)], dtype=float)
    norms = np.array([2.0**j * math.factorial(j) for j in range(size)])
    return binom, np.maximum(k - i, 0), np.array([(-1j) ** (m % 4) for m in range(size)]), norms


def _rescaled(f: np.ndarray, sigma: float):
    """Coefficients e of sum_n f_n H_n(rho*x) = sum_k e_k H_k(x), rho = sqrt(1 + i*sigma),
    by the multiplication theorem H_n(rho*x) = sum_i rho^(n-2i) (i*sigma)^i
    n!/(i! (n-2i)!) H_(n-2i)(x) (rho^2 - 1 = i*sigma), with their moduli
    shadow and the roundings behind them (see _DualSeries): rho carries 9
    (one for sigma, eight for cmath.sqrt), rho^m by repeated products
    12m, sigma^i 2i, the count 1 (exact below 2^53), the three products 5
    and the sum deg/2."""
    rho = cmath.sqrt(complex(1.0, sigma))
    deg = f.size - 1
    rho_pow, sigma_pow = [1.0 + 0j], [1.0]
    for _ in range(deg):
        rho_pow.append(rho_pow[-1] * rho)
        sigma_pow.append(sigma_pow[-1] * sigma)
    e = np.zeros(deg + 1, dtype=complex)
    shadow = np.zeros(deg + 1)
    for n, c in enumerate(f.tolist()):
        for i in range(n // 2 + 1):
            count = float(math.factorial(n) // (math.factorial(i) * math.factorial(n - 2 * i)))
            e[n - 2 * i] += c * rho_pow[n - 2 * i] * sigma_pow[i] * (1j) ** (i % 4) * count
            shadow[n - 2 * i] += abs(c) * abs(rho_pow[n - 2 * i]) * abs(sigma_pow[i]) * count
    return e, shadow, 12 * deg + deg // 2 + 6


@dataclass(frozen=True, eq=False)
class _DualSeries:
    """The time side of a closed-form window: S_p(omega) = sum_n a_p(n) e^(2 pi i n omega).

    By Poisson summation the lattice sums are the Fourier series of
    xi^(2p) |ghat(xi)|^2 (the Walnut form of the frame operator; Groechenig,
    Foundations of Time-Frequency Analysis, 2001, ch. 6-8), with

        a_p(n) = integral xi^(2p) |ghat(xi)|^2 exp(-2 pi i n xi) d xi.

    ghat is the form F = form.transform(), F(xi) = sum_n f_n H_n(alpha xi)
    exp(-pi w xi^2) with alpha = sqrt(2 pi w).  With beta = 2 pi Re w,
    x = sqrt(beta) xi and rho = alpha/sqrt(beta) = sqrt(w / Re w), |ghat|^2
    = |P(x)|^2 exp(-x^2) where P(x) = sum_n f_n H_n(rho x) = sum_k e_k H_k(x)
    (e = f for real w, else _rescaled), and xi^2 |ghat|^2 = |x P(x)|^2
    exp(-x^2) / beta, whose coefficients follow from x H_k = H_(k+1)/2 +
    k H_(k-1).  With tau^2 = pi n^2 / (2 Re w), shifting the contour by
    y = x + i tau and H_k(y - i tau) = sum_i C(k, i) (-2 i tau)^(k-i) H_i(y)
    leaves the orthogonality of the H_i:

        a_p(n) = (2 Re w)^(-1/2) beta^(-p) exp(-tau^2) sum_i 2^i i! u_i v_i,
        u_i = sum_k E_k C(k, i) (-2 i tau)^(k-i),  v_i the same for conj(E),

    E the coefficients e (p = 0) or those of x P (p = 1).  At n = 0 this is
    sum_i 2^i i! |E_i|^2, a sum of positive terms, where the power basis of
    |P|^2 cancels (141 times the value for H_6^2).

    The n-tail: a_0(n) = <T_n g, g> and a_1(n) is the same product for
    g'/(2 pi) (ClosedForm.derivative), so with the proven time envelope
    |h(t)| <= A_p exp(-r_p t^2) of each, |a_p(n)| <= A_p^2 sqrt(pi/(2 r_p))
    exp(-r_p n^2/2), and sum_{|n|>N} |a_p(n)| <= 2 A_p^2 sqrt(pi/(2 r_p))
    exp(one_sided_gauss_tail_log(r_p/2, 0, N + 1)) (tail: five roundings,
    padded by 8 units, plus the smallest subnormal for a product that
    underflows).  The envelopes' 1e-12 pad covers the few ulps by which F's
    coefficients differ from the exact transform of the form.

    Rounding, against the exact sums of F's float coefficients and z with
    exact pi.  Every computed quantity is a sum of products of inputs, and
    each of its monomials passes at most L roundings: a real product,
    quotient, square root or add, or exp (within 1 ulp), counts one (unit
    roundoff u), a complex product three (|error| <= sqrt(5) u |xy|), an
    input with relative error k u counts k per factor it enters.  Then
    |computed - exact| <= gamma_L * shadow, the same computation on the
    moduli of the inputs (Higham, 2002, sections 3.1 and 3.6); the float
    shadow, a sum of positive terms along the same paths, is within 1 +
    gamma_L of exact.  The counts, with deg the top order:

    - E: none for real w (e = f); _rescaled's count for complex w; two more
      for x P (a product and an add).
    - u_i, n >= 1: tau^2 carries 3, tau 3, (2 tau)^m by repeated products
      4m - 1, times C(k, i) (itself within one) 4m + 1 <= 4 deg + 1, the
      product with E_k 3 and the sum over k deg: L_u = L_E + 5 deg + 4.  At
      n = 0, u = E and v = conj(E) exactly.
    - T = sum_i 2^i i! u_i v_i: L_T = 2 L_u + 3 (u_i v_i) + 2 (2^i i!, itself
      within one) + deg, so |T - computed| <= gamma_L_T (1 + gamma_L_T) Tbar,
      Tbar the shadow.
    - the prefactor, P roundings: 2 for (2 Re w)^(-1/2), 3 more for the
      division by beta; for n >= 1, 2 for exp, one for its product and
      ceil(4 tau^2) for the argument tau^2, whose 3 roundings scale exp by
      at most exp(3 u tau^2 (1 + 3u)) - 1 <= gamma_(4 tau^2).  With the
      product of prefactor and T, a_p(n) errs by at most pref (1 + gamma_P)
      (gamma_L_T (1 + gamma_L_T) Tbar + gamma_(P+1) |T|).
    - underflow, where rounding is absolute: exp, the prefactor's products
      and the product with T each err by at most 2^-1075 more, which
      2^-1074 (1 + 2 (2 + (2 Re w)^(-1/2)) (|T| + Tbar)) covers.

    The fold into S_p: theta = (2 pi n) omega carries 3, so cos and sin,
    within 4 ulps (8u) of their exact values at theta, are within e_n =
    gamma_3 2 pi n + 8u of those at 2 pi n omega, and the computed unit z =
    cos + i sin within 2 e_n of the exact one.  With E_n the bound on
    |a_p(n) - computed| and A_n = |Re a| + |Im a| >= |a| of the computed
    value, the term 2 Re(a z) = 2 (Re a cos - Im a sin) errs by at most
    2 (E_n (1 + 2 e_n) + 2 (A_n + E_n) e_n + gamma_2 A_n (1 + e_n)), and
    adding the N + 1 terms by at most gamma_N times the sum of their moduli,
    a_0 and 2 A_n (1 + e_n) (1 + gamma_2).  These positive bounds are
    evaluated in floats with less than 2^-30 relative error, which the last
    factor covers.  Unlike the frequency side's, the truncated series is not
    one-sided: lower = value - tail - rounding.
    """

    re_w: float
    coef: np.ndarray  # (2, size): E for p = 0 (zero-padded) and p = 1
    shadow: np.ndarray  # (2, size): their moduli shadows
    units: tuple[int, int]  # L_E for p = 0, 1
    tail_scale: tuple[float, float]  # 2 A_p^2 sqrt(pi/(2 r_p))
    tail_rate: tuple[float, float]  # r_p / 2
    # (a, rounding, err, mass) of each term computed so far (terms)
    computed: list = field(default_factory=list, init=False, repr=False)

    @staticmethod
    def of(form) -> "_DualSeries":
        """The series of a closed form; NumericalError or OverflowError where a time envelope overflows."""
        freq = form.transform()
        w = freq.z
        f = np.array(freq.coef)
        if w.imag == 0.0:
            e, shadow, units = f, np.abs(f), 0
        else:
            e, shadow, units = _rescaled(f, w.imag / w.real)
        deg = e.size - 1
        coef = np.zeros((2, deg + 2), dtype=complex)
        shadows = np.zeros((2, deg + 2))
        coef[0, :-1], shadows[0, :-1] = e, shadow
        # x P: x H_k = H_(k+1)/2 + k H_(k-1)
        for row, vals in ((coef[1], e), (shadows[1], shadow)):
            row[1:] = vals / 2.0
            row[:deg] += np.arange(1, deg + 1) * vals[1:]
        scale, rate = [], []
        for env in (form.envelope(), form.derivative().envelope()):
            scale.append(2.0 * env.amplitude**2 * math.sqrt(math.pi / (2.0 * env.rate)))
            rate.append(0.5 * env.rate)
        return _DualSeries(w.real, coef, shadows, (units, units + 2), tuple(scale), tuple(rate))

    # like the frequency side, the time side checks its sums instead of warning
    @np.errstate(over="ignore", invalid="ignore")
    def coefficients(self, n: int):
        """(a, bound): a_p(n) for p = 0, 1 (complex) and bounds on their rounding errors."""
        size = self.coef.shape[1]
        deg = size - 1
        binom, power, unit, norms = _shift_tables(size)
        tau2 = math.pi * n * n / (2.0 * self.re_w)
        if n == 0:
            u, v, u_bar, shift_units, p_units = self.coef, self.coef.conj(), self.shadow, 0, 0
        else:  # u = E @ shift and v = conj(E) @ shift
            steps = np.cumprod(np.r_[1.0, np.full(deg, 2.0 * math.sqrt(tau2))])
            shift_bar = binom * steps[power]
            shift = shift_bar * unit[power]
            u, v, u_bar = self.coef @ shift, self.coef.conj() @ shift, self.shadow @ shift_bar
            shift_units, p_units = 5 * deg + 4, 3 + math.ceil(4.0 * tau2)
        total = (u * v) @ norms
        total_bar = ((u_bar * u_bar) @ norms).tolist()
        root = 1.0 / math.sqrt(2.0 * self.re_w)
        decay = math.exp(-tau2)
        pref = [root * decay, root / (2.0 * math.pi * self.re_w) * decay]
        bound = []
        for p, units in enumerate(self.units):
            gamma_t = _gamma(2 * (units + shift_units) + 5 + deg)
            gamma_p = _gamma(p_units + (2, 5)[p])
            relative = pref[p] * (1.0 + gamma_p) * (gamma_t * (1.0 + gamma_t) * total_bar[p] + (gamma_p + _U) * abs(total[p]))
            underflow = _TINY * (1.0 + 2.0 * (2.0 + root) * (abs(total[p]) + total_bar[p]))
            bound.append(relative + underflow)
        return np.array(pref) * total, np.array(bound)

    def tail(self, p: int, n: int) -> float:
        """Upper bound on sum over |m| > n of |a_p(m)|."""
        log_bound = one_sided_gauss_tail_log(self.tail_rate[p], 0, n + 1.0)
        factor = _TINY if log_bound < _LOG_TINY else math.exp(log_bound) * (1.0 + 4e-16)  # _from_log, on a float
        return self.tail_scale[p] * factor * (1.0 + 8.0 * _U) + _TINY

    def terms(self):
        """(n, a, rounding) for n = 0, 1, 2, ...: a_p(n) for p = 0, 1 and the
        bound on the rounding of S_p summed through n (the fold above).  Each
        term is computed once per series and kept (computed), so a profile's
        side decision and both its sums read one run, grown as far as any of
        them reads.  Its callers, sums and _time_side, check the values it
        yields instead of warning."""
        computed = self.computed
        for n in range(_MAX_CUTOFF + 1):
            if n == len(computed):
                a, bound = self.coefficients(n)
                if n == 0:
                    err, mass = bound, np.abs(a.real)
                else:
                    err, mass = computed[-1][2:]
                    e = _gamma(3) * 2.0 * math.pi * n + 8.0 * _U
                    size = np.abs(a.real) + np.abs(a.imag)
                    err = err + 2.0 * (bound * (1.0 + 2.0 * e) + 2.0 * (size + bound) * e + _gamma(2) * size * (1.0 + e))
                    mass = mass + 2.0 * size * (1.0 + e) * (1.0 + _gamma(2))
                computed.append((a, (err + _gamma(n) * mass) * (1.0 + 2.0**-30), err, mass))
            yield n, *computed[n][:2]

    @np.errstate(over="ignore", invalid="ignore")
    def sums(self, w: Window, omegas: np.ndarray) -> np.ndarray:
        """S_0 and S_1 at every omega, in _sweep's layout: sums[p] = (value,
        n-tail, rounding, N) of S_p.  Each (omega, p) adds the terms n = 0,
        1, 2, ... and stops at the first N whose tail passes _converged; a row
        depends on its own omega only.  Values or rounding bounds that are not
        finite raise NumericalError."""
        out = np.full((2, 4, omegas.size), math.nan)
        summing = np.ones((2, omegas.size), dtype=bool)
        for n, a, rounding in self.terms():
            if n == 0:
                acc = np.repeat(a.real[:, None], omegas.size, axis=1)
            else:
                theta = (2.0 * math.pi * n) * omegas
                acc += 2.0 * (np.outer(a.real, np.cos(theta)) - np.outer(a.imag, np.sin(theta)))
            if not (np.all(np.isfinite(acc)) and np.all(np.isfinite(rounding))):
                raise NumericalError(f"dual lattice sums for {w.label!r} overflow the double range by N={n}")
            for p in (0, 1):
                tail = self.tail(p, n)
                done = summing[p] & _converged(tail, acc[p])
                out[p, 0, done], out[p, 1, done], out[p, 2, done], out[p, 3, done] = acc[p, done], tail, rounding[p], n
                summing[p, done] = False
            if not summing.any():
                return out
        raise DivergentSeriesError(f"dual series for {w.label!r} did not reach tolerance by N={_MAX_CUTOFF}")


@np.errstate(over="ignore", invalid="ignore")
def _time_side(w: Window) -> _DualSeries | None:
    """The dual series of w if a profile sums it on the time side, else None.

    A closed form with an envelope takes the time side iff N < K and the
    rounding bound of the fold through N passes _converged, against the
    means a_p(0) of S_p.  K is the first cutoff whose envelope tails pass at
    omega = 1/2 (the one-omega rule), or past _MAX_CUTOFF if none does or
    the envelope is too flat for a tail bound: the frequency side cannot
    conclude there.  N is the first n whose n-tails pass.  Cheapest bound
    first: the means, then one walk over n = 0, 1, 2, ... that checks, where
    n is the next cutoff, its envelope tails (a pass is K <= n, so the
    frequency side), then the n-tails (a pass is N = n < K); neither tail
    needs a coefficient.  N < K holds iff no cutoff up to N passes, so the
    walk stops at the smaller of the two.  Only then the coefficients 1..N,
    for one rounding check at N (the bound only grows with n), which fails
    where the terms n >= 1 cancel.
    """
    if w.form is None or w.envelope is None:
        return None
    try:
        series = _DualSeries.of(w.form)
    except (NumericalError, OverflowError):
        return None
    terms = series.terms()
    _, means, rounding = next(terms)
    scale, env = means.real, w.envelope
    if not np.all((scale > 0.0) & (scale < math.inf)):
        return None

    def passes(bound, *args) -> bool:  # False where the bound does not exist
        try:
            return bool(np.all(_converged(np.asarray(bound(*args)), scale)))
        except DivergentSeriesError:
            return False

    def envelope_tails(k):
        return _from_log(envelope_tail_log(env.amplitude, env.rate, (0, 1), k + 1, 0.5))

    def n_tails(n):
        return [series.tail(0, n), series.tail(1, n)]

    cutoffs = _cutoffs()
    k_next = next(cutoffs)
    for n_cut in range(_MAX_CUTOFF + 1):
        if n_cut == k_next:
            if passes(envelope_tails, n_cut):
                return None
            k_next = next(cutoffs, None)
        if passes(n_tails, n_cut):
            break
    else:
        return None
    for _ in range(n_cut):
        _, _, rounding = next(terms)
    return series if passes(lambda: rounding) else None


@dataclass(frozen=True)
class DensityProfile(CsvTable):
    """delta_g evaluated over an omega grid, plus local refinement points.

    The rows are every point min_delta evaluated, the grid and its
    refinement stencil, in increasing omega.  min_value is the minimum of
    the certified lower enclosures over all of them, so it is a lower bound
    for the grid minimum.  Degenerate grid points are recorded as NaN rows
    and force non_certifying.  num_tails and den_tails (the tail_bound_num
    and tail_bound_den columns) are the truncation tails of S_0 and S_1:
    beyond the cutoff K on the frequency side, beyond the last dual term N
    on the time side (_DualSeries), where they widen the enclosure both
    ways.
    """

    omegas: np.ndarray
    deltas: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    num_tails: np.ndarray
    den_tails: np.ndarray
    min_value: float
    argmin: int
    grid_points: int
    rigorous: bool
    non_certifying: bool

    CSV_HEADER = ("omega", "delta_g_low", "delta_g", "delta_g_high", "tail_bound_num", "tail_bound_den")

    @property
    def argmin_omega(self) -> float:
        return float(self.omegas[self.argmin])

    def csv_columns(self):
        return (self.omegas, self.lows, self.deltas, self.highs, self.num_tails, self.den_tails)


# The refinement stencil: this many rounds of midpoints between neighbours,
# from the coarse argmin and its two grid neighbours, give the points j/8 of
# a grid step on either side of the argmin.
_REFINEMENT_ROUNDS = 3


def min_delta(w: Window, grid_points: int = DEFAULT_GRID_POINTS) -> DensityProfile:
    """Profile delta_g over a uniform omega grid on [0, 1] and refine locally.

    grid_points must be odd so that 0, 1/2 and 1 all land on the grid.  The
    coarse argmin is refined on a fixed stencil: the points j/8 of a grid
    step on either side of it, j = 1..7 (three rounds of midpoints between
    neighbours, _REFINEMENT_ROUNDS), so at most 14 points, or 7 at a grid
    end.  Every stencil point is merged into the profile, so min_value is
    the minimum over every evaluated point: the least delta_g_low of the
    exported profile.

    One side decision (_time_side) serves both _sweep_rows calls, the grid
    and then the stencil: a closed form whose dual series is shorter and as
    tight sums it on the time side (_DualSeries), every other window through
    the sweep engine (_sweep).  Either way every row is summed at the omega
    it prints.  For a window whose |ghat| is even (w.even_modulus: even,
    odd, or real up to a constant phase) delta_g(omega) = delta_g(1 - omega),
    but the grid points omega and 1 - omega of a pair add up to 1 only
    within 1.5 ulp and stop at their own cutoffs, so their rows can tie
    within an ulp either way; the stencil goes around the member of the
    grid minimum's pair in [0, 1/2], whichever of them the minimum lands on.
    """
    grid_points = int(grid_points)
    if grid_points < 3 or grid_points % 2 == 0:
        raise PreconditionError(f"grid_points must be odd and >= 3, got {grid_points}")

    omegas = np.linspace(0.0, 1.0, grid_points)
    series = _time_side(w)
    rows = _sweep_rows(w, series, omegas)
    if not np.any(np.isfinite(rows[0])):
        raise DegenerateError(f"delta_g degenerate at every grid point for {w.label!r}")

    # local refinement: rounds of midpoints between neighbours from the coarse
    # argmin and its grid neighbours, which end up at every 8th point; with
    # delta_g(omega) = delta_g(1 - omega) the stencil goes around the member
    # in [0, 1/2], so an ulp-level tie within a pair cannot move it
    idx = int(np.nanargmin(rows[0]))
    if w.even_modulus:
        idx = min(idx, grid_points - 1 - idx)
    points = omegas[max(idx - 1, 0) : idx + 2]
    for _ in range(_REFINEMENT_ROUNDS):
        refined = np.empty(2 * points.size - 1)
        refined[0::2], refined[1::2] = points, 0.5 * (points[:-1] + points[1:])
        points = refined
    stencil = np.delete(points, np.s_[:: 2**_REFINEMENT_ROUNDS])

    omg = np.concatenate([omegas, stencil])
    order = np.argsort(omg, kind="stable")
    omg = omg[order]
    deltas, lows, highs, num_tails, den_tails = np.concatenate(
        [rows, _sweep_rows(w, series, stencil)], axis=1
    )[:, order]
    finite_mask = np.isfinite(deltas)
    degenerate = not bool(np.all(finite_mask))

    return DensityProfile(
        omegas=omg,
        deltas=deltas,
        lows=lows,
        highs=highs,
        num_tails=num_tails,
        den_tails=den_tails,
        min_value=float(np.min(lows[finite_mask])),
        argmin=int(np.nanargmin(deltas)),
        grid_points=grid_points,
        rigorous=w.envelope is not None and not degenerate,
        non_certifying=degenerate,
    )


@dataclass(frozen=True)
class CriterionVerdict:
    """One-sided answer: Certified means delta < certified grid minimum.

    Inconclusive never asserts failure; co-volumes at or above the profile
    minimum are simply outside what this criterion can see.
    """

    status: str  # "Certified" | "Inconclusive"
    window: str
    delta: float
    min_delta_g: float
    margin: float
    rigorous: bool
    grid_points: int

    @property
    def certified(self) -> bool:
        return self.status == "Certified"


def certify(w: Window, delta: float, grid_points: int = DEFAULT_GRID_POINTS) -> CriterionVerdict:
    """Certify the square-lattice system with co-volume delta, if possible."""
    delta = float(delta)
    if not (delta > 0 and math.isfinite(delta)):
        raise PreconditionError(f"co-volume delta must be positive and finite, got {delta!r}")
    profile = min_delta(w, grid_points)
    margin = profile.min_value - delta
    certified = margin > 0 and not profile.non_certifying
    return CriterionVerdict(
        status="Certified" if certified else "Inconclusive",
        window=w.label,
        delta=delta,
        min_delta_g=profile.min_value,
        margin=margin,
        rigorous=profile.rigorous,
        grid_points=grid_points,
    )


def certify_rect(
    w: Window, a: float, b: float, grid_points: int = DEFAULT_GRID_POINTS
) -> CriterionVerdict:
    """Certify the rectangular lattice a*Z x b*Z via dilation reduction.

    The system (w, aZ x bZ) is unitarily equivalent to (D_b w, ab*Z x Z),
    so this is certify(dilate(w, b), a*b).
    """
    a, b = float(a), float(b)
    if not (a > 0 and math.isfinite(a)) or not (b > 0 and math.isfinite(b)):
        raise PreconditionError(f"lattice steps must be positive, got a={a!r}, b={b!r}")
    return certify(dilate(w, b), a * b, grid_points)
