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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateError,
    DivergentSeriesError,
    NumericalError,
    PreconditionError,
    TruncationRiskWarning,
    ZeroSumError,
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

# Smallest positive double; used to clamp log-space tail bounds that
# underflow, so a reported bound is never below the true tail.
_TINY = 5e-324
_LOG_TINY = math.log(_TINY)

# Windows without a decay envelope: a sum still 0 scans on to the first cutoff
# past _ZERO_SCAN_K (12,138) before it counts as vanishing, and one still
# summing at the first cutoff past _WARN_K (2,398) stops there, truncated.
_WARN_K = 2048
_ZERO_SCAN_K = 10_000

# The enveloped cutoff K grows through 2, 4, 6, 9, 13, ... and gives up past
# this; an envelope that weak never engaged.
_MAX_CUTOFF = 100_000

# Rounding model of the summed terms (see _rounding_budget): unit roundoff,
# ulps per term for the polynomial and constant factors, ulps per unit of
# exponent for the exp factor.
_U = 2.0**-53
_TERM_ULPS = 32
_EXP_ULPS = 8
_MIN_SUBNORMAL = 2.0**-1074
_MAX_DOUBLE = float(np.finfo(float).max)

# The sweep engine evaluates each cutoff step's new terms for blocks of rows
# of at most _MAX_BLOCK (omega, k) values, so its working arrays stay small
# however many omegas or terms there are.
_MAX_BLOCK = 1 << 12
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
    weights, which share one exp pass; the logs then come back as a list in
    that order.

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
            peel = -c * a * a * _PEEL_PAD
            logs = [peel + np.log(poly) for poly in _tail_polys(r, a, weights)]
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


def envelope_tail_log(amplitude: float, rate: float, p, m: int, omega: float):
    """log upper bound for the two-sided lattice tail over |k| >= m.

    Bounds sum over k >= m of (k+omega)^(2p) |ghat|^2 plus the mirrored
    k <= -m side, assuming |ghat(xi)| <= amplitude * exp(-rate * xi^2).
    Needs m >= 2 so both tail starts m - omega and m + omega are >= 1.
    p may be a tuple of weights, as in one_sided_gauss_tail_log; the
    bounds then come back as an array in that order.
    """
    if m < 2:
        raise PreconditionError("tail bound needs cutoff m >= 2")
    c = 2.0 * rate
    log_c2 = 2.0 * math.log(amplitude)
    side_plus = one_sided_gauss_tail_log(c, p, m + omega)
    side_minus = one_sided_gauss_tail_log(c, p, m - omega)
    return log_c2 + np.logaddexp(side_plus, side_minus)


def _from_log(log_bound):
    # Upper bound survives the exp: clamp underflow to the smallest positive
    # double and pad a couple of ulps against rounding; elementwise on
    # arrays, where an overflowing bound comes out as inf.
    with np.errstate(over="ignore"):
        return np.where(log_bound < _LOG_TINY, _TINY, np.exp(log_bound) * (1.0 + 4e-16))


def _envelope_tails(amplitude: float, rate: float, m: int, omegas: np.ndarray) -> np.ndarray:
    """envelope_tail_log followed by _from_log for p = 0 and p = 1, over an array of omegas.

    One one_sided_gauss_tail_log call on both tail starts m + omega and
    m - omega, so one exp and one log pass for both weights; an overflowing
    bound comes out as inf, which simply fails the stopping rule.  Returns
    shape (2, len(omegas)), row p the tails of S_p.
    """
    side = np.array(one_sided_gauss_tail_log(2.0 * rate, (0, 1), np.stack([m + omegas, m - omegas])))
    return _from_log(2.0 * math.log(amplitude) + np.logaddexp(side[:, 0], side[:, 1]))


def _cutoffs():
    """The cutoff schedule K = 2, 4, 6, 9, 13, 19, ... up to _MAX_CUTOFF."""
    k_cut = 2
    while k_cut <= _MAX_CUTOFF:
        yield k_cut
        k_cut += max(2, k_cut // 2)


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
    gamma = n_terms * _U / (1.0 - n_terms * _U)
    reach = 0.5 * (n_terms + 1)  # K + 1
    underflow = n_terms * (1.0 + reach * reach) ** p * _MIN_SUBNORMAL
    return (gamma + _TERM_ULPS * _U) * value + _EXP_ULPS * _U * weighted + underflow


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
def _enveloped_sums(w: Window, omega: float) -> list[LatticeSumResult]:
    """S_0(omega) and S_1(omega) from one K loop: the one-omega engine.

    ghat is evaluated once per cutoff step, at the new k only, and shared by
    both weights, as is one tail pass (envelope_tail_log); each sum stops
    at the first cutoff where its own tail passes _converged.  Values are
    math.fsum of the terms, so exactly rounded.  A vanishing sum comes back
    with value 0; callers raise.  A sum, or the rounding weight of its terms,
    that is not finite raises NumericalError (_overflow).
    """
    amp, rate = w.envelope.amplitude, w.envelope.rate
    terms: tuple[list[float], list[float]] = ([], [])
    weighted = [0.0, 0.0]
    results: list[LatticeSumResult | None] = [None, None]
    k_done = -1  # terms for |k| <= k_done are in hand
    for k_cut in _cutoffs():
        xi = np.r_[-k_cut : min(-k_done, 0), k_done + 1 : k_cut + 1] + omega
        k_done = k_cut
        mag2 = np.abs(np.asarray(w.freq_eval(xi), dtype=complex)) ** 2
        e = _exponent_weight(xi, rate)
        tails = _from_log(envelope_tail_log(amp, rate, (0, 1), k_cut + 1, omega)).tolist()
        for p, tail in enumerate(tails):
            if results[p] is not None:
                continue
            t = mag2 if p == 0 else xi**2 * mag2
            terms[p].extend(t.tolist())
            weighted[p] += float(np.dot(e, t))
            try:
                value = math.fsum(terms[p])
            except OverflowError:
                value = math.inf
            if not (math.isfinite(value) and math.isfinite(weighted[p])):
                raise _overflow(w, k_cut)
            if _converged(tail, value):
                n_terms = 2 * k_cut + 1
                rounding = _rounding_budget(value, weighted[p], n_terms, p)
                results[p] = LatticeSumResult(value, tail, k_cut, rigorous=True, rounding=rounding)
        if None not in results:
            return results
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
    else:
        num, den = _enveloped_sums(w, omega)
        if num.value == 0.0:
            raise ZeroSumError(f"all lattice-sum terms vanish for {w.label!r} at omega={omega}")
    if den.value == 0.0:
        raise DegenerateError(f"denominator sum is zero for {w.label!r} at omega={omega}")
    value, low, high = _enclose(num.value, num.lower, num.upper, den.value, den.lower, den.upper)
    return DeltaEnclosure(
        value=value,
        low=low,
        high=high,
        num=num,
        den=den,
        rigorous=num.rigorous and den.rigorous,
    )


@np.errstate(over="ignore", invalid="ignore")
def _sweep(w: Window, omegas: np.ndarray, mirror: bool = False) -> np.ndarray:
    """S_0 and S_1 at every omega, summed as (omega x k) arrays.

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

    A row adds each step's new terms as one group, whatever other rows the
    call holds, so with a closed-form ghat (freq_eval elementwise) its sums
    depend on its own omega only: any subset of a grid gives the grid's
    rows bit for bit.

    mirror=True needs |ghat| even and a grid whose points pair up as
    omegas[i] + omegas[-1 - i] = 1: ghat is then evaluated for the first
    half only, since |ghat(k + omega')| = |ghat(-k - 1 + omega)| for
    omega' = 1 - omega.  The partner rows still keep their own cutoffs,
    tails and stopping decisions; the first-half rows equal unmirrored ones.
    """
    env = w.envelope
    if env is not None and not math.exp(-8.0 * env.rate) < 1.0:  # the tail's ratio check at a >= 2
        raise DivergentSeriesError(f"envelope rate of {w.label!r} too small for a tail bound")
    n_own = (omegas.size + 1) // 2 if mirror else omegas.size
    own_rows = np.arange(n_own)
    partner_rows = omegas.size - 1 - own_rows if mirror else own_rows[:0]
    size = omegas.size
    # ghat is evaluated for the own rows; their partners follow in the same order
    omegas = omegas[np.concatenate([own_rows, partner_rows])]
    at = omegas[:n_own]
    ghat_at = ghat_lattice(w, at)
    out = np.full((2, 4, omegas.size), math.nan)
    # partial sums of the terms of S_0 and S_1, then, with an envelope, of
    # E(xi) * term for each
    acc = np.zeros((2 if env is None else 4, omegas.size))
    # without an envelope: the terms of S_0 and S_1 that each of the last
    # two cutoff steps added
    recent = np.zeros((2, 2, omegas.size)) if env is None else None
    summing = np.ones((2, omegas.size), dtype=bool)
    truncated = False
    k_done = -1  # terms for |k| <= k_done are summed
    for step, k_cut in enumerate(_cutoffs()):
        # columns k holding new terms of an own row (k_done < |k| <= k_cut)
        # or, reflected to -k - 1, of its partner
        ks = np.arange(-k_cut - 1, k_cut + 1)
        own = (np.abs(ks) > k_done) & (np.abs(ks) <= k_cut)
        partner = (np.abs(ks + 1) > k_done) & (np.abs(ks + 1) <= k_cut) & mirror
        keep = own | partner
        ks, own, partner = ks[keep].astype(float), own[keep], partner[keep]
        groups = [(np.flatnonzero(own), 0), (np.flatnonzero(partner), n_own)] if mirror else [(None, 0)]
        needed = summing.any(axis=0)
        live = np.flatnonzero(needed[:n_own] | needed[n_own:] if mirror else needed)
        block = max(1, _MAX_BLOCK // ks.size)
        for b in range(0, live.size, block):
            rows = live[b : b + block]
            # (k x omega) arrays, stacked as (k, summand, omega)
            xi = ks[:, None] + at[None, rows]
            t0 = np.abs(ghat_at(rows, ks).T) ** 2
            t1 = xi**2 * t0
            if env is None:
                terms = np.stack([t0, t1], axis=1)
            else:
                e = _exponent_weight(xi, env.rate)
                terms = np.stack([t0, t1, e * t0, e * t1], axis=1)
            for cols, offset in groups:
                # each row's new terms as one group, added k by k in column
                # order: numpy sums pairwise along the fastest axis only, and
                # the k axis is never that, whatever the number of rows
                group = terms if cols is None else terms[cols]
                added = np.add.reduce(group, axis=0)
                acc[:, rows + offset] += added
                if recent is not None:
                    recent[step % 2][:, rows + offset] = added
        if not np.all(np.isfinite(acc)):
            raise _overflow(w, k_cut)
        k_done = k_cut
        rows = np.flatnonzero(summing.any(axis=0))
        if env is None:
            tails = (recent[0] + recent[1])[:, rows]
        else:
            tails = _envelope_tails(env.amplitude, env.rate, k_cut + 1, omegas[rows])
        for p in (0, 1):
            sel = summing[p, rows]
            done, tail = rows[sel], tails[p, sel]
            stop = _converged(tail, acc[p, done])
            if env is None:
                zero = acc[p, done] == 0.0
                cut = ~stop & ~zero & (k_cut > _WARN_K)
                truncated |= bool(cut.any())
                stop = np.where(zero, k_cut > _ZERO_SCAN_K, stop | cut)
            done, tail = done[stop], tail[stop]
            value = acc[p, done]
            out[p, 0, done] = value
            out[p, 1, done] = tail
            weighted = 0.0 if env is None else acc[2 + p, done]
            out[p, 2, done] = _rounding_budget(value, weighted, 2 * k_cut + 1, p)
            out[p, 3, done] = k_cut
            summing[p, done] = False
            summing[:, done[value == 0.0]] = False  # a vanishing sum already loses the row
        if not summing.any():
            break
    else:
        raise DivergentSeriesError(
            f"tail bound for {w.label!r} did not reach tolerance by K={_MAX_CUTOFF}"
        )
    if truncated:
        warnings.warn(
            f"lattice sum for {w.label!r} still active at K={_WARN_K}; "
            "truncating without decay evidence",
            TruncationRiskWarning,
            stacklevel=4,
        )
    sums = np.full((2, 4, size), math.nan)
    sums[:, :, partner_rows] = out[:, :, n_own:]
    sums[:, :, own_rows] = out[:, :, :n_own]  # the middle row is its own partner
    return sums


def _sweep_rows(w: Window, omegas: np.ndarray, mirror: bool = False) -> np.ndarray:
    """Profile rows (value, low, high, num tail, den tail) from one _sweep.

    A row where either sum vanishes (delta_g's ZeroSumError or
    DegenerateError) holds NaN.
    """
    sums = _sweep(w, omegas, mirror)
    sums[:, :, ~((sums[0, 0] > 0.0) & (sums[1, 0] > 0.0))] = math.nan
    (nv, nt, nr, _), (dv, dt, dr, _) = sums
    value, low, high = _enclose(nv, nv - nr, nv + nt + nr, dv, dv - dr, dv + dt + dr)
    return np.array([value, low, high, nt, dt])


@dataclass(frozen=True)
class DensityProfile(CsvTable):
    """delta_g evaluated over an omega grid, plus local refinement points.

    The rows are every point min_delta evaluated, the grid and its
    refinement stencil, in increasing omega.  min_value is the minimum of
    the certified lower enclosures over all of them, so it is a lower bound
    for the grid minimum.  Degenerate grid points are recorded as NaN rows
    and force non_certifying.
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

    Every window goes through the sweep engine (_sweep) in two calls.  The
    first sums the grid.  For a window whose |ghat| is even (w.even_modulus:
    even, odd, or real up to a constant phase), ghat is evaluated for the
    grid points in [0, 1/2] only and each partner point 1 - omega reuses
    those values with the columns reflected, keeping its own cutoff, tail
    and stopping decision (the two points of a pair add up to 1 within 1.5
    ulp, an argument error the rounding budget covers).  The second sums
    the stencil, unmirrored.
    """
    grid_points = int(grid_points)
    if grid_points < 3 or grid_points % 2 == 0:
        raise PreconditionError(f"grid_points must be odd and >= 3, got {grid_points}")

    omegas = np.linspace(0.0, 1.0, grid_points)
    rows = _sweep_rows(w, omegas, mirror=w.even_modulus)
    if not np.any(np.isfinite(rows[0])):
        raise DegenerateError(f"delta_g degenerate at every grid point for {w.label!r}")

    # local refinement: rounds of midpoints between neighbours from the coarse
    # argmin and its grid neighbours, which end up at every 8th point
    idx = int(np.nanargmin(rows[0]))
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
        [rows, _sweep_rows(w, stencil)], axis=1
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
