"""Checks shared by several test modules: the Wirtinger inequality on samples,
the parity defect of the sampled reduction's operators, how far a window's
transform exceeds its envelope, and reference forms of three criterion rules
(the one-omega sums one cutoff step at a time, the side decision K then N,
the sweep with per-weight stopping tests)."""

import math
import warnings

import numpy as np

from gaborcert import criterion
from gaborcert.errors import (
    DivergentSeriesError,
    NumericalError,
    PreconditionError,
    TruncationRiskWarning,
    _caller_level,
)
from gaborcert.metaplectic import reduce_samples
from gaborcert.window import Window, ghat_lattice, sample_grid, sampled_window


def wirtinger_residual(values):
    """Quadrature check of the endpoint Wirtinger inequality on [0, 1].

    Given samples of f on a uniform grid over [0, 1] with f(0)*f(1) = 0,
    returns (lhs, rhs) with lhs = integral |f|^2 and rhs = (4/pi^2) *
    integral |f'|^2, derivative by central differences.  The inequality
    asserts lhs <= rhs, with equality for the quarter-period sine.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < 101:
        raise PreconditionError("need at least 101 samples of f on a uniform [0, 1] grid")
    if abs(values[0] * values[-1]) > 1e-8:
        raise PreconditionError(
            "boundary condition f(0)*f(1) = 0 violated: "
            f"|f(0)*f(1)| = {abs(values[0] * values[-1]):.3e}"
        )
    h = 1.0 / (values.size - 1)
    lhs = float(np.trapezoid(np.abs(values) ** 2, dx=h))
    deriv = np.gradient(values, h)
    rhs = float(4.0 / math.pi**2 * np.trapezoid(np.abs(deriv) ** 2, dx=h))
    return lhs, rhs


def on_grid(values):
    """The sampled (file:) window of values on the standard grid."""
    return sampled_window(sample_grid(), values)


# each operator of the reduction alone, on standard-grid samples: the
# fractional Fourier transform, the chirp exp(i pi q t^2), the dilation
_OPERATORS = {
    "frac_fourier": lambda values, r: reduce_samples(on_grid(values), r, 0.0, 1.0),
    "chirp": lambda values, q: reduce_samples(on_grid(values), 0.0, q, 1.0),
    "dilate": lambda values, a: reduce_samples(on_grid(values), 0.0, 0.0, a),
}


def _sample_sign(values: np.ndarray) -> int:
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise PreconditionError("cannot classify the parity of the zero function")
    flipped = values[::-1]
    if float(np.max(np.abs(values - flipped))) <= 1e-9 * scale:
        return 1
    if float(np.max(np.abs(values + flipped))) <= 1e-9 * scale:
        return -1
    raise PreconditionError("samples are neither even nor odd")


def parity_residual(op: str, values: np.ndarray, param: float) -> float:
    """Relative parity defect of op applied to definite-parity samples on the standard grid.

    All three operators preserve the parity class, so the output of an
    even (odd) input should again be even (odd); the returned number is
    max |out(t) - sign * out(-t)| / max |out|.
    """
    try:
        operator = _OPERATORS[op]
    except KeyError:
        raise PreconditionError(
            f"unknown operator {op!r}; expected one of {sorted(_OPERATORS)}"
        ) from None
    sign = _sample_sign(values)
    out = operator(values, param)
    scale = float(np.max(np.abs(out)))
    if scale == 0.0:
        return 0.0
    defect = float(np.max(np.abs(out - sign * out[::-1])))
    return defect / scale


def envelope_violation(w: Window) -> float:
    """Worst violation of w's envelope on 101 probes on each side, |xi| in [1, 10].

    Returns max(|ghat(xi)| - bound(xi)) over the probe grid; nonpositive
    values mean the envelope held everywhere it was checked.
    """
    if w.envelope is None:
        raise PreconditionError(f"window {w.label!r} has no envelope")
    xi = np.linspace(1.0, 10.0, 101)
    xi = np.concatenate([-xi[::-1], xi])
    mag = np.abs(np.asarray(w.freq_eval(xi), dtype=complex))
    return float(np.max(mag - w.envelope.bound(xi)))


@np.errstate(over="ignore", invalid="ignore")
def enveloped_sums_per_step(w: Window, omega: float):
    """S_0(omega) and S_1(omega) as criterion._enveloped_sums computes them,
    but with one ghat call and one envelope_tail_log call per cutoff step:
    the reference its batched walk must match bit for bit, errors included."""
    amp, rate = w.envelope.amplitude, w.envelope.rate
    terms = ([], [])
    weighted = [0.0, 0.0]
    results = [None, None]
    k_done = -1
    for k_cut in criterion._cutoffs():
        new_k = (np.arange(-k_cut, min(-k_done, 0)), np.arange(k_done + 1, k_cut + 1))
        xi = np.concatenate(new_k) + omega
        k_done = k_cut
        mag2 = np.abs(np.asarray(w.freq_eval(xi), dtype=complex)) ** 2
        e = criterion._exponent_weight(xi, rate)
        tails = criterion._from_log(criterion.envelope_tail_log(amp, rate, (0, 1), k_cut + 1, omega)).tolist()
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
                raise criterion._overflow(w, k_cut)
            if criterion._converged(tail, value):
                rounding = criterion._rounding_budget(value, weighted[p], 2 * k_cut + 1, p)
                results[p] = criterion.LatticeSumResult(value, tail, k_cut, rigorous=True, rounding=rounding)
        if None not in results:
            return results
    raise DivergentSeriesError(
        f"tail bound for {w.label!r} did not reach tolerance by K={criterion._MAX_CUTOFF}"
    )


@np.errstate(over="ignore", invalid="ignore")
def time_side_k_then_n(w: Window):
    """criterion._time_side's decision taken in two walks: K, the first cutoff
    whose envelope tails pass at omega = 1/2, then N, the first n < K whose
    n-tails pass; the dual series if N exists and its rounding through N
    passes, else None."""
    if w.form is None or w.envelope is None:
        return None
    try:
        series = criterion._DualSeries.of(w.form)
    except (NumericalError, OverflowError):
        return None
    terms = series.terms()
    _, means, rounding = next(terms)
    scale, env = means.real, w.envelope
    if not np.all((scale > 0.0) & (scale < math.inf)):
        return None

    def passes(bound, *args) -> bool:
        try:
            return bool(np.all(criterion._converged(np.asarray(bound(*args)), scale)))
        except DivergentSeriesError:
            return False

    def envelope_tails(k):
        return criterion._from_log(criterion.envelope_tail_log(env.amplitude, env.rate, (0, 1), k + 1, 0.5))

    def n_tails(n):
        return [series.tail(0, n), series.tail(1, n)]

    k_cut = next((k for k in criterion._cutoffs() if passes(envelope_tails, k)), math.inf)
    n_cut = next((n for n in range(min(k_cut, criterion._MAX_CUTOFF + 1)) if passes(n_tails, n)), None)
    if n_cut is None:
        return None
    for _ in range(n_cut):
        _, _, rounding = next(terms)
    return series if passes(lambda: rounding) else None


@np.errstate(over="ignore", invalid="ignore")
def sweep_per_weight(w: Window, omegas: np.ndarray) -> np.ndarray:
    """criterion._sweep as it was before its one-pass cutoff step: blocks of
    at most 4,096 values with the lattice transposed from (rows, k), a
    stacked copy of the terms, and each weight's stopping test and records
    in its own loop of fancy indexing.  The reference the one-pass step must
    match bit for bit, NaN entries, errors and warnings included."""
    env = w.envelope
    if env is not None and not math.exp(-8.0 * env.rate) < 1.0:
        raise DivergentSeriesError(f"envelope rate of {w.label!r} too small for a tail bound")
    ghat_at = ghat_lattice(w, omegas)
    out = np.full((2, 4, omegas.size), math.nan)
    acc = np.zeros((2 if env is None else 4, omegas.size))
    recent = np.zeros((2, 2, omegas.size)) if env is None else None
    summing = np.ones((2, omegas.size), dtype=bool)
    truncated = False
    k_done = -1
    for step, k_cut in enumerate(criterion._cutoffs()):
        ks = np.r_[-k_cut : min(-k_done, 0), k_done + 1 : k_cut + 1].astype(float)
        live = np.flatnonzero(summing.any(axis=0))
        block = max(1, 4096 // ks.size)
        ghat_live = None if w.quadrature is None else ghat_at(live, ks)[1].T
        for b in range(0, live.size, block):
            rows = live[b : b + block]
            xi = ks[:, None] + omegas[None, rows]
            t0 = np.abs((ghat_at(rows, ks)[1].T if ghat_live is None else ghat_live[b : b + block]).T) ** 2
            t1 = xi**2 * t0
            if env is None:
                terms = np.stack([t0, t1], axis=1)
            else:
                e = criterion._exponent_weight(xi, env.rate)
                terms = np.stack([t0, t1, e * t0, e * t1], axis=1)
            added = np.add.reduce(terms, axis=0)
            acc[:, rows] += added
            if recent is not None:
                recent[step % 2][:, rows] = added
        if not np.all(np.isfinite(acc)):
            raise criterion._overflow(w, k_cut)
        k_done = k_cut
        if env is None:
            tails = (recent[0] + recent[1])[:, live]
        else:
            logs = criterion.envelope_tail_log(env.amplitude, env.rate, (0, 1), k_cut + 1, omegas[live])
            tails = criterion._from_log(logs)
        for p in (0, 1):
            sel = summing[p, live]
            done, tail = live[sel], tails[p, sel]
            stop = criterion._converged(tail, acc[p, done])
            if env is None:
                zero = acc[p, done] == 0.0
                cut = ~stop & ~zero & (k_cut > criterion._WARN_K)
                truncated |= bool(cut.any())
                stop = np.where(zero, k_cut > criterion._ZERO_SCAN_K, stop | cut)
            done, tail = done[stop], tail[stop]
            value = acc[p, done]
            out[p, 0, done] = value
            out[p, 1, done] = tail
            weighted = 0.0 if env is None else acc[2 + p, done]
            out[p, 2, done] = criterion._rounding_budget(value, weighted, 2 * k_cut + 1, p)
            out[p, 3, done] = k_cut
            summing[p, done] = False
            summing[:, done[value == 0.0]] = False
        if not summing.any():
            break
    else:
        raise DivergentSeriesError(
            f"tail bound for {w.label!r} did not reach tolerance by K={criterion._MAX_CUTOFF}"
        )
    if truncated:
        warnings.warn(
            f"lattice sum for {w.label!r} still active at K={criterion._WARN_K}; "
            "truncating without decay evidence",
            TruncationRiskWarning,
            stacklevel=_caller_level(),
        )
    return out
