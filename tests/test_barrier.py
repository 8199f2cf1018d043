"""Odd-window obstruction at omega = 0 and the closed-form dilation scan."""

import collections
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gaborcert import (
    Parity,
    PreconditionError,
    barrier,
    criterion,
    delta_at_zero,
    dilate,
    gaussian,
    h1_barrier_scan,
    hermite,
    odd_barrier_suite,
)
from gaborcert.barrier import BarrierScan, BarrierScanRow
from gaborcert.cli import main
from gaborcert.criterion import _enclose, _from_log, one_sided_gauss_tail_log
from gaborcert.errors import DivergentSeriesError, NumericalError


def mp_direct_sums(c):
    """sigma_p = sum_{k>=1} k^(2p) exp(-c (k^2 - 1)), p = 1, 2, term by term at the working precision."""
    s2 = s4 = mpmath.mpf(0)
    k = 1
    while True:
        w = mpmath.exp(-c * (k * k - 1))
        s2 += k * k * w
        s4 += k**4 * w
        if k > 2 and k**4 * w < mpmath.mpf(10) ** (-mpmath.mp.dps - 5) * s4:
            return s2, s4
        k += 1


def mp_dual_sums(c):
    """The same sums by Poisson summation: (e^c/2) sqrt(pi/c) sum_n exp(-pi^2 n^2/c) P_p(n),
    P_1 = 1/(2c) - pi^2 n^2/c^2, P_2 = 3/(4c^2) - 3 pi^2 n^2/c^3 + pi^4 n^4/c^4."""
    p1, p2 = 1 / (2 * c), 3 / (4 * c**2)
    n = 1
    while True:
        y = mpmath.pi**2 * n * n / c
        w = 2 * mpmath.exp(-y)
        p1 += w * (1 / (2 * c) - y / c)
        p2 += w * (3 / (4 * c**2) - 3 * y / c**2 + y * y / c**2)
        if w < mpmath.mpf(10) ** (-mpmath.mp.dps - 5):
            pref = mpmath.exp(c) / 2 * mpmath.sqrt(mpmath.pi / c)
            return pref * p1, pref * p2
        n += 1


def mp_scan_truth(b):
    """(delta0, log of 1/2 - delta0) at 60 digits for the b-dilate of hermite:1, from the
    dual sums below c = 1 (mp_dual_sums) and the k sums above.  The gap is x / (2 (1 +
    sqrt(1 - x))) with x = E / sigma_2, and above c = 1 E = sigma_2 - sigma_1 is summed
    termwise: the difference of the sums would cancel to ~1e-8 at b = 2.5."""
    with mpmath.workdps(60):
        c = 2 * mpmath.pi * mpmath.mpf(b) ** 2
        s2, s4 = (mp_dual_sums if c < 1 else mp_direct_sums)(c)
        e = s4 - s2 if c < 1 else mpmath.fsum(k * k * (k * k - 1) * mpmath.exp(-c * (k * k - 1)) for k in range(2, 40))
        x = e / s4
        return mpmath.sqrt(s2 / s4) / 2, mpmath.log(x / (2 * (1 + mpmath.sqrt(1 - x))))


def test_delta_at_zero_h1_matches_oracle(h1):
    report = delta_at_zero(h1)
    truth = float(mp_scan_truth(1.0)[0])
    assert report.parity is Parity.ODD
    assert report.ghat0_sq <= 1e-20
    assert report.strict
    assert abs(report.delta0 - truth) <= 1e-12 * truth
    assert report.delta0_high < 0.5
    assert report.num0 < report.den0


def test_delta_at_zero_gaussian_not_strict(gauss):
    report = delta_at_zero(gauss)
    assert report.parity is Parity.EVEN
    assert not report.strict
    assert report.delta0 > 0.5
    # at omega = 0 the Gaussian numerator is dominated by |ghat(0)|^2 = 1
    assert report.num0 > report.den0


def test_delta_at_zero_takes_ghat0_from_the_sums():
    # hermite:1 stops inside the one-omega engine's first batch (|k| <= 9),
    # which holds xi = 0: one freq_eval call on 19 points, no call for ghat(0)
    sizes = []
    h1 = hermite(1)
    spied = dataclasses.replace(h1, freq_eval=lambda xi: sizes.append(np.size(xi)) or h1.freq_eval(xi))
    assert delta_at_zero(spied) == delta_at_zero(h1)
    assert sizes == [19]


@pytest.mark.parametrize("envelope", [True, False])
def test_delta_at_zero_rejects_an_odd_label_with_visible_ghat0(envelope):
    # ghat(0) of an enveloped window comes from the sums' k = 0 term, without
    # an envelope from a call of its own; the message names it either way
    w = dataclasses.replace(gaussian(), parity=Parity.ODD)
    if not envelope:
        w = dataclasses.replace(w, envelope=None, form=None)
    with pytest.raises(PreconditionError) as caught:
        delta_at_zero(w)
    assert str(caught.value) == "window 'gaussian' classifies as odd but |ghat(0)|^2 = 1.0"


def test_scan_endpoint_matches_oracle():
    row = h1_barrier_scan(1.0, 2.0, 2).rows[0]
    assert row.b == 1.0
    truth = float(mp_scan_truth(1.0)[0])
    assert abs(row.delta0 - truth) <= 1e-10 * truth
    assert row.delta0_low <= truth <= row.delta0_high


def test_scan_saturates_at_large_dilation():
    row = h1_barrier_scan(3.0, 4.0, 2).rows[0]
    assert row.strict
    assert abs(row.delta0 - 0.5) <= 1e-10
    assert row.delta0_high <= 0.5


# at b = 6.2866 (c = 248.3) E's first term 12 exp(-3c) is subnormal, where a
# float partial sum of E overstated the gap by 0.53 nats
@pytest.mark.parametrize("b", [1.0, 1.2, 6.28665912250651, 10.0])
def test_log_gap_certifies_true_gap(b):
    row = h1_barrier_scan(b, 2.0 * b, 2).rows[0]
    # cancellation-free gap: 1/2 - delta = x / (2*(1 + sqrt(1 - x)))
    # with x = E/S4 and E = S4 - S2 summed termwise (all terms >= 0)
    with mpmath.workdps(60):
        c = 2 * mpmath.pi * mpmath.mpf(b) ** 2
        s4 = mpmath.nsum(lambda k: k**4 * mpmath.exp(-c * k**2), [1, mpmath.inf])
        e = mpmath.nsum(
            lambda k: k**2 * (k**2 - 1) * mpmath.exp(-c * k**2), [2, mpmath.inf]
        )
        x = e / s4
        log_true_gap = float(mpmath.log(x / (2 * (1 + mpmath.sqrt(1 - x)))))
    assert row.log_gap_lb <= log_true_gap
    # the bound is a genuine gap estimate, not vacuous
    assert row.log_gap_lb > log_true_gap - 5.0


def test_scan_rows_are_ordered_and_strict():
    scan = h1_barrier_scan(0.1, 10.0, 25)
    assert len(scan.rows) == 25
    assert scan.all_strict
    assert scan.max_delta0_high <= 0.5
    for row in scan.rows:
        assert row.delta0_low <= row.delta0 <= row.delta0_high
        assert math.isfinite(row.log_gap_lb)
        assert row.log_gap_lb < 0.0


def test_scan_csv_round_trip(tmp_path):
    scan = h1_barrier_scan(0.5, 2.0, 5)
    path = tmp_path / "scan.csv"
    scan.write_csv(path)
    assert path.read_bytes().decode() == scan.csv_text()
    lines = scan.csv_text().strip().splitlines()
    assert lines[0] == "b,delta0_low,delta0,delta0_high"
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == scan.rows[0].b
    assert first[2] == scan.rows[0].delta0


def test_scan_validates_input():
    with pytest.raises(PreconditionError):
        h1_barrier_scan(2.0, 1.0, 5)
    with pytest.raises(PreconditionError):
        h1_barrier_scan(0.0, 1.0, 5)
    with pytest.raises(PreconditionError):
        h1_barrier_scan(1.0, 2.0, 1)


def test_odd_suite_reports_all_strict(odd_corpus):
    reports = odd_barrier_suite(odd_corpus)
    assert len(reports) == len(odd_corpus)
    for report in reports:
        assert report.parity is Parity.ODD
        assert report.strict
        assert report.delta0 < 0.5
        assert report.ghat0_sq < 1e-20


def test_odd_suite_rejects_even_window(odd_corpus, gauss):
    with pytest.raises(PreconditionError, match="gaussian"):
        odd_barrier_suite(list(odd_corpus) + [gauss])


def termwise_gap(w, k_max=12):
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


def test_termwise_gap_h1_closed_form(h1):
    # the k = 2 pair dominates: (2^2 - 1) * |ghat(2)|^2 = 12 * exp(-8*pi)
    gap = termwise_gap(h1)
    truth = 12.0 * math.exp(-8.0 * math.pi)
    assert abs(gap - truth) <= 1e-12 * truth
    assert gap > 0.0


def test_termwise_gap_validates(h1):
    with pytest.raises(PreconditionError):
        termwise_gap(h1, k_max=1)


# --- the (b x k) sweep against the row-by-row loop ------------------------------

U = 2.0**-53
PI2 = math.pi * math.pi
MAX_DOUBLE = float(np.finfo(float).max)
TINY = 5e-324
LOG12 = math.log(12.0)


def gamma(m):
    return m * U / (1.0 - m * U)


def _dual_logs(rate, n):
    """log G_q, q = 1, 2, of the n-tail from n + 1, through the scan's array path."""
    return [float(side[0]) for side in one_sided_gauss_tail_log(np.array([rate]), (1, 2), np.array([n + 1.0]))]


def _dual_tails(g1, g2, rate, n):
    """Bounds on 2 sum_{m>n} exp(-x_m) (1/2 + x_m) and 2 sum_{m>n} exp(-x_m) (3/4 + 3 x_m + x_m^2),
    x_m = rate m^2, from G_q >= sum_{m>n} m^(2q) exp(-rate m^2) and m^2 >= (n + 1)^2."""
    a2 = (n + 1.0) * (n + 1.0)
    return 2.0 * g1 * (0.5 / a2 + rate), 2.0 * g2 * ((0.75 / a2 + 3.0 * rate) / a2 + rate * rate)


def _dual_stops(rate, n, logs, tol):
    """The dual stopping rule: both n-tails pass the criterion's rule against the means 1/2 and 3/4."""
    tail2, tail4 = _dual_tails(*np.exp(logs).tolist(), rate, n)
    return tail2 <= tol * 0.5 and tail4 <= tol * 0.75


def _loop_dual(c, rate, n_cut, logs, tol):
    """Reference dual side in Python floats: the sums of (1/2 - x) and
    (3/4 - 3x + x^2) times exp(-x), x = (pi^2/c) n^2, over |n| <= n_cut, and
    their rounding bound, then sigma_p -+ width_p; None where the rounding
    fails the rule."""
    d = PI2 / c
    t2, t4, bar2, bar4, err2, err4 = 0.5, 0.75, 0.5, 0.75, 0.0, 0.0
    for m in range(1, n_cut + 1):
        x = d * float(m * m)
        e2 = 2.0 * math.exp(-x)
        q2, q4 = 0.5 + x, (x + 3.0) * x + 0.75
        t2 += e2 * (0.5 - x)
        t4 += e2 * ((x - 3.0) * x + 0.75)
        bar2 += e2 * q2
        bar4 += e2 * q4
        err2 += gamma(math.ceil(9.0 * x) + 12.0) * (e2 * q2) + 4.0 * 2.0**-1074 * q2
        err4 += gamma(math.ceil(9.0 * x) + 22.0) * (e2 * q4) + 4.0 * 2.0**-1074 * q4
    units = math.ceil(4.0 * c)
    grow2 = (1.0 + gamma(units + 13.0)) * (1.0 + 2.0**-29)
    grow4 = (1.0 + gamma(units + 17.0)) * (1.0 + 2.0**-29)
    r2 = grow2 * (gamma(float(n_cut)) * bar2 + err2 + gamma(units + 16.0) * abs(t2))
    r4 = grow4 * (gamma(float(n_cut)) * bar4 + err4 + gamma(units + 20.0) * abs(t4))
    if not (r2 <= tol * 0.5 and r4 <= tol * 0.75):
        return None
    tail2, tail4 = _dual_tails(math.exp(logs[0]) + TINY, math.exp(logs[1]) + TINY, rate, n_cut)
    scale2 = 0.5 * math.exp(c) * math.sqrt(math.pi / c) / c
    scale4 = scale2 / c
    return scale2 * t2, scale4 * t4, scale2 * (grow2 * tail2 + r2), scale4 * (grow4 * tail4 + r4)


def _loop_scaled_sums(c, tol, k_max=10_000):
    """Reference: the row-by-row loop the sweep replaced, one c at a time, at
    truncation tolerance tol, raising if the sums are still open past k_max.

    Column j = 1, 2, ... pairs the dual's n = j - 1 with k = j (from j = 2):
    the row takes the first side whose tails pass, the dual on a tie, unless
    the dual's rounding fails, and then goes on with k alone.  Returns
    (side, terms, sigma2, sigma4, down2, down4, up2, up4): the true sums lie
    in [sigma_p - down_p, sigma_p + up_p].

    Its tails take the scan's path, one_sided_gauss_tail_log on arrays,
    evaluated for 256 k-tail starts at a time: elementwise arithmetic, so
    the same bits as one call per k.
    """
    if not 0.0 < c < math.inf:
        one_sided_gauss_tail_log(c, (1, 2), 3.0)  # raises: no side sums c = 0 or inf
    rate = min(PI2 / c * (1.0 - 16.0 * U), MAX_DOUBLE)
    dual_open = True
    sigma2 = sigma4 = 1.0
    err2 = err4 = 0.0
    tails = {}
    k = 1
    while True:
        if k > 1:
            x = c * (k * k - 1)
            w = math.exp(-x)
            k2 = float(k * k)
            sigma2 += k2 * w
            sigma4 += k2 * k2 * w
            units = math.ceil(5.0 * min(x, 746.0))
            err2 += gamma(units + 4.0) * (k2 * w) + 2.0 * TINY * k2
            err4 += gamma(units + 5.0) * (k2 * k2 * w) + 2.0 * TINY * (k2 * k2)
            if k not in tails:
                ks = range(k, k + 256)
                block = one_sided_gauss_tail_log(np.full(len(ks), c), (1, 2), np.array(ks) + 1.0)
                tails.update(zip(ks, zip(*(side.tolist() for side in block))))
            log_t2, log_t4 = (c + side for side in tails[k])
            if math.isnan(log_t2) or math.isnan(log_t4):
                # a NaN marks where a float call raises: the row cannot settle
                raise PreconditionError("scan sums did not settle; c is too small")
        if dual_open:
            logs = _dual_logs(rate, k - 1)
            if _dual_stops(rate, k - 1, logs, tol):
                dual = _loop_dual(c, rate, k - 1, logs, tol)
                if dual is not None:
                    sigma2, sigma4, width2, width4 = dual
                    return "dual", k - 1, sigma2, sigma4, width2, width4, width2, width4
                dual_open = False
        if k > 1:
            if math.exp(log_t4) <= tol * sigma4 and math.exp(log_t2) <= tol * sigma2:
                break
            if k > k_max:
                raise PreconditionError("scan sums did not settle; c is too small")
        k += 1
    # rounding: gamma_(K+2) of the sum plus each term's; the tail's logs
    # padded for c's 3 units and for their adds
    down2, down4 = gamma(k + 2.0) * sigma2 + err2, gamma(k + 2.0) * sigma4 + err4
    pad = gamma(4.0) * c * ((k + 1.0) ** 2 + 1.0)
    tail2, tail4 = (float(_from_log(np.array([max(lt * (1.0 - 4.0 * U), lt * (1.0 + 4.0 * U)) + pad]))[0])
                    for lt in (log_t2, log_t4))
    return "k", k, sigma2, sigma4, down2, down4, down2 + tail2, down4 + tail4


def _loop_row(b, c, tol, k_max):
    """One BarrierScanRow from _loop_scaled_sums, or the error its row raises."""
    side, terms, sigma2, sigma4, down2, down4, up2, up4 = _loop_scaled_sums(c, tol, k_max)
    if side == "dual" and not (math.isfinite(sigma2 + up2) and math.isfinite(4.0 * (sigma4 + up4))):
        raise NumericalError(f"dual scan sums at b = {b!r} leave the double range")
    delta0, low, high = _enclose(sigma2, sigma2 - down2, sigma2 + up2, sigma4, sigma4 - down4, sigma4 + up4)
    high = min(high, 0.5)
    # E = S_2' - S_1' from the ends of the sums, or from its first term 12 exp(-3c)
    ratio = ((sigma4 - down4) - (sigma2 + up2)) / (4.0 * (sigma4 + up4)) * (1.0 - 4.0 * U)
    from_ends = math.log(ratio) - 4.0 * U * abs(math.log(ratio)) if ratio > 0.0 else -math.inf
    log_s4 = math.log(4.0 * (sigma4 + up4))
    from_first = LOG12 - 3.0 * c - log_s4 - (1e-13 + 1e-12 * c + 4.0 * U * abs(log_s4))
    log_gap_lb = max(from_ends, from_first)
    return BarrierScanRow(b, low, delta0, high, log_gap_lb > -math.inf, log_gap_lb, side, terms)


def loop_scan(b_min, b_max, steps, tol=1e-12, k_max=10_000):
    """Reference: h1_barrier_scan as one _loop_scaled_sums call per row."""
    if not (0.0 < b_min < b_max) or not math.isfinite(b_max):
        raise PreconditionError(f"need 0 < b_min < b_max, got {b_min!r}, {b_max!r}")
    if not isinstance(steps, int) or steps < 2:
        raise PreconditionError(f"steps must be an integer >= 2, got {steps!r}")
    rows = []
    for b in np.geomspace(b_min, b_max, steps):
        b = float(b)
        c = 2.0 * math.pi * b * b
        row = _loop_row(b, c, tol, k_max)
        if not row.strict:
            raise PreconditionError(f"tail bound swamped the strictness margin at b = {b!r}")
        rows.append(row)
    return BarrierScan(rows=tuple(rows))


# The seven barrier-scan shapes of the benchmark's barrier-pointwise workload.
BENCH_SCANS = [
    (0.01, 20.0, 1672),
    (0.01, 30.0, 1761),
    (0.01, 40.0, 1825),
    (0.01, 50.0, 1874),
    (0.01, 60.0, 1914),
    (0.01, 80.0, 1977),
    (0.01, 100.0, 2026),
]


SCAN_SHAPES = [(1e-3, 100.0, 250), (0.01, 100.0, 2026), (1e-3, 2e-3, 7), (0.3, 3.0, 50), (40.0, 100.0, 2)]


# The scan runs at the fixed tolerance criterion.TAIL_TOL = 1e-12; the cases
# below patch that constant, since the sweep must stop where the loop stops
# whatever its value.


@pytest.mark.parametrize(
    "b_min, b_max, steps, tol",
    [(*shape, tol) for shape in SCAN_SHAPES for tol in (1e-2, 1e-8, 1e-12, 1e-14, 1e-16)],
)
def test_scan_rows_bit_identical_to_loop(monkeypatch, b_min, b_max, steps, tol):
    # dataclass == compares every float with ==, so this is bitwise up to
    # the sign of zero, which no row field can carry
    monkeypatch.setattr(criterion, "TAIL_TOL", tol)
    assert h1_barrier_scan(b_min, b_max, steps) == loop_scan(b_min, b_max, steps, tol)


def test_scan_stops_where_loop_stops_at_subnormal_threshold(monkeypatch):
    # at tolerance 5e-324 the loop's test exp(log_tail) <= tol * sigma
    # rounds in the subnormal range: for this b it stops at k = 4 with
    # log_tail4 0.4 above log(tol * sigma4), where a log-scale filter
    # alone would go on to k = 5.  The rows cannot show that (every later
    # term underflows), the stopping k and the sums' ends can.
    # The rule sends this row to the k side (its dual would need N ~ 48).
    b = 2.2308654327163584
    c = 2.0 * math.pi * b * b
    monkeypatch.setattr(criterion, "TAIL_TOL", 5e-324)
    sums = barrier._scaled_sums(np.array([b]), np.array([c]))
    got = ("dual" if sums["dual"][0] else "k", int(sums["terms"][0]))
    got += tuple(sums[name][:, 0].tolist() for name in ("sigma", "down", "up"))
    side, terms, sigma2, sigma4, down2, down4, up2, up4 = _loop_scaled_sums(c, 5e-324)
    assert got == (side, terms, [sigma2, sigma4], [down2, down4], [up2, up4]) == ("k", 4, *got[2:])


@pytest.mark.parametrize("b_min, b_max, steps", BENCH_SCANS)
def test_scan_cli_csv_identical_to_loop(capsys, b_min, b_max, steps):
    argv = ["barrier-scan", "--b-min", repr(b_min), "--b-max", repr(b_max), "--steps", str(steps)]
    assert main(argv) == 0
    assert capsys.readouterr().out == loop_scan(b_min, b_max, steps).csv_text()


@pytest.mark.parametrize(
    "b_min, b_max, error, match",
    [
        # row 0 sums on the dual side; the last row's c overflows to inf
        (1e-4, 1e160, DivergentSeriesError, "decay rate"),
        (1e-170, 1.0, DivergentSeriesError, "decay rate"),  # row 0's c underflows to 0
        # row 0's dual sums pass the largest double (its c is 6.3e-124)
        (1e-62, 1.0, NumericalError, "b = 1e-62 leave the double range"),
        # the last row's c overflows to inf after the earlier rows settle
        (1.0, 1e160, DivergentSeriesError, "decay rate"),
        (0.5, 1e200, DivergentSeriesError, "decay rate"),
        # the last row's c is finite but c * (k^2 - 1) and 3c overflow to inf,
        # with no numpy overflow warning, so its strictness margin is -inf
        (1.0, 5e153, PreconditionError, "swamped"),
    ],
)
def test_scan_failing_rows_raise_like_loop(b_min, b_max, error, match):
    with pytest.raises(error, match=match) as loop_err:
        loop_scan(b_min, b_max, 3)
    with pytest.raises(error, match=match) as sweep_err:
        h1_barrier_scan(b_min, b_max, 3)
    assert type(sweep_err.value) is type(loop_err.value)
    assert str(sweep_err.value) == str(loop_err.value)


# At tolerance 1e-16 the dual's rounding fails the rule, so both rows stay on
# the k side: row 0, b = 0.056, settles at k = 46, row 1 (b = 0.112) at k = 23.
# A row still summing past k = _K_MAX + 1 raises, as in the loop, so one that
# stops at k = _K_MAX + 1 still settles.
@pytest.mark.parametrize("k_max, settles", [(45, True), (44, False), (30, False), (2, False)])
def test_scan_stops_at_k_max_inside_a_block(monkeypatch, k_max, settles):
    monkeypatch.setattr(barrier, "_K_MAX", k_max)
    monkeypatch.setattr(criterion, "TAIL_TOL", 1e-16)
    if settles:
        scan = h1_barrier_scan(0.056, 0.112, 2)
        assert [(row.side, row.terms) for row in scan.rows] == [("k", 46), ("k", 23)]
        assert scan == loop_scan(0.056, 0.112, 2, tol=1e-16, k_max=k_max)
        return
    with pytest.raises(PreconditionError, match="did not settle") as loop_err:
        loop_scan(0.056, 0.112, 2, tol=1e-16, k_max=k_max)
    with pytest.raises(PreconditionError, match="did not settle") as sweep_err:
        h1_barrier_scan(0.056, 0.112, 2)
    assert type(sweep_err.value) is type(loop_err.value)
    assert str(sweep_err.value) == str(loop_err.value)


def test_scan_raises_at_a_nan_k_tail(monkeypatch):
    # at tolerance 1e-16 the dual's rounding fails, so row 0 (b = 1e-9, c =
    # 6.3e-18) goes on with k, where the ratio exp(-6c) rounds to 1: its k
    # tail from 3 is NaN, and the row raises in column 2 as the loop does,
    # not after 10,000 futile columns
    monkeypatch.setattr(criterion, "TAIL_TOL", 1e-16)
    with pytest.raises(PreconditionError, match="did not settle") as loop_err:
        loop_scan(1e-9, 1.0, 5, tol=1e-16)
    starts = []
    tail = barrier.one_sided_gauss_tail_log

    def spy(c, p, a):
        starts.append(a)
        return tail(c, p, a)

    monkeypatch.setattr(barrier, "one_sided_gauss_tail_log", spy)
    with pytest.raises(PreconditionError, match="did not settle") as sweep_err:
        h1_barrier_scan(1e-9, 1.0, 5)
    assert str(sweep_err.value) == str(loop_err.value)
    assert starts == [1.0, 3.0]


def test_scan_calls_tail_once_per_column(monkeypatch):
    # at tolerance 1e-16 the dual's rounding fails the rule, so every row of
    # this scan sums on the k side, out to K = 259 at b = 0.01
    monkeypatch.setattr(criterion, "TAIL_TOL", 1e-16)
    steps = 2026
    expected = h1_barrier_scan(0.01, 100.0, steps)
    assert set(expected.columns["side"].tolist()) == {"k"}
    calls = []
    tail = barrier.one_sided_gauss_tail_log

    def spy(c, p, a):
        assert p == (1, 2)
        calls.append(list(zip(*(x.ravel().tolist() for x in np.broadcast_arrays(c, a)))))
        return tail(c, p, a)

    monkeypatch.setattr(barrier, "one_sided_gauss_tail_log", spy)
    assert h1_barrier_scan(0.01, 100.0, steps) == expected
    # k tails are at the rows' c from k + 1 in column j = k, the dual's at the
    # rates pi^2/c from n + 1 = j; the k call comes first in its column
    bs = np.geomspace(0.01, 100.0, steps)
    cs = set((2.0 * math.pi * bs * bs).tolist())
    columns = []
    for call in calls:
        (start,) = {a for _, a in call}
        if all(c in cs for c, _ in call):
            columns.append((int(start) - 1, "k"))
        else:
            assert not any(c in cs for c, _ in call)
            columns.append((int(start), "dual"))
    assert columns == sorted(columns, key=lambda col: (col[0], col[1] == "dual"))
    per_column = collections.Counter(columns)
    k_max = int(expected.columns["terms"].max())
    assert [per_column[(j, "k")] for j in range(1, k_max + 1)] == [0] + [1] * (k_max - 1)
    assert max(per_column[(j, "dual")] for j in range(1, k_max + 1)) == 1
    # every active row takes one k pair per column, none twice: the
    # row-by-row loop's count, one per k >= 2 per row
    counts = collections.Counter(pair for call in calls for pair in call if pair[0] in cs)
    assert set(counts.values()) == {1}
    assert len(counts) == int((expected.columns["terms"] - 1).sum())


def test_scan_cli_builds_no_row_objects(monkeypatch, capsys):
    steps = 2026
    expected = h1_barrier_scan(0.01, 100.0, steps).csv_text()
    made = []

    def spy(*args):
        made.append(args)
        return BarrierScanRow(*args)

    monkeypatch.setattr(barrier, "BarrierScanRow", spy)
    argv = ["barrier-scan", "--b-min", "0.01", "--b-max", "100.0", "--steps", str(steps)]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert made == []
    # the rows are still there on request, built from the columns
    assert len(h1_barrier_scan(0.01, 100.0, steps).rows) == len(made) == steps


def _scan_outcome(scan, *args):
    """A scan with its CSV text, or the type and message of the error it raised."""
    try:
        result = scan(*args)
    except (PreconditionError, NumericalError) as exc:
        return type(exc), str(exc)
    return result, result.csv_text()


@given(
    b_exp=st.integers(min_value=0, max_value=1000),
    log_ratio=st.floats(min_value=0.0, max_value=6.0),
    steps=st.integers(min_value=2, max_value=20),
    tol=st.sampled_from([1e-2, 1e-8, 1e-12, 1e-14, 5e-324]),
)
# c = 7.55e-18: math.exp(-6c) rounds to 1, where numpy's exp may not; scan and
# loop share the array tails, and a row that cannot settle raises one error
@example(b_exp=4, log_ratio=1.0, steps=2, tol=5e-324)
def test_scan_screen_matches_loop(b_exp, log_ratio, steps, tol):
    # every row must take the loop's side and stop where the loop stops, at
    # any tolerance.  b_min spans the dual rows (c below about 2.4 at the
    # default tolerance), the crossover and the k rows
    b_min = 1e-9 * 10.0 ** (b_exp / 100)  # log-uniform over [1e-9, 10]
    b_max = b_min * 10.0**log_ratio
    assume(b_min < b_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criterion, "TAIL_TOL", tol)
        sweep = _scan_outcome(h1_barrier_scan, b_min, b_max, steps)
        assert sweep == _scan_outcome(loop_scan, b_min, b_max, steps, tol)


def test_scan_takes_numpy_integer_steps():
    expected = h1_barrier_scan(0.1, 1.0, 5)
    for steps in (np.int64(5), np.int32(5), np.uint8(5)):
        assert h1_barrier_scan(0.1, 1.0, steps) == expected
    for steps in (True, np.True_, 5.0, np.float64(5.0)):
        with pytest.raises(PreconditionError, match="steps must be an integer"):
            h1_barrier_scan(0.1, 1.0, steps)


def test_scan_memory_is_linear_in_rows():
    steps = 2026
    h1_barrier_scan(0.01, 100.0, steps)  # warm caches and imports
    tracemalloc.start()
    try:
        h1_barrier_scan(0.01, 100.0, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result's six columns take 48 bytes a row (its row objects, made
    # only on request, a few hundred bytes each); one dense
    # (rows x K) float array at this scan's K ~ 185 takes 1,480 bytes per row
    assert peak < 1_000 * steps


def test_narrow_odd_dilate_keeps_its_parity(h1):
    # at b = 0.001 every parity probe of the dilate underflows to 0, but
    # dilate keeps hermite:1's exact ODD, which the barrier reads
    w = dilate(h1, 0.001)
    report = delta_at_zero(w)
    assert report.parity is Parity.ODD
    assert report.strict
    assert report.ghat0_sq == 0.0
    assert report.delta0 == pytest.approx(0.0010233267079464885, rel=1e-12)
    assert odd_barrier_suite([w]) == (report,)


# --- the dual side against mpmath ---------------------------------------------


@pytest.mark.parametrize("c", [0.001, 0.5, 3.0])
def test_dual_formulas_match_mpmath(c):
    with mpmath.workdps(50):
        direct = mp_direct_sums(mpmath.mpf(c))
        dual = mp_dual_sums(mpmath.mpf(c))
        for a, b in zip(direct, dual):
            assert abs(a - b) <= mpmath.mpf(10) ** -45 * a
    # the float dual side through N = 4 encloses both sums at this c
    rate = math.pi * math.pi / c * (1.0 - 16.0 * U)
    logs = np.array(one_sided_gauss_tail_log(np.array([rate]), (1, 2), np.array([5.0])))
    sigma2, sigma4, width2, width4, settled = barrier._dual_sums(np.array([c]), np.array([rate]), 4, logs)
    assert settled[0]
    for value, width, truth in ((sigma2[0], width2[0], direct[0]), (sigma4[0], width4[0], direct[1])):
        assert value - width <= truth <= value + width
        assert width <= 1e-13 * value


def _rows_against_mpmath(rows, side):
    for row in rows:
        assert row.side == side
        delta0, log_gap = mp_scan_truth(row.b)
        assert row.delta0_low <= delta0 <= row.delta0_high, row
        assert log_gap - 5.0 < row.log_gap_lb <= log_gap, row


def _scan_side(scan, side):
    return [row for row in scan.rows if row.side == side]


def _sample_side(scan, side, size):
    """A seeded sample of size rows of scan on side, and the count of rows there."""
    at = np.flatnonzero(scan.columns["side"] == side)
    pick = np.random.default_rng(2026).choice(at, size, replace=False)
    return [scan.rows[i] for i in sorted(pick)], at.size


def test_dual_rows_enclose_mpmath_near_the_crossover():
    rows = _scan_side(h1_barrier_scan(0.3, 3.0, 200), "dual")
    assert len(rows) == 64
    _rows_against_mpmath(rows, "dual")


def test_k_rows_enclose_mpmath_near_the_crossover():
    rows = _scan_side(h1_barrier_scan(0.3, 3.0, 200), "k")
    assert len(rows) == 136
    _rows_against_mpmath(rows, "k")


def test_dual_rows_enclose_mpmath_down_to_b_1e_4():
    rows, count = _sample_side(h1_barrier_scan(1e-4, 100.0, 2026), "dual", 40)
    assert count == 1282
    _rows_against_mpmath(rows, "dual")


def test_k_rows_enclose_mpmath_down_to_b_1e_4():
    rows, count = _sample_side(h1_barrier_scan(1e-4, 100.0, 2026), "k", 40)
    assert count == 744
    _rows_against_mpmath(rows, "k")


def _k_sums_missing_mpmath(bs):
    """The (b, p) whose k-side [sigma_p - down_p, sigma_p + up_p] misses the
    60-digit sigma_p at the exact c = 2 pi b^2, compared at 60 digits (at
    the default precision the ends themselves would round)."""
    s = barrier._scaled_sums(bs, 2.0 * math.pi * bs * bs)
    misses = []
    with mpmath.workdps(60):
        for i in np.flatnonzero(~s["dual"]):
            truth = mp_direct_sums(2 * mpmath.pi * mpmath.mpf(bs[i]) ** 2)
            for p, exact in enumerate(truth):
                sigma, down, up = (mpmath.mpf(s[name][p, i]) for name in ("sigma", "down", "up"))
                if not sigma - down <= exact <= sigma + up:
                    misses.append((float(bs[i]), p + 1))
    return misses


def test_k_sums_enclose_mpmath_near_the_crossover(monkeypatch):
    bs = np.geomspace(0.3, 3.0, 200)
    assert _k_sums_missing_mpmath(bs) == []
    # the rounding term is what encloses them: without it most rows miss
    monkeypatch.setattr(barrier, "_gamma", lambda m: 0.0 * m)
    assert len(_k_sums_missing_mpmath(bs)) > 100


@pytest.mark.parametrize("b_min", [1e-4, 1e-9])
def test_scan_reaches_small_dilations(capsys, b_min):
    # the k side could not sum the small rows: b = 1e-4 needs k ~ 25,000, and
    # at b = 1e-9 its tail ratio rounds to 1
    argv = ["barrier-scan", "--b-min", repr(b_min), "--b-max", "1", "--steps", "5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "b,delta0_low,delta0,delta0_high" and len(lines) == 6
    sides = h1_barrier_scan(b_min, 1.0, 5).columns["side"].tolist()
    assert sides == ["dual"] * 4 + ["k"]
    for line in lines[1:]:
        b, low, value, high = map(float, line.split(","))
        truth = mp_scan_truth(b)[0]
        assert low <= value <= high <= 0.5
        assert low <= truth <= high


def test_scan_past_the_double_range_names_b(capsys):
    assert main(["barrier-scan", "--b-min", "1e-62", "--b-max", "1", "--steps", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "b = 1e-62 leave the double range" in captured.err


def test_scan_records_side_and_terms():
    scan = h1_barrier_scan(0.01, 100.0, 2026)
    side, terms = scan.columns["side"], scan.columns["terms"]
    # every dual row (c below about 2.4) comes before every k row, and both
    # sides stop within three terms, where the k side alone needed up to K = 228
    dual = side == "dual"
    assert dual.sum() == 911 and not dual[911:].any()
    assert terms[dual].max() == 2 and terms[~dual].max() == 3
    assert [(row.side, row.terms) for row in scan.rows[909:913]] == [("dual", 2), ("dual", 2), ("k", 3), ("k", 3)]
    assert scan.csv_text().splitlines()[0] == "b,delta0_low,delta0,delta0_high"
    # from b = 1e-60 to 1e150 every row stops by the third column: a dual row
    # N in column N + 1, a k row K in column K
    for b_min, b_max, steps, sides in [
        (1e-60, 0.1, 5000, {"dual"}),
        (0.01, 100.0, 20000, {"dual", "k"}),
        (1.0, 1e150, 5000, {"k"}),
    ]:
        columns = h1_barrier_scan(b_min, b_max, steps).columns
        assert set(columns["side"].tolist()) == sides
        assert np.where(columns["side"] == "dual", columns["terms"] + 1, columns["terms"]).max() <= 3
