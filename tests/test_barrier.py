"""Odd-window obstruction at omega = 0 and the closed-form dilation scan."""

import collections
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
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
    odd_barrier_suite,
)
from gaborcert.barrier import BarrierScan, BarrierScanRow
from gaborcert.cli import main
from gaborcert.criterion import one_sided_gauss_tail_log
from gaborcert.errors import DivergentSeriesError


def mp_delta0(b):
    """delta at omega = 0 for the b-dilate of the first Hermite window."""
    with mpmath.workdps(60):
        c = 2 * mpmath.pi * mpmath.mpf(b) ** 2
        s2 = mpmath.nsum(lambda k: k**2 * mpmath.exp(-c * k**2), [1, mpmath.inf])
        s4 = mpmath.nsum(lambda k: k**4 * mpmath.exp(-c * k**2), [1, mpmath.inf])
        return mpmath.mpf("0.5") * mpmath.sqrt(s2 / s4)


def test_delta_at_zero_h1_matches_oracle(h1):
    report = delta_at_zero(h1)
    truth = float(mp_delta0(1))
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


def test_scan_endpoint_matches_oracle():
    row = h1_barrier_scan(1.0, 2.0, 2).rows[0]
    assert row.b == 1.0
    truth = float(mp_delta0(1))
    assert abs(row.delta0 - truth) <= 1e-10 * truth
    assert row.delta0_low <= truth <= row.delta0_high


def test_scan_saturates_at_large_dilation():
    row = h1_barrier_scan(3.0, 4.0, 2).rows[0]
    assert row.strict
    assert abs(row.delta0 - 0.5) <= 1e-10
    assert row.delta0_high <= 0.5


@pytest.mark.parametrize("b", [1.0, 1.2, 10.0])
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


def _loop_scaled_sums(c, tol, k_max=10_000):
    """Reference: the row-by-row loop the sweep replaced, one c at a time, at
    truncation tolerance tol, raising if the sums are still open past k_max.

    Its tails take the scan's path, one_sided_gauss_tail_log on arrays,
    evaluated for 256 tail starts at a time: elementwise arithmetic, so the
    same bits as one call per k.
    """
    sigma2 = 1.0
    sigma4 = 1.0
    e_partial = 0.0
    tails = {}
    k = 2
    while True:
        w = math.exp(-c * (k * k - 1))
        k2 = float(k * k)
        sigma2 += k2 * w
        sigma4 += k2 * k2 * w
        e_partial += k2 * (k2 - 1.0) * w
        if k not in tails:
            ks = range(k, k + 256)
            block = one_sided_gauss_tail_log(np.full(len(ks), c), (1, 2), np.array(ks) + 1.0)
            tails.update(zip(ks, zip(*(side.tolist() for side in block))))
        log_t2, log_t4 = (c + side for side in tails[k])
        if math.isnan(log_t2) or math.isnan(log_t4):
            one_sided_gauss_tail_log(c, (1, 2), float(k + 1))  # a NaN marks where the float call raises
        if math.exp(log_t4) <= tol * sigma4 and math.exp(log_t2) <= tol * sigma2:
            break
        if k > k_max:
            raise PreconditionError("scan sums did not settle; c is too small")
        k += 1
    pad = 1e-13 + 1e-12 * c
    if e_partial > 0.0:
        log_e_lb = math.log(e_partial) - pad
    else:
        log_e_lb = math.log(12.0) - 3.0 * c - pad
    return sigma2, sigma4, log_t2, log_t4, log_e_lb


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
        sigma2, sigma4, log_t2, log_t4, log_e_lb = _loop_scaled_sums(c, tol, k_max)
        t2 = math.exp(log_t2)
        t4 = math.exp(log_t4)
        strict = log_t2 < log_e_lb
        if not strict:
            raise PreconditionError(f"tail bound swamped the strictness margin at b = {b!r}")
        rows.append(
            BarrierScanRow(
                b=b,
                delta0_low=0.5 * math.sqrt(sigma2 / (sigma4 + t4)),
                delta0=0.5 * math.sqrt(sigma2 / sigma4),
                delta0_high=min(0.5 * math.sqrt((sigma2 + t2) / sigma4), 0.5),
                strict=strict,
                log_gap_lb=log_e_lb - math.log(4.0 * (sigma4 + t4)),
            )
        )
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
    [(*shape, tol) for shape in SCAN_SHAPES for tol in (1e-2, 1e-8, 1e-12, 1e-14)],
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
    # term underflows), the log tails at the stopping k can.
    b = 2.2308654327163584
    c = 2.0 * math.pi * b * b
    monkeypatch.setattr(criterion, "TAIL_TOL", 5e-324)
    sigma2, sigma4, _, log_t2, log_t4 = (float(col[0]) for col in barrier._scaled_sums(np.array([c])))
    assert (sigma2, sigma4, log_t2, log_t4) == _loop_scaled_sums(c, 5e-324)[:4]


@pytest.mark.parametrize("b_min, b_max, steps", BENCH_SCANS)
def test_scan_cli_csv_identical_to_loop(capsys, b_min, b_max, steps):
    argv = ["barrier-scan", "--b-min", repr(b_min), "--b-max", repr(b_max), "--steps", str(steps)]
    assert main(argv) == 0
    assert capsys.readouterr().out == loop_scan(b_min, b_max, steps).csv_text()


@pytest.mark.parametrize(
    "b_min, b_max, error, match",
    [
        # row 0 needs k of about 25,000, past the k = 10,000 stop
        (1e-4, 1.0, PreconditionError, "did not settle"),
        # row 0 never settles before the last row's c overflows to inf
        (1e-4, 1e160, PreconditionError, "did not settle"),
        (1e-170, 1.0, DivergentSeriesError, "decay rate"),  # row 0's c underflows to 0
        (1e-9, 1.0, DivergentSeriesError, "geometric ratio"),  # row 0's tail ratio rounds to 1
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


# Row 0 of this scan, b = 0.05, settles at k = 46, row 1 (b = 0.1) at k = 23.
# Two active rows give a first block of k = 2..2049 unless it is cut at
# k = _K_MAX + 1, where the loop raises for a row still summing.
@pytest.mark.parametrize("k_max, settles", [(45, True), (44, False), (30, False), (2, False)])
def test_scan_stops_at_k_max_inside_a_block(monkeypatch, k_max, settles):
    monkeypatch.setattr(barrier, "_K_MAX", k_max)
    if settles:
        assert h1_barrier_scan(0.05, 0.1, 2) == loop_scan(0.05, 0.1, 2, k_max=k_max)
        return
    with pytest.raises(PreconditionError, match="did not settle") as loop_err:
        loop_scan(0.05, 0.1, 2, k_max=k_max)
    with pytest.raises(PreconditionError, match="did not settle") as sweep_err:
        h1_barrier_scan(0.05, 0.1, 2)
    assert type(sweep_err.value) is type(loop_err.value)
    assert str(sweep_err.value) == str(loop_err.value)


def test_scan_calls_tail_once_per_block(monkeypatch):
    steps = 2026
    expected = h1_barrier_scan(0.01, 100.0, steps)
    calls = []
    tail = barrier.one_sided_gauss_tail_log

    def spy(c, p, a):
        calls.append(list(zip(*(x.ravel().tolist() for x in np.broadcast_arrays(c, a)))))
        return tail(c, p, a)

    monkeypatch.setattr(barrier, "one_sided_gauss_tail_log", spy)
    assert h1_barrier_scan(0.01, 100.0, steps) == expected
    # one float call checks row 0 from tail start 3, then one array call per
    # block evaluates every (c, k + 1) of the block's rows that pass the
    # next-term screen; no pair but that first one is seen twice.  The
    # screen takes this scan from 58,562 pairs to 16,781; one call per k
    # step made 228 calls here, and the row-by-row loop 99,134 pairs (two
    # per k per row)
    counts = collections.Counter(pair for call in calls for pair in call)
    assert len(calls[0]) == 1
    assert [pair for pair, n in counts.items() if n > 1] in ([], calls[0])
    assert counts[calls[0][0]] <= 2
    assert len(calls) <= 16
    assert sum(map(len, calls)) <= 20_000


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
    except (PreconditionError, DivergentSeriesError) as exc:
        return type(exc), str(exc)
    return result, result.csv_text()


@given(
    b_exp=st.integers(min_value=0, max_value=400),
    log_ratio=st.floats(min_value=0.0, max_value=6.0),
    steps=st.integers(min_value=2, max_value=20),
    tol=st.sampled_from([1e-2, 1e-8, 1e-12, 1e-14, 5e-324]),
    max_block=st.sampled_from([barrier._MAX_BLOCK, 64, 20, 3]),
)
def test_scan_screen_matches_loop(b_exp, log_ratio, steps, tol, max_block):
    # the next-term screen skips the tails of rows that cannot stop in a
    # block.  It is least sure at small c, where a row's terms barely fall
    # over a block, and most often tried where rows stop at a block's edge,
    # which short blocks make common: every row must still stop where the
    # loop stops
    b_min = 1e-3 * 10.0 ** (b_exp / 100)  # log-uniform over [1e-3, 10]
    b_max = b_min * 10.0**log_ratio
    assume(b_min < b_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criterion, "TAIL_TOL", tol)
        mp.setattr(barrier, "_MAX_BLOCK", max_block)
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
