"""The time side of the criterion engine: Poisson-dual sums of closed forms.

min_delta sums a closed-form window on the time side when its dual series is
shorter than its lattice sums and as tight (criterion._time_side, one
decision per profile).  These tests hold the dual coefficients to a 50-digit
power-basis evaluation, which shares no code with the engine's Hermite-basis
one, hold the dual sums and their enclosures to 50-digit lattice sums, pin
which side each (window, b) pair of the analytic-sweep benchmark takes, and
hold the decision to the rule it evaluates in a cheaper order.
"""

import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from gaborcert import (
    Lattice2D,
    Parity,
    TruncationRiskWarning,
    certify,
    chirp_window,
    delta_g,
    dilate,
    gaussian,
    hermite,
    min_delta,
    reduce_general,
    sample_grid,
    sample_window,
    sampled_window,
)
from gaborcert import criterion
from gaborcert import window as window_module
from gaborcert.errors import DivergentSeriesError, NumericalError
from gaborcert.window import ClosedForm, from_form

from test_engine import BASES, B_GRID, CLI_SPECS, COMBOS, corpus_window, mp_form_sums, reduced, slow_decay


def mp_dual_coefficient(form, p, n):
    """a_p(n) = integral xi^(2p) |ghat|^2 exp(-2 pi i n xi) d xi for the window
    of a closed form, in 50-digit mpmath: |ghat(xi)|^2 = Q(xi) exp(-beta xi^2)
    with Q = |sum_k f_k H_k(alpha xi)|^2 in the power basis, and the Gaussian
    moments J_0 = sqrt(pi/beta) exp(-pi^2 n^2/beta), J_1 = mu J_0,
    J_(j+1) = mu J_j + (j/(2 beta)) J_(j-1), mu = -i pi n/beta."""
    freq = form.transform()
    with mpmath.workdps(50):
        w = mpmath.mpc(freq.z)
        alpha = mpmath.sqrt(2 * mpmath.pi * w)
        # power coefficients of H_k(alpha xi), by H_(k+1) = 2 alpha xi H_k - 2k H_(k-1)
        hermites = [[mpmath.mpc(1)], [mpmath.mpc(0), 2 * alpha]]
        while len(hermites) < len(freq.coef):
            k = len(hermites) - 1
            nxt = [mpmath.mpc(0)] + [2 * alpha * c for c in hermites[k]]
            for i, c in enumerate(hermites[k - 1]):
                nxt[i] -= 2 * k * c
            hermites.append(nxt)
        poly = [mpmath.mpc(0)] * len(freq.coef)
        for f, h in zip(freq.coef, hermites):
            for i, c in enumerate(h):
                poly[i] += mpmath.mpc(f) * c
        q = [mpmath.re(mpmath.fsum(poly[j] * mpmath.conj(poly[m - j]) for j in range(len(poly)) if 0 <= m - j < len(poly)))
             for m in range(2 * len(poly) - 1)]
        beta = 2 * mpmath.pi * mpmath.re(w)
        mu = mpmath.mpc(0, -1) * mpmath.pi * n / beta
        moments = [mpmath.sqrt(mpmath.pi / beta) * mpmath.exp(-mpmath.pi**2 * n**2 / beta)]
        moments.append(mu * moments[0])
        while len(moments) < len(q) + 2:
            j = len(moments) - 1
            moments.append(mu * moments[j] + j / (2 * beta) * moments[j - 1])
        return mpmath.fsum(qj * moments[j + 2 * p] for j, qj in enumerate(q))


# windows the engine sums on the time side: each Hermite order at two narrow
# dilations, the combined windows of the benchmark corpus, and two complex-z
# forms (a chirped combination, a dilated reduction)
DUAL_WINDOWS = {
    **{f"hermite:{n} b={b}": (lambda n=n, b=b: dilate(hermite(n), b)) for n in range(7) for b in (0.05, 0.3)},
    **{f"{name} b=0.3": (lambda name=name: dilate(corpus_window(name), 0.3)) for name in COMBOS},
    "chirped": lambda: chirp_window(dilate(corpus_window("combo:h0+0.4h1"), 0.3), 0.6),
    "reduced": lambda: dilate(reduced("hermite:2", BASES[1]), 0.3),
}


@pytest.mark.parametrize("name", ["hermite:3 b=0.3", "combo:h0+0.4h1 b=0.3", "chirped", "reduced"])
def test_derivative_form_is_g_prime_over_2_pi(name):
    # against a central difference of g, and within its own envelope, which
    # bounds the n-tail of S_1
    form = DUAL_WINDOWS[name]().form
    deriv = form.derivative()
    t = np.linspace(-1.0, 1.0, 201)
    h = 1e-5
    numeric = (form(t + h) - form(t - h)) / (2 * h) / (2 * np.pi)
    scale = float(np.max(np.abs(numeric)))
    assert float(np.max(np.abs(deriv(t) - numeric))) <= 1e-7 * scale, name
    env = deriv.envelope()
    assert np.all(np.abs(deriv(t)) <= env.amplitude * np.exp(-env.rate * t * t)), name


@pytest.mark.parametrize("name", sorted(DUAL_WINDOWS))
def test_dual_sums_contain_50_digit_values(name):
    w = DUAL_WINDOWS[name]()
    series = criterion._time_side(w)
    assert series is not None, name
    assert (w.form.z.imag != 0.0) == (name in ("chirped", "reduced"))
    means = series.coefficients(0)[0].real
    # the coefficients against the power basis, within their rounding bounds,
    # which are a few ulps of the means, not a loose pad
    for n in range(4):
        a, bound = series.coefficients(n)
        for p in (0, 1):
            truth = mp_dual_coefficient(w.form, p, n)
            with mpmath.workdps(50):
                assert abs(mpmath.mpc(complex(a[p])) - truth) <= bound[p], (name, n, p)
            assert bound[p] <= 1e-13 * means[p], (name, n, p)
    # the sums and the delta enclosures at seeded omegas against 50-digit
    # lattice sums
    omegas = np.sort(np.random.default_rng(20261019).uniform(0.0, 1.0, 3))
    sums = series.sums(w, omegas)
    rows = criterion._sweep_rows(w, series, omegas)
    for i, om in enumerate(omegas):
        truth = mp_form_sums(w.form, om)
        for p in (0, 1):
            value, tail, rounding, _ = sums[p, :, i]
            assert value - tail - rounding <= truth[p] <= value + tail + rounding, (name, om, p)
        with mpmath.workdps(50):
            delta = float(mpmath.mpf("0.5") * mpmath.sqrt(truth[0] / truth[1]))
        assert rows[1, i] <= delta <= rows[2, i], (name, om)
        # the two-sided n-tails (each below 1e-12 of its sum) and the rounding
        assert rows[2, i] - rows[1, i] <= 1e-11 * delta


def test_dual_enclosures_need_their_rounding_term():
    # the n-tail of dilate(hermite:5, 0.05) is below 1e-130 of the sums, so
    # the enclosure is its rounding term alone
    w = dilate(hermite(5), 0.05)
    sums = criterion._time_side(w).sums(w, np.array([0.3]))
    truth = mp_form_sums(w.form, 0.3)
    for p in (0, 1):
        value, tail, rounding, n_cut = sums[p, :, 0]
        assert n_cut == 0 and tail <= 1e-130 * value
        assert value - tail - rounding <= truth[p] <= value + tail + rounding
        assert not value - tail <= truth[p] <= value + tail, p


def test_dual_enclosures_need_their_n_tail():
    # the Gaussian's time envelope is its own modulus, so its n-tail is tight:
    # at b = 0.235, S_0 stops at N = 0, and the terms n != 0 (8.9e-13 of the
    # sum, adding at omega = 0 and subtracting at 1/2) exceed the rounding
    # bound 1000 times over, so each end of the enclosure needs the tail
    w = dilate(gaussian(), 0.235)
    omegas = np.array([0.0, 0.5])
    series = criterion._time_side(w)
    sums = series.sums(w, omegas)
    rows = criterion._sweep_rows(w, series, omegas)
    for i, om in enumerate(omegas):
        value, tail, rounding, n_cut = sums[0, :, i]
        truth = mp_form_sums(w.form, om)
        assert n_cut == 0
        assert value - tail - rounding <= truth[0] <= value + tail + rounding
        assert not value - rounding <= truth[0] <= value + rounding
        with mpmath.workdps(50):
            delta = float(mpmath.mpf("0.5") * mpmath.sqrt(truth[0] / truth[1]))
        assert rows[1, i] <= delta <= rows[2, i], om


# the (window, b) pairs of the analytic-sweep benchmark
ANALYTIC_PAIRS = [(CLI_SPECS[(j + 6) % len(CLI_SPECS)], b) for j, b in enumerate(B_GRID)]
ANALYTIC_PAIRS += [(name, B_GRID[5 * k + 2]) for k, name in enumerate(sorted(COMBOS))]


def test_narrow_windows_take_the_time_side(monkeypatch):
    # every pair with b < 1 (seven dilations and a combination) sums on the
    # time side, every pair with b >= 1 through the frequency sweep, after
    # one side decision per profile; on either side no Gaussian certifies at
    # ab >= 1 (Lyubarskii; Seip and Wallsten) and no odd window at delta >= 1/2
    calls, decisions = [], []
    sweep, time_side = criterion._sweep, criterion._time_side

    def spy(w, omegas, mirror=False):
        calls.append(omegas.size)
        return sweep(w, omegas, mirror)

    def decide(w):
        decisions.append(w.label)
        return time_side(w)

    monkeypatch.setattr(criterion, "_sweep", spy)
    monkeypatch.setattr(criterion, "_time_side", decide)
    assert sum(b < 1.0 for _, b in ANALYTIC_PAIRS) == 8
    for spec, b in ANALYTIC_PAIRS:
        calls.clear()
        decisions.clear()
        w = dilate(corpus_window(spec), b)
        profile = min_delta(w)
        assert decisions == [w.label], (spec, b)
        assert profile.rigorous or profile.non_certifying
        assert (calls == []) == (b < 1.0), (spec, b, calls)
        assert (criterion._time_side(w) is None) == (b >= 1.0), (spec, b)
        # a profile with degenerate rows certifies nothing
        if spec in ("gaussian", "hermite:0"):
            assert profile.non_certifying or profile.min_value < 1.0, (spec, b)
        if w.parity is Parity.ODD:
            assert profile.non_certifying or profile.min_value < 0.5, (spec, b)


def test_cancelling_dual_series_stay_on_the_frequency_side():
    # dilate(hermite:12, 0.66): the n-tails pass at N = 5, below the cutoff
    # K = 6 of the frequency side, but the terms n = 1 and 2 cancel (sums of
    # alternating terms of degree 24 in tau), so the rounding bound through N
    # is 3.1e-9 of S_1, past the tail tolerance, where the frequency side
    # rounds by about 1e-14: the profile sums on the frequency side
    w = dilate(hermite(12), 0.66)
    series = criterion._DualSeries.of(w.form)
    terms = list(itertools.islice(series.terms(), 6))
    means = terms[0][1].real
    assert all(series.tail(p, 5) <= 1e-12 * means[p] for p in (0, 1))
    assert terms[5][2][1] > 1e-9 * means[1]
    assert criterion._time_side(w) is None
    assert np.max(criterion._sweep(w, np.linspace(0.0, 1.0, 101))[:, 3]) == 6


def reference_side(w):
    """The side rule as the first time-side engine evaluated it, term after
    term: "time", "frequency", or "beyond" where no cutoff up to 100,000
    passes or the envelope admits no tail bound (it then chose the frequency
    side, or raised)."""
    if w.form is None or w.envelope is None:
        return "frequency"
    try:
        series = criterion._DualSeries.of(w.form)
    except (NumericalError, OverflowError):
        return "frequency"
    with np.errstate(over="ignore", invalid="ignore"):
        for n, a, rounding in series.terms():
            if n == 0:
                scale = a.real
                if not np.all((scale > 0.0) & (scale < math.inf)):
                    return "frequency"
                try:
                    for k_pred in criterion._cutoffs():
                        tails = criterion.envelope_tail_log(w.envelope.amplitude, w.envelope.rate, (0, 1), k_pred + 1, 0.5)
                        if np.all(criterion._converged(criterion._from_log(tails), scale)):
                            break
                    else:
                        return "beyond"
                except DivergentSeriesError:
                    return "beyond"
            if n == k_pred or not np.all(criterion._converged(rounding, scale)):
                return "frequency"
            if np.all(criterion._converged(np.array([series.tail(0, n), series.tail(1, n)]), scale)):
                return "time"
    return "frequency"


def random_closed_forms(count, seed=20261019):
    """Seeded closed forms: orders up to 12 with sparse random coefficients,
    30% of them chirped, dilated by b log-uniform in [0.02, 3]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        order = int(rng.integers(0, 13))
        coef = rng.normal(size=order + 1) * (rng.uniform(size=order + 1) < 0.6)
        coef[order] = 1.0
        w = from_form(ClosedForm(tuple(coef), 1.0), f"random{i}")
        if rng.uniform() < 0.3:
            w = chirp_window(w, float(rng.uniform(-2.0, 2.0)))
        yield dilate(w, float(np.exp(rng.uniform(np.log(0.02), np.log(3.0)))))


# the widest windows no cutoff up to 100,000 reaches: the rule as
# reference_side evaluates it sent the Hermite ones to the frequency side,
# which raised DivergentSeriesError after 12 to 15 s, and raised from the
# side decision itself on the Gaussian
BEYOND_CAP = [("hermite:3", 1e-5), ("hermite:1", 3e-5), ("gaussian", 1e-9)]


def test_side_matches_the_reference_rule():
    windows = [dilate(corpus_window(spec), b) for spec, b in ANALYTIC_PAIRS]
    windows += [dilate(corpus_window(name), b) for name in sorted(COMBOS) for b in B_GRID]
    windows += [factory() for factory in DUAL_WINDOWS.values()]
    windows += list(random_closed_forms(300))
    sides = {"time": 0, "frequency": 0}
    for w in windows:
        side = "frequency" if criterion._time_side(w) is None else "time"
        assert reference_side(w) == side, w.label
        sides[side] += 1
    # both sides well represented
    assert min(sides.values()) >= 100, sides
    for spec, b in BEYOND_CAP:
        w = dilate(corpus_window(spec), b)
        assert reference_side(w) == "beyond"
        assert criterion._time_side(w) is not None, spec


def test_frequency_side_decisions_compute_only_the_means(monkeypatch):
    # the bounds come cheapest first: a window whose n-tails do not pass
    # below its cutoff K never computes a coefficient past n = 0
    calls = []
    coefficients = criterion._DualSeries.coefficients

    def spy(self, n):
        calls.append(n)
        return coefficients(self, n)

    monkeypatch.setattr(criterion._DualSeries, "coefficients", spy)
    for spec, b in ANALYTIC_PAIRS:
        if b >= 1.0:
            calls.clear()
            assert criterion._time_side(dilate(corpus_window(spec), b)) is None
            assert calls == [0], (spec, b, calls)


def mp_dual_sums(form, omega, terms=3):
    """S_0 and S_1 at omega from the 50-digit dual coefficients a_p(n), |n| <
    terms: for the windows of BEYOND_CAP the first omitted term is below
    exp(-10^9) of the means."""
    with mpmath.workdps(50):
        z = mpmath.expjpi(2 * mpmath.mpf(float(omega)))
        return [mpmath.re(mp_dual_coefficient(form, p, 0) + 2 * mpmath.fsum(
            mp_dual_coefficient(form, p, n) * z**n for n in range(1, terms))) for p in (0, 1)]


@pytest.mark.parametrize("spec, b", BEYOND_CAP)
def test_windows_no_cutoff_reaches_certify_on_the_time_side(spec, b):
    w = dilate(corpus_window(spec), b)
    verdict = certify(w, 0.1)
    assert verdict.rigorous and verdict.status == "Inconclusive"
    profile = min_delta(w)
    assert profile.rigorous and not profile.non_certifying
    # the time side stops at N = 0, its rounding about 1e-15 of the sums
    series = criterion._time_side(w)
    sums = series.sums(w, profile.omegas)
    assert np.all(sums[:, 3] == 0)
    assert np.all(sums[:, 2] <= 1e-14 * sums[:, 0])
    # every grid row and stencil row around the 50-digit delta_g, which the
    # terms n != 0 leave constant in omega far below double precision
    truth = mp_dual_sums(w.form, 0.5)
    with mpmath.workdps(50):
        delta = float(mpmath.mpf("0.5") * mpmath.sqrt(truth[0] / truth[1]))
    assert np.all(profile.lows <= delta) and np.all(delta <= profile.highs)
    assert profile.min_value == pytest.approx(delta, rel=1e-13)
    # the sums at seeded omegas, each against its own 50-digit value
    omegas = np.random.default_rng(20261019).uniform(0.0, 1.0, 3)
    for om, row in zip(omegas, series.sums(w, omegas).transpose(2, 0, 1)):
        for p, (value, tail, rounding, _) in enumerate(row):
            assert value - tail - rounding <= mp_dual_sums(w.form, om)[p] <= value + tail + rounding, (om, p)


def test_sampled_and_formless_windows_stay_on_the_frequency_side():
    grid = sample_grid()
    narrow = dilate(hermite(1), 0.1)
    assert criterion._time_side(narrow) is not None
    assert criterion._time_side(sampled_window(grid, narrow.time_eval(grid))) is None
    assert criterion._time_side(slow_decay()) is None


def test_truncation_warnings_name_the_caller():
    # the first frame outside the package (and numpy's errstate wrapper),
    # however deep the engine's or the reduction's call chain: a sampled
    # window not decayed at the grid ends, reduced on a rotated lattice and
    # on one rotated by 0.05 rad (an aliasing chirp), or sampled as it is
    w = slow_decay()
    grid = sample_grid()
    wide = sampled_window(grid, dilate(hermite(1), 4.0).time_eval(grid))
    turn = [[math.cos(0.05), -math.sin(0.05)], [math.sin(0.05), math.cos(0.05)]]
    calls = (
        lambda: min_delta(w, grid_points=3),
        lambda: certify(w, 0.1, grid_points=3),
        lambda: delta_g(w, 0.25),
        lambda: reduce_general(wide, Lattice2D(BASES[0])),
        lambda: reduce_general(sampled_window(grid, hermite(1).time_eval(grid)), Lattice2D(turn)),
        lambda: sample_window(wide),
    )
    messages = []
    for call in calls:
        with pytest.warns(TruncationRiskWarning) as caught:
            call()
        assert {Path(record.filename).name for record in caught} == {Path(__file__).name}
        messages += [str(record.message) for record in caught]
    assert any("aliasing" in m for m in messages) and any("grid ends" in m for m in messages)


def test_quadrature_steps_transform_each_stretch_once(monkeypatch):
    # a complex sampled window on 1001 omegas: the first cutoff step (|k| <= 2,
    # 5,005 values, more than one block of 4,096) is one chirp-z transform of
    # the 5,001 grid points it needs, widened to the 5,031 that fill its FFT
    # length (8,232), where a call per block transformed 4,819 + 4,182; the
    # whole sweep transforms 17,505 points in 7 transforms, not 21,493, and
    # its FFT lengths sum to 39,912, where transforming only the points each
    # step needs took 17,493 points and 40,122
    grid = sample_grid()
    w = sampled_window(grid, hermite(1).time_eval(grid) * np.exp(0.7j * grid))
    sizes = []
    chirp_z = window_module._chirp_z

    def spy(nodes, weighted, mid, step, size):
        sizes.append(size)
        return chirp_z(nodes, weighted, mid, step, size)

    monkeypatch.setattr(window_module, "_chirp_z", spy)
    criterion._sweep(w, np.linspace(0.0, 1.0, 1001))
    assert sizes[0] == 5031
    assert len(sizes) == 7 and sum(sizes) == 17_505, sizes
    assert sum(window_module._fast_length(grid.size + s) for s in sizes) == 39_912


def test_reduced_grid_sweep_makes_one_or_two_transforms(monkeypatch):
    # a real sampled window on min_delta's 101-omega mirrored grid: the first
    # cutoff step needs 551 grid points, far fewer than the 3,201 nodes, so
    # its transform widens toward the nodes' count and holds the later steps'
    # points too (four transforms of 551, 951, 1,351 and 1,948 points before)
    grid = sample_grid()
    w = sampled_window(grid, reduced("hermite:1", BASES[0]).time_eval(grid))
    assert w.even_modulus
    sizes = []
    chirp_z = window_module._chirp_z

    def spy(nodes, weighted, mid, step, size):
        sizes.append(size)
        return chirp_z(nodes, weighted, mid, step, size)

    monkeypatch.setattr(window_module, "_chirp_z", spy)
    sums = criterion._sweep(w, np.linspace(0.0, 1.0, 101), mirror=True)
    assert np.max(sums[:, 3]) >= 9
    assert len(sizes) <= 2, sizes


def test_time_side_profiles_compute_each_dual_term_once(monkeypatch):
    # the side decision and the grid and stencil sums of one profile read one
    # run of the dual terms: n = 0..4 once each, where each of the three
    # computed them again (15 calls)
    calls = []
    coefficients = criterion._DualSeries.coefficients

    def spy(self, n):
        calls.append(n)
        return coefficients(self, n)

    w = dilate(hermite(3), 0.651836)
    grid = np.linspace(0.0, 1.0, 1001)
    # the grid rows of a series of its own, which computes its terms afresh
    want = criterion._sweep_rows(w, criterion._DualSeries.of(w.form), grid)
    monkeypatch.setattr(criterion._DualSeries, "coefficients", spy)
    profile = min_delta(w)
    assert calls == [0, 1, 2, 3, 4]
    on_grid = np.isin(profile.omegas, grid)
    got = np.array([profile.deltas, profile.lows, profile.highs, profile.num_tails, profile.den_tails])
    np.testing.assert_array_equal(got[:, on_grid], want)
