"""The time side of the criterion engine: Poisson-dual sums of closed forms.

min_delta sums a closed-form window on the time side when its dual series is
predicted shorter than its lattice sums (criterion._dual_series).  These
tests hold the dual coefficients to a 50-digit power-basis evaluation, which
shares no code with the engine's Hermite-basis one, hold the dual sums and
their enclosures to 50-digit lattice sums, and pin which side each (window,
b) pair of the analytic-sweep benchmark takes.
"""

import itertools
from pathlib import Path

import mpmath
import numpy as np
import pytest

from gaborcert import (
    Parity,
    TruncationRiskWarning,
    certify,
    chirp_window,
    delta_g,
    dilate,
    gaussian,
    hermite,
    min_delta,
    sample_grid,
    sampled_window,
)
from gaborcert import criterion
from gaborcert import window as window_module

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
    series = criterion._dual_series(w)
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
    rows = criterion._sweep_rows(w, omegas)
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
    sums = criterion._dual_series(w).sums(w, np.array([0.3]))
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
    sums = criterion._dual_series(w).sums(w, omegas)
    rows = criterion._sweep_rows(w, omegas)
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
    # time side, every pair with b >= 1 through the frequency sweep; on
    # either side no Gaussian certifies at ab >= 1 (Lyubarskii; Seip and
    # Wallsten) and no odd window at delta >= 1/2
    calls = []
    sweep = criterion._sweep

    def spy(w, omegas, mirror=False):
        calls.append(omegas.size)
        return sweep(w, omegas, mirror)

    monkeypatch.setattr(criterion, "_sweep", spy)
    assert sum(b < 1.0 for _, b in ANALYTIC_PAIRS) == 8
    for spec, b in ANALYTIC_PAIRS:
        calls.clear()
        w = dilate(corpus_window(spec), b)
        profile = min_delta(w)
        assert profile.rigorous or profile.non_certifying
        assert (calls == []) == (b < 1.0), (spec, b, calls)
        assert (criterion._dual_series(w) is None) == (b >= 1.0), (spec, b)
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
    assert criterion._dual_series(w) is None
    assert np.max(criterion._sweep(w, np.linspace(0.0, 1.0, 101))[:, 3]) == 6


def test_sampled_and_formless_windows_stay_on_the_frequency_side():
    grid = sample_grid()
    narrow = dilate(hermite(1), 0.1)
    assert criterion._dual_series(narrow) is not None
    assert criterion._dual_series(sampled_window(grid, narrow.time_eval(grid))) is None
    assert criterion._dual_series(slow_decay()) is None


def test_truncation_warnings_name_the_caller():
    # the first frame outside the package (and numpy's errstate wrapper),
    # however deep the engine's call chain
    w = slow_decay()
    for call in (lambda: min_delta(w, grid_points=3), lambda: certify(w, 0.1, grid_points=3), lambda: delta_g(w, 0.25)):
        with pytest.warns(TruncationRiskWarning) as caught:
            call()
        assert {Path(record.filename).name for record in caught} == {Path(__file__).name}


def test_quadrature_steps_transform_each_stretch_once(monkeypatch):
    # a complex sampled window on 1001 omegas: the first cutoff step (|k| <= 2,
    # 5,005 values, more than one block of 4,096) is one chirp-z transform of
    # the 5,001 grid points it needs, where a call per block transformed
    # 4,819 + 4,182; the whole sweep transforms 17,493 points, not 21,493
    grid = sample_grid()
    w = sampled_window(grid, hermite(1).time_eval(grid) * np.exp(0.7j * grid))
    sizes = []
    chirp_z = window_module._chirp_z

    def spy(nodes, weighted, start, step, size):
        sizes.append(size)
        return chirp_z(nodes, weighted, start, step, size)

    monkeypatch.setattr(window_module, "_chirp_z", spy)
    criterion._sweep(w, np.linspace(0.0, 1.0, 1001))
    assert sizes[0] == 5001
    assert sum(sizes) == 17_493, sizes
