"""Lattice sums, delta_g enclosures, certification, and the Wirtinger check.

Reference values come from mpmath at 50 digits using closed-form transform
magnitudes (the Gaussian squares to exp(-2*pi*xi^2), the first Hermite
window to xi^2 * exp(-2*pi*xi^2)), so none of them reuse package code.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborcert import (
    DegenerateError,
    DivergentSeriesError,
    Envelope,
    NumericalError,
    Parity,
    PreconditionError,
    Window,
    ZeroSumError,
    certify,
    certify_rect,
    chirp_window,
    combine,
    delta_g,
    dilate,
    gaussian,
    hermite,
    min_delta,
)
from gaborcert import criterion
from gaborcert.criterion import DensityProfile, _from_log, one_sided_gauss_tail_log
from gaborcert.tables import read_csv
from helpers import enveloped_sums_per_step, wirtinger_residual


def lattice_partial_sum(w, omega, p, k_max):
    """The correctly rounded partial sum of S_p over |k| <= k_max, no tail accounting."""
    xi = np.arange(-k_max, k_max + 1, dtype=float) + omega
    terms = xi ** (2 * p) * np.abs(np.asarray(w.freq_eval(xi), dtype=complex)) ** 2
    return math.fsum(terms.tolist())


def mp_gauss_mag2(xi):
    return mpmath.exp(-2 * mpmath.pi * xi * xi)


def mp_h1_mag2(xi):
    return xi * xi * mpmath.exp(-2 * mpmath.pi * xi * xi)


def mp_lattice_sum(mag2, omega, p, k_range=60):
    """S_p(omega) summed over |k| <= k_range at 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for k in range(-k_range, k_range + 1):
            xi = mpmath.mpf(k) + mpmath.mpf(omega)
            total += xi ** (2 * p) * mag2(xi)
        return total


def mp_delta(mag2, omega):
    with mpmath.workdps(50):
        s0 = mp_lattice_sum(mag2, omega, 0)
        s1 = mp_lattice_sum(mag2, omega, 1)
        return mpmath.mpf("0.5") * mpmath.sqrt(s0 / s1)


def test_lattice_sum_h1_matches_oracle(h1):
    res = delta_g(h1, 0.0).num
    truth = mp_lattice_sum(mp_h1_mag2, 0.0, 0)
    assert res.rigorous
    assert abs(res.value - float(truth)) <= 1e-14 * float(truth)
    # the reported tail bound must dominate the true discarded remainder
    with mpmath.workdps(50):
        remainder = mpmath.mpf(0)
        for k in range(res.terms_used + 1, 61):
            remainder += 2 * mp_h1_mag2(mpmath.mpf(k))
    assert res.tail_bound >= float(remainder)


@pytest.mark.parametrize("omega", [0.1, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("p", [0, 1])
def test_enclosure_contains_brute_force(gauss, h1, omega, p):
    for w in (gauss, h1):
        enc = delta_g(w, omega)
        res = (enc.num, enc.den)[p]
        brute = lattice_partial_sum(w, omega, p, 100)
        assert res.value * (1.0 - 1e-15) <= brute
        assert brute <= res.upper * (1.0 + 1e-15)


def test_delta_gaussian_half_matches_oracle(gauss):
    enc = delta_g(gauss, 0.5)
    truth = float(mp_delta(mp_gauss_mag2, 0.5))
    assert abs(enc.value - truth) <= 1e-13 * truth
    assert enc.low <= truth <= enc.high
    assert enc.rigorous


def test_delta_h1_matches_oracle(h1):
    for omega in (0.0, 0.3, 0.5):
        enc = delta_g(h1, omega)
        truth = float(mp_delta(mp_h1_mag2, omega))
        assert abs(enc.value - truth) <= 1e-13 * truth
        assert enc.low <= truth <= enc.high


def test_delta_symmetry_under_omega_reflection(gauss, h1):
    # |ghat| is even for real windows, so S_p(1 - omega) = S_p(omega).
    for w in (gauss, h1, dilate(h1, 0.7)):
        for omega in (0.1, 0.3, 0.45):
            a = delta_g(w, omega).value
            b = delta_g(w, 1.0 - omega).value
            assert abs(a - b) <= 1e-12 * a


def test_combine_single_term_scale_invariance(h1):
    scaled = combine([(3.0, h1)])
    for omega in (0.2, 0.5):
        a = delta_g(h1, omega).value
        b = delta_g(scaled, omega).value
        assert abs(a - b) <= 1e-13 * a


def test_heuristic_route_agrees_with_enveloped(gauss):
    bare = dataclasses.replace(gauss, envelope=None)
    enc_fast = delta_g(gauss, 0.5)
    enc_slow = delta_g(bare, 0.5)
    assert not enc_slow.rigorous
    assert abs(enc_fast.value - enc_slow.value) <= 1e-10 * enc_fast.value


@given(
    omega=st.floats(min_value=0.0, max_value=1.0),
    k_small=st.integers(min_value=1, max_value=20),
    extra=st.integers(min_value=0, max_value=30),
)
def test_partial_sums_monotone_in_cutoff(omega, k_small, extra):
    w = gaussian()
    lo = lattice_partial_sum(w, omega, 1, k_small)
    hi = lattice_partial_sum(w, omega, 1, k_small + extra)
    assert hi >= lo * (1.0 - 1e-15)


# the one-omega engine's windows: Hermite orders 0-7, three combinations
# and a chirped form
ONE_OMEGA_WINDOWS = {
    **{f"hermite:{n}": hermite(n) for n in range(8)},
    "h0+0.3h2": combine([(1.0, hermite(0)), (0.3, hermite(2))]),
    "h1+0.5h3": combine([(1.0, hermite(1)), (0.5, hermite(3))]),
    "h0+0.4h1": combine([(1.0, hermite(0)), (0.4, hermite(1))]),
    "chirp(hermite:3)": chirp_window(hermite(3), 0.7),
}


def _sums_or_error(engine, w, omega):
    """Every field of both sums, as reprs so -0.0 and 0.0 differ, or the error's type and message."""
    try:
        return [repr(dataclasses.astuple(r)) for r in engine(w, omega)[:2]]
    except Exception as exc:  # noqa: BLE001  (the type is the point)
        return type(exc).__name__, str(exc)


@settings(max_examples=200)
@given(
    name=st.sampled_from(sorted(ONE_OMEGA_WINDOWS)),
    log_b=st.floats(min_value=math.log(1e-2), max_value=math.log(50.0)),
    omega=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)
# both sums underflow to 0, which the callers turn into ZeroSumError
@example(name="hermite:7", log_b=math.log(50.0), omega=0.0)
def test_batched_sums_match_the_per_step_engine(name, log_b, omega):
    # the batched walk gives every field, and every error, of one numpy pass
    # per cutoff step, bit for bit
    w = dilate(ONE_OMEGA_WINDOWS[name], math.exp(log_b))
    expected = _sums_or_error(enveloped_sums_per_step, w, omega)
    assert _sums_or_error(criterion._enveloped_sums, w, omega) == expected


def test_batched_sums_past_the_first_batch():
    # K = 94 is the tenth cutoff, in the third batch
    w = dilate(hermite(5), 0.05)
    num, den, _ = criterion._enveloped_sums(w, 0.3)
    assert num.terms_used == den.terms_used == 94
    assert _sums_or_error(criterion._enveloped_sums, w, 0.3) == _sums_or_error(enveloped_sums_per_step, w, 0.3)
    enc = delta_g(w, 0.3)
    assert (enc.num, enc.den) == (num, den)


def test_batched_sums_overflow_at_the_same_cutoff():
    # the sums of hermite:150 leave the double range at K = 4, the second
    # step of the first batch, whose later points overflow too
    w = hermite(150)
    with pytest.raises(NumericalError, match=r"overflow the double range by K=4$"):
        delta_g(w, 0.3)
    error = _sums_or_error(criterion._enveloped_sums, w, 0.3)
    assert error == _sums_or_error(enveloped_sums_per_step, w, 0.3)
    assert error[0] == "NumericalError"


def test_one_omega_engine_calls_ghat_once_per_batch():
    # hermite:1 at omega = 0.3 stops at K = 4: one call on the first batch's
    # 19 points, |k| <= 9
    sizes = []
    h1 = hermite(1)

    def freq_eval(xi):
        sizes.append(np.size(xi))
        return h1.freq_eval(xi)

    enc = delta_g(dataclasses.replace(h1, freq_eval=freq_eval), 0.3)
    assert enc.num.terms_used == enc.den.terms_used == 4
    assert sizes == [19]


def test_zero_sum_raises():
    def freq(xi):
        xi = np.asarray(xi, dtype=float)
        s = np.sin(np.pi * xi)
        s = np.where(np.abs(s) < 1e-12, 0.0, s)
        return (s * np.exp(-np.pi * xi * xi)).astype(complex)

    w = Window(
        label="sin-comb",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        freq_eval=freq,
        parity=Parity.UNKNOWN,
        envelope=Envelope(amplitude=1.0, rate=math.pi),
    )
    with pytest.raises(ZeroSumError):
        delta_g(w, 0.0)


def test_degenerate_denominator_raises():
    def freq(xi):
        xi = np.asarray(xi, dtype=float)
        return np.where(np.abs(xi) < 0.25, 1.0, 0.0).astype(complex)

    w = Window(
        label="narrow-band",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        freq_eval=freq,
        parity=Parity.UNKNOWN,
        envelope=Envelope(amplitude=2.0, rate=math.pi),
    )
    with pytest.raises(DegenerateError):
        delta_g(w, 0.0)


def test_input_validation(gauss):
    with pytest.raises(PreconditionError):
        delta_g(gauss, -0.1)
    with pytest.raises(PreconditionError):
        delta_g(gauss, 1.5)
    with pytest.raises(PreconditionError):
        certify(gauss, -1.0)


def test_certify_h1_both_sides(h1):
    hit = certify(h1, 0.45)
    assert hit.status == "Certified"
    assert hit.certified
    assert hit.margin > 0
    assert hit.rigorous
    miss = certify(h1, 0.5)
    assert miss.status == "Inconclusive"
    assert not miss.certified
    assert miss.margin < 0


def test_certify_rect_reduces_to_dilation(h1):
    rect_verdict = certify_rect(h1, 0.7, 0.5)
    direct = certify(dilate(h1, 0.5), 0.35)
    assert rect_verdict.status == "Certified"
    assert rect_verdict.delta == direct.delta
    assert rect_verdict.min_delta_g == direct.min_delta_g


def test_min_delta_gaussian_profile(gauss):
    profile = min_delta(gauss)
    assert profile.rigorous
    assert not profile.non_certifying
    assert abs(profile.argmin_omega - 0.5) <= 1e-3
    assert 0.9985 <= profile.min_value < 1.0
    truth = float(mp_delta(mp_gauss_mag2, 0.5))
    assert profile.min_value <= truth


def test_profile_csv_roundtrip(tmp_path, h1):
    profile = min_delta(h1, grid_points=101)
    path = tmp_path / "profile.csv"
    profile.write_csv(path)
    assert path.read_bytes().decode() == profile.csv_text()
    omegas, lows, deltas, highs, num_tails, den_tails = read_csv(path, DensityProfile.CSV_HEADER)
    for got, want in zip((omegas, lows, deltas, highs, num_tails, den_tails), profile.csv_columns()):
        np.testing.assert_array_equal(got, want)
    assert float(np.nanmin(lows)) == profile.min_value
    assert omegas[np.nanargmin(deltas)] == profile.argmin_omega


def test_min_delta_validates_grid(gauss):
    with pytest.raises(PreconditionError):
        min_delta(gauss, grid_points=100)
    with pytest.raises(PreconditionError):
        min_delta(gauss, grid_points=1)


def mp_one_sided_tail(c, p, a):
    """sum_{j>=0} (a+j)^(2p) exp(-c (a+j)^2) at 40 digits, up to exp(-c (a+j)^2) < e^-300."""
    with mpmath.workdps(40):
        c, a = mpmath.mpf(c), mpmath.mpf(a)
        stop = int(math.sqrt(300 / c)) + 1
        return mpmath.fsum((a + j) ** (2 * p) * mpmath.exp(-c * (a + j) ** 2) for j in range(stop))


# the two small rates are the scan's at b = 0.01 (r = 0.996 at a = 3) and b = 0.05
@pytest.mark.parametrize("c", [2.0 * math.pi * 0.01**2, 2.0 * math.pi * 0.05**2, 1.0, 2.0, 2.0 * math.pi])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("a", [2.0, 3.5])
def test_one_sided_tail_is_sharp_upper_bound(c, p, a):
    bound = math.exp(one_sided_gauss_tail_log(c, p, a))
    truth = float(mp_one_sided_tail(c, p, a))
    assert bound >= truth
    if c >= 1.0:  # at small c the peeled j^2 term is what decays, and the bound is loose
        assert bound <= 2.0 * truth


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("a", [3.0, 4.0, 5.0])
def test_tail_bound_covers_the_peel_rounding(p, a):
    # unpadded, the rounding of the peel -c*a^2 left the float bound below the
    # 40-digit sum at c = 2 pi by up to 7e-15 relative (a = 5, p = 0)
    c = 2.0 * math.pi
    logs = [one_sided_gauss_tail_log(c, p, a), one_sided_gauss_tail_log(np.array([c]), p, np.array([a]))[0]]
    truth = mp_one_sided_tail(c, p, a)
    for log in logs:
        bound = float(_from_log(log))
        with mpmath.workdps(40):
            assert mpmath.mpf(bound) >= truth, (p, a, log)


def test_one_sided_tail_on_arrays_matches_floats():
    rng = np.random.default_rng(5)
    c = rng.uniform(1.0, 20.0, 64)
    a = rng.uniform(2.0, 100.0, 64)
    for p in (0, 1, 2):
        floats = [one_sided_gauss_tail_log(float(ci), p, float(ai)) for ci, ai in zip(c, a)]
        np.testing.assert_allclose(one_sided_gauss_tail_log(c, p, a), floats, rtol=1e-14, atol=0.0)
    # a tuple of weights gives each weight's logs, from one exp pass
    shared = one_sided_gauss_tail_log(c, (0, 1, 2), a)
    for p, logs in zip((0, 1, 2), shared):
        np.testing.assert_array_equal(logs, one_sided_gauss_tail_log(c, p, a))
    # an array start with a float rate, as the sweep calls it
    floats = [one_sided_gauss_tail_log(3.0, 1, float(ai)) for ai in a]
    np.testing.assert_allclose(one_sided_gauss_tail_log(3.0, 1, a), floats, rtol=1e-14, atol=0.0)


def test_one_sided_tail_array_entries_fail_where_floats_raise():
    # decay rate 0, negative, inf, NaN, one whose ratio rounds to 1; tail start
    # 0, negative, inf; then a valid entry and one whose exponent overflows
    c = np.array([0.0, -1.0, math.inf, math.nan, 1e-18, 1.0, 1.0, 1.0, 2.0, 1e300])
    a = np.array([3.0, 3.0, 3.0, 3.0, 3.0, 0.0, -2.0, math.inf, 3.0, 1e5])
    logs = np.array(one_sided_gauss_tail_log(c, (0, 1, 2), a))
    for j, (cj, aj) in enumerate(zip(c.tolist(), a.tolist())):
        if j < 8:
            with pytest.raises((DivergentSeriesError, PreconditionError)):
                one_sided_gauss_tail_log(cj, 2, aj)
            assert np.isnan(logs[:, j]).all()
        else:
            np.testing.assert_array_equal(logs[:, j], one_sided_gauss_tail_log(cj, (0, 1, 2), aj))
    assert logs[:, -1].tolist() == [-math.inf] * 3


def test_one_sided_tail_rejects_bad_input():
    with pytest.raises(DivergentSeriesError):
        one_sided_gauss_tail_log(0.0, 0, 2.0)
    with pytest.raises(PreconditionError):
        one_sided_gauss_tail_log(1.0, 0, -1.0)
    with pytest.raises(PreconditionError):
        one_sided_gauss_tail_log(1.0, 3, 2.0)


def test_wirtinger_parabola_strict():
    t = np.linspace(0.0, 1.0, 2001)
    lhs, rhs = wirtinger_residual(t * (1.0 - t))
    assert abs(lhs - 1.0 / 30.0) <= 1e-5 / 30.0
    assert abs(rhs - 4.0 / (3.0 * math.pi**2)) <= 1e-4
    assert lhs < rhs


def test_wirtinger_full_sine_strict():
    t = np.linspace(0.0, 1.0, 2001)
    lhs, rhs = wirtinger_residual(np.sin(math.pi * t))
    assert abs(lhs - 0.5) <= 1e-4
    assert abs(rhs - 2.0) <= 1e-3
    assert lhs < rhs


def test_wirtinger_quarter_sine_is_extremal():
    t = np.linspace(0.0, 1.0, 4001)
    lhs, rhs = wirtinger_residual(np.sin(0.5 * math.pi * t))
    assert abs(lhs / rhs - 1.0) <= 1e-3


def test_wirtinger_rejects_bad_input():
    with pytest.raises(PreconditionError):
        wirtinger_residual(np.ones(101))
    with pytest.raises(PreconditionError):
        wirtinger_residual(np.zeros(10))
