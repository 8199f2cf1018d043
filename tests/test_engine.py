"""The sweep engine behind min_delta, and the rounding budget of lattice sums.

The engine sums whole omega grids as (omega x k) arrays; these tests hold
it to the one-omega path (delta_g) row by row, and hold both to 50-digit
mpmath sums of the closed-form |ghat|^2, so enclosures are checked against
numbers that reuse no package code.
"""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from gaborcert import (
    DegenerateError,
    DivergentSeriesError,
    Envelope,
    Lattice2D,
    Parity,
    TruncationRiskWarning,
    Window,
    ZeroSumError,
    certify,
    chirp_window,
    combine,
    delta_g,
    dilate,
    gaussian,
    hermite,
    min_delta,
    reduce_general,
    sample_grid,
    sampled_window,
)
from gaborcert import criterion
from gaborcert.criterion import FLOOR_GUARD, _from_log, envelope_tail_log
from gaborcert import window as window_module
from gaborcert.window import ghat_lattice, window_from_csv, write_sampled_csv

from helpers import envelope_violation

# the combined windows of the benchmark corpus: {hermite order: coefficient}
COMBOS = {
    "combo:h0+0.3h2": {0: 1.0, 2: 0.3},
    "combo:h1+0.5h3": {1: 1.0, 3: 0.5},
    "combo:h0+0.4h1": {0: 1.0, 1: 0.4},
}
DILATIONS = (0.05, 0.3, 1.0, 2.35355, 13.0367, 20.0)
ENGINE_REL = 5e-13


def corpus_window(spec):
    if spec == "gaussian":
        return gaussian()
    if spec.startswith("hermite:"):
        return hermite(int(spec.partition(":")[2]))
    return combine([(c, hermite(n)) for n, c in sorted(COMBOS[spec].items())])


def sin_comb():
    """Envelope-bounded window whose transform vanishes at every integer."""

    def freq(xi):
        xi = np.asarray(xi, dtype=float)
        s = np.sin(np.pi * xi)
        s = np.where(np.abs(s) < 1e-12, 0.0, s)
        return (s * np.exp(-np.pi * xi * xi)).astype(complex)

    return Window(
        label="sin-comb",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        freq_eval=freq,
        parity=Parity.UNKNOWN,
        envelope=Envelope(amplitude=1.0, rate=math.pi),
    )


def narrow_band():
    """ghat = 1 on |xi| < 1/4: S_1 vanishes at omega = 0, both sums on [1/4, 3/4]."""

    def freq(xi):
        xi = np.asarray(xi, dtype=float)
        return np.where(np.abs(xi) < 0.25, 1.0, 0.0).astype(complex)

    return Window(
        label="narrow-band",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        freq_eval=freq,
        parity=Parity.EVEN,
        envelope=Envelope(amplitude=2.0, rate=math.pi),
    )


def pointwise(w, omegas):
    """delta_g at each omega, None where it raises the degenerate errors."""
    out = []
    for om in omegas:
        try:
            out.append(delta_g(w, float(om)))
        except (DegenerateError, ZeroSumError):
            out.append(None)
    return out


def assert_rows_match_pointwise(w, profile):
    encl = pointwise(w, profile.omegas)
    for i, (om, e) in enumerate(zip(profile.omegas, encl)):
        row = (profile.deltas[i], profile.lows[i], profile.highs[i])
        if e is None:
            assert all(math.isnan(x) for x in row), (w.label, om)
            continue
        for got, want in zip(row, (e.value, e.low, e.high)):
            assert abs(got - want) <= ENGINE_REL * want, (w.label, om, got, want)
        assert profile.num_tails[i] == pytest.approx(e.num.tail_bound, rel=1e-12)
        assert profile.den_tails[i] == pytest.approx(e.den.tail_bound, rel=1e-12)
    return encl


def assert_dual_rows_match_pointwise(w, profile, rng):
    """Time-side rows: the value of every row to ENGINE_REL of delta_g's, and
    both enclosures of the argmin and of three seeded rows around the 50-digit
    delta_g.  Their tails are the n-tails of the dual series, not delta_g's
    frequency tails, so they are not compared."""
    encl = pointwise(w, profile.omegas)
    for om, value, e in zip(profile.omegas, profile.deltas, encl):
        assert e is not None and abs(value - e.value) <= ENGINE_REL * e.value, (w.label, om)
    for i in {profile.argmin, *rng.choice(profile.omegas.size, 3, replace=False).tolist()}:
        truth = mp_form_delta(w.form, profile.omegas[i])
        assert profile.lows[i] <= truth <= profile.highs[i], (w.label, profile.omegas[i])
        assert encl[i].low <= truth <= encl[i].high, (w.label, profile.omegas[i])
    return encl


@pytest.mark.parametrize("spec", ["gaussian"] + [f"hermite:{n}" for n in range(7)] + sorted(COMBOS))
def test_engine_matches_pointwise_delta_g(spec):
    base = corpus_window(spec)
    rng = np.random.default_rng(20261019)
    for b in DILATIONS:
        w = dilate(base, b)
        profile = min_delta(w, grid_points=101)
        if criterion._time_side(w) is None:
            encl = assert_rows_match_pointwise(w, profile)
        else:
            encl = assert_dual_rows_match_pointwise(w, profile, rng)
        # the verdict the one-omega path would give on the same points
        lows = [e.low for e in encl if e is not None]
        degenerate = len(lows) < len(encl)
        assert profile.non_certifying == degenerate
        assert profile.min_value == pytest.approx(min(lows), rel=ENGINE_REL)
        for target in (0.5 * min(lows), min(lows) * (1 - 1e-9), min(lows) * (1 + 1e-9)):
            expected = "Certified" if target < min(lows) and not degenerate else "Inconclusive"
            assert certify(w, target, grid_points=101).status == expected, (spec, b, target)


@pytest.mark.parametrize("spec, b", [("hermite:2", 13.0367), ("hermite:3", 20.0)])
def test_underflowing_rows_are_lost_at_the_same_omegas(spec, b):
    # every term of S_1 (and, for odd windows, S_0) at omega = 0 underflows
    profile = min_delta(dilate(corpus_window(spec), b), grid_points=101)
    lost = profile.omegas[np.isnan(profile.deltas)]
    assert lost.tolist() == [0.0, 1.0]
    assert profile.non_certifying and not profile.rigorous


@pytest.mark.parametrize("make", [sin_comb, narrow_band])
def test_engine_loses_vanishing_rows_like_delta_g(make):
    w = make()
    profile = min_delta(w, grid_points=41)
    assert_rows_match_pointwise(w, profile)
    assert profile.non_certifying


def test_every_grid_row_is_summed_at_its_own_omega(monkeypatch):
    # |ghat| is even for even and odd windows and for every window that is
    # real up to a constant phase, whatever its parity; each grid row of a
    # profile is still the row of its own omega alone, not one rebuilt from
    # its partner 1 - omega (a sum at 1 - (1 - omega), up to 1.5 ulp away)
    calls = []
    sweep = criterion._sweep

    def spy(w, omegas):
        calls.append(omegas.size)
        return sweep(w, omegas)

    monkeypatch.setattr(criterion, "_sweep", spy)
    grid = sample_grid()
    real_neither = corpus_window("combo:h0+0.4h1")
    cases = (
        (corpus_window("hermite:1"), True),
        (corpus_window("gaussian"), True),
        (real_neither, True),
        (chirp_window(real_neither, 0.6), False),
        (sampled_window(grid, real_neither.time_eval(grid)), True),
        (sampled_window(grid, real_neither.time_eval(grid) * np.exp(0.7j * grid)), False),
    )
    for w, even in cases:
        assert w.even_modulus == even, w.label
        calls.clear()
        grid_points = 1001 if w.quadrature is None else 101
        profile = min_delta(w, grid_points=grid_points)
        # the grid, then the refinement stencil: one call of at most 14 points
        assert calls[0] == grid_points and len(calls) <= 2 and all(size <= 14 for size in calls[1:]), w.label
        omegas = np.linspace(0.0, 1.0, grid_points)
        at = np.searchsorted(profile.omegas, omegas)
        rows = np.array([profile.deltas, profile.lows, profile.highs, profile.num_tails, profile.den_tails])[:, at]
        alone = np.concatenate([criterion._sweep_rows(w, None, omegas[i : i + 1]) for i in range(grid_points)], axis=1)
        if w.quadrature is None:
            np.testing.assert_array_equal(rows, alone, err_msg=w.label)
        else:
            # a sampled grid takes ghat from chirp-z transforms, one omega from
            # the baby-step/giant-step split: equal to their rounding
            np.testing.assert_allclose(rows[:3], alone[:3], rtol=ENGINE_REL, atol=0.0, err_msg=w.label)


# hermite:5 at b = 0.05 and hermite:1 at b = 0.01 reach K = 100 to 300, where
# one cutoff step adds more columns than a 4,096-value block of many rows holds
@pytest.mark.parametrize("spec, b", [("hermite:5", 0.05), ("hermite:1", 0.01)])
def test_sweep_rows_do_not_depend_on_their_batch(spec, b):
    w = dilate(corpus_window(spec), b)
    grid = np.linspace(0.0, 1.0, 1001)
    full = criterion._sweep(w, grid)
    rng = np.random.default_rng(7)
    for size in list(range(1, 41, 3)) + [40]:
        subset = np.sort(rng.choice(grid.size, size, replace=False))
        rows = criterion._sweep(w, grid[subset])
        np.testing.assert_array_equal(rows, full[:, :, subset])


def old_envelope_tail_rows(amplitude, rate, p, m, omegas):
    """The per-weight numpy tail bound that envelope_tail_log's shared pass over arrays replaced
    (with the peel -c*a^2 padded outward by 8 units of roundoff)."""
    c = 2.0 * rate

    def side(a):
        r = np.exp(-2.0 * c * a)
        one = 1.0 - r
        if p == 0:
            poly = 1.0 / one
        else:
            poly = a * a / one + 2.0 * a * r / one**2 + r * (1.0 + r) / one**3
        return -c * a * a * (1.0 - 8.0 * 2.0**-53) + np.log(poly)

    log_bound = 2.0 * math.log(amplitude) + np.logaddexp(side(m + omegas), side(m - omegas))
    with np.errstate(over="ignore"):
        return np.where(log_bound < math.log(5e-324), 5e-324, np.exp(log_bound) * (1.0 + 4e-16))


def test_shared_tail_pass_gives_each_weights_tails():
    omegas = np.random.default_rng(3).uniform(0.0, 1.0, 257)
    for rate in (1e-4, 0.004, 0.5, math.pi, 600.0):
        for m in (3, 5, 10, 64, 1000):
            tails = _from_log(envelope_tail_log(1.7, rate, (0, 1), m, omegas))
            for p in (0, 1):
                np.testing.assert_array_equal(tails[p], old_envelope_tail_rows(1.7, rate, p, m, omegas))


def sequential_refinement(w, grid_points=1001):
    """The profile of three bisection passes on the grid minimum's bracket, one
    sweep call per pass: the rows min_delta's refinement stencil extends."""
    omegas = np.linspace(0.0, 1.0, grid_points)
    series = criterion._time_side(w)
    rows = criterion._sweep_rows(w, series, omegas)
    value_at = dict(zip(omegas.tolist(), rows[0].tolist()))
    refined, refined_rows = [], []
    idx = int(np.nanargmin(rows[0]))
    if w.even_modulus:  # the member of an (omega, 1 - omega) pair in [0, 1/2]
        idx = min(idx, grid_points - 1 - idx)
    lo = float(omegas[max(idx - 1, 0)])
    hi = float(omegas[min(idx + 1, grid_points - 1)])
    mid = float(omegas[idx])
    for _ in range(3):
        candidates = [0.5 * (lo + mid), 0.5 * (mid + hi)]
        new = [om for om in dict.fromkeys(candidates) if om not in value_at]
        if new:
            extra = criterion._sweep_rows(w, series, np.array(new))
            value_at.update(zip(new, extra[0].tolist()))
            refined.extend(new)
            refined_rows.append(extra)
        triple = [om for om in (candidates[0], mid, candidates[1]) if math.isfinite(value_at[om])]
        if not triple:
            break
        pick = min(triple, key=value_at.__getitem__)
        if pick == candidates[0]:
            lo, mid, hi = lo, pick, mid
        elif pick == candidates[1]:
            lo, mid, hi = mid, pick, hi
        else:
            lo, mid, hi = candidates[0], mid, candidates[1]
    omg = np.concatenate([omegas, refined])
    order = np.argsort(omg, kind="stable")
    table = np.concatenate([rows, *refined_rows], axis=1)[:, order]
    finite = np.isfinite(table[0])
    return omg[order], table, float(np.min(table[1][finite])), int(np.nanargmin(table[0]))


# the (window, b) pairs of the analytic-sweep benchmark, the rows lost to
# underflow, and a real window classified neither even nor odd
B_GRID = sorted(float(f"{b:.6g}") for b in np.geomspace(0.05, 20.0, 15))
CLI_SPECS = ["gaussian"] + [f"hermite:{n}" for n in range(7)]
REFINEMENT_CASES = sorted(
    {(CLI_SPECS[(j + 6) % len(CLI_SPECS)], b) for j, b in enumerate(B_GRID)}
    | {(name, B_GRID[5 * k + 2]) for k, name in enumerate(sorted(COMBOS))}
    | {("hermite:2", 13.0367), ("hermite:3", 20.0), ("combo:h0+0.4h1", 1.0), ("hermite:1", 8.49781)}
)


def assert_profile_extends_sequential_passes(w, grid_points):
    """min_delta's profile holds every row of sequential_refinement's, byte for
    byte, and besides them only the other points of the refinement stencil."""
    profile = min_delta(w, grid_points=grid_points)
    omegas, table, min_value, _ = sequential_refinement(w, grid_points)
    got = np.array([profile.deltas, profile.lows, profile.highs, profile.num_tails, profile.den_tails])
    where = np.searchsorted(profile.omegas, omegas)
    np.testing.assert_array_equal(profile.omegas[where], omegas)
    np.testing.assert_array_equal(got[:, where], table)
    # the stencil: j/8 of a grid step on either side of the coarse argmin
    grid = np.linspace(0.0, 1.0, grid_points)
    on_grid = np.isin(omegas, grid)
    idx = int(np.nanargmin(table[0, on_grid]))
    if w.even_modulus:
        idx = min(idx, grid_points - 1 - idx)
    mid = grid[idx]
    step = 1.0 / (grid_points - 1)
    stencil = [mid + j * step / 8 for j in range(-7, 8) if j and 0.0 <= mid + j * step / 8 <= 1.0]
    refined = profile.omegas[~np.isin(profile.omegas, grid)]
    np.testing.assert_allclose(refined, stencil, rtol=0.0, atol=4e-16)
    assert profile.omegas.size - omegas.size <= 8
    finite = np.isfinite(profile.lows)
    assert profile.min_value == np.min(profile.lows[finite]) <= min_value


# on every point the sequential passes evaluate, the batched profile equals theirs
@pytest.mark.parametrize("spec, b", REFINEMENT_CASES)
def test_batched_refinement_equals_sequential_passes(spec, b):
    assert_profile_extends_sequential_passes(dilate(corpus_window(spec), b), 1001)


@pytest.mark.parametrize("spec, b", [("hermite:2", 1.0), ("hermite:4", 2.35355), ("hermite:6", 2.35355)])
def test_refinement_stencil_ignores_ties_within_a_mirrored_pair(monkeypatch, spec, b):
    # delta_g(omega) = delta_g(1 - omega) when |ghat| is even, but the two
    # members of a grid pair sum at their own omegas, which add up to 1 only
    # within an ulp, and keep their own cutoffs, so they can tie within an
    # ulp either way; the stencil goes around the member in [0, 1/2]
    # whichever of them the grid minimum lands on
    w = dilate(corpus_window(spec), b)
    grid_points = 1001
    sweep_rows = criterion._sweep_rows
    stencils, argmins, nudge = [], [], []

    def spy(w, series, omegas):
        rows = sweep_rows(w, series, omegas)
        if omegas.size != grid_points:
            stencils.append(omegas)
            return rows
        if nudge:
            idx = int(np.nanargmin(rows[0]))
            rows[0, grid_points - 1 - idx] = np.nextafter(rows[0, idx], -math.inf)
        argmins.append(int(np.nanargmin(rows[0])))
        return rows

    monkeypatch.setattr(criterion, "_sweep_rows", spy)
    min_delta(w, grid_points)
    nudge.append(True)
    min_delta(w, grid_points)
    # the nudge moved the grid minimum to the other member of its pair
    assert argmins[1] == grid_points - 1 - argmins[0] != argmins[0]
    np.testing.assert_array_equal(stencils[1], stencils[0])
    assert stencils[0].max() < 0.5


@pytest.mark.parametrize("grid_points", [101, 1001])
@pytest.mark.parametrize("spec", ["gaussian", "hermite:1"])
def test_sampled_refinement_extends_sequential_passes(spec, grid_points):
    # a coarse argmin inside the grid (the Gaussian, at 1/2) and at its end
    # (hermite:1, at 0): both stencils sum by the baby-step/giant-step split
    grid = sample_grid()
    w = dilate(corpus_window(spec), 0.7)
    assert_profile_extends_sequential_passes(sampled_window(grid, w.time_eval(grid)), grid_points)


def test_sweep_memory_stays_bounded():
    # rows are summed for blocks of at most 4,096 (omega, k) values, not for
    # the whole grid at once; certify sums this window on the time side, so
    # its frequency sweep (K = 94) is measured directly as well
    w = dilate(hermite(5), 0.05)
    grid = np.linspace(0.0, 1.0, 1001)
    for run in (lambda: certify(w, 0.1), lambda: criterion._sweep(w, grid)):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak


def test_vanishing_envelope_rate_is_divergent():
    w = Window(
        label="flat",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        freq_eval=lambda xi: np.ones_like(np.asarray(xi, dtype=float), dtype=complex),
        parity=Parity.EVEN,
        envelope=Envelope(amplitude=1.0, rate=1e-18),
    )
    with pytest.raises(DivergentSeriesError):
        min_delta(w, grid_points=5)


@pytest.mark.parametrize("rate", [0.004, 0.5, math.pi, 600.0])
@pytest.mark.parametrize("p", [0, 1])
def test_tail_rows_match_scalar_bound(rate, p):
    omegas = np.linspace(0.0, 1.0, 9)
    for m in (3, 5, 10, 64):
        rows = _from_log(envelope_tail_log(1.7, rate, (0, 1), m, omegas))[p]
        for om, row in zip(omegas, rows):
            scalar = _from_log(envelope_tail_log(1.7, rate, p, m, float(om)))
            assert row == pytest.approx(scalar, rel=1e-13, abs=0.0)


# --- rounding budget against 50-digit sums ------------------------------------

HERMITE_NORM = 1 / (2 * mpmath.sqrt(2 * mpmath.pi))


def mp_mag2(n, b):
    """|ghat(xi)|^2 for hermite(n) dilated by b, in closed form."""
    b = mpmath.mpf(b)

    def mag2(xi):
        x = b * xi
        if n == 0:
            return b * mpmath.exp(-2 * mpmath.pi * x * x)
        poly = HERMITE_NORM * mpmath.hermite(n, mpmath.sqrt(2 * mpmath.pi) * x)
        return b * poly**2 * mpmath.exp(-2 * mpmath.pi * x * x)

    return mag2


def mp_sum(mag2, omega, p, b):
    with mpmath.workdps(50):
        k_max = int(12 / b) + 12  # every dropped term below exp(-2*pi*144)
        om = mpmath.mpf(float(omega))
        return mpmath.fsum(
            (k + om) ** (2 * p) * mag2(k + om) for k in range(-k_max, k_max + 1)
        )


ROUNDING_CASES = [
    ("gaussian", 0, 1.0),
    ("hermite:1", 1, 1.0),
    ("hermite:3", 3, 0.05),  # K = 94, the longest sums of the corpus
    ("hermite:6", 6, 2.35355),
    ("hermite:2", 2, 13.0367),
]


@pytest.mark.parametrize("spec, n, b", ROUNDING_CASES)
def test_enclosures_contain_50_digit_sums(spec, n, b):
    w = dilate(corpus_window(spec), b)
    mag2 = mp_mag2(n, b)
    rng = np.random.default_rng(20260518 + n)
    omegas = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 6), [0.5]]))
    sums = criterion._sweep(w, omegas)
    rows = criterion._sweep_rows(w, criterion._time_side(w), omegas)
    for i, om in enumerate(omegas):
        truth = [mp_sum(mag2, om, p, b) for p in (0, 1)]
        enc = delta_g(w, float(om))
        for p, res in enumerate((enc.num, enc.den)):
            assert res.rounding > 0.0
            assert res.lower <= truth[p] <= res.upper, (spec, om, p)
            value, tail, rounding, _ = sums[p, :, i]
            assert value - rounding <= truth[p] <= value + tail + rounding, (spec, om, p)
        with mpmath.workdps(50):
            delta = float(mpmath.mpf("0.5") * mpmath.sqrt(truth[0] / truth[1]))
        assert enc.low <= delta <= enc.high, (spec, om)
        assert rows[1, i] <= delta <= rows[2, i], (spec, om)
        # the budget is a few ulps per term, not a loose pad
        assert enc.high - enc.low <= 1e-11 * delta


@pytest.mark.parametrize("b", [2.35355, 3.0])
def test_every_profile_row_encloses_the_40_digit_delta_g(b):
    # every row of a default profile, grid and stencil, is summed at the
    # omega it prints; rows at omega > 1/2 that reused the terms of their
    # partner 1 - omega, summed 1.5 ulp away, missed here by up to 8e-14
    # (4 rows near 0.926 at b = 2.35355, 2 at 0.688 and 0.942 at b = 3);
    # |k| <= 6 suffices, the terms falling as exp(-2 pi b^2 xi^2)
    profile = min_delta(dilate(hermite(6), b))
    mag2 = mp_mag2(6, b)
    ks = range(-6, 7)
    with mpmath.workdps(40):
        for om, low, high in zip(profile.omegas.tolist(), profile.lows.tolist(), profile.highs.tolist()):
            xi = [k + mpmath.mpf(om) for k in ks]
            terms = [mag2(x) for x in xi]
            s0 = mpmath.fsum(terms)
            s1 = mpmath.fsum(x * x * t for x, t in zip(xi, terms))
            assert low <= mpmath.sqrt(s0 / s1) / 2 <= high, om


def mp_delta(n, b, omega):
    mag2 = mp_mag2(n, b)
    truth = [mp_sum(mag2, omega, p, b) for p in (0, 1)]
    with mpmath.workdps(50):
        return mpmath.mpf("0.5") * mpmath.sqrt(truth[0] / truth[1])


def mp_zero_witness(n, b):
    """The least delta_g(frac(xi_r)) over the real zeros xi_r of ghat, hermite(n) dilated by b.

    At omega = frac(xi_r) the term at xi_r vanishes, so it is dropped
    rather than summed at a rounded root; each zero is refined to 50 digits
    from numpy's Hermite root.  |k| <= 12 suffices for b >= 2."""
    mag2 = mp_mag2(n, b)
    witnesses = []
    with mpmath.workdps(50):
        for x in np.polynomial.hermite.hermroots([0] * n + [1]).tolist():
            root = mpmath.findroot(lambda t: mpmath.hermite(n, t), x) / (mpmath.sqrt(2 * mpmath.pi) * b)
            xi = [root + k for k in range(-12, 13) if k != 0]
            s0 = mpmath.fsum(mag2(t) for t in xi)
            s1 = mpmath.fsum(t * t * mag2(t) for t in xi)
            witnesses.append(mpmath.sqrt(s0 / s1) / 2)
        return float(min(witnesses))


# certify calls that print Certified with rigorous: true although the true
# minimum of delta_g lies below delta: each minimum is a dip at a real zero of
# ghat, narrower than the grid.  (order, dilation, delta, printed min_delta_g,
# true minimum to 7 digits)
FALSE_CERTIFIED = [
    (6, 2.35355, 0.548, 0.5572153, 0.5398873),
    (2, 3.0, 0.76, 0.99999999999997, 0.5518956),
    (2, 10.0, 0.7, 0.9999999999997, 0.5145142),
    (4, 5.0, 0.76, 0.9999999999999, 0.5218449),
    (6, 3.0, 0.63, 0.7292486, 0.5307793),
]


@pytest.mark.parametrize("n, b, delta, printed, true_min", FALSE_CERTIFIED)
def test_false_certified_targets_lie_above_a_zero_witness(n, b, delta, printed, true_min):
    # the witness is an upper bound on the minimum, and here equals it to 7 digits
    witness = mp_zero_witness(n, b)
    assert abs(witness - true_min) <= 5e-8
    assert witness < delta < printed


@pytest.mark.xfail(strict=True, reason="the grid minimum steps over the dip at a zero of ghat")
@pytest.mark.parametrize("n, b, delta, printed, true_min", FALSE_CERTIFIED)
def test_false_certified_targets_read_inconclusive(n, b, delta, printed, true_min):
    assert certify(dilate(hermite(n), b), delta).status == "Inconclusive"


def test_subnormal_sums_keep_their_enclosure():
    # S_0 = 1.5e-323 and S_1 = 5e-324: a purely relative budget rounds them
    # by 0 and misses the true 1.13701
    enc = delta_g(dilate(hermite(2), 25.0), 0.43975)
    assert enc.low <= mp_delta(2, 25.0, 0.43975) <= enc.high
    assert enc.num.rounding > 0.0 and enc.den.rounding > 0.0


def test_rows_near_the_underflow_edge_contain_50_digit_sums():
    # rows whose smaller sum is below 1e-290, where rounding is absolute:
    # each holds the true delta_g (with a lower end of 0 or an upper end of
    # inf where a sum's bound reaches 0, and a lower end of the largest
    # double where S_0/S_1 overflows), or is lost by both engines
    rng = np.random.default_rng(20261018)
    grid = np.linspace(0.0, 1.0, 401)
    checked = 0
    for n, spec in enumerate(["gaussian", "hermite:1", "hermite:2", "hermite:3"]):
        for b in [*rng.uniform(10.0, 25.0, 4), 25.0]:
            w = dilate(corpus_window(spec), b)
            sums = criterion._sweep(w, grid)
            edge = np.flatnonzero(np.nanmin(sums[:, 0], axis=0) < 1e-290)
            if edge.size == 0:
                continue
            omegas = np.sort(grid[rng.choice(edge, min(6, edge.size), replace=False)])
            rows = criterion._sweep_rows(w, criterion._time_side(w), omegas)
            for om, row, enc in zip(omegas, rows.T, pointwise(w, omegas)):
                if enc is None:
                    assert np.isnan(row).all(), (spec, b, om)
                    continue
                truth = mp_delta(n, b, om)
                assert row[1] <= truth <= row[2], (spec, b, om)
                assert enc.low <= truth <= enc.high, (spec, b, om)
                checked += 1
    assert checked >= 20, checked


def test_rounding_budget_grows_with_the_exponent():
    # the exp factor of a term carries about (its exponent) ulps
    tight = delta_g(hermite(1), 0.5)
    steep = delta_g(dilate(hermite(1), 13.0367), 0.5)
    rel = lambda s: s.rounding / s.value  # noqa: E731
    assert rel(tight.num) < 1e-14
    assert rel(steep.num) > 10 * rel(tight.num)


# --- windows without an envelope ----------------------------------------------


def pointwise_heuristic_sum(w, omega, p):
    """One lattice sum of a window without an envelope, one cutoff step at a
    time: (value, tail estimate, K, truncated); value 0 where the sum still
    vanished after scanning |k| <= K.

    The rule: K runs through 2, 4, 6, 9, 13, ...; the tail estimate is the
    sum of the terms that the last two steps added, and the sum stops once
    it is at most 1e-12 * max(value, FLOOR_GUARD).  A sum still 0 scans
    on to the first K past 10,000; one still summing at the first K past
    2,048 stops there, truncated.  ghat comes from ghat_lattice, the
    engine's own evaluation, so only the rule is under test here.
    """
    at = ghat_lattice(w, np.array([omega]))
    added = []  # the sum of the terms of each step
    k_done, k_cut = -1, 2
    while True:
        ks = np.array([k for k in range(-k_cut, k_cut + 1) if abs(k) > k_done], dtype=float)
        xi = ks + omega
        terms = xi ** (2 * p) * np.abs(at(np.array([0]), ks)[0]) ** 2
        added.append(math.fsum(terms.tolist()))
        value, tail = math.fsum(added), math.fsum(added[-2:])
        if value == 0.0:
            if k_cut > 10_000:
                return 0.0, tail, k_cut, False
        elif tail <= 1e-12 * max(value, FLOOR_GUARD):
            return value, tail, k_cut, False
        elif k_cut > 2048:
            return value, tail, k_cut, True
        k_done, k_cut = k_cut, k_cut + max(2, k_cut // 2)


def pointwise_heuristic_delta(w, omega):
    """The error delta_g raises (None if none) and the sums it computes, as
    pointwise_heuristic_sum tuples: S_1 is not summed once S_0 vanishes."""
    num = pointwise_heuristic_sum(w, omega, 0)
    if num[0] == 0.0:
        return ZeroSumError, [num]
    den = pointwise_heuristic_sum(w, omega, 1)
    return (DegenerateError if den[0] == 0.0 else None), [num, den]


def reduced(spec, basis):
    """The exact square-lattice image of a corpus window."""
    return reduce_general(corpus_window(spec), Lattice2D(np.array(basis))).window


def sampled_reduced(spec, basis):
    """The same image through the sampled route of a file: window: the corpus
    window sampled on the standard grid, then one chirp-z kernel
    (metaplectic.reduce_samples)."""
    grid = sample_grid()
    w = sampled_window(grid, corpus_window(spec).time_eval(grid), label=spec)
    return reduce_general(w, Lattice2D(np.array(basis))).window


def slow_decay():
    """ghat = 1/(1 + xi^2) without an envelope: neither sum quiets before K = 2,398."""
    return Window(
        label="cauchy",
        time_eval=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex),
        freq_eval=lambda xi: (1.0 / (1.0 + np.asarray(xi, dtype=float) ** 2)).astype(complex),
        parity=Parity.EVEN,
    )


BASES = ([[0.6, 0.3], [-0.2, 0.9]], [[0.810874, 0.4956], [-0.058915, 0.860777]])
HEURISTIC_WINDOWS = {
    **{
        f"reduced({spec}, basis {i})": (lambda spec=spec, basis=basis: sampled_reduced(spec, basis))
        for spec in ("gaussian", "hermite:1", "hermite:2")
        for i, basis in enumerate(BASES)
    },
    "gaussian without envelope": lambda: dataclasses.replace(gaussian(), envelope=None),
    "sin-comb without envelope": lambda: dataclasses.replace(sin_comb(), envelope=None),
    "narrow-band without envelope": lambda: dataclasses.replace(narrow_band(), envelope=None),
    "1/(1 + xi^2)": slow_decay,
}


def assert_sums_match(got, want, where, quadrature=False):
    """K exactly, value and tail to 1e-12.  A quadrature window's tail terms
    sit at the rounding noise of its transform, which depends on how it is
    evaluated (chirp-z transforms of a grid, or a matrix product off one),
    so its tail is held to 1e-12 of the value instead."""
    value, tail, _, k_cut = got
    want_value, want_tail, want_k, _ = want
    assert k_cut == want_k, where
    assert abs(value - want_value) <= 1e-12 * want_value, where
    assert abs(tail - want_tail) <= 1e-12 * (want_value if quadrature else want_tail), where


@pytest.mark.parametrize("name", sorted(HEURISTIC_WINDOWS))
def test_heuristic_sweep_matches_pointwise_sums(name):
    w = HEURISTIC_WINDOWS[name]()
    assert w.envelope is None
    quad = w.quadrature is not None
    # the synthetic windows zero-scan to K = 12,138 or run to K = 2,398, slowly
    # in the pointwise loop, so they get coarser grids
    synthetic = name.startswith(("sin-comb", "narrow-band", "1/"))
    omegas = np.linspace(0.0, 1.0, 9 if synthetic else 41)
    want = [pointwise_heuristic_delta(w, float(om)) for om in omegas]
    truncated = any(s[3] for _, sums in want for s in sums)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sums = criterion._sweep(w, omegas)
        rows = criterion._sweep_rows(w, criterion._time_side(w), omegas)
    assert truncated == any(issubclass(c.category, TruncationRiskWarning) for c in caught)
    for i, (om, (error, expected)) in enumerate(zip(omegas, want)):
        for p, want_p in enumerate(expected):
            assert_sums_match(sums[p, :, i], want_p, (name, om, p), quad)
        if error is ZeroSumError:
            assert np.isnan(sums[1, 0, i]), (name, om)
        assert np.isnan(rows[0, i]) == (error is not None), (name, om)
        # the one-omega paths are the sweep's one-row call
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            if error is not None:
                with pytest.raises(error):
                    delta_g(w, float(om))
                continue
            enc = delta_g(w, float(om))
        for p, res in enumerate((enc.num, enc.den)):
            assert not res.rigorous
            got = (res.value, res.tail_bound, res.rounding, res.terms_used)
            assert_sums_match(got, expected[p], (name, om, p), quad)
        assert enc.value == pytest.approx(rows[0, i], rel=1e-12)
    if name.startswith("reduced"):
        assert not np.isnan(rows).any()
    if name == "1/(1 + xi^2)":
        assert truncated and (sums[:, 3] == 2398).all()


def test_heuristic_lattice_sum_is_the_one_row_sweep():
    w = dataclasses.replace(sin_comb(), envelope=None)
    for om in (0.0, 0.3):
        want = [pointwise_heuristic_sum(w, om, p) for p in (0, 1)]
        if want[0][0] == 0.0:
            # both sums vanish at every integer
            assert want[0][2] == want[1][2] == 12_138 and want[1][0] == 0.0
            with pytest.raises(ZeroSumError, match=r"scanned \|k\| <= 12138\)"):
                delta_g(w, om)
            continue
        enc = delta_g(w, om)
        for res, (value, tail, k_cut, _) in zip((enc.num, enc.den), want):
            assert not res.rigorous
            assert res.value == pytest.approx(value, rel=1e-12)
            assert res.tail_bound == pytest.approx(tail, rel=1e-12)
            assert res.terms_used == k_cut
    with pytest.warns(TruncationRiskWarning):
        delta_g(slow_decay(), 0.25)
    # narrow-band at omega = 0: S_1 vanishes, S_0 does not
    band = dataclasses.replace(narrow_band(), envelope=None)
    sums = criterion._sweep(band, np.array([0.0]))
    assert sums[0, 0, 0] == 1.0 and sums[1, 0, 0] == 0.0
    with pytest.raises(DegenerateError):
        delta_g(band, 0.0)


def test_heuristic_profile_rows_match_one_row_calls():
    # 301 omegas form a grid, which a quadrature window's sweep evaluates by
    # chirp-z transforms; a one-row call factors the quadrature instead, and
    # a row cannot depend on which of the two evaluated it
    grid = sample_grid()
    w = sampled_window(grid, hermite(1).time_eval(grid))
    assert w.envelope is None and w.quadrature is not None
    omegas = np.linspace(0.0, 1.0, 301)
    whole = criterion._sweep_rows(w, criterion._time_side(w), omegas)
    for i in (0, 127, 128, 150, 300):
        one = criterion._sweep_rows(w, criterion._time_side(w), omegas[i : i + 1])
        np.testing.assert_allclose(one[:3, 0], whole[:3, i], rtol=1e-13, atol=0.0)
        # the tails, at the transform's rounding noise, to 1e-13 of the sums
        np.testing.assert_allclose(one[3:, 0], whole[3:, i], rtol=0.0, atol=1e-13 * whole[0, i])


REDUCED_BASES = BASES + ([[1.0, 0.5], [0.0, 0.5]],)


def test_reduced_h1_enclosure_is_tight_at_zero():
    # the tail estimate is the last terms summed, not a multiple of the leading ones
    w = sampled_reduced("hermite:1", BASES[0])
    enc = delta_g(w, 0.0)
    assert (enc.high - enc.low) / enc.value <= 1e-9
    profile = min_delta(w)
    assert profile.omegas[0] == 0.0
    assert (profile.highs[0] - profile.lows[0]) / profile.deltas[0] <= 1e-9


def test_reduced_h1_profile_is_a_dilate():
    # hermite:1 reduced on this basis is dilate(hermite:1, sqrt(0.9)) up to a
    # chirp and a phase, which leave |ghat| unchanged: for t exp(-pi z t^2),
    # |ghat|^2 depends on z only through Re(1/z)
    profile = min_delta(reduced("hermite:1", BASES[0]))
    exact = min_delta(dilate(hermite(1), math.sqrt(0.9)))
    assert profile.rigorous
    np.testing.assert_array_equal(profile.omegas, exact.omegas)
    for got, want in ((profile.deltas, exact.deltas), (profile.lows, exact.lows), (profile.highs, exact.highs)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("spec", ["hermite:1", "hermite:3"])
def test_reduced_odd_windows_stay_below_the_barrier(spec):
    # odd windows stay odd under reduction, so delta_g(0) < 1/2 on every
    # lattice, in the exact image (rigorous) and through the sampled route
    for make in (reduced, sampled_reduced):
        for basis in REDUCED_BASES:
            verdict = certify(make(spec, basis), 0.5)
            assert verdict.status == "Inconclusive", (spec, basis, verdict.min_delta_g)
            assert verdict.min_delta_g < 0.5
            assert verdict.rigorous == (make is reduced)


def mp_form_mag2(form):
    """xi -> |sum_n c_n H_n(sqrt(2 pi z) xi) exp(-pi z xi^2)|^2 in mpmath, H_n by its recurrence."""
    coef = [mpmath.mpc(c) for c in form.coef]
    z = mpmath.mpc(form.z)
    root = mpmath.sqrt(2 * mpmath.pi * z)

    def mag2(xi):
        x, h = root * xi, [mpmath.mpf(1), 2 * root * xi]
        for k in range(1, len(coef)):
            h.append(2 * x * h[k] - 2 * k * h[k - 1])
        return abs(mpmath.fsum(c * hk for c, hk in zip(coef, h)) * mpmath.exp(-mpmath.pi * z * xi * xi)) ** 2

    return mag2


def mp_form_sums(form, omega):
    """S_0 and S_1 at omega of the window of a closed form, in 50-digit mpmath."""
    freq = form.transform()
    mag2 = mp_form_mag2(freq)
    k_max = int(12 / math.sqrt(freq.z.real)) + 12
    with mpmath.workdps(50):
        x = mpmath.mpf(float(omega))
        terms = [(k + x, mag2(k + x)) for k in range(-k_max, k_max + 1)]
        return [mpmath.fsum(xi ** (2 * p) * m for xi, m in terms) for p in (0, 1)]


def mp_form_delta(form, omega):
    s0, s1 = mp_form_sums(form, omega)
    with mpmath.workdps(50):
        return float(mpmath.mpf("0.5") * mpmath.sqrt(s0 / s1))


@pytest.mark.parametrize("spec", ["gaussian", "hermite:1", "hermite:3"])
def test_reduced_enclosures_contain_50_digit_sums(spec):
    # the reduced windows are enveloped closed forms with complex z; their
    # enclosures hold the 50-digit sums of the same |ghat|^2
    rng = np.random.default_rng(11)
    for basis in REDUCED_BASES:
        w = reduced(spec, basis)
        for om in np.concatenate([[0.0, 0.5], rng.uniform(0.0, 1.0, 2)]):
            truth = mp_form_sums(w.form, om)
            with mpmath.workdps(50):
                delta = float(mpmath.mpf("0.5") * mpmath.sqrt(truth[0] / truth[1]))
            enc = delta_g(w, float(om))
            assert enc.rigorous and enc.low <= delta <= enc.high, (spec, basis, om)
            assert enc.num.lower <= truth[0] <= enc.num.upper and enc.den.lower <= truth[1] <= enc.den.upper


@pytest.mark.parametrize("spec", ["gaussian", "hermite:1", "hermite:2", "hermite:3"])
def test_exact_reduction_matches_the_sampled_chain(spec):
    grid = sample_grid()
    for basis in REDUCED_BASES:
        exact, sampled = reduced(spec, basis), sampled_reduced(spec, basis)
        assert exact.envelope is not None and sampled.envelope is None
        assert exact.parity is sampled.parity
        assert envelope_violation(exact) <= 0.0
        err = float(np.max(np.abs(exact.time_eval(grid) - sampled.time_eval(grid))))
        assert err <= 1e-12, (spec, basis, err)


QUADRATURE_WINDOWS = {
    "sampled": lambda: sampled_window(
        sample_grid(), hermite(1).time_eval(sample_grid()) * np.exp(0.7j * sample_grid())
    ),
    "chirp": lambda: sampled_window(sample_grid(), chirp_window(hermite(2), 0.8).time_eval(sample_grid())),
}


@pytest.mark.parametrize("name", sorted(QUADRATURE_WINDOWS))
def test_factorized_lattice_matches_freq_eval(name):
    w = QUADRATURE_WINDOWS[name]()
    assert w.quadrature is not None
    omegas = np.linspace(0.0, 1.0, 13)
    ks = np.arange(-24, 25, dtype=float)
    at = ghat_lattice(w, omegas)
    rows = np.array([0, 3, 6, 12])
    got = at(rows, ks)
    want = w.freq_eval((ks[None, :] + omegas[rows, None]).ravel()).reshape(got.shape)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale
    # a single column or row comes out the same
    assert np.allclose(at(rows[:1], ks[5:6]), want[:1, 5:6], rtol=0.0, atol=1e-13 * scale)


def shifted_csv_window(tmp_path):
    """A complex window read from a CSV whose nodes sit up to 5e-10 off their
    ideal grid, itself 4e-10 off centre (both within check_samples' 1e-9)."""
    grid = sample_grid()
    t = grid + 4e-10 + 5e-10 * np.sin(np.pi * grid / 8.0)
    path = tmp_path / "shifted.csv"
    write_sampled_csv(path, t, hermite(1).time_eval(grid) * np.exp(0.7j * grid))
    w = window_from_csv(path)
    assert 3e-10 < float(np.max(np.abs(t - w.quadrature.nodes))) <= 1e-9
    return w


def mp_quadrature(w, xi, omega=0.0):
    """The window's quadrature sum at xi + omega (added in 30 digits, not
    rounded to a float) in 30-digit mpmath, the phases by recurrence, on the
    nodes c + h*u_m of ghat_lattice's kernels: c and h the float centre and
    spacing of the ideal nodes, u the centred index.  (The exact spacing of
    the end nodes differs from h by up to an ulp, which moves ghat at
    k = 2,000 by 1e-13 of its peak.)"""
    nodes = w.quadrature.nodes
    n = nodes.size
    with mpmath.workdps(30):
        h = mpmath.mpf(float((nodes[-1] - nodes[0]) / (n - 1)))
        t0 = mpmath.mpf(float(0.5 * (nodes[0] + nodes[-1]))) - h * (n - 1) / 2
        x = mpmath.mpf(float(xi)) + mpmath.mpf(float(omega))
        phase, ratio, total = mpmath.expjpi(-2 * x * t0), mpmath.expjpi(-2 * x * h), mpmath.mpc(0)
        for c in w.quadrature.weighted.tolist():
            total += c * phase
            phase *= ratio
        return complex(total)


def test_chirp_z_lattice_matches_freq_eval_and_mpmath(tmp_path):
    rng = np.random.default_rng(5)
    windows = {
        **{name: make() for name, make in QUADRATURE_WINDOWS.items()},
        "dilated": dilate(QUADRATURE_WINDOWS["sampled"](), 1.7),
        "shifted csv": shifted_csv_window(tmp_path),
    }
    # new columns of a cutoff step: two runs of k with a gap between them
    ks = np.r_[-14:-6, -2:3, 6:14].astype(float)
    for name, w in windows.items():
        for grid_points in (3, 101, 1001):
            grid = np.linspace(0.0, 1.0, grid_points)
            # the whole grid, and its first half, which fills half a unit interval
            for omegas in (grid, grid[: (grid_points + 1) // 2]):
                rows = np.arange(omegas.size)
                got = ghat_lattice(w, omegas)(rows, ks)
                check = rows[:: max(1, omegas.size // 25)]
                want = w.freq_eval((ks[None, :] + omegas[check, None]).ravel()).reshape(check.size, ks.size)
                scale = float(np.max(np.abs(want)))
                err = float(np.max(np.abs(got[check] - want)))
                assert err <= 1e-13 * scale, (name, grid_points, omegas.size, err / scale)
                r, c = rng.integers(omegas.size), rng.integers(ks.size)
                truth = mp_quadrature(w, ks[c] + omegas[r])
                assert abs(got[r, c] - truth) <= 1e-13 * scale, (name, grid_points, r, c)
        # a long run of k, as a slowly decaying window sums, in ten
        # 8,192-point stretches: their chirps' phases, reduced exactly, keep
        # the values within 1e-14 of the peak (1.4e-14 to 3.1e-14 off without
        # that reduction)
        grid = np.linspace(0.0, 1.0, 1001)
        long_ks = np.arange(-40.0, 41.0)
        got = ghat_lattice(w, grid)(np.arange(1001), long_ks)[::100]
        want = w.freq_eval((long_ks[None, :] + grid[::100, None]).ravel()).reshape(got.shape)
        err = float(np.max(np.abs(got - want)))
        assert err <= 1e-14 * float(np.max(np.abs(want))), (name, err)
        # off a grid (bisection points, one omega) the baby-step/giant-step split
        omegas = rng.uniform(0.0, 1.0, 14)
        got = ghat_lattice(w, omegas)(np.arange(14), ks)
        want = w.freq_eval((ks[None, :] + omegas[:, None]).ravel()).reshape(got.shape)
        assert float(np.max(np.abs(got - want))) <= 1e-13 * float(np.max(np.abs(want))), name
        # the same long run of k off a grid: 14 seeded stencil-like omegas, and
        # the one omega of a sampled window's delta_g, whose phases of k are
        # reduced exactly too
        for omegas in (rng.uniform(0.0, 1.0, 14), np.array([rng.uniform(0.0, 1.0)])):
            rows = np.arange(omegas.size)
            got = ghat_lattice(w, omegas)(rows, long_ks)
            want = w.freq_eval((long_ks[None, :] + omegas[:, None]).ravel()).reshape(got.shape)
            scale = float(np.max(np.abs(want)))
            err = float(np.max(np.abs(got - want)))
            assert err <= 1e-14 * scale, (name, omegas.size, err / scale)
            for r, c in zip(rng.integers(omegas.size, size=3), rng.integers(long_ks.size, size=3)):
                truth = mp_quadrature(w, long_ks[c] + omegas[r])
                assert abs(got[r, c] - truth) <= 1e-14 * scale, (name, omegas.size, r, c)
        # and far out, as a slowly decaying window's truncated sum runs (to
        # K = 2,398), where the transform has repeated ten times over and a
        # direct product k * t_m would carry 2e-12 of a turn: against the
        # mpmath sum at k + omega exactly (the float k + omega is up to 1.1e-13 off)
        far_ks = np.array([-2001.0, 1999.0, 2000.0])
        got = ghat_lattice(w, omegas)(np.array([0]), far_ks)[0]
        for value, k in zip(got, far_ks):
            assert abs(value - mp_quadrature(w, k, omegas[0])) <= 1e-14 * scale, (name, k)


@pytest.mark.parametrize("columns", [1, 5, 129])
def test_off_grid_rows_do_not_depend_on_their_neighbours(columns):
    # the stencil's rows must equal those of sequential bisection passes bit
    # for bit: a row's values off the grid depend on its omega and the ks
    # only, whether it comes alone, first, last or among 14 (129 columns:
    # a block of 128 and a lone column)
    w = QUADRATURE_WINDOWS["sampled"]()
    omegas = np.random.default_rng(7).uniform(0.0, 1.0, 14)
    ks = np.arange(columns, dtype=float) - columns // 2
    full = ghat_lattice(w, omegas)(np.arange(14), ks)
    for i in range(14):
        others = np.delete(np.arange(14), i)[:3]
        for got in (
            ghat_lattice(w, omegas[i : i + 1])(np.array([0]), ks)[0],
            ghat_lattice(w, omegas)(np.array([i]), ks)[0],
            ghat_lattice(w, omegas)(np.r_[others, i], ks)[-1],
            ghat_lattice(w, omegas)(np.r_[i, others], ks)[0],
        ):
            np.testing.assert_array_equal(got, full[i])


def test_sampled_grids_build_no_row_table(monkeypatch):
    # min_delta evaluates a quadrature window's grid by chirp-z transforms;
    # only the at most 14 bisection points, and the one omega of delta_g,
    # go off the grid, where no phase array holds n entries per omega (or
    # per k): every axis of each one is shorter than the n nodes
    w = QUADRATURE_WINDOWS["sampled"]()
    n = w.quadrature.nodes.size
    calls, phases = [], []
    grid_steps = window_module._grid_steps
    unit_phase = window_module._unit_phase

    def spy(omegas):
        steps = grid_steps(omegas)
        calls.append((omegas.size, steps))
        return steps

    def phase_spy(x):
        if calls and calls[-1][1] is None:  # built or called off the grid
            phases.append(np.shape(x))
        return unit_phase(x)

    monkeypatch.setattr(window_module, "_grid_steps", spy)
    monkeypatch.setattr(window_module, "_unit_phase", phase_spy)
    for grid_points in (101, 1001):
        calls.clear()
        min_delta(w, grid_points=grid_points)
        assert calls[0] == (grid_points, grid_points - 1)
        assert len(calls) == 2 and calls[1][0] <= 14 and calls[1][1] is None, calls
    calls.clear()
    delta_g(w, 0.3)
    assert calls == [(1, None)]
    assert phases and all(max(shape) < n for shape in phases), phases


def sampled_of(w):
    return sampled_window(sample_grid(), w.time_eval(sample_grid()))


SAMPLED_PROFILE_WINDOWS = {
    "real odd": (lambda: sampled_of(dilate(hermite(3), 1.3)), True),
    "complex chirped": (lambda: sampled_of(chirp_window(corpus_window("combo:h0+0.4h1"), 0.6)), False),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_PROFILE_WINDOWS))
@pytest.mark.parametrize("grid_points", [101, 1001])
def test_sampled_profile_matches_pointwise_delta_g(name, grid_points):
    # grid rows and bisection rows of a sampled window without an envelope,
    # real or complex, against the one-omega delta_g
    make, even = SAMPLED_PROFILE_WINDOWS[name]
    w = make()
    assert w.envelope is None and w.even_modulus == even
    profile = min_delta(w, grid_points=grid_points)
    assert profile.omegas.size > grid_points  # the bisection points are in
    assert_rows_match_pointwise(w, profile)
