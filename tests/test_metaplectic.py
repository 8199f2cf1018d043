"""Sampled reduction through the one chirp-z kernel: exactness, group law,
parity, intertwining."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from gaborcert import (
    DegenerateAngleError,
    IwasawaFactors,
    PreconditionError,
    TruncationRiskWarning,
    chirp_window,
    dilate,
    gaussian,
    hermite,
    reduce_general,
    sample_grid,
    sample_window,
    sampled_window,
)
from gaborcert import metaplectic
from gaborcert.lattice import Lattice2D
from gaborcert.metaplectic import _angle_kernel, _chirped_kernel_apply, reduce_samples
from gaborcert.window import _fast_length
from helpers import on_grid, parity_residual

GRID = sample_grid()
SPACING = (GRID[-1] - GRID[0]) / (GRID.size - 1)


@pytest.fixture(scope="module")
def g_s():
    return sample_window(gaussian())


@pytest.fixture(scope="module")
def h1_s():
    return sample_window(hermite(1))


def frac_fourier(values, r):
    """F_r of samples on the standard grid, through the reduction kernel."""
    return reduce_samples(on_grid(values), r, 0.0, 1.0)


def l2_norm(values, h=SPACING):
    return float(math.sqrt(np.trapezoid(np.abs(values) ** 2, dx=h)))


def max_err(values, want):
    return float(np.max(np.abs(values - want)))


def test_quarter_turn_is_fourier_transform(g_s):
    # the Gaussian is its own transform under this normalization
    out = frac_fourier(g_s, 0.5 * math.pi)
    assert max_err(out, g_s) <= 1e-12


def test_hermite_eigenvalues(g_s, h1_s):
    out = frac_fourier(h1_s, 0.5 * math.pi)
    assert max_err(out, -1j * h1_s) <= 1e-12
    for r in (math.pi / 3.0, 0.7):
        out = frac_fourier(h1_s, r)
        assert max_err(out, np.exp(-1j * r) * h1_s) <= 1e-10
    h2_s = sample_window(hermite(2))
    out = frac_fourier(h2_s, 0.7)
    assert max_err(out, np.exp(-2j * 0.7) * h2_s) <= 1e-10


def test_group_law(g_s, h1_s):
    for f in (g_s, h1_s):
        two_step = frac_fourier(frac_fourier(f, math.pi / 4.0), math.pi / 6.0)
        one_step = frac_fourier(f, math.pi / 4.0 + math.pi / 6.0)
        assert max_err(two_step, one_step) <= 1e-12


def test_unitarity(g_s, h1_s):
    for f in (g_s, h1_s):
        norm = l2_norm(f)
        out = frac_fourier(f, math.pi / 3.0)
        assert abs(l2_norm(out) - norm) <= 1e-10 * norm
        # a chirped, dilated transform is unitary too
        out = reduce_samples(on_grid(f), 1.1, 0.4, 0.8)
        assert abs(l2_norm(out) - norm) <= 1e-10 * norm


def test_roundtrip(h1_s):
    r = 2.0 * math.pi / 5.0
    back = frac_fourier(frac_fourier(h1_s, r), -r)
    assert max_err(back, h1_s) <= 1e-12


def test_special_angles_are_exact(h1_s):
    for r in (0.0, 2.0 * math.pi, 1e-13):
        assert _angle_kernel(r) == 1
    for r in (math.pi, -math.pi):
        assert _angle_kernel(r) == -1
    # the snapped angles bypass the kernel: the identity and the reflection
    # of the samples the kernel would see, bit for bit
    w = on_grid(h1_s)
    samples = sample_window(w)
    for r in (0.0, 2.0 * math.pi, 1e-13):
        assert np.array_equal(reduce_samples(w, r, 0.0, 1.0), samples)
    for r in (math.pi, -math.pi):
        assert np.array_equal(reduce_samples(w, r, 0.0, 1.0), samples[::-1])


def test_degenerate_angles_rejected(g_s):
    w = on_grid(g_s)
    with pytest.raises(DegenerateAngleError):
        reduce_samples(w, 1e-8, 0.0, 1.0)
    with pytest.raises(DegenerateAngleError):
        reduce_samples(w, math.pi - 1e-7, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        reduce_samples(w, math.inf, 0.0, 1.0)


def test_slow_end_decay_warns(g_s):
    # exp(-pi t^2/25) is still 3e-4 at |t| = 8: sampling it cuts it off, and
    # so does a transform of the samples
    with pytest.warns(TruncationRiskWarning, match="grid ends"):
        wide = sample_window(dilate(gaussian(), 5.0))
    with pytest.warns(TruncationRiskWarning, match="grid ends"):
        frac_fourier(wide, math.pi / 3.0)
    # a dilate of the decayed Gaussian samples that the grid cuts off, at a
    # snapped angle and through the kernel
    for r in (0.0, math.pi / 3.0):
        with pytest.warns(TruncationRiskWarning, match="grid ends"):
            reduce_samples(on_grid(g_s), r, 0.0, 5.0)


def test_sampled_function_validation():
    good = np.linspace(-8.0, 8.0, 3201)
    vals = np.exp(-good**2)
    sampled_window(good, vals)
    with pytest.raises(PreconditionError):
        sampled_window(good[:-1], vals)
    with pytest.raises(PreconditionError):
        sampled_window(good + 1.0, vals)
    with pytest.raises(PreconditionError):
        sampled_window(good[::4], vals[::4])
    with pytest.raises(PreconditionError):
        sampled_window(good, np.where(np.abs(good) < 1.0, np.nan, vals))
    bad = good.copy()
    bad[10] += 1e-6
    with pytest.raises(PreconditionError):
        sampled_window(bad, vals)


def test_parity_preservation(g_s, h1_s):
    assert parity_residual("frac_fourier", g_s, math.pi / 3.0) <= 1e-10
    assert parity_residual("frac_fourier", h1_s, math.pi / 3.0) <= 1e-10
    assert parity_residual("chirp", h1_s, 0.8) <= 1e-12
    assert parity_residual("dilate", h1_s, 1.7) <= 1e-9


def test_parity_residual_rejects_bad_input(g_s):
    with pytest.raises(PreconditionError):
        parity_residual("shear", g_s, 1.0)
    lopsided = np.exp(-math.pi * (GRID - 1.0) ** 2)
    with pytest.raises(PreconditionError):
        parity_residual("chirp", lopsided, 1.0)


def time_frequency_shift(values, x, omega):
    """pi(x, omega) f = exp(2 pi i omega t) f(t - x), linear resampling in t."""
    if not (math.isfinite(x) and math.isfinite(omega)):
        raise PreconditionError("shift parameters must be finite")
    shifted = np.interp(GRID - x, GRID, values, left=0.0, right=0.0)
    return np.exp(2j * math.pi * omega * GRID) * shifted


def dilate_samples(values, a):
    """D_a of samples on the standard grid, through the reduction."""
    return reduce_samples(on_grid(values), 0.0, 0.0, a)


def intertwining_residual(values, a, z):
    """Max-norm residual of D_a pi(x, omega) D_a^{-1} = pi(a x, omega / a) on f."""
    if not (a > 0 and math.isfinite(a)):
        raise PreconditionError(f"dilation scale must be positive, got {a!r}")
    x, omega = z
    lhs = dilate_samples(time_frequency_shift(dilate_samples(values, 1.0 / a), x, omega), a)
    rhs = time_frequency_shift(values, a * x, omega / a)
    return float(np.max(np.abs(lhs - rhs)))


def test_intertwining_examples(g_s):
    assert intertwining_residual(g_s, 2.0, (0.5, 0.25)) <= 1e-5
    assert intertwining_residual(g_s, 0.5, (0.0, 1.0)) <= 1e-12
    # off-grid shifts go through linear interpolation; tolerance is looser
    assert intertwining_residual(g_s, 2.0, (0.3333, 0.1)) <= 1e-3
    with pytest.raises(PreconditionError):
        intertwining_residual(g_s, -1.0, (0.0, 0.0))


@pytest.mark.parametrize("a", [0.3, 0.8, 1.3, 4.0])
def test_dilate_sampled_matches_analytic(a):
    # the reflected dilate of standard-grid samples against the closed-form
    # dilate; at a = 4 both are still above 1e-6 at |t| = 8, cut off alike,
    # and each warns
    def cut():
        return pytest.warns(TruncationRiskWarning, match="grid ends") if a > 2.0 else contextlib.nullcontext()

    for w in (gaussian(), hermite(1), hermite(3), hermite(5)):
        with cut():
            resampled = reduce_samples(on_grid(sample_window(w)), math.pi, 0.0, a)
        with cut():
            analytic = sample_window(dilate(w, a))
        assert max_err(resampled, analytic[::-1]) <= 1e-12, w.label


def sampled_h1(half_width, h):
    """hermite:1 sampled on [-half_width, half_width] at spacing h."""
    t = np.linspace(-half_width, half_width, round(2 * half_width / h) + 1)
    return sampled_window(t, hermite(1).time_eval(t))


@pytest.mark.parametrize(
    "make, exact",
    [
        (lambda: sampled_h1(8.0, 0.01), hermite(1)),
        (lambda: sampled_h1(6.0, 0.01), hermite(1)),
        (lambda: sampled_h1(6.0, 0.005), hermite(1)),
        (lambda: sampled_h1(8.0, 0.005), hermite(1)),
        (lambda: dilate(sampled_h1(8.0, 0.005), 1.7), dilate(hermite(1), 1.7)),
        (lambda: dilate(sampled_h1(8.0, 0.005), 0.3), dilate(hermite(1), 0.3)),
    ],
    ids=["8 at 0.01", "6 at 0.01", "6 at 0.005", "standard grid", "dilate 1.7", "dilate 0.3"],
)
def test_sample_window_resamples_through_the_quadrature(make, exact):
    # samples off the standard grid, or dilated nodes, reach it by spectral
    # interpolation: linear interpolation was off by up to 4.3e-5 here
    assert max_err(sample_window(make()), exact.time_eval(GRID)) <= 1e-13


def test_sample_window_of_standard_grid_samples_is_the_samples():
    for w in (gaussian(), hermite(1), chirp_window(hermite(2), 0.8)):
        values = w.time_eval(GRID)
        assert np.array_equal(sample_window(sampled_window(GRID, values)), values), w.label


# the two bases of test_engine, a shear alone and a reflected shear (the
# snapped angles 0 and pi)
REDUCTION_BASES = (
    [[0.6, 0.3], [-0.2, 0.9]],
    [[0.810874, 0.4956], [-0.058915, 0.860777]],
    [[0.75, 0.0], [0.3, 0.75]],
    [[-1.0, 0.0], [0.3, -1.0]],
)


def test_sampled_reduction_off_the_standard_grid_matches_the_exact_one():
    # file: windows on the standard grid and on coarser, narrower ones
    # reduce to the closed-form images within 1e-12 of their peak (1.1e-14
    # at worst)
    cases = [(w, sampled_window(GRID, w.time_eval(GRID))) for w in (gaussian(), hermite(1), hermite(2))]
    cases += [(hermite(1), sampled_h1(half_width, 0.01)) for half_width in (6.0, 8.0)]
    for exact, sampled in cases:
        for basis in REDUCTION_BASES:
            lattice = Lattice2D(np.array(basis))
            want = reduce_general(exact, lattice).window.time_eval(GRID)
            got = reduce_general(sampled, lattice)
            assert max_err(got.window.time_eval(GRID), want) <= 1e-12 * float(np.max(np.abs(want))), basis
            assert got.window.parity is exact.parity


def test_dilate_sampled_warns_near_nyquist(g_s):
    # f(t/a) at |t| = 8 needs a spectrum of 8/a = 160 cycles; the grid holds
    # 100: on a sheared lattice (a snapped angle) and a rotated one (the kernel)
    for r in (0.0, 0.3):
        lattice = IwasawaFactors(scale=1.0, r=r, q=0.3, a=20.0).compose()
        with pytest.warns(TruncationRiskWarning, match="Nyquist"):
            result = reduce_general(on_grid(g_s), lattice)
        assert result.steps[-1] == ("dilate", pytest.approx(0.05))


def test_fast_length_is_next_11_smooth():
    smooth = {1}
    for p in (2, 3, 5, 7, 11):
        frontier = sorted(smooth)
        for n in frontier:
            while n * p <= 40_000:
                n *= p
                smooth.add(n)
    smooth = sorted(smooth)
    expected = iter(smooth)
    want = next(expected)
    for m in range(1, 20_001):
        while want < m:
            want = next(expected)
        assert _fast_length(m) == want, m


def test_operator_input_validation(g_s):
    w = on_grid(g_s)
    with pytest.raises(PreconditionError):
        reduce_samples(w, 0.3, math.nan, 1.0)
    with pytest.raises(PreconditionError):
        reduce_samples(w, 0.3, 0.0, -1.0)
    with pytest.raises(PreconditionError):
        time_frequency_shift(g_s, math.inf, 0.0)
    same = reduce_samples(w, 0.0, 0.0, 1.0)
    assert np.array_equal(same, sample_window(w))


def test_shift_matches_closed_form(g_s):
    # x = 0.5 lands on the grid, so resampling is exact up to rounding
    out = time_frequency_shift(g_s, 0.5, 0.25)
    expected = np.exp(2j * math.pi * 0.25 * GRID) * np.exp(-math.pi * (GRID - 0.5) ** 2)
    assert max_err(out, expected) <= 1e-12


def test_gaussian_l2_norm(g_s):
    # integral of exp(-2 pi t^2) is (1/2)^(1/2), so the norm is 2^(-1/4)
    assert abs(l2_norm(g_s) - 2.0**-0.25) <= 1e-10


def direct_kernel(values, h, cot, csc, amplitude, out_rate, columns=None):
    """The O(n^2) quadrature sum on the nodes h*u (u centred), 256 output rows at a time.

    out(t) = amplitude * exp(i pi out_rate t^2) * sum_s wgt(s) v(s) exp(i pi (cot s^2 - 2 csc s t))
    for v = values, or for each column of `columns` (values on the same nodes).
    """
    n = values.size
    grid = h * (np.arange(n) - 0.5 * (n - 1))
    values = values[:, None] if columns is None else columns
    wgt = np.full(n, h)
    wgt[0] *= 0.5
    wgt[-1] *= 0.5
    weighted = values * (wgt * np.exp(1j * math.pi * cot * grid**2))[:, None]
    out = np.empty(weighted.shape, dtype=complex)
    for start in range(0, n, 256):
        t = grid[start : start + 256]
        block = np.exp(-2j * math.pi * csc * np.outer(t, grid)) @ weighted
        out[start : start + 256] = block * np.exp(1j * math.pi * out_rate * t**2)[:, None]
    out *= amplitude
    return out[:, 0] if columns is None else out


def with_kernel(monkeypatch, kernel, w, *params):
    """reduce_samples(w, *params) with kernel in place of the chirp-z one."""
    monkeypatch.setattr(metaplectic, "_chirped_kernel_apply", kernel)
    try:
        return reduce_samples(w, *params)
    finally:
        monkeypatch.undo()


def kernel_args(monkeypatch, w, *params):
    """The arguments that reduce_samples(w, *params) hands its kernel."""
    seen = []
    with_kernel(monkeypatch, lambda *args: seen.append(args) or args[0], w, *params)
    return seen[0]


KERNEL_ANGLES = (0.5 * math.pi, -0.5 * math.pi, 0.3, -0.31, 2.5, -2.47, 1.1)


@pytest.mark.parametrize("r", KERNEL_ANGLES)
def test_chirp_z_kernel_matches_direct_sum(monkeypatch, r):
    windows = [gaussian()] + [hermite(n) for n in (1, 2, 3)]
    samples = [on_grid(sample_window(w)) for w in windows]
    # the rotation alone, and with a chirp and a dilation folded in
    for rate, stretch in ((0.0, 1.0), (0.4, 0.8)):
        args = [kernel_args(monkeypatch, f, r, rate, stretch) for f in samples]
        stack = np.stack([a[0] for a in args], axis=1)
        # one direct pass for all four windows: the kernel depends on the parameters only
        direct = direct_kernel(*args[0], columns=stack)
        for j, (w, f) in enumerate(zip(windows, samples)):
            fast = reduce_samples(f, r, rate, stretch)
            assert max_err(fast, direct[:, j]) <= 1e-12, (w.label, r, rate)
            if rate == 0.0:
                # h_n is an eigenvector with eigenvalue exp(-i n r); the
                # chirp-z sum on the ideal nodes stays within 1.1e-14 of that
                # on this grid
                assert max_err(fast, np.exp(-1j * j * r) * args[j][0]) <= 5e-14, (w.label, r)


def test_chirp_z_kernel_on_even_size_grid():
    # 3200 nodes: the centred indices are half-integers, their differences integers
    grid = np.linspace(-8.0, 8.0, 3200)
    h = 16.0 / 3199
    for n in (0, 1):
        values = hermite(n).time_eval(grid)
        for r in (0.7, -0.5 * math.pi):
            cot, csc, amplitude = _angle_kernel(r)
            fast = _chirped_kernel_apply(values, h, cot, csc, amplitude, cot)
            assert max_err(fast, direct_kernel(values, h, cot, csc, amplitude, cot)) <= 1e-12
            # Hermite functions stay eigenvectors on this grid too
            assert max_err(fast, np.exp(-1j * n * r) * values) <= 1e-10


def test_chirp_z_kernel_forms_no_square_array(monkeypatch, h1_s):
    # an n x n phase array, or even a 256 x n block of it, is far above this
    n = h1_s.size
    limit = 64 * n * 16
    w = on_grid(h1_s)
    tracemalloc.start()
    try:
        reduce_samples(w, 0.7, 0.0, 1.0)
        _, fast_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with_kernel(monkeypatch, direct_kernel, w, 0.7, 0.0, 1.0)
        _, direct_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fast_peak < limit, fast_peak
    # the spy sees the blocks of the direct sum
    assert direct_peak > limit
