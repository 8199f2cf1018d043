"""Fractional Fourier machinery: exactness, group law, parity, intertwining."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from gaborcert import (
    DegenerateAngleError,
    PreconditionError,
    SampledFunction,
    TruncationRiskWarning,
    chirp,
    dilate,
    dilate_sampled,
    frac_fourier,
    gaussian,
    hermite,
    reduce_general,
    sample_grid,
    sample_window,
    sampled_window,
)
from gaborcert import metaplectic
from gaborcert.lattice import Lattice2D
from gaborcert.window import _fast_length
from helpers import parity_residual


@pytest.fixture(scope="module")
def g_s():
    return sample_window(gaussian())


@pytest.fixture(scope="module")
def h1_s():
    return sample_window(hermite(1))


def max_err(f, g_values):
    return float(np.max(np.abs(f.values - g_values)))


def test_quarter_turn_is_fourier_transform(g_s):
    # the Gaussian is its own transform under this normalization
    out = frac_fourier(g_s, 0.5 * math.pi)
    assert max_err(out, g_s.values) <= 1e-12


def test_hermite_eigenvalues(g_s, h1_s):
    out = frac_fourier(h1_s, 0.5 * math.pi)
    assert max_err(out, -1j * h1_s.values) <= 1e-12
    for r in (math.pi / 3.0, 0.7):
        out = frac_fourier(h1_s, r)
        assert max_err(out, np.exp(-1j * r) * h1_s.values) <= 1e-10
    h2_s = sample_window(hermite(2))
    out = frac_fourier(h2_s, 0.7)
    assert max_err(out, np.exp(-2j * 0.7) * h2_s.values) <= 1e-10


def test_group_law(g_s, h1_s):
    for f in (g_s, h1_s):
        two_step = frac_fourier(frac_fourier(f, math.pi / 4.0), math.pi / 6.0)
        one_step = frac_fourier(f, math.pi / 4.0 + math.pi / 6.0)
        assert max_err(two_step, one_step.values) <= 1e-12


def test_unitarity(g_s, h1_s):
    for f in (g_s, h1_s):
        norm = f.l2_norm()
        out = frac_fourier(f, math.pi / 3.0)
        assert abs(out.l2_norm() - norm) <= 1e-10 * norm


def test_roundtrip(h1_s):
    r = 2.0 * math.pi / 5.0
    back = frac_fourier(frac_fourier(h1_s, r), -r)
    assert max_err(back, h1_s.values) <= 1e-12


def test_special_angles_are_exact(h1_s):
    ident = frac_fourier(h1_s, 0.0)
    assert np.array_equal(ident.values, h1_s.values)
    full_turn = frac_fourier(h1_s, 2.0 * math.pi)
    assert np.array_equal(full_turn.values, h1_s.values)
    flip = frac_fourier(h1_s, math.pi)
    assert np.array_equal(flip.values, h1_s.values[::-1])
    neg_flip = frac_fourier(h1_s, -math.pi)
    assert np.array_equal(neg_flip.values, h1_s.values[::-1])
    # angles within the snap tolerance ride the same exact paths
    snapped = frac_fourier(h1_s, 1e-13)
    assert np.array_equal(snapped.values, h1_s.values)


def test_degenerate_angles_rejected(g_s):
    with pytest.raises(DegenerateAngleError):
        frac_fourier(g_s, 1e-8)
    with pytest.raises(DegenerateAngleError):
        frac_fourier(g_s, math.pi - 1e-7)
    with pytest.raises(PreconditionError):
        frac_fourier(g_s, math.inf)


def test_slow_end_decay_warns(g_s):
    # exp(-pi t^2/25) is still 3e-4 at |t| = 8: sampling it cuts it off, and
    # so does a transform of the samples
    with pytest.warns(TruncationRiskWarning, match="grid ends"):
        wide = sample_window(dilate(gaussian(), 5.0))
    with pytest.warns(TruncationRiskWarning, match="grid ends"):
        frac_fourier(wide, math.pi / 3.0)
    # a dilate of the decayed Gaussian samples that the grid cuts off
    with pytest.warns(TruncationRiskWarning, match="grid ends"):
        dilate_sampled(g_s, 5.0)


def test_sampled_function_validation():
    good = np.linspace(-8.0, 8.0, 3201)
    vals = np.exp(-good**2)
    SampledFunction(grid=good, values=vals)
    with pytest.raises(PreconditionError):
        SampledFunction(grid=good[:-1], values=vals)
    with pytest.raises(PreconditionError):
        SampledFunction(grid=good + 1.0, values=vals)
    with pytest.raises(PreconditionError):
        SampledFunction(grid=good[::4], values=vals[::4])
    with pytest.raises(PreconditionError):
        SampledFunction(grid=good * 0.25, values=vals)
    with pytest.raises(PreconditionError):
        SampledFunction(grid=good, values=np.where(np.abs(good) < 1.0, np.nan, vals))
    bad = good.copy()
    bad[10] += 1e-6
    with pytest.raises(PreconditionError):
        SampledFunction(grid=bad, values=vals)


def test_parity_preservation(g_s, h1_s):
    assert parity_residual("frac_fourier", g_s, math.pi / 3.0) <= 1e-10
    assert parity_residual("frac_fourier", h1_s, math.pi / 3.0) <= 1e-10
    assert parity_residual("chirp", h1_s, 0.8) <= 1e-12
    assert parity_residual("dilate", h1_s, 1.7) <= 1e-9


def test_parity_residual_rejects_bad_input(g_s):
    with pytest.raises(PreconditionError):
        parity_residual("shear", g_s, 1.0)
    lopsided = g_s.with_values(np.exp(-math.pi * (g_s.grid - 1.0) ** 2))
    with pytest.raises(PreconditionError):
        parity_residual("chirp", lopsided, 1.0)


def time_frequency_shift(f, x, omega):
    """pi(x, omega) f = exp(2 pi i omega t) f(t - x), linear resampling in t."""
    if not (math.isfinite(x) and math.isfinite(omega)):
        raise PreconditionError("shift parameters must be finite")
    shifted = np.interp(f.grid - x, f.grid, f.values, left=0.0, right=0.0)
    return f.with_values(np.exp(2j * math.pi * omega * f.grid) * shifted)


def intertwining_residual(f, a, z):
    """Max-norm residual of D_a pi(x, omega) D_a^{-1} = pi(a x, omega / a) on f."""
    if not (a > 0 and math.isfinite(a)):
        raise PreconditionError(f"dilation scale must be positive, got {a!r}")
    x, omega = z
    lhs = dilate_sampled(time_frequency_shift(dilate_sampled(f, 1.0 / a), x, omega), a)
    rhs = time_frequency_shift(f, a * x, omega / a)
    return float(np.max(np.abs(lhs.values - rhs.values)))


def test_intertwining_examples(g_s):
    assert intertwining_residual(g_s, 2.0, (0.5, 0.25)) <= 1e-5
    assert intertwining_residual(g_s, 0.5, (0.0, 1.0)) <= 1e-12
    # off-grid shifts go through linear interpolation; tolerance is looser
    assert intertwining_residual(g_s, 2.0, (0.3333, 0.1)) <= 1e-3
    with pytest.raises(PreconditionError):
        intertwining_residual(g_s, -1.0, (0.0, 0.0))


@pytest.mark.parametrize("a", [0.3, 0.8, 1.3, 4.0])
def test_dilate_sampled_matches_analytic(a):
    # at a = 4 both dilates are still above 1e-6 at |t| = 8, cut off alike,
    # and each warns
    def cut():
        return pytest.warns(TruncationRiskWarning, match="grid ends") if a > 2.0 else contextlib.nullcontext()

    for w in (gaussian(), hermite(1), hermite(3), hermite(5)):
        with cut():
            resampled = dilate_sampled(sample_window(w), a)
        with cut():
            analytic = sample_window(dilate(w, a))
        assert max_err(resampled, analytic.values) <= 1e-12, w.label


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
    grid = sample_grid()
    assert max_err(sample_window(make()), exact.time_eval(grid)) <= 1e-13


def test_sampled_reduction_off_the_standard_grid_matches_the_exact_one():
    basis = Lattice2D(np.array([[0.6, 0.3], [-0.2, 0.9]]))
    exact = reduce_general(hermite(1), basis).window
    sampled = reduce_general(sampled_h1(8.0, 0.01), basis).window
    grid = sample_grid()
    want = exact.time_eval(grid)
    assert max_err(sample_window(sampled), want) <= 1e-12 * float(np.max(np.abs(want)))


def test_dilate_sampled_warns_near_nyquist(g_s):
    # f(t/a) at |t| = 8 needs a spectrum of 8/a = 160 cycles; the grid holds 100
    with pytest.warns(TruncationRiskWarning, match="Nyquist"):
        dilate_sampled(g_s, 0.05)


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
    with pytest.raises(PreconditionError):
        chirp(g_s, math.nan)
    with pytest.raises(PreconditionError):
        dilate_sampled(g_s, -1.0)
    with pytest.raises(PreconditionError):
        time_frequency_shift(g_s, math.inf, 0.0)
    same = chirp(g_s, 0.0)
    assert np.array_equal(same.values, g_s.values)


def test_shift_matches_closed_form(g_s):
    # x = 0.5 lands on the grid, so resampling is exact up to rounding
    out = time_frequency_shift(g_s, 0.5, 0.25)
    expected = np.exp(2j * math.pi * 0.25 * g_s.grid) * np.exp(
        -math.pi * (g_s.grid - 0.5) ** 2
    )
    assert max_err(out, expected) <= 1e-12


def test_gaussian_l2_norm(g_s):
    # integral of exp(-2 pi t^2) is (1/2)^(1/2), so the norm is 2^(-1/4)
    assert abs(g_s.l2_norm() - 2.0**-0.25) <= 1e-10


def direct_kernel(f, cot, csc, amplitude, columns=None):
    """The O(n^2) quadrature sum on the recorded nodes, 256 output rows at a time.

    out(s) = amplitude * sum_t wgt(t) v(t) exp(i pi (cot s^2 - 2 csc s t + cot t^2))
    for v = f.values, or for each column of `columns` (values on f's grid).
    """
    grid = f.grid
    values = f.values[:, None] if columns is None else columns
    wgt = np.full(f.size, f.spacing)
    wgt[0] *= 0.5
    wgt[-1] *= 0.5
    weighted = values * wgt[:, None]
    if cot != 0.0:
        weighted = weighted * np.exp(1j * math.pi * cot * grid**2)[:, None]
    out = np.empty(weighted.shape, dtype=complex)
    for start in range(0, f.size, 256):
        s = grid[start : start + 256]
        block = np.exp(-2j * math.pi * csc * np.outer(s, grid)) @ weighted
        if cot != 0.0:
            block = block * np.exp(1j * math.pi * cot * s**2)[:, None]
        out[start : start + 256] = block
    out *= amplitude
    return f.with_values(out[:, 0]) if columns is None else out


def with_kernel(monkeypatch, kernel, f, r):
    """frac_fourier(f, r) with kernel in place of the chirp-z one."""
    monkeypatch.setattr(metaplectic, "_chirped_kernel_apply", kernel)
    try:
        return frac_fourier(f, r)
    finally:
        monkeypatch.undo()


def with_direct_kernel(monkeypatch, f, r):
    return with_kernel(monkeypatch, direct_kernel, f, r)


def kernel_args(monkeypatch, f, r):
    """The (cot, csc, amplitude) that frac_fourier(f, r) hands its kernel."""
    seen = []
    with_kernel(monkeypatch, lambda g, *args: seen.append(args) or g, f, r)
    return seen[0]


KERNEL_ANGLES = (0.5 * math.pi, -0.5 * math.pi, 0.3, -0.31, 2.5, -2.47, 1.1)


@pytest.mark.parametrize("r", KERNEL_ANGLES)
def test_chirp_z_kernel_matches_direct_sum(monkeypatch, r):
    windows = [gaussian()] + [hermite(n) for n in (1, 2, 3)]
    samples = [sample_window(w) for w in windows]
    stack = np.stack([f.values for f in samples], axis=1)
    # one direct pass for all four windows: the kernel depends on the angle only
    direct = direct_kernel(samples[0], *kernel_args(monkeypatch, samples[0], r), columns=stack)
    for j, (w, f) in enumerate(zip(windows, samples)):
        fast = frac_fourier(f, r)
        assert max_err(fast, direct[:, j]) <= 1e-12, (w.label, r)
        # h_n is an eigenvector with eigenvalue exp(-i n r); the chirp-z sum on
        # the ideal nodes stays within 1.1e-14 of that on this grid
        assert max_err(fast, np.exp(-1j * j * r) * f.values) <= 5e-14, (w.label, r)


def test_chirp_z_kernel_on_even_size_grid(monkeypatch):
    # 3200 nodes: the centred indices are half-integers, their differences integers
    grid = np.linspace(-8.0, 8.0, 3200)
    for n in (0, 1):
        f = SampledFunction(grid=grid, values=hermite(n).time_eval(grid))
        for r in (0.7, -0.5 * math.pi):
            fast = frac_fourier(f, r)
            assert max_err(fast, with_direct_kernel(monkeypatch, f, r).values) <= 1e-12
            # Hermite functions stay eigenvectors on this grid too
            assert max_err(fast, np.exp(-1j * n * r) * f.values) <= 1e-10


def test_chirp_z_kernel_forms_no_square_array(monkeypatch, h1_s):
    # an n x n phase array, or even a 256 x n block of it, is far above this
    n = h1_s.size
    limit = 64 * n * 16
    tracemalloc.start()
    try:
        frac_fourier(h1_s, 0.7)
        _, fast_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with_direct_kernel(monkeypatch, h1_s, 0.7)
        _, direct_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fast_peak < limit, fast_peak
    # the spy sees the blocks of the direct sum
    assert direct_peak > limit
