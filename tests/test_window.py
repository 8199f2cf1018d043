"""Window constructors: closed forms, transforms, parity, envelopes, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaborcert.criterion import delta_g, min_delta
from gaborcert.errors import PreconditionError
from gaborcert.metaplectic import SampledFunction
from gaborcert.window import (
    Envelope,
    Parity,
    chirp_window,
    classify_parity,
    combine,
    dilate,
    envelope_violation,
    ghat_lattice,
    gaussian,
    hermite,
    read_sampled_csv,
    sample_grid,
    sampled_window,
    trapezoid_weights,
    window_from_csv,
    write_sampled_csv,
)


def quadrature_ft(w, xi, half_width=8.0, n=4097):
    """Independent trapezoid Fourier transform for cross-checking freq_eval."""
    t = np.linspace(-half_width, half_width, n)
    f = np.asarray(w.time_eval(t), dtype=complex)
    kernel = np.exp(-2j * np.pi * xi * t)
    return np.trapezoid(f * kernel, t)


def test_gaussian_closed_form_values(gauss):
    t = np.array([0.0, 0.5, 1.0, -2.0])
    expected = np.exp(-np.pi * t**2)
    assert np.allclose(np.asarray(gauss.time_eval(t)), expected, rtol=0, atol=1e-15)
    assert np.allclose(np.asarray(gauss.freq_eval(t)), expected, rtol=0, atol=1e-15)
    assert gauss.parity is Parity.EVEN
    assert gauss.known_minimizer == 0.5


def test_hermite1_is_t_times_gaussian(h1):
    t = np.linspace(-3, 3, 31)
    expected = t * np.exp(-np.pi * t**2)
    assert np.allclose(np.asarray(h1.time_eval(t)), expected, rtol=1e-13, atol=1e-300)


def test_hermite_transform_eigenvalue():
    # ghat_n = (-i)^n h_n, so freq samples are a fixed phase times time samples
    t = np.linspace(-2.5, 2.5, 21)
    for n in range(6):
        w = hermite(n)
        lhs = np.asarray(w.freq_eval(t), dtype=complex)
        rhs = (-1j) ** n * np.asarray(w.time_eval(t), dtype=complex)
        assert np.max(np.abs(lhs - rhs)) < 1e-12, f"order {n}"


def test_hermite_parity_alternates():
    for n in range(6):
        w = hermite(n)
        expected = Parity.EVEN if n % 2 == 0 else Parity.ODD
        assert w.parity is expected
        assert classify_parity(w) is expected


def test_hermite_rejects_bad_order():
    with pytest.raises(PreconditionError):
        hermite(-1)


@pytest.mark.parametrize("xi", [0.0, 0.5, 1.0, 2.0])
def test_freq_eval_matches_quadrature(gauss, h1, xi):
    for w in (gauss, h1, hermite(2), dilate(h1, 2.0)):
        direct = complex(np.asarray(w.freq_eval(np.array([xi])))[0])
        via_quad = quadrature_ft(w, xi)
        assert abs(direct - via_quad) < 1e-8, w.label


def test_dilate_pointwise_definition(h1):
    b = 2.0
    w = dilate(h1, b)
    t = np.linspace(-3, 3, 25)
    expected_time = np.asarray(h1.time_eval(t / b)) / math.sqrt(b)
    assert np.allclose(np.asarray(w.time_eval(t)), expected_time, rtol=1e-13)
    xi = np.array([0.7])
    expected_freq = math.sqrt(b) * np.asarray(h1.freq_eval(b * xi))
    assert np.allclose(np.asarray(w.freq_eval(xi)), expected_freq, rtol=1e-13)


@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_dilate_roundtrip(b):
    w = dilate(hermite(2), b)
    back = dilate(w, 1.0 / b)
    t = np.linspace(-2, 2, 9)
    assert np.allclose(
        np.asarray(back.time_eval(t)), np.asarray(hermite(2).time_eval(t)), rtol=1e-12, atol=1e-15
    )


def test_dilate_keeps_a_sampled_windows_quadrature():
    grid = sample_grid()
    base = sampled_window(grid, hermite(1).time_eval(grid) * np.exp(0.4j * grid))
    for b in (0.5, 2.0):
        w = dilate(base, b)
        assert w.quadrature is not None
        np.testing.assert_array_equal(w.quadrature.nodes, base.quadrature.nodes * b)
        # the dilated transform sqrt(b) * ghat(b * xi)
        xi = np.linspace(-3.0, 3.0, 13)
        want = math.sqrt(b) * np.asarray(base.freq_eval(b * xi))
        assert np.allclose(np.asarray(w.freq_eval(xi)), want, rtol=0.0, atol=1e-13)
        # ghat_lattice factors the dilated nodes and agrees with freq_eval
        omegas = np.linspace(0.0, 1.0, 5)
        ks = np.arange(-6, 7, dtype=float)
        got = ghat_lattice(w, omegas)(np.arange(5), ks)
        direct = np.asarray(w.freq_eval((ks[None, :] + omegas[:, None]).ravel())).reshape(got.shape)
        assert float(np.max(np.abs(got - direct))) <= 1e-13


def test_dilate_preserves_parity(h1, gauss):
    assert dilate(h1, 0.3).parity is Parity.ODD
    assert dilate(gauss, 3.0).parity is Parity.EVEN


def test_envelope_holds_for_all_constructors(gauss, h1):
    windows = [
        gauss,
        h1,
        hermite(4),
        hermite(5),
        dilate(h1, 0.5),
        dilate(gauss, 2.5),
        combine([(1.0, h1), (0.2, hermite(3))]),
    ]
    for w in windows:
        assert w.envelope is not None, w.label
        assert envelope_violation(w) <= 0.0, w.label


def test_combine_of_mixed_parity_is_neither(gauss, h1):
    w = combine([(1.0, h1), (0.3, gauss)], label="mixed")
    assert w.parity is Parity.NEITHER
    assert classify_parity(w) is Parity.NEITHER


def test_window_vanishing_at_every_probe_is_unknown():
    # 0 on |t| <= 5.5, complex beyond: the probes on [-5, 5] see nothing, and
    # |ghat| is not even, so min_delta must not mirror the profile
    t = sample_grid()
    bumps = np.exp(-20.0 * (t - 6.8) ** 2) * np.exp(2.0j * t) + 0.5 * np.exp(-20.0 * (t + 6.8) ** 2)
    w = sampled_window(t, np.where(np.abs(t) > 5.5, bumps, 0.0), label="outside")
    assert classify_parity(w) is Parity.UNKNOWN
    assert w.parity is Parity.UNKNOWN
    profile = min_delta(w, grid_points=21)
    at = int(np.argmin(np.abs(profile.omegas - 0.8)))
    # mirrored, the row read delta_g(0.2) = 0.5177 against delta_g(0.8) = 0.8165
    assert profile.deltas[at] == pytest.approx(delta_g(w, profile.omegas[at]).value, rel=1e-9)


def test_combine_single_term_scales_values(h1):
    w = combine([(2.5, h1)])
    t = np.linspace(-1, 1, 11)
    assert np.allclose(np.asarray(w.time_eval(t)), 2.5 * np.asarray(h1.time_eval(t)), rtol=1e-15)


def test_chirp_window_freq_via_quadrature(gauss):
    w = chirp_window(gauss, 0.8)
    for xi in (0.0, 0.5, 1.5):
        direct = complex(np.asarray(w.freq_eval(np.array([xi])))[0])
        assert abs(direct - quadrature_ft(w, xi)) < 1e-7
    assert w.parity is Parity.EVEN


def test_sampled_csv_roundtrip(tmp_path):
    grid = sample_grid(8.0, 0.005)
    values = np.exp(-np.pi * grid**2) * (1 + 0.5j)
    path = tmp_path / "w.csv"
    write_sampled_csv(path, grid, values)
    t, v = read_sampled_csv(path)
    assert np.array_equal(t, grid)
    assert np.array_equal(v, values)


def test_window_from_csv_matches_analytic_transform(tmp_path, gauss):
    grid = sample_grid(8.0, 0.005)
    path = tmp_path / "gauss.csv"
    write_sampled_csv(path, grid, np.exp(-np.pi * grid**2))
    w = window_from_csv(path)
    assert w.parity is Parity.EVEN
    xi = np.array([0.5])
    assert abs(complex(w.freq_eval(xi)[0]) - math.exp(-np.pi * 0.25)) < 1e-9


def test_sampled_window_validations():
    grid = sample_grid(8.0, 0.005)
    values = np.exp(-np.pi * grid**2)
    with pytest.raises(PreconditionError):
        sampled_window(grid[:-1], values[:-1] * 0 + grid[:-1] ** 2, label="asym")
    with pytest.raises(PreconditionError):
        sampled_window(grid * 3, values, label="coarse")
    bad_grid = grid.copy()
    bad_grid[7] += 1e-4
    with pytest.raises(PreconditionError):
        sampled_window(bad_grid, values, label="nonuniform")
    with pytest.raises(PreconditionError):
        sampled_window(grid, np.where(np.abs(grid) < 1, np.inf, 0.0), label="nonfinite")


def test_sampled_window_rejects_false_envelope():
    grid = sample_grid(8.0, 0.005)
    values = np.exp(-np.pi * grid**2)
    claimed = Envelope(amplitude=1e-6, rate=np.pi)
    with pytest.raises(PreconditionError):
        sampled_window(grid, values, label="overtight", envelope=claimed)


def test_sampled_window_accepts_true_envelope():
    grid = sample_grid(8.0, 0.005)
    values = np.exp(-np.pi * grid**2)
    w = sampled_window(grid, values, label="ok", envelope=Envelope(amplitude=1.0, rate=np.pi))
    assert w.envelope is not None
    assert envelope_violation(w) <= 1e-12


def bent_grid():
    """3201 nodes whose steps grow by 0.9e-9 halfway: every step within 1e-9 of
    the first, symmetric, yet the middle node sits 7e-7 off its uniform place."""
    steps = np.r_[np.full(1600, 0.005), np.full(1600, 0.005 + 0.9e-9)]
    t = np.r_[0.0, np.cumsum(steps)]
    return t - 0.5 * t[-1]


def test_sample_nodes_checked_against_their_uniform_places():
    t = bent_grid()
    assert np.all(np.abs(np.diff(t) - (t[1] - t[0])) <= 1e-9)
    assert abs(t[0] + t[-1]) <= 1e-9
    values = np.exp(-np.pi * t**2)
    with pytest.raises(PreconditionError):
        sampled_window(t, values, label="bent")
    with pytest.raises(PreconditionError):
        SampledFunction(grid=t, values=values)
    # the same check passes nodes that are uniform up to rounding
    straight = np.linspace(t[0], t[-1], t.size)
    sampled_window(straight, values, label="straight")
    SampledFunction(grid=straight, values=values)


def test_trapezoid_weights():
    assert trapezoid_weights(4, 0.5).tolist() == [0.25, 0.5, 0.5, 0.25]
