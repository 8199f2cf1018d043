"""Window constructors: closed forms, transforms, parity, envelopes, CSV."""

import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gaborcert
from gaborcert.criterion import certify, delta_g, min_delta
from gaborcert.errors import PreconditionError
from gaborcert.lattice import Lattice2D, reduce_general
from gaborcert.metaplectic import _angle_kernel
from gaborcert.window import (
    ClosedForm,
    Envelope,
    Parity,
    chirp_window,
    classify_parity,
    combine,
    dilate,
    from_form,
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

from helpers import envelope_violation


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
        assert classify_parity(w.time_eval(sample_grid())) is expected


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
        # ghat_lattice evaluates the dilated nodes and agrees with freq_eval
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
        chirp_window(gauss, 0.8),
        chirp_window(hermite(4), -1.3),
        dilate(chirp_window(combine([(1.0, gauss), (0.4, h1)]), 2.5), 0.7),
    ]
    for w in windows:
        assert w.envelope is not None, w.label
        assert envelope_violation(w) <= 0.0, w.label


def test_combine_of_mixed_parity_is_neither(gauss, h1):
    w = combine([(1.0, h1), (0.3, gauss)], label="mixed")
    assert w.parity is Parity.NEITHER
    assert classify_parity(w.time_eval(sample_grid())) is Parity.NEITHER


def test_window_asymmetric_beyond_five_is_neither():
    # 0 on |t| <= 5.5, complex beyond: the samples see the asymmetry, and
    # |ghat| is not even, so min_delta must not mirror the profile
    t = sample_grid()
    bumps = np.exp(-20.0 * (t - 6.8) ** 2) * np.exp(2.0j * t) + 0.5 * np.exp(-20.0 * (t + 6.8) ** 2)
    values = np.where(np.abs(t) > 5.5, bumps, 0.0)
    w = sampled_window(t, values, label="outside")
    assert classify_parity(values) is Parity.NEITHER
    assert w.parity is Parity.NEITHER and not w.even_modulus
    profile = min_delta(w, grid_points=21)
    at = int(np.argmin(np.abs(profile.omegas - 0.8)))
    # mirrored, the row read delta_g(0.2) = 0.5177 against delta_g(0.8) = 0.8165
    assert profile.deltas[at] == pytest.approx(delta_g(w, profile.omegas[at]).value, rel=1e-9)


def test_all_zero_samples_are_unknown():
    t = sample_grid()
    assert classify_parity(np.zeros(t.size)) is Parity.UNKNOWN
    assert sampled_window(t, np.zeros(t.size)).parity is Parity.UNKNOWN


def test_sampled_time_eval_is_the_band_limited_interpolant(h1):
    grid = sample_grid()
    w = sampled_window(grid, h1.time_eval(grid))
    # the samples at the nodes, bit for bit
    assert np.array_equal(w.time_eval(grid), w.quadrature.samples)
    # between the nodes, on a descending grid, far past the ends and at a
    # scalar: linear interpolation was 8.3e-6 off between the nodes
    for t in (grid[:-1] + 0.0025, np.linspace(3.0, -3.0, 601) + 0.0013, np.linspace(-20.0, 20.0, 4001)):
        assert float(np.max(np.abs(w.time_eval(t) - h1.time_eval(t)))) <= 1e-13
    assert abs(w.time_eval(0.3) - h1.time_eval(0.3)) <= 1e-13
    assert np.ndim(w.time_eval(0.3)) == 0
    # a dilated window's interpolant is the dilated interpolant
    t = np.linspace(-5.0, 5.0, 1001) + 0.001
    assert float(np.max(np.abs(dilate(w, 1.7).time_eval(t) - dilate(h1, 1.7).time_eval(t)))) <= 1e-13


@pytest.mark.parametrize(
    "t",
    [np.array([0.0, 0.1, 0.3]), np.zeros((2, 3)), np.array([]), np.array([0.0, np.nan]), np.geomspace(1.0, 2.0, 5)],
    ids=["uneven", "2-d", "empty", "nan", "geometric"],
)
def test_sampled_time_eval_needs_a_uniform_grid(h1, t):
    grid = sample_grid()
    w = sampled_window(grid, h1.time_eval(grid))
    with pytest.raises(PreconditionError, match="grid"):
        w.time_eval(t)


def test_combine_single_term_scales_values(h1):
    w = combine([(2.5, h1)])
    t = np.linspace(-1, 1, 11)
    assert np.allclose(np.asarray(w.time_eval(t)), 2.5 * np.asarray(h1.time_eval(t)), rtol=1e-15)


def test_chirp_window_freq_via_quadrature(gauss):
    w = chirp_window(gauss, 0.8)
    for xi in (0.0, 0.5, 1.5):
        direct = complex(np.asarray(w.freq_eval(np.array([xi])))[0])
        assert abs(direct - quadrature_ft(w, xi)) < 1e-14
    assert w.parity is Parity.EVEN


def test_sampled_csv_roundtrip(tmp_path):
    grid = sample_grid()
    values = np.exp(-np.pi * grid**2) * (1 + 0.5j)
    path = tmp_path / "w.csv"
    write_sampled_csv(path, grid, values)
    t, v = read_sampled_csv(path)
    assert np.array_equal(t, grid)
    assert np.array_equal(v, values)


def test_window_from_csv_matches_analytic_transform(tmp_path, gauss):
    grid = sample_grid()
    path = tmp_path / "gauss.csv"
    write_sampled_csv(path, grid, np.exp(-np.pi * grid**2))
    w = window_from_csv(path)
    assert w.parity is Parity.EVEN
    xi = np.array([0.5])
    assert abs(complex(w.freq_eval(xi)[0]) - math.exp(-np.pi * 0.25)) < 1e-9


def test_sampled_window_validations():
    grid = sample_grid()
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


def bump_samples():
    """exp(-pi t^2) (1 + 0.02 cos(2 pi 15 t)) on the standard grid: |ghat(15)| = 0.01,
    far above any Gaussian envelope of rate pi, which probes on |xi| in [1, 10]
    would not see."""
    grid = sample_grid()
    return grid, np.exp(-np.pi * grid**2) * (1.0 + 0.02 * np.cos(2.0 * np.pi * 15.0 * grid))


def test_only_closed_forms_carry_an_envelope(tmp_path):
    # a trapezoid transform repeats with period 1/h, so samples never carry an
    # envelope, and nothing built from them certifies rigorously
    grid, values = bump_samples()
    with pytest.raises(TypeError):
        sampled_window(grid, values, envelope=Envelope(amplitude=1.0 + 1e-9, rate=np.pi))
    w = sampled_window(grid, values, label="bump")
    path = tmp_path / "bump.csv"
    write_sampled_csv(path, grid, values)
    rotated = Lattice2D(np.array([[0.6, 0.3], [-0.2, 0.9]]))
    for v in (w, window_from_csv(path), dilate(w, 1.7), reduce_general(w, rotated).window):
        assert v.form is None and v.envelope is None, v.label
        assert not min_delta(v).rigorous, v.label
        assert not certify(v, 0.97).rigorous, v.label


def test_only_from_form_builds_an_enveloped_window():
    # no Window(...) or replace(...) in the package passes an envelope, by
    # keyword or in the fifth positional place, except inside from_form
    package = pathlib.Path(gaborcert.__file__).parent
    builders = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                    continue
                name = call.func.id
                keyed = any(k.arg == "envelope" for k in call.keywords)
                if (name == "Window" and (keyed or len(call.args) >= 5)) or (name == "replace" and keyed):
                    builders.add((path.name, func.name))
    assert builders == {("window.py", "from_form")}


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
    # the same check passes nodes that are uniform up to rounding
    straight = np.linspace(t[0], t[-1], t.size)
    sampled_window(straight, values, label="straight")


def test_trapezoid_weights():
    assert trapezoid_weights(4, 0.5).tolist() == [0.25, 0.5, 0.5, 0.25]


# --- the closed form against 50-digit mpmath ----------------------------------


def mp_hermite(n, x):
    """H_n(x) by the three-term recurrence."""
    h0, h1 = mpmath.mpf(1), 2 * x
    if n == 0:
        return h0
    for k in range(1, n):
        h0, h1 = h1, 2 * x * h1 - 2 * k * h0
    return h1


def mp_form(coef, z):
    """t -> sum_n coef[n] H_n(sqrt(2 pi z) t) exp(-pi z t^2), in mpmath."""
    coef = [mpmath.mpc(c) for c in coef]
    z = mpmath.mpc(z)
    root = mpmath.sqrt(2 * mpmath.pi * z)

    def g(t):
        poly = mpmath.fsum(c * mp_hermite(n, root * t) for n, c in enumerate(coef))
        return poly * mpmath.exp(-mpmath.pi * z * t * t)

    return g


class MpKernel:
    """Kernel images amplitude * exp(i pi cot s^2) * integral g(t) exp(i pi
    (cot t^2 - 2 csc s t)) dt of one function g (cot = 0, csc = 1: the
    Fourier transform), by the trapezoid rule on [-12, 12] at spacing 1/64
    in 50-digit arithmetic.  For the draws below Re z >= 0.4, so the
    truncation drops under exp(-pi 0.4 144) ~ 1e-79, and the integrand's
    transform decays as exp(-pi Re(1/(z - i cot)) xi^2) with Re(1/(z - i cot))
    >= 0.035, so the rule's aliasing at 64 cycles is below 1e-100."""

    def __init__(self, g):
        self.t = [mpmath.mpf(j) / 64 for j in range(-768, 769)]
        self.values = [g(t) for t in self.t]

    def image(self, cot, csc, amplitude, s):
        s = mpmath.mpf(s)
        total = mpmath.fsum(
            v * mpmath.expj(mpmath.pi * (cot * t * t - 2 * csc * s * t)) for t, v in zip(self.t, self.values)
        )
        return mpmath.mpc(amplitude) * mpmath.expj(mpmath.pi * cot * s * s) * total / 64


def max_rel_err(got, want):
    want = np.array([complex(v) for v in want])
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


POINTS = (-1.3, 0.45, 1.1)


def random_forms(count):
    rng = np.random.default_rng(20261018)
    for _ in range(count):
        order = int(rng.integers(1, 5))
        coef = tuple(complex(a, b) for a, b in rng.normal(size=(order + 1, 2)))
        z = complex(rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0))
        q = float(rng.uniform(-1.5, 1.5))
        b = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        r = float(rng.uniform(0.5, math.pi - 0.5) * rng.choice([-1.0, 1.0]))
        yield ClosedForm(coef, z), q, b, r


@pytest.mark.parametrize("case", range(3))
def test_closed_form_operations_match_mpmath(case):
    form, q, b, r = list(random_forms(3))[case]
    w = from_form(form, "random")
    pts = np.array(POINTS)
    with mpmath.workdps(50):
        g = mp_form(form.coef, form.z)
        gq = lambda t: g(t) * mpmath.expj(mpmath.pi * q * t * t)  # noqa: E731
        direct, chirped = MpKernel(g), MpKernel(gq)
        want = {
            "time": [g(mpmath.mpf(t)) for t in POINTS],
            "freq": [direct.image(0, 1, 1, x) for x in POINTS],
            "chirp time": [gq(mpmath.mpf(t)) for t in POINTS],
            "chirp freq": [chirped.image(0, 1, 1, x) for x in POINTS],
            "dilate time": [g(mpmath.mpf(t) / b) / mpmath.sqrt(b) for t in POINTS],
            "dilate freq": [direct.image(0, 1, 1, b * x) * mpmath.sqrt(b) for x in POINTS],
            "frac_fourier": [direct.image(*_angle_kernel(r), s) for s in POINTS],
        }
    chirp, dilated = chirp_window(w, q), dilate(w, b)
    got = {
        "time": w.time_eval(pts),
        "freq": w.freq_eval(pts),
        "chirp time": chirp.time_eval(pts),
        "chirp freq": chirp.freq_eval(pts),
        "dilate time": dilated.time_eval(pts),
        "dilate freq": dilated.freq_eval(pts),
        "frac_fourier": form.fractional(_angle_kernel(r))(pts),
    }
    for name in want:
        assert max_rel_err(got[name], want[name]) <= 1e-13, (name, form, q, b, r)
    # every derived window's envelope holds everywhere, not only on |xi| >= 1
    xi = np.linspace(-6.0, 6.0, 1201)
    for v in (w, chirp, dilated, from_form(form.fractional(_angle_kernel(r)), "frac")):
        assert np.all(np.abs(v.freq_eval(xi)) <= v.envelope.bound(xi)), v.label
        assert envelope_violation(v) <= 0.0, v.label


def test_closed_form_fractional_group_law():
    # F_a F_b = F_(a+b), the quarter turn is the Fourier transform and
    # Hermite functions are eigenvectors with eigenvalue exp(-i n r)
    t = np.linspace(-4.0, 4.0, 81)
    for w in (gaussian(), hermite(1), hermite(3), chirp_window(hermite(2), 0.7)):
        form = w.form
        two_step = form.fractional(_angle_kernel(math.pi / 4)).fractional(_angle_kernel(math.pi / 6))
        one_step = form.fractional(_angle_kernel(math.pi / 4 + math.pi / 6))
        assert np.max(np.abs(two_step(t) - one_step(t))) <= 1e-13, w.label
        quarter = form.fractional(_angle_kernel(math.pi / 2))
        assert np.max(np.abs(quarter(t) - w.freq_eval(t))) <= 1e-15, w.label
    # the snapped angles: the identity and the reflection t -> -t
    w = chirp_window(combine([(1.0, gaussian()), (0.4, hermite(1))]), 0.3)
    assert np.array_equal(w.form.fractional(_angle_kernel(1e-13))(t), w.time_eval(t))
    assert np.array_equal(w.form.fractional(_angle_kernel(-math.pi))(t), w.time_eval(-t))
    for n in range(5):
        form = hermite(n).form.fractional(_angle_kernel(0.7))
        assert np.max(np.abs(form(t) - np.exp(-0.7j * n) * hermite(n).time_eval(t))) <= 1e-13, n


def test_closed_form_parity_and_realness():
    assert ClosedForm((0.0, 1.0, 0.0, 2.0j), 0.5).parity is Parity.ODD
    assert ClosedForm((1.0, 0.0, 3.0), 0.5 + 1j).parity is Parity.EVEN
    assert ClosedForm((1.0, 0.5), 1.0).parity is Parity.NEITHER
    # real up to one phase, at real z only
    assert ClosedForm((1.0j, -0.5j), 2.0).real
    assert ClosedForm(tuple(np.exp(0.3j) * c for c in (1.0, 0.25, -2.0)), 0.7).real
    assert not ClosedForm((1.0, 0.5j), 1.0).real
    assert not ClosedForm((1.0, 0.5), 1.0 - 0.2j).real
    # the transform of a real window is not real, but its modulus is even
    w = combine([(1.0, gaussian()), (0.4, hermite(1))])
    assert w.form.real and not w.form.transform().real and w.even_modulus
    xi = np.linspace(0.1, 3.0, 30)
    assert np.allclose(np.abs(w.freq_eval(xi)), np.abs(w.freq_eval(-xi)), rtol=1e-15, atol=0.0)


def test_closed_form_validation():
    with pytest.raises(PreconditionError):
        ClosedForm((0.0, 0.0), 1.0)
    with pytest.raises(PreconditionError):
        ClosedForm((1.0,), -0.5 + 1j)
    with pytest.raises(PreconditionError):
        ClosedForm((math.nan,), 1.0)
    # combine needs one z and closed forms; dilate keeps samples, chirp_window does not
    with pytest.raises(PreconditionError, match="one z"):
        combine([(1.0, hermite(1)), (1.0, dilate(hermite(3), 2.0))])
    with pytest.raises(PreconditionError):
        combine([(1.0, hermite(1)), (-1.0, hermite(1))])
    grid = sample_grid()
    sampled = sampled_window(grid, hermite(1).time_eval(grid))
    with pytest.raises(PreconditionError, match="closed-form"):
        combine([(1.0, sampled)])
    with pytest.raises(PreconditionError, match="closed-form"):
        chirp_window(sampled, 0.5)
    assert ClosedForm((1.0, 0.0, 0.0), 1.0).coef == (1.0 + 0.0j,)


def test_constructor_labels():
    assert gaussian().label == "gaussian"
    assert hermite(3).label == "hermite3"
    assert dilate(hermite(1), 0.5).label == "dilate(hermite1,b=0.5)"
    assert chirp_window(gaussian(), 0.8).label == "chirp(gaussian,q=0.8)"
    assert combine([(1.0, gaussian()), (0.4, hermite(1))]).label == "1.0*gaussian + 0.4*hermite1"


def test_real_argument_for_real_z():
    # a dilate evaluates its Hermite polynomial on a real argument with real
    # coefficients times one phase; a chirp on a complex one
    scale, _, phase, poly = dilate(hermite(5), 0.4).form.transform()._plan
    assert isinstance(scale, float) and all(isinstance(c, float) for c in poly) and phase == -1j
    scale, _, _, _ = chirp_window(hermite(5), 0.4).form._plan
    assert isinstance(scale, complex)
