"""Finite Gabor models: collapse identity, snapping policy, frame bounds."""

import dataclasses
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaborcert
from gaborcert import (
    DegenerateError,
    ParameterNotRepresentable,
    PreconditionError,
    build_model,
    equivalence_check,
    finite_frame_bounds,
    model_for,
    snap_lattice,
)
from gaborcert import oracle
from gaborcert.oracle import FiniteGaborModel, SnapChoice
from gaborcert.window import chirp_window, dilate, gaussian, hermite


def frame_operator(model: FiniteGaborModel) -> np.ndarray:
    """Dense frame operator: the oracle's diagonal blocks scattered back to (m, m')."""
    n, q = model.n, model.q
    N = n // q
    rows = np.arange(N)[:, None] + N * np.arange(q)[None, :]
    S = np.zeros((n, n), dtype=complex)
    S[rows[:, :, None], rows[:, None, :]] = oracle._frame_blocks(model)
    return S


def brute_frame_operator(model: FiniteGaborModel) -> np.ndarray:
    """The frame operator as a literal sum of atom outer products, over every lattice shift."""
    n, p, q = model.n, model.p, model.q
    idx = np.arange(n)
    S = np.zeros((n, n), dtype=complex)
    for k in range(n // p):
        shifted = np.roll(model.window, p * k)
        for ell in range(n // q):
            atom = np.exp(2j * np.pi * q * ell * idx / n) * shifted
            S += np.outer(atom, atom.conj())
    return S


def test_full_lattice_resolves_identity(gauss):
    # p = q = 1 makes the system a tight frame with A = B = n
    model = build_model(gauss, 48, 1, 1, 0.25)
    bounds = finite_frame_bounds(model)
    assert abs(bounds.A - 48.0) <= 1e-12 * 48.0
    assert abs(bounds.B - 48.0) <= 1e-12 * 48.0
    assert bounds.ratio >= 1.0 - 1e-13


@pytest.mark.parametrize("p,q", [(2, 3), (4, 6)])
def test_collapsed_operator_matches_brute_force(h1, p, q):
    model = build_model(h1, 36, p, q, 0.3)
    fast = frame_operator(model)
    slow = brute_frame_operator(model)
    scale = float(np.max(np.abs(slow)))
    assert float(np.max(np.abs(fast - slow))) <= 1e-12 * scale


def test_frame_operator_is_hermitian(gauss):
    model = model_for(gauss, 0.5, 1.0)
    S = frame_operator(model)
    bounds = finite_frame_bounds(model)
    asym = float(np.max(np.abs(S - S.conj().T)))
    assert asym <= 1e-10 * bounds.B
    # Gershgorin: every eigenvalue is at most the largest absolute row sum
    assert bounds.B <= float(np.max(np.sum(np.abs(S), axis=1))) + 1e-9


def test_snap_hits_exact_divisors(gauss, h1):
    choice = snap_lattice(gauss, 0.5, 1.0, 240)
    assert abs(choice.rho - 1.0) <= 1e-12
    assert choice.p * choice.q == 120
    choice = snap_lattice(h1, 0.3, 1.0, 240)
    assert abs(choice.rho - 1.0) <= 1e-12
    assert choice.p * choice.q == 72


def test_subcritical_never_snaps_critical(gauss):
    # 0.9985 cannot be represented exactly; the nearest divisor product is
    # the critical p*q = n, which the policy must refuse for a*b < 1
    model = model_for(gauss, 0.9985, 1.0, 240)
    assert model.p * model.q < 240
    assert model.covolume < 1.0


def test_snap_rejects_unrepresentable(gauss):
    with pytest.raises(ParameterNotRepresentable):
        snap_lattice(gauss, 0.001, 0.001, 240)
    with pytest.raises(PreconditionError):
        snap_lattice(gauss, -1.0, 1.0, 240)
    with pytest.raises(PreconditionError):
        snap_lattice(gauss, 0.5, 1.0, 1024)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("a, b", [("1e-5", "1e5"), ("1e-9", "1e9")])
def test_spacings_too_fine_to_probe_are_not_representable(a, b):
    # every candidate spacing is at most 1e-5 (1e-9), where a probe reaching
    # 16 past the covered interval takes at least 3e6 (3e10) points: the
    # capped probe refuses them at once.  The child runs under a 3 GiB
    # address-space limit, so an unbounded probe fails there, fast, and does
    # not exhaust the machine.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    package_root = str(Path(gaborcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "gaborcert", "oracle", "--window", "hermite:1", "--a", a, "--b", b],
        capture_output=True, timeout=120, env=env, preexec_fn=_limit_address_space,
    )
    assert result.returncode == 3, result.stderr
    assert b"no divisor pair" in result.stderr


def test_build_model_validation(gauss):
    with pytest.raises(PreconditionError):
        build_model(gauss, 36, 5, 1, 0.25)  # p does not divide n
    with pytest.raises(PreconditionError):
        build_model(gauss, 36, 9, 6, 0.25)  # p*q > n: undersampled
    with pytest.raises(PreconditionError):
        build_model(gauss, 36, 4, 6, 0.0)


@pytest.mark.parametrize(
    "a,b", [(0.5, 1.0), (0.5, 0.8), (0.75, 1.0)]
)
def test_equivalence_of_rect_and_square_forms(gauss, h1, a, b):
    w = h1 if (a, b) == (0.75, 1.0) else gauss
    report = equivalence_check(w, a, b)
    assert report.rel_gap <= 0.05
    assert abs(report.model_rect.rho - 1.0) <= 0.01
    assert abs(report.model_square.rho - 1.0) <= 0.01


def test_equivalence_requires_tight_snap(gauss):
    # 0.9 * 240 = 216 has no divisor-pair product within 1%
    with pytest.raises(ParameterNotRepresentable):
        equivalence_check(gauss, 0.9, 1.0)


def test_interior_obstruction_is_faithful(h1):
    # for this window the discrete system at p*q/n = 1/2 is exactly singular
    model = build_model(h1, 36, 3, 6, math.sqrt(6.0 / 36.0))
    bounds = finite_frame_bounds(model)
    assert bounds.A == 0.0
    assert bounds.B > 0.0
    # ... and stays singular at 5/6 on a finer grid
    model = build_model(h1, 180, 10, 15, math.sqrt(15.0 / 1800.0))
    bounds = finite_frame_bounds(model)
    assert bounds.ratio < 1e-8


def test_gaussian_interior_bounds_are_positive(gauss):
    model = build_model(gauss, 144, 8, 9, math.sqrt(9.0 / (144.0 * 8.0)))
    bounds = finite_frame_bounds(model)
    assert bounds.A > 0.0
    assert 0.5 < bounds.ratio < 1.0


def test_model_metadata(gauss):
    model = model_for(gauss, 0.5, 1.0, 240)
    assert model.label == "gaussian"
    assert model.n == 240
    assert abs(model.snapped_a - 0.5) <= 1e-12
    assert abs(model.snapped_b - 1.0) <= 1e-12
    assert abs(model.covolume - 0.5) <= 1e-12
    assert abs(float(np.linalg.norm(model.window)) - 1.0) <= 1e-9


# --- the block (Walnut) form against the literal atom sum ---------------------

BLOCK_WINDOWS = {
    "gaussian": gaussian(),
    # complex samples: a dropped conj in the block product shows here only
    "chirp(hermite:1)": chirp_window(hermite(1), 0.7),
}


@pytest.mark.parametrize("name", sorted(BLOCK_WINDOWS))
@pytest.mark.parametrize(
    "n,p,q", [(36, 1, 1), (36, 1, 6), (36, 6, 1), (36, 2, 3), (36, 4, 9), (36, 6, 6), (48, 3, 8)]
)
def test_block_operator_matches_brute_force(name, n, p, q):
    model = build_model(BLOCK_WINDOWS[name], n, p, q, 0.3)
    slow = brute_frame_operator(model)
    scale = float(np.max(np.abs(slow)))
    if name.startswith("chirp") and 2 * p * q >= n:
        # highly redundant (small p*q) systems come out real even for complex
        # windows; the others must not, or this case could not catch a lost conj
        assert float(np.max(np.abs(slow.imag))) > 1e-3 * scale
    assert float(np.max(np.abs(frame_operator(model) - slow))) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["gaussian", "hermite:1"])
@pytest.mark.parametrize("n", [240, 360, 480, 512])
def test_block_bounds_match_dense_eigensolve(name, n):
    w = gaussian() if name == "gaussian" else hermite(1)
    model = model_for(w, 0.5, 1.0, n)
    eigenvalues = np.linalg.eigvalsh(brute_frame_operator(model))
    bounds = finite_frame_bounds(model)
    B = float(eigenvalues[-1])
    assert abs(bounds.B - B) <= 1e-12 * B
    assert abs(bounds.A - max(float(eigenvalues[0]), 0.0)) <= 1e-12 * B


@pytest.mark.parametrize(
    "low,A",
    [(-1e-11, 0.0), (0.0, 0.0), (5e-15, 0.0), (1e-14, 1e-14), (0.25, 0.25)],
)
def test_zero_floor_rule(monkeypatch, gauss, low, A):
    # n = 36: eigenvalues up to 36 * eps * B = 8.0e-15 * B read as A = 0
    model = build_model(gauss, 36, 2, 3, 0.3)
    monkeypatch.setattr(oracle, "_frame_blocks", lambda m: np.array([np.diag([low, 1.0])], dtype=complex))
    bounds = finite_frame_bounds(model)
    assert (bounds.A, bounds.B) == (A, 1.0)


def test_zero_floor_rejects_negative_spectrum(monkeypatch, gauss):
    model = build_model(gauss, 36, 2, 3, 0.3)
    monkeypatch.setattr(oracle, "_frame_blocks", lambda m: np.array([np.diag([-1e-9, 1.0])], dtype=complex))
    with pytest.raises(DegenerateError):
        finite_frame_bounds(model)


@pytest.mark.parametrize("n,p,q", [(48, 2, 12), (60, 3, 10)])
def test_singular_models_report_zero(h1, n, p, q):
    # p*q/n = 1/2 for the first Hermite window: the operator is exactly
    # singular and its smallest eigenvalue comes out as rounding noise
    bounds = finite_frame_bounds(build_model(h1, n, p, q, math.sqrt(q / (n * p))))
    assert bounds.A == 0.0
    assert bounds.B > 1.0


# --- the score-ordered snap search against the exhaustive rule ----------------


def _exhaustive_snap(w, a, b, n):
    """Every candidate's wrap defect, best score kept; returns (choice, scores)."""
    subcritical = a * b < 1.0 - 1e-12
    best, best_score, scores = None, None, []
    for p in oracle._divisors(n):
        for q in oracle._divisors(n):
            if p * q > n:
                continue
            if subcritical and p * q == n:
                continue
            spacing = math.sqrt(a * q / (b * p * n))
            rho = math.sqrt(p * q / (n * a * b))
            if abs(math.log(rho)) > oracle._LENIENT_LOG_RHO:
                continue
            coverage = n * spacing
            score = (abs(math.log(rho)), abs(math.log(coverage / 16.0)), p)
            scores.append(score)
            if oracle._wrap_defect(w, n, spacing) > oracle._WRAP_TOL:
                continue
            if best_score is None or score < best_score:
                best_score = score
                best = SnapChoice(p=p, q=q, spacing=spacing, rho=rho, coverage=coverage)
    return best, sorted(scores)


SNAP_WINDOWS = {
    "gaussian": gaussian(),
    "hermite:1": hermite(1),
    "dilate(gaussian,4)": dilate(gaussian(), 4.0),
    "chirp(hermite:1)": chirp_window(hermite(1), 0.7),
}
SNAP_GRID = [
    (name, a, b, n)
    for name in SNAP_WINDOWS
    for n in (36, 48, 240)
    for a, b in [(0.5, 1.0), (1.0, 0.5), (2.0, 0.25), (0.3, 1.0), (0.75, 0.75), (0.9985, 1.0), (0.001, 0.001)]
]


def _spy_defects(monkeypatch):
    calls = []
    real = oracle._wrap_defect

    def spy(w, n, spacing):
        calls.append(spacing)
        return real(w, n, spacing)

    monkeypatch.setattr(oracle, "_wrap_defect", spy)
    return calls


def _ordered_snap(monkeypatch, w, a, b, n):
    """The library search, with its number of defect evaluations."""
    calls = _spy_defects(monkeypatch)
    try:
        return snap_lattice(w, a, b, n), len(calls)
    except ParameterNotRepresentable:
        return None, len(calls)
    finally:
        monkeypatch.undo()


def test_ordered_snap_matches_exhaustive_rule(monkeypatch):
    fallthrough = ties = refused_after_wrap = refused_outright = 0
    for name, a, b, n in SNAP_GRID:
        w = SNAP_WINDOWS[name]
        expected, scores = _exhaustive_snap(w, a, b, n)
        got, evaluations = _ordered_snap(monkeypatch, w, a, b, n)
        assert got == expected, (name, a, b, n)
        if got is not None:
            fallthrough += evaluations > 1
        elif scores:
            assert evaluations == len(scores)
            refused_after_wrap += 1
        else:
            assert evaluations == 0
            refused_outright += 1
        ties += any(s[:2] == t[:2] for s, t in zip(scores, scores[1:]))
    # the grid exercises every branch of the rule
    assert fallthrough >= 3
    assert ties >= 3
    assert refused_after_wrap >= 1
    assert refused_outright >= 1


def test_snap_evaluates_one_defect_when_the_best_score_covers(monkeypatch, gauss):
    calls = _spy_defects(monkeypatch)
    choice = snap_lattice(gauss, 0.5, 1.0, 240)
    assert len(calls) == 1
    assert calls == [choice.spacing]


def test_model_evaluates_the_window_once(gauss):
    # snapping evaluates the wrap defect of the winning candidate only, on
    # one grid from the probes below the central samples to the probes
    # above them; the model, the five periodized copies
    points = []

    def time_eval(t):
        points.append(np.size(t))
        return gauss.time_eval(t)

    spy = dataclasses.replace(gauss, time_eval=time_eval)
    n = 240
    choice = snap_lattice(gauss, 0.5, 1.0, n)
    model = model_for(spy, 0.5, 1.0, n)
    probes = 2 * math.ceil(16.0 / choice.spacing)
    assert points == [n + 1 + probes, 5 * n]
    np.testing.assert_array_equal(model.window, model_for(gauss, 0.5, 1.0, n).window)


def test_periodized_copies_sum_as_a_loop_does(gauss, h1):
    # one evaluation of the five copies side by side, summed in the order
    # of a loop over them: the same bits
    n = 240
    for w in (gauss, h1, dilate(h1, 0.37)):
        choice = snap_lattice(w, 0.5, 1.0, n)
        m = (np.arange(n) - n // 2) * choice.spacing
        total = np.zeros(n, dtype=complex)
        for j in range(-2, 3):
            total += w.time_eval(m + j * n * choice.spacing)
        model = model_for(w, 0.5, 1.0, n)
        np.testing.assert_array_equal(model.window, total / float(np.linalg.norm(total)))
