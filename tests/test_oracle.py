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
from gaborcert.window import chirp_window, combine, dilate, gaussian, hermite, sample_grid, sampled_window


def frame_operator(model: FiniteGaborModel) -> np.ndarray:
    """Dense frame operator: the oracle's diagonal blocks at every residue scattered back to (m, m')."""
    n, q = model.n, model.q
    N = n // q
    rows = np.arange(N)[:, None] + N * np.arange(q)[None, :]
    S = np.zeros((n, n), dtype=complex)
    S[rows[:, :, None], rows[:, None, :]] = oracle._frame_blocks(model, np.arange(N))
    return S


def brute_frame_operator(model: FiniteGaborModel) -> np.ndarray:
    """The frame operator as A A^H, A holding one column per atom M_{lq} T_{pk} g of the lattice."""
    n, p, q = model.n, model.p, model.q
    idx = np.arange(n)
    shifted = model.window[(idx[:, None] - p * np.arange(n // p)[None, :]) % n]  # column k: T_{pk} g
    phases = np.exp(2j * np.pi * q * np.arange(n // q)[None, :] * idx[:, None] / n)  # column l: M_{lq}
    atoms = (phases[:, :, None] * shifted[:, None, :]).reshape(n, -1)
    return atoms @ atoms.conj().T


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
    # a numpy integer is an integer dimension
    assert snap_lattice(h1, 0.3, 1.0, np.int64(240)) == choice


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


@pytest.mark.parametrize("a, b", [(1e-300, 1e-300), (1e200, 1e200), (1e-300, 1e300), (1e300, 1e-300)])
def test_extreme_lattices_are_not_representable(gauss, a, b):
    # n*a*b underflows to 0 or overflows, or the spacing does: no divisor
    # pair comes near, and no float error escapes the scoring
    with pytest.raises(ParameterNotRepresentable):
        snap_lattice(gauss, a, b, 240)


@pytest.mark.parametrize("n", [240.0, 240.5, "240"])
def test_non_integer_dimension_is_a_precondition(gauss, n):
    with pytest.raises(PreconditionError, match="integer"):
        snap_lattice(gauss, 0.5, 1.0, n)
    with pytest.raises(PreconditionError, match="integer"):
        build_model(gauss, n, 2, 60, 0.1)


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


def complex_block_bounds(model: FiniteGaborModel) -> tuple[float, float]:
    """Smallest and largest block eigenvalue in complex arithmetic, whatever the window.

    The blocks of B_r = (n/q) G_r^T conj(G_r) from the samples as complex
    numbers, symmetrized and solved as complex Hermitian matrices."""
    n, p, q = model.n, model.p, model.q
    N = n // q
    index = np.arange(N)[:, None, None] + N * np.arange(q)[None, None, :] - p * np.arange(n // p)[None, :, None]
    G = model.window.astype(complex)[index % n]
    blocks = (n / q) * np.matmul(G.transpose(0, 2, 1), G.conj())
    eigenvalues = np.linalg.eigvalsh(0.5 * (blocks + blocks.conj().transpose(0, 2, 1)))
    return float(np.min(eigenvalues[:, 0])), float(np.max(eigenvalues[:, -1]))


REAL_WINDOWS = {"gaussian": gaussian(), "hermite:1": hermite(1)}


def test_real_windows_get_real_blocks():
    for w in REAL_WINDOWS.values():
        assert oracle._frame_blocks(model_for(w, 0.5, 1.0, 240), np.arange(2)).dtype == np.float64
    chirp = model_for(BLOCK_WINDOWS["chirp(hermite:1)"], 0.5, 1.0, 240)
    assert oracle._frame_blocks(chirp, np.arange(2)).dtype == np.complex128


@pytest.mark.parametrize("name", sorted(REAL_WINDOWS))
@pytest.mark.parametrize("n", [240, 360, 480, 512])
@pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.8, 0.5)])
def test_real_block_bounds_match_complex_arithmetic(name, n, a, b):
    model = model_for(REAL_WINDOWS[name], a, b, n)
    low, B = complex_block_bounds(model)
    bounds = finite_frame_bounds(model)
    tol = n * np.finfo(float).eps * B
    assert abs(bounds.B - B) <= tol
    assert abs(bounds.A - max(low, 0.0)) <= tol


# --- one block per time-shift orbit, one per mirror pair ------------------------

ORBIT_WINDOWS = {
    "gaussian": gaussian(),
    "hermite:3": hermite(3),
    "chirp(hermite:1)": chirp_window(hermite(1), 0.7),
}
# gcd(p, n/q) = 1, = n/q (p*q <= n keeps p <= n/q), and 3, 4, 3 of 6, 12, 45;
# at odd n, 3 of 9, 9 of 9, 5 of 35 and 15 of 15
ORBIT_STEPS = [
    (36, 1, 6), (36, 12, 3), (48, 3, 8), (60, 4, 5), (360, 12, 8),
    (45, 3, 5), (45, 9, 5), (105, 5, 3), (105, 15, 7),
]


def _block_spectra(model):
    """The eigenvalues of every block r < n/q, one row per block."""
    blocks = oracle._frame_blocks(model, np.arange(model.n // model.q))
    return np.linalg.eigvalsh(0.5 * (blocks + blocks.conj().transpose(0, 2, 1)))


def _solved_blocks(monkeypatch, model):
    """finite_frame_bounds of the model, with the number of blocks it solved."""
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        solved.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    try:
        return finite_frame_bounds(model), solved
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(ORBIT_WINDOWS))
@pytest.mark.parametrize("n,p,q", ORBIT_STEPS)
def test_blocks_share_the_spectrum_of_their_time_shift_orbit(monkeypatch, name, n, p, q):
    # the time shift by p maps residue r to r + p mod n/q, so block r has the
    # eigenvalues of block r mod G, G = gcd(p, n/q); the reflection of these
    # even or odd samples maps it to block (c - r) mod G, c = 2*(n//2), and
    # the bounds solve one block per pair of orbits
    model = build_model(ORBIT_WINDOWS[name], n, p, q, 0.3)
    c = 2 * (n // 2)
    mirror = model.window[(c - np.arange(n)) % n]
    assert np.array_equal(mirror, model.window) or np.array_equal(mirror, -model.window)
    N = n // q
    orbits = math.gcd(p, N)
    eigenvalues = _block_spectra(model)
    B = float(np.max(eigenvalues))
    tol = n * np.finfo(float).eps * B
    assert float(np.max(np.abs(eigenvalues - eigenvalues[np.arange(N) % orbits]))) <= tol
    assert float(np.max(np.abs(eigenvalues - eigenvalues[(c - np.arange(N)) % orbits]))) <= tol
    bounds, solved = _solved_blocks(monkeypatch, model)
    residues = np.arange(orbits)
    assert solved == [int(np.sum(residues <= (c - residues) % orbits))]
    assert solved[0] < orbits or orbits <= 2
    assert abs(bounds.B - B) <= tol
    assert abs(bounds.A - max(float(np.min(eigenvalues)), 0.0)) <= tol


def _asymmetric_sampled():
    t = sample_grid()
    return sampled_window(t, np.exp(-math.pi * (t - 0.2) ** 2) * (1.0 + 0.5 * t))


def _odd_but_for_sample_0(n, p, q):
    """hermite:1 samples with sample 0, which t -> -t maps to itself for even n, not 0."""
    model = build_model(hermite(1), n, p, q, 0.3)
    samples = model.window.copy()
    samples[0] = 0.3 * np.max(np.abs(samples))
    return dataclasses.replace(model, window=samples / np.linalg.norm(samples))


@pytest.mark.parametrize("name", ["combo:h0+0.4h1", "sampled, off centre", "odd but for sample 0"])
@pytest.mark.parametrize("n,p,q", [(36, 12, 3), (45, 9, 5), (60, 4, 5)])
def test_windows_without_mirror_symmetry_solve_every_orbit(monkeypatch, name, n, p, q):
    if name.startswith("odd"):
        model = _odd_but_for_sample_0(n, p, q)
    else:
        w = combine([(1.0, hermite(0)), (0.4, hermite(1))]) if name.startswith("combo") else _asymmetric_sampled()
        model = build_model(w, n, p, q, 0.3)
    eigenvalues = _block_spectra(model)
    bounds, solved = _solved_blocks(monkeypatch, model)
    assert solved == [math.gcd(p, n // q)]
    B = float(np.max(eigenvalues))
    tol = n * np.finfo(float).eps * B
    assert abs(bounds.B - B) <= tol
    assert abs(bounds.A - max(float(np.min(eigenvalues)), 0.0)) <= tol


@pytest.mark.parametrize(
    "low,A",
    [(-1e-11, 0.0), (0.0, 0.0), (5e-15, 0.0), (1e-14, 1e-14), (0.25, 0.25)],
)
def test_zero_floor_rule(monkeypatch, gauss, low, A):
    # n = 36: eigenvalues up to 36 * eps * B = 8.0e-15 * B read as A = 0
    model = build_model(gauss, 36, 2, 3, 0.3)
    monkeypatch.setattr(oracle, "_frame_blocks", lambda m, residues: np.array([np.diag([low, 1.0])], dtype=complex))
    bounds = finite_frame_bounds(model)
    assert (bounds.A, bounds.B) == (A, 1.0)


def test_zero_floor_rejects_negative_spectrum(monkeypatch, gauss):
    model = build_model(gauss, 36, 2, 3, 0.3)
    monkeypatch.setattr(oracle, "_frame_blocks", lambda m, residues: np.array([np.diag([-1e-9, 1.0])], dtype=complex))
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


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _exhaustive_snap(w, a, b, n):
    """Every candidate's wrap defect, best score kept; returns (choice, scores).

    The reference rule as a loop over divisor pairs, with math.log.  A
    score is (|log rho|, |log coverage/16|, p, spacing); p fixes the pair."""
    subcritical = a * b < 1.0 - 1e-12
    best, best_score, scores = None, None, []
    for p in _divisors(n):
        for q in _divisors(n):
            if p * q > n:
                continue
            if subcritical and p * q == n:
                continue
            spacing = math.sqrt(a * q / (b * p * n))
            rho = math.sqrt(p * q / (n * a * b))
            if abs(math.log(rho)) > oracle._LENIENT_LOG_RHO:
                continue
            coverage = n * spacing
            score = (abs(math.log(rho)), abs(math.log(coverage / 16.0)), p, spacing)
            scores.append(score)
            if oracle._wrap_defect(w, n, spacing) > oracle._WRAP_TOL:
                continue
            if best_score is None or score < best_score:
                best_score = score
                best = SnapChoice(p=p, q=q, spacing=spacing, rho=rho, coverage=coverage)
    return best, sorted(scores)


def _tie_prone_targets(n):
    """Targets whose scores tie, or nearly, in their leading keys.

    n*a*b an integer; n*a*b the geometric mean (equal |log rho|) and the
    arithmetic mean of two neighbouring divisor-pair products; (4, q) at
    coverage 8, so that (1, 4q) of the same product sits at coverage 32;
    and a square target whose one pair within reach, (1, 1), sits 1e-12
    past |log rho| = log 1.25, inside the np.log screen's slack."""
    products = sorted({p * q for p in _divisors(n) for q in _divisors(n) if p * q <= n})
    lo, hi = products[len(products) // 2 - 1 : len(products) // 2 + 1]
    q = max(d for d in _divisors(n // 4) if 16 * d <= n)
    edge = (n * 1.5625 * (1.0 + 2e-12)) ** -0.5
    return [
        (0.4, (n // 3) / (0.4 * n)),
        (1.0, math.sqrt(lo * hi) / n),
        (1.0, (lo + hi) / (2.0 * n)),
        (32.0 / n, q / 8.0),
        (edge, edge),
    ]


SNAP_WINDOWS = {
    "gaussian": gaussian(),
    "hermite:1": hermite(1),
    "dilate(gaussian,4)": dilate(gaussian(), 4.0),
    "chirp(hermite:1)": chirp_window(hermite(1), 0.7),
}
SNAP_GRID = [
    (name, a, b, n)
    for name in SNAP_WINDOWS
    for n in (36, 45, 48, 105, 240, 360, 480, 512)
    for a, b in [(0.5, 1.0), (1.0, 0.5), (2.0, 0.25), (0.3, 1.0), (0.75, 0.75), (0.9985, 1.0), (0.001, 0.001)]
    + _tie_prone_targets(n)
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
    """The library search, with the spacings of its defect evaluations."""
    calls = _spy_defects(monkeypatch)
    try:
        return snap_lattice(w, a, b, n), calls
    except ParameterNotRepresentable:
        return None, calls
    finally:
        monkeypatch.undo()


def test_ordered_snap_matches_exhaustive_rule(monkeypatch):
    fallthrough = later_groups = ties = cover_ties = refused_after_wrap = refused_outright = 0
    for name, a, b, n in SNAP_GRID:
        w = SNAP_WINDOWS[name]
        expected, scores = _exhaustive_snap(w, a, b, n)
        got, calls = _ordered_snap(monkeypatch, w, a, b, n)
        assert got == expected, (name, a, b, n)
        # the wrap tests run in the exhaustive rule's order, group after group
        assert calls == [s[3] for s in scores[: len(calls)]], (name, a, b, n)
        evaluations = len(calls)
        later_groups += evaluations > 0 and scores[evaluations - 1][0] - scores[0][0] > 1e-9
        if got is not None:
            # Python scalars, not numpy ones: reports pass them to json.dumps
            assert [type(v) for v in dataclasses.astuple(got)] == [int, int, float, float, float]
            fallthrough += evaluations > 1
        elif scores:
            assert evaluations == len(scores)
            refused_after_wrap += 1
        else:
            assert evaluations == 0
            refused_outright += 1
        ties += any(s[:2] == t[:2] for s, t in zip(scores, scores[1:]))
        # coverage 8 against 32 at one |log rho|: only p orders them
        cover_ties += any(s[:2] == t[:2] and s[1] == math.log(2.0) for s, t in zip(scores, scores[1:]))
    # the grid exercises every branch of the rule
    assert fallthrough >= 3
    assert later_groups >= 3
    assert ties >= 3
    assert cover_ties >= 1
    assert refused_after_wrap >= 1
    assert refused_outright >= 1


class _NoisyLog:
    """numpy, with np.log off by up to 1e-10 either way."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        out = np.log(x)
        return out + self._rng.uniform(-1e-10, 1e-10, np.shape(out))


def test_snap_groups_absorb_screen_rounding(monkeypatch):
    # the groups split where the np.log screen jumps by more than 1e-9, so
    # screen errors far above the ulps np.log and math.log differ by still
    # leave every choice, and every wrap test's turn, to math.log
    for name, a, b, n in SNAP_GRID:
        w = SNAP_WINDOWS[name]
        expected, scores = _exhaustive_snap(w, a, b, n)
        monkeypatch.setattr(oracle, "np", _NoisyLog())
        got, calls = _ordered_snap(monkeypatch, w, a, b, n)
        assert got == expected, (name, a, b, n)
        assert calls == [s[3] for s in scores[: len(calls)]], (name, a, b, n)


def test_snap_evaluates_one_defect_when_the_best_score_covers(monkeypatch, gauss):
    calls = _spy_defects(monkeypatch)
    choice = snap_lattice(gauss, 0.5, 1.0, 240)
    assert len(calls) == 1
    assert calls == [choice.spacing]


def test_model_for_is_snap_then_build(gauss):
    # snapping evaluates the wrap defect of the winning candidate only, and
    # the gaussian's time envelope decides it from the n central samples;
    # the model then evaluates all five periodized copies in one call
    points = []

    def time_eval(t):
        points.append(np.size(t))
        return gauss.time_eval(t)

    spy = dataclasses.replace(gauss, time_eval=time_eval)
    n = 240
    model = model_for(spy, 0.5, 1.0, n)
    assert points == [n, 5 * n]
    np.testing.assert_array_equal(model.window, model_for(gauss, 0.5, 1.0, n).window)
    np.testing.assert_array_equal(model.window, build_model(gauss, n, model.p, model.q, model.spacing).window)


def _counted_defect(w, n, spacing):
    """_wrap_defect of the window, with the sizes of its time_eval calls."""
    points = []

    def time_eval(t):
        points.append(np.size(t))
        return w.time_eval(t)

    return oracle._wrap_defect(dataclasses.replace(w, time_eval=time_eval), n, spacing), points


def _probe(w, n, spacing):
    """The sampled probe alone: _wrap_defect of the window without its closed form."""
    return oracle._wrap_defect(dataclasses.replace(w, form=None), n, spacing)


def test_envelope_bound_passes_only_where_the_probe_passes():
    # on every candidate spacing of the snap grid: where the envelope bound
    # decides (one time_eval of the n central samples), the probe passes too
    # and reads at most the bound; elsewhere the result is the probe's
    decided = probed = 0
    for name, a, b, n in SNAP_GRID:
        w = SNAP_WINDOWS[name]
        for score in _exhaustive_snap(w, a, b, n)[1]:
            spacing = score[3]
            defect, points = _counted_defect(w, n, spacing)
            probe = _probe(w, n, spacing)
            if points == [n]:
                # a probe below 1e-150 sums subnormal squares, which lose digits
                assert probe <= max(defect, 1e-150) and defect <= oracle._WRAP_TOL, (name, n, spacing)
                decided += 1
            else:
                assert defect == probe, (name, n, spacing)
                probed += 1
    assert decided >= 1000
    assert probed >= 10


def test_window_whose_bound_fails_runs_the_probe():
    # the envelope of a wide sixth Hermite function overstates its tail:
    # at n = 36, spacing 1 the bound reads above 1e-8 and the probe below
    w = dilate(hermite(6), 6.0)
    n, spacing = 36, 1.0
    defect, points = _counted_defect(w, n, spacing)
    assert points == [n, n + 1 + 2 * math.ceil(16.0 / spacing)]
    assert defect == _probe(w, n, spacing)
    assert defect <= oracle._WRAP_TOL


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


def test_model_for_and_equivalence_reach_snap_and_build(monkeypatch, gauss, h1):
    # both go through the module's snap_lattice and build_model, once per
    # model, with the snapped steps and the targets: the path a tracer wraps
    snaps, builds = [], []
    real_snap, real_build = oracle.snap_lattice, oracle.build_model

    def snap_spy(w, a, b, n=oracle.DEFAULT_DIM):
        choice = real_snap(w, a, b, n)
        snaps.append((w.label, a, b, n, choice))
        return choice

    def build_spy(w, n, p, q, spacing, target_a=None, target_b=None):
        builds.append((w.label, n, p, q, spacing, target_a, target_b))
        return real_build(w, n, p, q, spacing, target_a, target_b)

    monkeypatch.setattr(oracle, "snap_lattice", snap_spy)
    monkeypatch.setattr(oracle, "build_model", build_spy)
    model = model_for(h1, 0.75, 1.0, 240)
    ((label, *args, choice),) = snaps
    assert (label, *args) == (h1.label, 0.75, 1.0, 240)
    assert builds == [(h1.label, 240, choice.p, choice.q, choice.spacing, 0.75, 1.0)]
    assert (model.p, model.q, model.spacing) == (choice.p, choice.q, choice.spacing)

    snaps.clear()
    builds.clear()
    report = equivalence_check(gauss, 0.5, 0.8, 240)
    assert [s[1:4] for s in snaps] == [(0.5, 0.8, 240), (0.5 * 0.8, 1.0, 240)]
    assert builds == [(s[0], 240, s[4].p, s[4].q, s[4].spacing, s[1], s[2]) for s in snaps]
    for model, (_, _, p, q, spacing, a, b) in zip((report.model_rect, report.model_square), builds):
        assert (model.p, model.q, model.spacing, model.target_a, model.target_b) == (p, q, spacing, a, b)


def test_records_derive_snapped_sides_and_gap(gauss, h1):
    # the snapped sides and the gap follow from the stored fields, to the
    # bits of the expressions they replace
    model_fields = {f.name for f in dataclasses.fields(FiniteGaborModel)}
    report_fields = {f.name for f in dataclasses.fields(oracle.EquivalenceReport)}
    assert not {"snapped_a", "snapped_b"} & model_fields
    assert "rel_gap" not in report_fields
    for w in (gauss, h1, _asymmetric_sampled()):
        model = model_for(w, 0.5, 1.0, 240)
        assert model.snapped_a == model.p * model.spacing
        assert model.snapped_b == model.q / (model.n * model.spacing)
        default = build_model(w, model.n, model.p, model.q, model.spacing)
        assert (default.target_a, default.target_b) == (model.snapped_a, model.snapped_b)
        report = equivalence_check(w, 0.5, 1.0, 240)
        assert report.rel_gap == abs(report.bounds_rect.ratio - report.bounds_square.ratio)
