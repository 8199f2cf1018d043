"""Iwasawa factorization of planar lattices and window-side reduction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaborcert import (
    IwasawaFactors,
    Lattice2D,
    Parity,
    PreconditionError,
    certify,
    delta_g,
    dilate,
    gaussian,
    hermite,
    iwasawa,
    rect,
    reduce_general,
    rotation_matrix,
    sample_window,
)


def test_identity_factorization():
    factors = iwasawa(rect(1.0, 1.0))
    assert factors.scale == 1.0
    assert factors.r == 0.0
    assert factors.q == 0.0
    assert factors.a == 1.0


def test_rectangle_factorization():
    factors = iwasawa(rect(2.0, 0.5))
    assert abs(factors.scale - 1.0) <= 1e-15
    assert factors.r == 0.0
    assert factors.q == 0.0
    assert abs(factors.a - 2.0) <= 1e-15


def test_known_composition_recovered():
    target = IwasawaFactors(scale=0.8, r=math.pi / 4.0, q=0.3, a=1.5)
    back = iwasawa(target.compose())
    assert abs(back.scale - target.scale) <= 1e-14
    assert abs(back.r - target.r) <= 1e-14
    assert abs(back.q - target.q) <= 1e-13
    assert abs(back.a - target.a) <= 1e-13


@given(
    scale=st.floats(min_value=0.3, max_value=3.0),
    r=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi),
    q=st.floats(min_value=-5.0, max_value=5.0),
    a=st.floats(min_value=0.2, max_value=5.0),
)
def test_factorization_roundtrip(scale, r, q, a):
    lattice = IwasawaFactors(scale=scale, r=r, q=q, a=a).compose()
    back = iwasawa(lattice)
    assert -math.pi < back.r <= math.pi
    rebuilt = back.compose().basis
    tol = 1e-12 * scale
    assert float(np.max(np.abs(rebuilt - lattice.basis))) <= tol


def test_negative_det_basis_is_same_lattice():
    basis = np.array([[0.0, 1.0], [1.0, 0.0]])  # det = -1
    L = Lattice2D(basis=basis)
    factors = iwasawa(L)
    assert abs(factors.scale - 1.0) <= 1e-15
    rebuilt = factors.compose()
    assert abs(rebuilt.covolume - L.covolume) <= 1e-14
    # the rebuilt basis spans the same integer lattice: columns swapped
    assert float(np.max(np.abs(rebuilt.basis - basis[:, ::-1]))) <= 1e-14


def test_lattice_validation():
    with pytest.raises(PreconditionError):
        Lattice2D(basis=np.zeros((2, 2)))
    with pytest.raises(PreconditionError):
        Lattice2D(basis=np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(PreconditionError):
        Lattice2D(basis=np.full((2, 2), np.nan))
    with pytest.raises(PreconditionError):
        rect(-1.0, 1.0)
    with pytest.raises(PreconditionError):
        IwasawaFactors(scale=1.0, r=4.0, q=0.0, a=1.0)
    with pytest.raises(PreconditionError):
        IwasawaFactors(scale=-1.0, r=0.0, q=0.0, a=1.0)


def lattice_to_json(L: Lattice2D) -> dict:
    return {"basis": [[float(v) for v in row] for row in L.basis]}


def lattice_from_json(payload: dict) -> Lattice2D:
    if not isinstance(payload, dict) or "basis" not in payload:
        raise PreconditionError("lattice payload must carry a 'basis' key")
    return Lattice2D(basis=np.asarray(payload["basis"], dtype=float))


def test_lattice_json_roundtrip():
    L = Lattice2D(basis=np.array([[1.25, 0.5], [-0.25, 1.0]]))
    back = lattice_from_json(json.loads(json.dumps(lattice_to_json(L))))
    assert np.array_equal(back.basis, L.basis)
    with pytest.raises(PreconditionError):
        lattice_from_json({"rows": []})


def test_rectangular_reduction_is_exact_dilation(h1):
    result = reduce_general(h1, rect(0.7, 0.5))
    assert result.steps == (("dilate", result.factors.scale / result.factors.a),)
    assert abs(result.delta_eff - 0.35) <= 1e-15
    assert result.parity_preserved
    direct = dilate(h1, result.steps[0][1])
    assert result.window.label == direct.label
    assert result.window.parity is Parity.ODD
    t = np.linspace(-3.0, 3.0, 31)
    assert np.array_equal(result.window.time_eval(t), direct.time_eval(t))


def test_rotated_gaussian_reduces_to_gaussian(gauss):
    L = Lattice2D(basis=rotation_matrix(math.pi / 5.0))
    result = reduce_general(gauss, L)
    assert abs(result.delta_eff - 1.0) <= 1e-12
    assert result.parity_preserved
    # the Gaussian is invariant in modulus under every metaplectic factor
    reference = sample_window(gauss)
    reduced = sample_window(result.window)
    err = float(np.max(np.abs(np.abs(reduced) - np.abs(reference))))
    assert err <= 1e-6
    before = delta_g(gauss, 0.5).value
    after = delta_g(result.window, 0.5).value
    assert abs(after - before) <= 1e-6 * before


def test_sheared_h1_stays_odd(h1):
    L = Lattice2D(basis=np.array([[1.0, 0.0], [0.4, 1.0]]) * 0.75)
    result = reduce_general(h1, L)
    tags = tuple(tag for tag, _ in result.steps)
    assert tags == ("frac_fourier", "chirp", "dilate")
    assert result.window.parity is Parity.ODD
    assert result.parity_preserved
    assert abs(result.delta_eff - L.covolume) <= 1e-12
    assert result.factors.q != 0.0


def test_reduction_json_shape(h1):
    result = reduce_general(h1, rect(0.6, 0.7))
    payload = result.to_json()
    assert set(payload) == {
        "label",
        "parity",
        "delta_eff",
        "steps",
        "factors",
        "parity_preserved",
    }
    assert payload["parity"] == "odd"
    assert payload["steps"][0][0] == "dilate"
    assert set(payload["factors"]) == {"scale", "r", "q", "a"}


def test_odd_window_above_half_covolume_stays_inconclusive(h1):
    # covolume 0.64 >= 1/2: the reduced square system cannot be certified
    L = Lattice2D(basis=rotation_matrix(0.3) * 0.8)
    result = reduce_general(h1, L)
    assert result.window.parity is Parity.ODD
    verdict = certify(result.window, result.delta_eff, grid_points=201)
    assert verdict.status == "Inconclusive"
    assert verdict.rigorous  # the exact image carries a decay envelope
