"""Acceptance gate: one test per headline guarantee, at stated tolerances.

Each test prints a single PASS line with the measured quantities so the
suite log doubles as a certification record.
"""

import math
import time

import mpmath
import numpy as np

from gaborcert import (
    certify,
    equivalence_check,
    finite_frame_bounds,
    gaussian,
    gaussian_certificate,
    h1_barrier_scan,
    hermite,
    iwasawa,
    min_delta,
    model_for,
    odd_barrier_suite,
    sample_window,
)
from gaborcert.lattice import IwasawaFactors
from helpers import parity_residual, wirtinger_residual

TWO_PI = 2.0 * math.pi


def test_tail_constants_match_brute_force():
    started = time.perf_counter()
    cert = gaussian_certificate()
    brute0 = math.fsum(math.exp(-TWO_PI * (k + 0.5)) for k in range(1, 10_001))
    brute1 = math.fsum(k * math.exp(-TWO_PI * (k + 0.5)) for k in range(1, 10_001))
    rel0 = abs(cert.tail0 - brute0) / brute0
    rel1 = abs(cert.tail1 - brute1) / brute1
    elapsed = time.perf_counter() - started
    assert rel0 <= 1e-14
    assert rel1 <= 1e-14
    assert cert.tail0 < 1e-4
    assert cert.tail1 < 1e-4
    assert elapsed < 1.0
    print(
        f"PASS tail constants: tail0={cert.tail0:.10e} (rel {rel0:.1e}), "
        f"tail1={cert.tail1:.10e} (rel {rel1:.1e}), {elapsed:.2f}s"
    )


def test_gaussian_certificate_certifies_near_critical():
    started = time.perf_counter()
    cert = gaussian_certificate()
    assert cert.certified_delta >= 0.9985
    verdict = certify(gaussian(), 0.9985)
    elapsed = time.perf_counter() - started
    assert verdict.status == "Certified"
    assert verdict.margin > 0.0
    assert elapsed < 5.0
    print(
        f"PASS gaussian certificate: certified_delta={cert.certified_delta!r}, "
        f"certify(0.9985) margin={verdict.margin:.3e}, {elapsed:.2f}s"
    )


def test_gaussian_minimum_sits_at_half():
    profile = min_delta(gaussian(), grid_points=1001)
    assert abs(profile.argmin_omega - 0.5) <= 1e-3
    # direct in-test summation of the criterion value at omega = 1/2
    s0 = math.fsum(math.exp(-TWO_PI * (k + 0.5) ** 2) for k in range(-30, 31))
    s1 = math.fsum(
        (k + 0.5) ** 2 * math.exp(-TWO_PI * (k + 0.5) ** 2) for k in range(-30, 31)
    )
    direct_at_half = 0.5 * math.sqrt(s0 / s1)
    assert direct_at_half < 1.0
    assert 0.9985 <= profile.min_value <= direct_at_half * (1.0 + 1e-12)
    print(
        f"PASS gaussian minimizer: argmin_omega={profile.argmin_omega!r}, "
        f"min_value={profile.min_value!r} <= direct {direct_at_half!r}"
    )


def test_dilated_h1_scan_certifies_barrier():
    started = time.perf_counter()
    scan = h1_barrier_scan(0.1, 10.0, 50)
    assert len(scan.rows) == 50
    for row in scan.rows:
        assert row.strict
        assert math.isfinite(row.log_gap_lb) and row.log_gap_lb < 0.0
        assert row.delta0_high <= 0.5
    # endpoint cross-check against extended-range summation
    row = h1_barrier_scan(1.0, 2.0, 2).rows[0]
    with mpmath.workdps(60):
        c = 2 * mpmath.pi
        s2 = mpmath.nsum(lambda k: k**2 * mpmath.exp(-c * k**2), [1, mpmath.inf])
        s4 = mpmath.nsum(lambda k: k**4 * mpmath.exp(-c * k**2), [1, mpmath.inf])
        truth = float(mpmath.mpf("0.5") * mpmath.sqrt(s2 / s4))
    rel = abs(row.delta0 - truth) / truth
    elapsed = time.perf_counter() - started
    assert rel <= 1e-10
    assert elapsed < 10.0
    print(
        f"PASS dilation scan: 50/50 rows strict, max delta0_high={scan.max_delta0_high!r}, "
        f"b=1 rel err {rel:.1e}, {elapsed:.2f}s"
    )


def test_odd_corpus_all_strict(odd_corpus):
    reports = odd_barrier_suite(odd_corpus)
    for report in reports:
        assert report.strict
        assert report.delta0 < 0.5
        assert math.sqrt(report.ghat0_sq) < 1e-10
    worst = max(report.delta0 for report in reports)
    print(
        f"PASS odd corpus: {len(reports)}/{len(reports)} strict, "
        f"max delta0={worst!r} < 0.5"
    )


def test_iwasawa_reconstruction_and_equivalence(gauss, h1):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        factors = IwasawaFactors(
            scale=math.exp(rng.uniform(math.log(0.3), math.log(3.0))),
            r=rng.uniform(-math.pi, math.pi),
            q=rng.uniform(-5.0, 5.0),
            a=math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
        )
        lattice = factors.compose()
        rebuilt = iwasawa(lattice).compose()
        residual = float(np.max(np.abs(rebuilt.basis - lattice.basis))) / factors.scale
        worst = max(worst, residual)
    assert worst < 1e-12
    report_g = equivalence_check(gauss, 0.5, 1.0, 240)
    report_h = equivalence_check(h1, 0.75, 1.0, 240)
    assert report_g.rel_gap <= 0.05
    assert report_h.rel_gap <= 0.05
    print(
        f"PASS unitary algebra: worst reconstruction residual {worst:.2e} over 100 tuples, "
        f"rel_gap gaussian={report_g.rel_gap:.2e}, h1={report_h.rel_gap:.2e}"
    )


def test_metaplectic_parity_preservation(gauss, h1):
    angles = (math.pi / 6.0, math.pi / 3.0, 2.0 * math.pi / 5.0)
    worst_frac = 0.0
    for w in (h1, gauss):
        f = sample_window(w)
        for r in angles:
            worst_frac = max(worst_frac, parity_residual("frac_fourier", f, r))
    worst_chirp = max(
        parity_residual("chirp", sample_window(w), 0.8) for w in (h1, gauss)
    )
    assert worst_frac < 1e-5
    assert worst_chirp < 1e-12
    print(
        f"PASS metaplectic parity: frac_fourier residual {worst_frac:.2e} < 1e-5, "
        f"chirp residual {worst_chirp:.2e} < 1e-12"
    )


def test_certified_verdicts_backed_by_finite_models(gauss, h1):
    matrix = [(gauss, 0.5), (gauss, 0.9), (gauss, 0.9985), (h1, 0.3), (h1, 0.45)]
    ratios = []
    for w, delta in matrix:
        verdict = certify(w, delta)
        assert verdict.status == "Certified", (w.label, delta)
        bounds = finite_frame_bounds(model_for(w, delta, 1.0, 240))
        assert bounds.ratio > 1e-3, (w.label, delta, bounds.ratio)
        ratios.append(bounds.ratio)
    print(
        "PASS soundness evidence: 5/5 certified with A/B ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
    )


def test_wirtinger_extremal_and_strict():
    t = np.linspace(0.0, 1.0, 4001)
    lhs_q, rhs_q = wirtinger_residual(np.sin(0.5 * math.pi * t))
    ratio = lhs_q / rhs_q
    assert abs(ratio - 1.0) <= 1e-3
    lhs_p, rhs_p = wirtinger_residual(t * (1.0 - t))
    assert lhs_p < rhs_p
    lhs_s, rhs_s = wirtinger_residual(np.sin(math.pi * t))
    assert lhs_s < rhs_s
    print(
        f"PASS wirtinger: quarter-sine ratio {ratio!r}, "
        f"strict for parabola ({lhs_p:.4f} < {rhs_p:.4f}) "
        f"and full sine ({lhs_s:.4f} < {rhs_s:.4f})"
    )
