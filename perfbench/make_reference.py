"""Regenerate perfbench/reference.json: the benchmark's input corpus and its references.

Every reference value comes from a method independent of the package under
test: mpmath sums at 25 digits for the criterion, a closed-form Fourier
transform for reduced (metaplectic) windows, and a literal atom-by-atom
frame operator for the finite oracle.  Nothing here imports gaborcert.

    python3 perfbench/make_reference.py          # rewrites perfbench/reference.json

The corpus is fixed (not seeded): a run draws its jobs from it with its own
seed, so every job has a stored reference whatever the seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

from corpus import ANALYTIC_PAIRS, COMBO_PAIRS, COMBOS, EQUIVALENCE_STEPS, FIXED_JOBS, ORACLE_STEPS

mp.mp.dps = 25
OUT = Path(__file__).resolve().parent / "reference.json"
SQRT_2PI = mp.sqrt(2 * mp.pi)

# --- window family ---------------------------------------------------------
# Windows are coefficient maps {hermite order: c}; "gaussian" is {0: 1}.  The
# package's hermite normalisation is a common constant, which cancels in
# delta_g, so the bare H_n(sqrt(2 pi) t) exp(-pi t^2) is used here.

WINDOWS = {
    "gaussian": {0: 1.0},
    **{f"hermite:{n}": {n: 1.0} for n in range(7)},
    **COMBOS,
}


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial by the three-term recurrence."""
    h0, h1 = mp.mpf(1), 2 * x
    if n == 0:
        return h0
    for k in range(1, n):
        h0, h1 = h1, 2 * x * h1 - 2 * k * h0
    return h1


def ghat_sq(coefs: dict, b: float):
    """|ghat_b(xi)|^2 up to a constant, for the dilate D_b of sum c_n h_n.

    h_n is an eigenfunction of the Fourier transform with eigenvalue (-i)^n.
    """
    b = mp.mpf(b)

    def f(xi):
        x = b * xi
        val = sum(c * (-1j) ** n * hermite_poly(n, SQRT_2PI * x) for n, c in coefs.items())
        return abs(val) ** 2 * mp.exp(-2 * mp.pi * x * x)

    return f


def log_ghat_sq(coefs: dict, b: float):
    """Float64 log of ghat_sq (same constant), for the omega scan."""

    def f(xi):
        x = b * xi
        val = sum(c * (-1j) ** n * np.polynomial.hermite.hermval(math.sqrt(2 * math.pi) * x, [0] * n + [1])
                  for n, c in coefs.items())
        with np.errstate(divide="ignore"):
            return 2 * np.log(np.abs(val)) - 2 * math.pi * x * x

    return f


def log_reduced_ghat_sq(order: int, q: float, s: float):
    """Float64 log of reduced_ghat_sq (same constant), moments carried without the Gaussian."""
    z = complex(1.0, q)
    coeffs = np.polynomial.hermite.herm2poly([0] * order + [1]) * math.sqrt(2 * math.pi) ** np.arange(order + 1)

    def f(xi):
        x = s * xi
        q_m = [np.ones_like(x, dtype=complex), -1j * x / z]
        for m in range(1, order):
            q_m.append((m * q_m[m - 1] - 2j * math.pi * x * q_m[m]) / (2 * math.pi * z))
        val = sum(c * q_m[j] for j, c in enumerate(coeffs))
        with np.errstate(divide="ignore"):
            return 2 * np.log(np.abs(val)) - 2 * math.pi * x * x * (1 / z).real - math.log(abs(z))

    return f


def reduced_ghat_sq(order: int, q: float, s: float):
    """|What(xi)|^2 up to a constant for W = D_s[chirp(-q) F_(-r) h_n].

    F_(-r) only multiplies h_n by a phase.  The chirped window is
    P(t) exp(-pi z t^2) with z = 1 + i q and P(t) = H_n(sqrt(2 pi) t); its
    transform follows from I_0 = z^(-1/2) exp(-pi xi^2 / z) and
    I_(m+1) = (m I_(m-1) - 2 pi i xi I_m) / (2 pi z) for the moments
    I_m(xi) = integral t^m exp(-pi z t^2 - 2 pi i xi t) dt.
    """
    z = mp.mpc(1, q)
    coeffs = [mp.mpf(0)] * (order + 1)  # power coefficients of H_n(sqrt(2 pi) t)
    herm = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(2)]]
    for k in range(1, order):
        prev, cur = herm[k - 1], herm[k]
        nxt = [mp.mpf(0)] * (k + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev):
            nxt[j] -= 2 * k * c
        herm.append(nxt)
    for j, c in enumerate(herm[order]):
        coeffs[j] = c * SQRT_2PI**j
    s = mp.mpf(s)

    def f(xi):
        x = s * xi
        moments = [z ** mp.mpf(-0.5) * mp.exp(-mp.pi * x * x / z)]
        moments.append(-1j * x * moments[0] / z)
        for m in range(1, order):
            moments.append((m * moments[m - 1] - 2j * mp.pi * x * moments[m]) / (2 * mp.pi * z))
        val = sum(c * moments[j] for j, c in enumerate(coeffs))
        return abs(val) ** 2

    return f


def delta_at(g2, omega) -> mp.mpf:
    """(1/2) sqrt(S_0/S_1) with both sums run until terms fall below 1e-32 relative."""
    omega = mp.mpf(omega)
    s0 = s1 = mp.mpf(0)
    k = 0
    while True:
        added = mp.mpf(0)
        for kk in ((k,) if k == 0 else (k, -k)):
            xi = kk + omega
            t = g2(xi)
            s0 += t
            s1 += xi * xi * t
            added += t * (1 + xi * xi)
        if k > 3 and added <= mp.mpf("1e-32") * (s0 + s1):
            break
        k += 1
    return mp.sqrt(s0 / s1) / 2


def log_delta_scan(log_g2, omegas: np.ndarray, k_max: int = 160) -> np.ndarray:
    """delta over many omegas in float64, summed in log space so nothing underflows."""
    k = np.arange(-k_max, k_max + 1, dtype=float)
    out = np.empty_like(omegas)
    for lo in range(0, omegas.size, 2000):
        xi = omegas[lo : lo + 2000, None] + k[None, :]
        log_t = log_g2(xi)
        with np.errstate(divide="ignore"):
            log_s1 = np.logaddexp.reduce(log_t + np.log(xi * xi), axis=1)
        log_s0 = np.logaddexp.reduce(log_t, axis=1)
        out[lo : lo + 2000] = 0.5 * np.exp(0.5 * (log_s0 - log_s1))
    return out


def minimise(g2, log_g2) -> tuple[float, float]:
    """Global minimum of delta over [0, 1].

    Every window here has |ghat(-xi)| = |ghat(xi)|, so delta(omega) =
    delta(1 - omega) and [0, 1/2] suffices.  A float64 scan of 20001 points
    (spacing 2.5e-5, four times finer than the criterion's own grid after
    refinement) finds the three lowest local minima; each is then refined by
    golden section on mpmath sums.
    """
    grid = np.linspace(0.0, 0.5, 20001)
    vals = log_delta_scan(log_g2, grid)
    interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    cands = [0] * int(vals[0] <= vals[1]) + list(np.flatnonzero(interior) + 1) + [grid.size - 1] * int(vals[-1] <= vals[-2])
    cands = sorted(cands, key=lambda i: vals[i])[:3]
    best = None
    phi = (mp.sqrt(5) - 1) / 2
    for i in cands:
        results = [(delta_at(g2, grid[i]), mp.mpf(grid[i]))]
        if 0 < i < grid.size - 1:
            a, b = mp.mpf(grid[i - 1]), mp.mpf(grid[i + 1])
            c, d = b - phi * (b - a), a + phi * (b - a)
            fc, fd = delta_at(g2, c), delta_at(g2, d)
            for _ in range(48):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - phi * (b - a)
                    fc = delta_at(g2, c)
                else:
                    a, c, fc = c, d, fd
                    d = a + phi * (b - a)
                    fd = delta_at(g2, d)
            results += [(fc, c), (fd, d)]
        local = min(results, key=lambda t: t[0])
        if best is None or local[0] < best[0]:
            best = local
    return float(best[0]), float(best[1])


# --- analytic-sweep --------------------------------------------------------


# Smallest positive double: a lattice-sum term below it is 0 in float64.
LOG_TINY = math.log(5e-324)
# Log-scale margin around LOG_TINY.  It absorbs the constants log_ghat_sq
# leaves out (the window's normalisation, the dilation's factor b) and any
# evaluation order, so the flag does not depend on how the terms are computed.
UNDERFLOW_MARGIN = 20.0


def underflows_at_zero(coefs: dict, b: float) -> bool:
    """Whether float64 loses the omega = 0 row of D_b(sum c_n h_n)'s profile.

    At omega = 0 the k = 0 term of S_1 has weight 0, and so does that of S_0
    when ghat(0) = 0 (odd windows).  If every other term k^(2p) |ghat_b(k)|^2
    lies below the smallest positive double, the sum is 0 in float64 and
    delta_g has no value there.  Raises when a term is too close to call.
    """
    k = np.arange(1.0, 65.0)
    log_t = log_ghat_sq(coefs, b)(k)
    sums = [log_t + 2 * np.log(k)]  # S_1
    if all(n % 2 for n in coefs):
        sums.append(log_t)  # S_0 of an odd window
    peak = max(float(np.max(s)) for s in sums)
    if abs(peak - LOG_TINY) < UNDERFLOW_MARGIN:
        raise ValueError(f"omega = 0 underflow of {coefs} at b={b} too close to call")
    return peak < LOG_TINY


def analytic_entry(name: str, b: float) -> dict:
    coefs = WINDOWS[name]
    g2 = ghat_sq(coefs, b)
    ref_min, argmin = minimise(g2, log_ghat_sq(coefs, b))
    print(f"analytic {name} b={b}: {ref_min:.15f} at {argmin:.6f}", flush=True)
    return {
        "window": name,
        "b": b,
        "ref_min": ref_min,
        "argmin": argmin,
        "delta": {f"{om}": float(delta_at(g2, om)) for om in (0.0, 0.25, 0.5)},
        "degenerate": underflows_at_zero(coefs, b),
    }


# --- reduced-lattice -------------------------------------------------------


def iwasawa(basis: np.ndarray) -> dict:
    """basis = scale * R_r * V_q * D_a, R_r clockwise rotation, V_q lower shear."""
    basis = np.asarray(basis, dtype=float)
    if np.linalg.det(basis) < 0:
        basis = basis[:, ::-1]
    scale = math.sqrt(float(np.linalg.det(basis)))
    s = basis / scale
    r = math.atan2(s[0, 1], s[1, 1])
    c, sn = math.cos(r), math.sin(r)
    t = np.array([[c, -sn], [sn, c]]) @ s
    a = float(t[0, 0])
    return {"scale": scale, "r": r, "q": float(t[1, 0]) / a, "a": a}


# The reduced window's |What|^2 depends on the basis only through the stretch
# s = scale/a and the shear q, as exp(-2 pi s^2 xi^2 / (1 + q^2)) times a
# polynomial.  Holding KAPPA = s^2 / (1 + q^2) fixed keeps the heuristic
# lattice-sum cutoff, and so the cost of a certify job, the same for every
# basis, while rotation, shear and co-volume vary.
KAPPA = 0.8


def reduced_entries() -> list[dict]:
    rng = np.random.default_rng(20261017)
    out = []
    for i in range(8):
        # rotation away from multiples of pi/2, plus a shear; co-volume 0.15..0.9
        r = rng.uniform(0.15, 0.6) * rng.choice([-1.0, 1.0])
        q = rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0])
        cov = rng.uniform(0.15, 0.9)
        a = math.sqrt(cov / (KAPPA * (1 + q * q)))
        c, sn = math.cos(r), math.sin(r)
        basis = math.sqrt(cov) * np.array([[c, sn], [-sn, c]]) @ np.array([[1, 0], [q, 1]]) @ np.diag([a, 1 / a])
        basis = np.round(basis, 6)
        factors = iwasawa(basis)
        stretch = factors["scale"] / factors["a"]
        for window, order in (("gaussian", 0), ("hermite:1", 1), ("hermite:2", 2)):
            ref_min, argmin = minimise(reduced_ghat_sq(order, factors["q"], stretch),
                                       log_reduced_ghat_sq(order, factors["q"], stretch))
            out.append(
                {
                    "window": window,
                    "basis": [float(v) for v in basis.ravel()],
                    "covolume": abs(float(np.linalg.det(basis))),
                    "factors": factors,
                    "ref_min": ref_min,
                    "argmin": argmin,
                }
            )
            print(f"reduced {window} {basis.ravel()}: {ref_min:.12f}", flush=True)
    return out


# --- oracle-evidence -------------------------------------------------------


def _window_samples(window: str, t: np.ndarray, dilation: float = 1.0) -> np.ndarray:
    x = t / dilation
    base = np.exp(-np.pi * x * x)
    return base if window == "gaussian" else x * base


def brute_bounds(window: str, n: int, p: int, q: int, h: float, dilation: float = 1.0):
    """Extreme eigenvalues of S = sum over every atom M_(q l) T_(p k) g of |atom><atom|."""
    m = (np.arange(n) - n // 2) * h
    g = sum(_window_samples(window, m + j * n * h, dilation) for j in range(-2, 3)).astype(complex)
    g /= np.linalg.norm(g)
    idx = np.arange(n)
    atoms = [
        np.exp(2j * np.pi * q * ell * idx / n) * np.roll(g, p * k)
        for k in range(n // p)
        for ell in range(n // q)
    ]
    G = np.array(atoms).T
    S = G @ G.conj().T
    ev = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    return float(max(ev[0], 0.0)), float(ev[-1])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_entries() -> list[dict]:
    """Rows (window, a, b, n) built as a = 16 p/n, b = q/16.

    Such a target is represented exactly (rho = 1) by the divisor pair (p, q)
    with spacing 16/n, whose circumference n*h = 16 is the snap rule's
    preferred one, so the expected finite model is known in advance.
    """
    out = []
    for n, p in ORACLE_STEPS.items():
        for q in _divisors(n):
            if not 0.2 <= p * q / n <= 0.95:
                continue
            for window in ("gaussian", "hermite:1"):
                h = 16.0 / n
                A, B = brute_bounds(window, n, p, q, h)
                out.append(
                    {
                        "window": window, "n": n, "a": p * h, "b": q / (n * h),
                        "p": p, "q": q, "A": A, "B": B,
                    }
                )
                print(f"oracle {window} n={n} p={p} q={q}: A={A:.6g} B={B:.6g}", flush=True)
    return out


def _outside_defect(window: str, n: int, h: float, dilation: float) -> float:
    """Relative l2 mass of the (dilated) window beyond the circle's half width."""
    half = n // 2 * h / dilation
    tail = mp.erfc(mp.sqrt(2 * mp.pi) * half) * (1 if window == "gaussian" else 1 + 4 * half * half)
    return float(mp.sqrt(tail))


def equivalence_entries(oracle_rows: list[dict]) -> list[dict]:
    """(w, aZ x bZ) against (D_b w, abZ x Z); the square model's pair follows the snap rule."""
    out = []
    for row in oracle_rows:
        n, p, q = row["n"], row["p"], row["q"]
        if n not in EQUIVALENCE_STEPS:
            continue
        prod = p * q
        cands = []
        for p2 in _divisors(n):
            if prod % p2 or n % (prod // p2):
                continue
            q2 = prod // p2
            h2 = math.sqrt(prod / n * q2 / (p2 * n))
            defect = _outside_defect(row["window"], n, h2, row["b"])
            if defect > 1e-6:
                continue
            if 1e-10 < defect:
                cands = None  # too close to the 1e-8 cut to predict the choice
                break
            cands.append((abs(math.log(n * h2 / 16.0)), p2, q2, h2))
        if not cands:
            continue
        _, p2, q2, h2 = min(cands)
        if p2 != EQUIVALENCE_STEPS[n]:
            continue
        A2, B2 = brute_bounds(row["window"], n, p2, q2, h2, dilation=row["b"])
        out.append(
            {
                "window": row["window"], "n": n, "a": row["a"], "b": row["b"],
                "rect": {"p": p, "q": q, "A": row["A"], "B": row["B"]},
                "square": {"p": p2, "q": q2, "spacing": h2, "A": A2, "B": B2},
            }
        )
    return out


# --- barrier-pointwise -----------------------------------------------------

ODD_ORDERS = (1, 3, 5, 7)
ODD_DILATIONS = (0.5, 0.75, 1.0, 1.5)
# Scans start at b = 0.01, where rows are dearest, and hold 220 rows per unit of
# log(b): every scan costs about the same whatever its seeded upper end.
SCAN_CONFIGS = tuple((0.01, b_max, round(220 * math.log(b_max / 0.01))) for b_max in (20.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0))


def h1_delta0(b: float) -> mp.mpf:
    """delta at omega = 0 for D_b h_1: (1/2) sqrt(sum k^2 e^(-c k^2) / sum k^4 e^(-c k^2))."""
    c = 2 * mp.pi * mp.mpf(b) ** 2
    s2 = s4 = mp.mpf(0)
    k = 1
    while True:
        w = mp.exp(-c * (k * k - 1))
        s2 += k * k * w
        s4 += k**4 * w
        if k > 2 and k**4 * w < mp.mpf("1e-32") * s4:
            break
        k += 1
    return mp.sqrt(s2 / s4) / 2


def barrier_entries() -> dict:
    odd = []
    for n in ODD_ORDERS:
        for b in ODD_DILATIONS:
            odd.append({"window": f"hermite:{n}", "b": b, "delta0": float(delta_at(ghat_sq({n: 1.0}, b), 0))})
    rng = np.random.default_rng(1007)
    points = []
    for e in odd:
        g2 = ghat_sq({int(e["window"].split(":")[1]): 1.0}, e["b"])
        for om in np.round(rng.uniform(0.0, 1.0, size=12), 6):
            points.append({"window": e["window"], "b": e["b"], "omega": float(om), "delta": float(delta_at(g2, om))})
    scans = []
    for b_min, b_max, steps in SCAN_CONFIGS:
        spots = {}
        for i in (0, steps // 4, steps // 2, 3 * steps // 4, steps - 1):
            b = float(mp.mpf(b_min) * (mp.mpf(b_max) / b_min) ** (mp.mpf(i) / (steps - 1)))
            spots[str(i)] = {"b": b, "delta0": float(h1_delta0(b))}
        scans.append({"b_min": b_min, "b_max": b_max, "steps": steps, "spots": spots})
    print("barrier done", flush=True)
    return {"odd": odd, "points": points, "scans": scans}


def main() -> None:
    oracle = oracle_entries()
    ref = {
        "comment": "generated by perfbench/make_reference.py; do not edit by hand",
        "analytic": [analytic_entry(name, b) for name, b in
                     dict.fromkeys(ANALYTIC_PAIRS + COMBO_PAIRS + [(w, b) for _, w, b, _ in FIXED_JOBS])],
        "reduced": reduced_entries(),
        "oracle": oracle,
        "equivalence": equivalence_entries(oracle),
        "barrier": barrier_entries(),
    }
    OUT.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
