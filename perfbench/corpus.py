"""The fixed inputs a run can draw, shared by make_reference.py and workloads.py.

make_reference.py stores a reference for exactly these inputs, and
workloads.py deals its jobs from them, so the two cannot drift apart.  This
module imports neither gaborcert nor mpmath.
"""

from __future__ import annotations

import numpy as np

CLI_WINDOWS = ["gaussian"] + [f"hermite:{n}" for n in range(7)]
# Windows are coefficient maps {hermite order: c}.
COMBOS = {
    "combo:h0+0.3h2": {0: 1.0, 2: 0.3},
    "combo:h1+0.5h3": {1: 1.0, 3: 0.5},
    "combo:h0+0.4h1": {0: 1.0, 1: 0.4},
}
# 15 log-uniform dilations over [0.05, 20] (1.0 among them); the lattice-sum
# cutoff K spans about 2 to 60 over this range.
B_GRID = sorted(float(f"{b:.6g}") for b in np.geomspace(0.05, 20.0, 15))

# analytic-sweep: each dilation once per cycle, with the CLI windows dealt out
# in turn starting at hermite:5, so that every cycle holds hermite:6 at
# b = 2.35355 (a dip the omega grid steps over) and hermite:2 at b = 13.0367
# and hermite:3 at b = 20 (omega = 0 rows lost to underflow; see README,
# "Defects visible in the baseline"); one combined window per third of the b
# range.
ANALYTIC_PAIRS = [(CLI_WINDOWS[(j + 6) % len(CLI_WINDOWS)], b) for j, b in enumerate(B_GRID)]
COMBO_PAIRS = [(name, B_GRID[5 * k + 2]) for k, name in enumerate(sorted(COMBOS))]

# Certify requests, (kind, window, b, delta), issued on every analytic-sweep
# cycle at the edge of a rule: the Gaussian at the critical density ab = 1,
# where it is no frame (Lyubarskii, Seip-Wallsten), through certify and
# certify --a --b; odd windows at delta = 1/2, the odd barrier; and a target
# between the true minimum of hermite:6 at b = 2.35355 (0.53989) and the
# criterion's grid minimum (0.55722), where the grid steps over a narrow dip.
# The four cheap ones also put the median of the 24 jobs of a cycle inside a
# group of jobs of like cost, not at the edge before a dearer group, which
# steadies job_ms_p50.
GAP_JOB = ("certify", "hermite:6", 2.35355, 0.548)
FIXED_JOBS = (
    ("certify", "gaussian", 1.0, 1.0),
    ("rect", "gaussian", 2.0, 1.0),
    ("certify", "hermite:1", 8.49781, 0.5),
    ("certify", "hermite:3", 5.53918, 0.5),
    GAP_JOB,
)

# oracle-evidence: one time step p per n, so the frame-operator build (n/p
# outer products) costs the same for every row of that n; the seed varies q,
# hence b and ab.
ORACLE_STEPS = {240: 12, 360: 12, 480: 16, 512: 16}
# Oracle rows per n in a cycle: the cheap n = 240 rows and the n = 240
# equivalence check below the three n = 360 rows, the n = 360 check and the
# n = 480 and 512 rows above them, so the median job is an n = 360 oracle
# call and not the edge between two clusters of job costs.
ORACLE_ROWS = {240: 4, 360: 3, 480: 2, 512: 2}
# equivalence_check: the square model's time step, one per n, so its frame
# operator also costs the same for every row of that n
EQUIVALENCE_STEPS = {240: 12, 360: 8}
