"""Run one gaborcert benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 22 --trace 1

Run from anywhere inside a checkout; nothing is installed.  The package is
imported from the checkout's ``src``.  Set-up is timed nine times (four
set-up-only worker processes, the measuring one, four more set-up-only ones);
each time is scaled by a speed probe run in the same process right after it,
and the median is reported.  The last line of stdout is one JSON object: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer ones.
Lines before it print every metric by name with its unit, including those
that are not gated.  The full result, with provenance, is written to
``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("analytic-sweep", "reduced-lattice", "oracle-evidence", "barrier-pointwise")
SETUP_ONLY_RUNS = 8  # set-up-only workers; the measuring worker gives the ninth sample
DEADLINE_S = 170.0  # the whole run, set-up-only workers included
SETUP_PROBE_REF_S = 0.0025  # the "interpreter" probe's reference in worker.PROBES


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread (never more than nproc): the jobs are single-threaded
    # Python apart from BLAS calls, an idle OpenBLAS thread spins on the other
    # core, and the speed probe measures the core the main thread runs on.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(args: list[str], stderr_path: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (process start to 'ready')."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, stderr=err, text=True, env=_worker_env(), cwd=ROOT,
        )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {stderr_path.read_text()[-2000:]}")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float, stderr_path: Path) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr_path.read_text()[-2000:]}")
    return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaborcert" / "__init__.py").is_file():
        sys.stderr.write(f"no gaborcert sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    stderr_path = OUT / f"{args.workload}-worker.stderr"
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    def setup_only() -> tuple[float, float]:
        proc, setup = _start([*common, "--setup-only"], stderr_path)
        out = _finish(proc, DEADLINE_S - (time.perf_counter() - started), stderr_path)
        return setup, json.loads(out.strip().splitlines()[-1])["setup_probe_s"]

    try:
        # (seconds to 'ready', that process's probe median); half of the
        # set-up-only workers run after the measuring one, so a short burst of
        # load from other tenants reaches only some of the samples
        samples = [setup_only() for _ in range(SETUP_ONLY_RUNS // 2)]
        spans = OUT / f"{args.workload}-spans.csv"
        proc, setup = _start([*common, "--trace", str(args.trace), "--spans", str(spans)], stderr_path)
        out = _finish(proc, DEADLINE_S - (time.perf_counter() - started), stderr_path)
        report = json.loads(out.strip().splitlines()[-1])
        samples.append((setup, report["setup_probe_s"]))
        samples += [setup_only() for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups, setup_probes = [t for t, _ in samples], [p for _, p in samples]
    s = report["summary"]
    attempted, failed = s["jobs"], s["failed"]

    raw_setup = statistics.median(setups)
    e2e = {
        "setup_s": statistics.median(t * SETUP_PROBE_REF_S / p for t, p in zip(setups, setup_probes)),
        "jobs_per_s": s["jobs_per_s"],
        "job_ms_p50": s["job_ms_p50"],
        "peak_rss_mb": report["peak_rss_mb"],
        "correct_share": report["correct"] / attempted,
    }
    # reported, not gated: zero on a healthy run, or defined on some workloads only
    extra = {
        "failed_share": (failed / attempted, "ratio"),
        "job_ms_p90": (s["job_ms_p90"], "ms"),
        "certified_share": (report["certified_share"], "ratio"),
        "certified_gap_p50": (report["certified_gap_p50"], "ratio"),
    }
    # A job that shows its documented known defect counts against
    # correct_share, but does not make the run incorrect; any other problem does.
    correct = not report["problems"] and failed == 0
    if args.trace:
        correct = correct and report["traced_digest"] == report["digest"] and not report["traced_failures"]

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": units[name]} for name in
                   (m["name"] for m in bench["per_layer"])}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "not_gated": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "raw": {**s["raw"], "setup_s": raw_setup, "setup_samples_s": setups},
        "speed_probe": {"kind": s["probe"], "median_ms": s["probe_ms_median"], "samples": s["probes"],
                        "reference_ms": s["probe_ref_ms"], "setup_ms": [1000 * p for p in setup_probes],
                        "setup_reference_ms": 1000 * SETUP_PROBE_REF_S},
        "samples": {
            "setup_s": len(setups),
            "job_ms_p50": attempted,
            "job_ms_p90": attempted if s["job_ms_p90"] is not None else 0,
            "jobs_per_s": f"{s['jobs_per_cycle']} jobs, each the median of {s['cycles']} cycles",
            "cycle_s": s["cycle_s"],
            "certified_share": report["below_margin_jobs"],
            "certified_gap_p50": report["certify_jobs"],
        },
        "output_sha256": report["digest"],
        "traced_output_sha256": report.get("traced_digest"),
        "problems": report["problems"],
        "known_defect_failures": report["known_defect_failures"],
        "notes": report["notes"],
        "failures": report["failures"],
        "scan_rows_high_at_half": report["scan_rows_high_at_half"],
        "degenerate_jobs": report["degenerate_jobs"],
        "inputs": report["inputs"],
        "provenance": {
            **report["versions"],
            "nproc": _nproc(),
            "blas_threads": _worker_env()["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(),
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256(),
            "seed": args.seed,
            "jobs_per_run": attempted,
            "jobs_per_cycle": s["jobs_per_cycle"],
            "cycles": s["cycles"],
        },
    }
    if args.trace:
        result["spans"] = report["spans"]
        result["spans_file"] = str(spans.relative_to(ROOT))
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted} "
          f"({s['cycles']} cycles of {s['jobs_per_cycle']})  correct {correct}")
    for name, value in e2e.items():
        print(f"  {name:<20} {value:<24.10g} {units[name]}")
    for name, (value, unit) in extra.items():
        shown = "n/a" if value is None else f"{value:.10g}"
        print(f"  {name:<20} {shown:<24} {unit}  (not gated)")
    raw = s["raw"]
    print(f"  raw, before speed scaling: setup_s {raw_setup:.10g}  jobs_per_s {raw['jobs_per_s']:.10g}"
          f"  job_ms_p50 {raw['job_ms_p50']:.10g}"
          f"  ({s['probe']} probe median {s['probe_ms_median']:.4g} ms over {s['probes']} probes;"
          f" reference {s['probe_ref_ms']:g} ms)")
    print(f"  output sha256        {report['digest']}")
    if args.trace:
        print(f"  traced sha256        {report['traced_digest']}")
        for name, m in metrics.items():
            print(f"  {name:<46} {m['value']:<20.8g} {m['unit']}")
    for label, problems in report["problems"].items():
        print(f"  INCORRECT {label}: {'; '.join(problems)}")
    for label, problems in report["known_defect_failures"].items():
        print(f"  INCORRECT, KNOWN DEFECT {label}: {'; '.join(problems)}")
    for label, notes in report["notes"].items():
        print(f"  NOTE {label}: {'; '.join(notes)}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
