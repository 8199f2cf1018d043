"""Benchmark worker: set up, run one workload's job cycle in a closed loop, check it.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.  It
prints ``ready`` once set-up is done (run.py times process start to that
line), runs the speed probe SETUP_PROBES times to scale that set-up time, then
prints one JSON line with the measurements.  With ``--setup-only`` that line
holds the probe median alone.

The loop is closed with one client: the next job starts when the previous
one returns.  The seed's job cycle is repeated until ``--seconds`` have gone
(at least once); every repetition must reproduce the first one's output
bytes.  With ``--trace 1`` the untraced cycles get half the time, then one
more cycle runs traced, and the per-layer numbers come from that pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / "perfbench" / "_work"

# The speed probes: fixed interpreter and numpy work that does not touch
# gaborcert.  On a shared virtual machine the speed of the cores drifts by
# tens of percent over minutes, and that drift moves every timing of a run
# alike; a probe, run between jobs, measures it.  Timings are reported scaled
# to a machine on which the probe takes its reference time (the raw values
# are stored next to them).  Load from other tenants slows interpreter-bound
# code, FFTs and memory-bound array updates by different amounts, so each
# workload names the probe closest to its dominant work
# (workloads.SPEED_PROBES).  Set-up is import-bound and uses "interpreter".
PROBE_EVERY_S = 0.2
# probes run right after set-up; their median scales that process's set-up time
SETUP_PROBES = 7
_PROBE_DATA: dict = {}


def _interpreter(np, data) -> None:
    s = 0.0
    for i in range(1, 30001):
        s += math.sqrt(i) * 1.0001


def _fft(np, data) -> None:
    for _ in range(10):
        float(np.abs(np.fft.fft(data["x"])).sum())


def _outer(np, data) -> None:
    acc = np.zeros((360, 360), dtype=complex)
    for k in range(20):
        v = np.roll(data["g"], 12 * k)
        acc += np.outer(v, v.conj())


# name: (work, reference seconds)
PROBES = {"interpreter": (_interpreter, 0.0025), "fft": (_fft, 0.010), "outer": (_outer, 0.010)}


def probe(kind: str = "interpreter") -> float:
    """Seconds taken by the fixed work of one probe."""
    import numpy

    if not _PROBE_DATA:
        _PROBE_DATA["x"] = numpy.linspace(0.0, 4.0, 20001)
        _PROBE_DATA["g"] = numpy.exp(-numpy.linspace(-4.0, 4.0, 360) ** 2) + 0j
    work = PROBES[kind][0]
    t0 = time.perf_counter()
    work(numpy, _PROBE_DATA)
    return time.perf_counter() - t0


def _import_package():
    import gaborcert

    src = (ROOT / "src").resolve()
    if Path(gaborcert.__file__).resolve().parent.parent != src:
        raise SystemExit(f"gaborcert imported from {gaborcert.__file__}, not from {src}")
    return gaborcert


def _warm_up() -> None:
    """Touch every code path once at toy size, so lazy imports are paid in set-up."""
    import workloads as wl

    for argv in (
        ["certify", "--window", "gaussian", "--delta", "0.5", "--grid-points", "3"],
        ["profile", "--window", "hermite:1", "--grid-points", "3"],
        ["gaussian-cert"],
        ["reduce", "--window", "gaussian", "--basis", "1,0,0,1"],
        ["oracle", "--window", "gaussian", "--a", "0.5", "--b", "1.0", "--n", "24"],
        ["barrier-scan", "--steps", "2"],
    ):
        wl.cli(argv)


def run_pass(jobs, deadline: float | None, max_cycles: int | None, tracer=None, probe_kind=None) -> dict:
    """Repeat the job cycle until the deadline (or max_cycles); at least one cycle.

    With a probe_kind, that speed probe runs between jobs every PROBE_EVERY_S;
    its time is kept out of the cycle times.
    """
    latencies, cycle_times, failures, probes = [], [], [], []
    last_probe = time.perf_counter()
    outputs: list[str | None] = [None] * len(jobs)
    # (job index, output equal to the first cycle's) per executed job
    runs: list[tuple[int, bool]] = []
    warning_counts: dict[str, int] = {}
    output_bytes = 0
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        probed = 0.0
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = cycles * len(jobs) + i
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    out = job.action()
                except Exception as exc:  # a failed request is a measured outcome
                    out = None
                    failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                latencies.append(time.perf_counter() - t0)
            for w in caught:
                module = Path(w.filename).stem
                warning_counts[module] = warning_counts.get(module, 0) + 1
            if cycles == 0:
                outputs[i] = out
                if out is not None and not job.library:
                    output_bytes += len(out.encode())
            runs.append((i, out is not None and out == outputs[i]))
            if probe_kind and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe(probe_kind))
                probed += probes[-1]
                last_probe = time.perf_counter()
        cycle_times.append(time.perf_counter() - cycle_start - probed)
        cycles += 1
        if max_cycles is not None and cycles >= max_cycles:
            break
        if deadline is not None and time.perf_counter() + statistics.median(cycle_times) > deadline:
            break
    if probe_kind and not probes:
        probes.append(probe(probe_kind))
    return {
        "latencies": latencies,
        "cycle_times": cycle_times,
        "cycles": cycles,
        "failures": failures,
        "outputs": outputs,
        "runs": runs,
        "warnings": warning_counts,
        "output_bytes": output_bytes,
        "probes": probes,
    }


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(b"\x00" if out is None else out.encode())
    return h.hexdigest()


def check_outputs(jobs, result: dict) -> dict:
    """Score the first cycle against the references; repeats must match it."""
    import workloads as wl

    problems, notes = {}, {}
    for i, (job, out) in enumerate(zip(jobs, result["outputs"])):
        if out is None:
            continue
        try:
            found = job.check(out)
        except Exception as exc:  # unparsable output is an incorrect output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if any(k == i and not same for k, same in result["runs"]):
            found.append("a repeated cycle produced different bytes or failed")
        bad = [f for f in found if not isinstance(f, wl.Note)]
        if bad:
            problems[i] = bad
        if len(bad) < len(found):
            notes[jobs[i].label] = [f for f in found if isinstance(f, wl.Note)]
    correct = sum(1 for i, same in result["runs"] if same and i not in problems)
    below, certified, gaps = 0, 0, []
    for job, out in zip(jobs, result["outputs"]):
        if out is None or job.certify is None:
            continue
        target, ref_min = job.certify
        verdict = json.loads(_last_json(out))
        if not job.degenerate:  # a degenerate min_delta_g is over the finite rows only
            gaps.append((ref_min - verdict["min_delta_g"]) / ref_min)
        if target < ref_min * (1 - wl.POWER_MARGIN):
            below += 1
            certified += verdict["status"] == "Certified"
    scan_rows = sum(wl.scan_rows_at_half(out) for job, out in zip(jobs, result["outputs"])
                    if job.kind == "barrier-scan" and out is not None)
    return {
        "problems": {jobs[i].label: p for i, p in problems.items() if not jobs[i].known_defect},
        "known_defect_failures": {jobs[i].label: [jobs[i].known_defect, *p]
                                  for i, p in problems.items() if jobs[i].known_defect},
        "notes": notes,
        "correct": correct,
        "certify_jobs": len(gaps),
        "below_margin_jobs": below,
        "certified_share": certified / below if below else None,
        "certified_gap_p50": statistics.median(gaps) if gaps else None,
        "scan_rows_high_at_half": scan_rows,
        "degenerate_jobs": sum(job.degenerate for job in jobs),
    }


def _last_json(out: str) -> str:
    lines = out.split("\n")
    start = max(i for i, line in enumerate(lines) if line == "{")
    return "\n".join(lines[start:])


def summarize(result: dict, probe_kind: str) -> dict:
    """Raw timings, and the same scaled by the run's speed (see PROBES)."""
    lat_ms = sorted(1000.0 * x for x in result["latencies"])
    n_jobs = len(result["outputs"])
    # Each cycle repeats the same jobs, so the sum of each job's median
    # latency is the time of a typical cycle; a short burst of load from other
    # tenants moves it less than it moves the total or the median cycle.
    typical_cycle = sum(statistics.median(result["latencies"][c * n_jobs + j] for c in range(result["cycles"]))
                        for j in range(n_jobs))
    raw = {
        "jobs_per_s": n_jobs / typical_cycle,
        "job_ms_p50": statistics.median(lat_ms),
        "job_ms_p90": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) >= 100 else None,
    }
    probe_s = statistics.median(result["probes"])
    ref_s = PROBES[probe_kind][1]
    slowdown = probe_s / ref_s  # above 1: the machine ran slower than the reference
    return {
        "jobs": len(lat_ms),
        "jobs_per_cycle": n_jobs,
        "cycles": result["cycles"],
        "jobs_per_s": raw["jobs_per_s"] * slowdown,
        "job_ms_p50": raw["job_ms_p50"] / slowdown,
        "job_ms_p90": None if raw["job_ms_p90"] is None else raw["job_ms_p90"] / slowdown,
        "raw": raw,
        "probe": probe_kind,
        "probe_ms_median": 1000.0 * probe_s,
        "probe_ref_ms": 1000.0 * ref_s,
        "probes": len(result["probes"]),
        "failed": len(result["failures"]),
        "cycle_s": result["cycle_times"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced pass's spans here (CSV)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _import_package()
    import workloads as wl

    ref = wl.load_reference()
    jobs = wl.make_jobs(args.workload, args.seed, ref)
    # jobs write files by bare name: a private directory keeps concurrent runs apart
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        _warm_up()
        kind = wl.SPEED_PROBES[args.workload]
        probe(kind)  # the first call allocates the probes' arrays
        print("ready", flush=True)
        setup_probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
        if args.setup_only:
            print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
            return 0
        budget = args.seconds / 2 if args.trace else args.seconds
        start = time.perf_counter()
        plain = run_pass(jobs, start + budget, None, probe_kind=kind)
        report = {"summary": summarize(plain, kind), "digest": digest(plain["outputs"]), "setup_probe_s": setup_probe_s}
        report.update(check_outputs(jobs, plain))
        report["failures"] = plain["failures"]
        report["inputs"] = [job.label for job in jobs]
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(jobs, None, 1, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(traced["warnings"], traced["output_bytes"])
            traced_rate = len(jobs) / traced["cycle_times"][0]
            layers["trace.overhead_share"] = 1.0 - traced_rate / report["summary"]["raw"]["jobs_per_s"]
            report["layers"] = layers
            report["traced_digest"] = digest(traced["outputs"])
            report["traced_failures"] = traced["failures"]
            report["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans)
        import numpy
        import scipy

        report["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(report), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still works there


if __name__ == "__main__":
    sys.exit(main())
