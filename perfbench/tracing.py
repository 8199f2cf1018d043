"""Per-layer tracing of gaborcert from outside the package.

The tracer replaces the public functions of each layer module with wrappers
that record a span (name, start, end, parent, job id) per call.  A name
imported elsewhere with ``from .x import y`` is replaced in every gaborcert
namespace that holds it, so calls through ``barrier.delta_g`` or
``cli.certify`` are seen too.  Window constructors are wrapped so that the
evaluators of every window they return are wrapped as well.

Spans stay in memory until the traced pass ends; ``layer_metrics`` then
reduces them to the per-layer numbers that BENCHMARK.json lists.  Nothing
inside ``src/`` is changed: ``uninstall`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("window", "criterion", "certify_gaussian", "barrier", "lattice", "metaplectic", "oracle", "cli")

# Tiny helpers called thousands of times per job: counted, not spanned, so the
# trace neither swamps memory nor dominates the time it measures.
COUNT_ONLY = {
    "criterion.geometric_power_sum",
    "criterion.one_sided_gauss_tail_log",
    "criterion.envelope_tail_log",
    "lattice.rotation_matrix",
    "lattice.shear_matrix",
    "lattice.dilation_matrix",
}
WINDOW_CONSTRUCTORS = ("gaussian", "hermite", "dilate", "chirp_window", "combine", "sampled_window")


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, job id, error flag, attrs]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _span(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.job_id, False, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                span[5] = True
                raise
            finally:
                tracer._stack.pop()
            span[2] = time.perf_counter()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        wrapper.__perfbench__ = True
        return wrapper

    def _counter(self, name: str, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__perfbench__ = True
        return wrapper

    # -- patching --------------------------------------------------------------

    def _replace_everywhere(self, original, replacement, only=None) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaborcert" or mod_name.startswith("gaborcert.")):
                continue
            if only is not None and mod_name != only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _wrap_window(self, w, kernel_len: int | None):
        if getattr(w.freq_eval, "__perfbench__", False):
            return w

        def points(args, kwargs, result):
            return {"points": _size(args[0] if args else kwargs.get("xi", kwargs.get("t")))}

        freq = self._span("window.freq_eval", w.freq_eval, points)
        if kernel_len is not None:
            inner = freq
            counts = self.counts

            def freq(xi, _inner=inner):
                counts["window.quadrature.kernel_points"] += _size(xi) * kernel_len
                return _inner(xi)

            freq.__perfbench__ = True
        time_eval = self._span("window.time_eval", w.time_eval, points)
        return dataclasses.replace(w, freq_eval=freq, time_eval=time_eval)

    def install(self) -> None:
        """Wrap every public function of each layer module, in every namespace."""
        import gaborcert  # noqa: F401  (loads every layer module)
        from gaborcert import window as window_mod

        quad_len = int(round(2 * window_mod.GRID_HALF_WIDTH / window_mod.GRID_SPACING)) + 1
        barrier_mod = sys.modules["gaborcert.barrier"]
        self._replace_everywhere(
            barrier_mod.one_sided_gauss_tail_log,
            self._counter("barrier.tail_log.calls", barrier_mod.one_sided_gauss_tail_log),
            only="gaborcert.barrier",
        )
        meta = sys.modules["gaborcert.metaplectic"]
        self._replace_everywhere(
            meta._chirped_kernel_apply,
            self._counter(
                "metaplectic.frac_fourier.kernel_points",
                meta._chirped_kernel_apply,
                lambda args, kwargs: args[0].size ** 2,
            ),
        )
        for layer in LAYERS:
            mod = sys.modules[f"gaborcert.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    self._replace_everywhere(fn, self._counter(f"{name}.calls", fn))
                elif layer == "window" and attr in WINDOW_CONSTRUCTORS:
                    self._replace_everywhere(fn, self._constructor(name, fn, quad_len))
                else:
                    self._replace_everywhere(fn, self._span(name, fn, _ATTRS.get(name)))

    def _constructor(self, name: str, fn, quad_len: int):
        tracer = self

        def kernel_len(args, kwargs) -> int | None:
            if fn.__name__ == "sampled_window":
                return _size(args[0] if args else kwargs["t"])
            if fn.__name__ == "chirp_window":
                return quad_len
            return None

        spanned = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w = spanned(*args, **kwargs)
            return tracer._wrap_window(w, kernel_len(args, kwargs))

        wrapper.__perfbench__ = True
        return wrapper

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self, warning_counts: dict[str, int], output_bytes: int) -> dict[str, float]:
        """Reduce the recorded spans to BENCHMARK.json's per-layer values.

        Values are per traced pass; trace.overhead_share is the caller's, since
        it needs the untraced rate.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _job, _err, _attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        attr_sum: dict[str, float] = defaultdict(float)
        errors: dict[str, int] = defaultdict(int)
        nonrigorous = 0
        enveloped_sums = 0
        sampled_reductions = 0
        for i, (name, start, end, parent, _job, err, attrs) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else ""
            layer = name.split(".", 1)[0]
            if err and parent_name.split(".", 1)[0] != layer:
                errors[layer] += 1  # the exception left its layer
            self_s[name] += (end - start) - child_time[i]
            if _is_nested_in_same(spans, i):
                continue  # a window evaluator that delegates to another one
            calls[name] += 1
            busy[name] += end - start
            if attrs:
                for key, value in attrs.items():
                    attr_sum[f"{name}.{key}"] += value
            if name == "criterion.lattice_sum" and attrs is not None:
                nonrigorous += 0 if attrs["rigorous"] else 1
                enveloped_sums += attrs["rigorous"]
            if name == "lattice.reduce_general" and attrs is not None:
                sampled_reductions += attrs["sampled"]

        partial = calls["criterion.lattice_partial_sum"]
        reductions = calls["lattice.reduce_general"]
        frame_ops = attr_sum["oracle.frame_operator.flops"]
        c = self.counts
        return {
            "window.freq_eval.calls": calls["window.freq_eval"],
            "window.freq_eval.points": attr_sum["window.freq_eval.points"],
            "window.freq_eval.busy_s": busy["window.freq_eval"],
            "window.quadrature.kernel_points": c["window.quadrature.kernel_points"],
            "window.time_eval.points": attr_sum["window.time_eval.points"],
            "window.time_eval.busy_s": busy["window.time_eval"],
            "window.classify_parity.calls": calls["window.classify_parity"],
            "criterion.min_delta.calls": calls["criterion.min_delta"],
            "criterion.min_delta.busy_s": busy["criterion.min_delta"],
            "criterion.min_delta.omega_points": attr_sum["criterion.min_delta.omega_points"],
            "criterion.delta_g.calls": calls["criterion.delta_g"],
            "criterion.delta_g.self_s": self_s["criterion.delta_g"],
            "criterion.lattice_sum.calls": calls["criterion.lattice_sum"],
            "criterion.lattice_sum.self_s": self_s["criterion.lattice_sum"],
            "criterion.lattice_sum.terms": attr_sum["criterion.lattice_sum.terms"],
            "criterion.lattice_sum.nonrigorous": nonrigorous,
            # enveloped sums per partial-sum pass; the heuristic route never re-sums
            "criterion.k_growth.useful_ratio": enveloped_sums / partial if partial else 1.0,
            "criterion.errors": errors["criterion"],
            "criterion.truncation_warnings": warning_counts.get("criterion", 0),
            "certify_gaussian.gaussian_certificate.calls": calls["certify_gaussian.gaussian_certificate"],
            "certify_gaussian.gaussian_certificate.busy_s": busy["certify_gaussian.gaussian_certificate"],
            "barrier.delta_at_zero.calls": calls["barrier.delta_at_zero"],
            "barrier.delta_at_zero.busy_s": busy["barrier.delta_at_zero"],
            "barrier.odd_barrier_suite.busy_s": busy["barrier.odd_barrier_suite"],
            "barrier.h1_barrier_scan.rows": attr_sum["barrier.h1_barrier_scan.rows"],
            "barrier.h1_barrier_scan.busy_s": busy["barrier.h1_barrier_scan"],
            "barrier.tail_log.calls": c["barrier.tail_log.calls"],
            "lattice.iwasawa.busy_s": busy["lattice.iwasawa"],
            "lattice.reduce_general.calls": reductions,
            "lattice.reduce_general.busy_s": busy["lattice.reduce_general"],
            "lattice.reduce_general.sampled_share": sampled_reductions / reductions if reductions else 0.0,
            "metaplectic.frac_fourier.calls": calls["metaplectic.frac_fourier"],
            "metaplectic.frac_fourier.busy_s": busy["metaplectic.frac_fourier"],
            "metaplectic.frac_fourier.kernel_points": c["metaplectic.frac_fourier.kernel_points"],
            "metaplectic.sample_window.busy_s": busy["metaplectic.sample_window"],
            "metaplectic.chirp.busy_s": busy["metaplectic.chirp"],
            "metaplectic.dilate_sampled.busy_s": busy["metaplectic.dilate_sampled"],
            "metaplectic.to_window.busy_s": busy["metaplectic.to_window"],
            "oracle.snap_lattice.calls": calls["oracle.snap_lattice"],
            "oracle.snap_lattice.busy_s": busy["oracle.snap_lattice"],
            "oracle.build_model.busy_s": busy["oracle.build_model"],
            "oracle.frame_operator.busy_s": busy["oracle.frame_operator"],
            "oracle.frame_operator.flops": frame_ops,
            "oracle.finite_frame_bounds.self_s": self_s["oracle.finite_frame_bounds"],
            "oracle.equivalence_check.busy_s": busy["oracle.equivalence_check"],
            "oracle.errors": errors["oracle"],
            "cli.run.self_s": self_s["cli.run"],
            "cli.run.output_bytes": output_bytes,
        }

    def write_spans(self, path) -> None:
        """One CSV line per span: name,start,end,parent,job,error."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,job,error\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, job, err, _attrs in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{job},{int(err)}\n")


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if isinstance(x, (list, tuple)) else 1
    n = 1
    for d in shape:
        n *= d
    return n


def _is_nested_in_same(spans, i: int) -> bool:
    name, parent = spans[i][0], spans[i][3]
    return name.startswith("window.") and parent >= 0 and spans[parent][0] == name


# attrs(args, kwargs, result) -> numbers summed per span name
_ATTRS = {
    "criterion.min_delta": lambda a, k, r: {"omega_points": len(r.omegas)},
    "criterion.lattice_sum": lambda a, k, r: {"terms": 2 * r.terms_used + 1, "rigorous": int(r.rigorous)},
    "barrier.h1_barrier_scan": lambda a, k, r: {"rows": len(r.rows)},
    "lattice.reduce_general": lambda a, k, r: {"sampled": int(r.steps[0][0] == "frac_fourier")},
    # the modulation collapse: n/p outer products of length-n complex vectors,
    # 6 flops per complex multiply and 2 per complex add (computed, not counted)
    "oracle.frame_operator": lambda a, k, r: {"flops": 8.0 * a[0].n ** 3 / a[0].p},
}
