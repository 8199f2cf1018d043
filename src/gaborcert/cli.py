"""Command-line front end: profiles, certificates, scans, reduction, oracle.

Every subcommand reads flags, runs the matching library call, and emits
machine-readable output: CSV for profiles and scans, JSON (sorted keys,
schema-tagged) for verdicts, certificates, factorizations, reductions
and oracle bounds.  Identical inputs produce byte-identical outputs.

Exit codes: 0 success, 2 precondition violations, 3 degenerate or
numerically unresolvable inputs, 64 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .barrier import h1_barrier_scan
from .certify_gaussian import gaussian_certificate
from .criterion import DEFAULT_GRID_POINTS, TAIL_TOL, certify, certify_rect, min_delta
from .errors import GaborcertError, NumericalError, PreconditionError
from .lattice import Lattice2D, iwasawa, reduce_general
from .metaplectic import sample_window
from .oracle import DEFAULT_DIM, finite_frame_bounds, model_for
from .window import Window, dilate, gaussian, hermite, sample_grid, window_from_csv, write_sampled_csv

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

SCHEMA_VERDICT = "gaborcert/verdict/v1"
SCHEMA_GAUSSIAN_CERT = "gaborcert/gaussian_certificate/v1"
SCHEMA_IWASAWA = "gaborcert/iwasawa/v1"
SCHEMA_REDUCE = "gaborcert/reduce/v1"
SCHEMA_ORACLE = "gaborcert/oracle/v1"
SCHEMA_PROFILE_SUMMARY = "gaborcert/profile_summary/v1"


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems with exit code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def parse_window_spec(spec: str) -> Window:
    """gaussian | hermite:n | file:path."""
    if spec == "gaussian":
        return gaussian()
    if spec.startswith("hermite:"):
        digits = spec.partition(":")[2]
        try:
            order = int(digits)
        except ValueError:
            raise PreconditionError(f"hermite order must be an integer, got {digits!r}") from None
        return hermite(order)
    if spec.startswith("file:"):
        path = spec.partition(":")[2]
        try:
            return window_from_csv(path)
        except OSError as exc:
            raise PreconditionError(f"cannot read window file {path!r}: {exc}") from None
    raise PreconditionError(
        f"window spec {spec!r} not understood; expected gaussian, hermite:n or file:path"
    )


def _parse_basis(text: str) -> Lattice2D:
    parts = text.split(",")
    if len(parts) != 4:
        raise PreconditionError(f"basis must be 4 comma-separated reals, got {text!r}")
    try:
        b11, b12, b21, b22 = (float(part) for part in parts)
    except ValueError:
        raise PreconditionError(f"basis entries must be numeric, got {text!r}") from None
    return Lattice2D(basis=np.array([[b11, b12], [b21, b22]]))


def _load_window(args: argparse.Namespace) -> Window:
    w = parse_window_spec(args.window)
    if getattr(args, "dilation", 1.0) != 1.0:
        w = dilate(w, args.dilation)
    return w


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError raised inside (path cannot be written) into exit 2."""
    try:
        yield
    except OSError as exc:
        raise PreconditionError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing(out), open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _cmd_profile(args: argparse.Namespace) -> int:
    w = _load_window(args)
    profile = min_delta(w, grid_points=args.grid_points)
    summary = {
        "schema": SCHEMA_PROFILE_SUMMARY,
        "window": w.label,
        "min_value": profile.min_value,
        "argmin_omega": profile.argmin_omega,
        "grid_points": profile.grid_points,
        "rigorous": profile.rigorous,
        "non_certifying": profile.non_certifying,
    }
    _emit(profile.csv_text(), args.out)
    if args.out is not None:
        _emit_json(summary, None)
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    w = _load_window(args)
    if args.delta is not None and (args.a is not None or args.b is not None):
        raise PreconditionError("pass either --delta or --a/--b, not both")
    if args.delta is not None:
        verdict = certify(w, args.delta, grid_points=args.grid_points)
    elif args.a is not None and args.b is not None:
        verdict = certify_rect(w, args.a, args.b, grid_points=args.grid_points)
    else:
        raise PreconditionError("certify needs --delta, or both --a and --b")
    payload = {"schema": SCHEMA_VERDICT, **dataclasses.asdict(verdict), "tail_tol": TAIL_TOL}
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_barrier_scan(args: argparse.Namespace) -> int:
    scan = h1_barrier_scan(args.b_min, args.b_max, args.steps)
    _emit(scan.csv_text(), args.out)
    return EXIT_OK


def _cmd_gaussian_cert(args: argparse.Namespace) -> int:
    cert = gaussian_certificate()
    payload = {"schema": SCHEMA_GAUSSIAN_CERT, **cert.as_dict()}
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_iwasawa(args: argparse.Namespace) -> int:
    factors = iwasawa(_parse_basis(args.basis))
    payload = {"schema": SCHEMA_IWASAWA, **factors.as_dict()}
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    w = _load_window(args)
    result = reduce_general(w, _parse_basis(args.basis))
    payload = {"schema": SCHEMA_REDUCE, **result.to_json()}
    if args.out_window is not None:
        values = sample_window(result.window)
        with _writing(args.out_window):
            write_sampled_csv(args.out_window, sample_grid(), values)
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    w = _load_window(args)
    model = model_for(w, args.a, args.b, args.n)
    bounds = finite_frame_bounds(model)
    payload = {
        "schema": SCHEMA_ORACLE,
        "A": bounds.A,
        "B": bounds.B,
        "ratio": bounds.ratio,
        "N": model.n,
        "snapped_a": model.snapped_a,
        "snapped_b": model.snapped_b,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive real, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="gaborcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_window_flags(p: _Parser) -> None:
        p.add_argument("--window", required=True, help="gaussian | hermite:n | file:path")
        p.add_argument(
            "--dilation",
            type=_positive_float,
            default=1.0,
            help="apply the unitary dilation D_b to the window first",
        )

    p = sub.add_parser("profile", help="delta_g enclosures over an omega grid (CSV)")
    add_window_flags(p)
    p.add_argument("--grid-points", type=_positive_int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("certify", help="frame certification verdict (JSON)")
    add_window_flags(p)
    p.add_argument("--grid-points", type=_positive_int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--delta", type=_positive_float, default=None, help="co-volume of delta*Z x Z")
    p.add_argument("--a", type=_positive_float, default=None, help="lattice side a of a*Z x b*Z")
    p.add_argument("--b", type=_positive_float, default=None, help="lattice side b of a*Z x b*Z")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("barrier-scan", help="closed-form scan of delta at omega=0 (CSV)")
    p.add_argument("--b-min", type=_positive_float, default=0.1)
    p.add_argument("--b-max", type=_positive_float, default=10.0)
    p.add_argument("--steps", type=_positive_int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_barrier_scan)

    p = sub.add_parser("gaussian-cert", help="closed-form Gaussian certificate (JSON)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gaussian_cert)

    p = sub.add_parser("iwasawa", help="scaled Iwasawa factors of a lattice basis (JSON)")
    p.add_argument("--basis", required=True, help="row-major b11,b12,b21,b22")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_iwasawa)

    p = sub.add_parser("reduce", help="reduce (window, lattice) to a square-lattice system")
    add_window_flags(p)
    p.add_argument("--basis", required=True, help="row-major b11,b12,b21,b22")
    p.add_argument("--out", default=None, help="JSON path (stdout if omitted)")
    p.add_argument("--out-window", default=None, help="write the reduced window samples (CSV)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="finite-model frame bounds (JSON)")
    add_window_flags(p)
    p.add_argument("--a", type=_positive_float, required=True)
    p.add_argument("--b", type=_positive_float, required=True)
    p.add_argument("--n", "--N", dest="n", type=_positive_int, default=DEFAULT_DIM)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser run() uses, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    try:
        return handler(args)
    except NumericalError as exc:
        sys.stderr.write(f"gaborcert: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except PreconditionError as exc:
        sys.stderr.write(f"gaborcert: precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except GaborcertError as exc:
        sys.stderr.write(f"gaborcert: {exc}\n")
        return EXIT_PRECONDITION


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
