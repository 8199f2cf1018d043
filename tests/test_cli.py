"""CLI surface: exit codes, schema-valid JSON, deterministic output."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import gaborcert
from gaborcert import TruncationRiskWarning, cli, gaussian, hermite, sample_grid
from gaborcert.cli import main
from gaborcert.criterion import TAIL_TOL, DensityProfile
from gaborcert.window import read_sampled_csv, write_sampled_csv

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"
# the directory holding the imported package: src/ in a checkout,
# site-packages in an installed copy
PACKAGE_ROOT = Path(gaborcert.__file__).resolve().parents[1]


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.v1.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_certify_json_is_schema_valid(capsys):
    payload = run_json(capsys, "certify", "--window", "gaussian", "--delta", "0.9985")
    jsonschema.validate(payload, load_schema("verdict"))
    assert payload["status"] == "Certified"
    assert payload["margin"] > 0
    assert payload["rigorous"] is True
    assert payload["tail_tol"] == 1e-12


def test_certify_rect_route(capsys):
    payload = run_json(
        capsys, "certify", "--window", "hermite:1", "--a", "0.7", "--b", "0.5"
    )
    jsonschema.validate(payload, load_schema("verdict"))
    assert payload["status"] == "Certified"
    assert payload["delta"] == 0.35


def test_gaussian_cert_schema_and_value(capsys):
    payload = run_json(capsys, "gaussian-cert")
    jsonschema.validate(payload, load_schema("gaussian_certificate"))
    assert 0.9985 <= payload["certified_delta"] < 1.0


def test_iwasawa_schema(capsys):
    payload = run_json(capsys, "iwasawa", "--basis", "0.8,0,0,1.25")
    jsonschema.validate(payload, load_schema("iwasawa"))
    assert abs(payload["scale"] - 1.0) <= 1e-12
    assert payload["r"] == 0.0
    assert abs(payload["a"] - 0.8) <= 1e-12


def test_reduce_schema_and_window_export(capsys, tmp_path):
    out_window = tmp_path / "reduced.csv"
    payload = run_json(
        capsys,
        "reduce",
        "--window",
        "hermite:1",
        "--basis",
        "0.75,0,0.3,0.75",
        "--out-window",
        str(out_window),
    )
    jsonschema.validate(payload, load_schema("reduce"))
    assert payload["parity"] == "odd"
    assert payload["parity_preserved"] is True
    tags = [step[0] for step in payload["steps"]]
    assert tags == ["frac_fourier", "chirp", "dilate"]
    grid, values = read_sampled_csv(out_window)
    assert grid.size == values.size == 3201


# a basis whose reduction dilates by 10: the Gaussian's reduced window,
# exp(-pi t^2/100) up to a phase, is still 4e-2 of its peak at |t| = 8
WIDE_BASIS = "0.0707106781186548,7.07106781186548,-0.0707106781186548,7.07106781186548"


def test_reduce_warns_when_the_grid_cuts_the_window(capsys, tmp_path):
    gauss = tmp_path / "gauss.csv"
    write_sampled_csv(gauss, sample_grid(), gaussian().time_eval(sample_grid()))
    # the closed-form route cuts the window when it samples it, the sampled
    # route when it dilates the samples
    for window in ("gaussian", f"file:{gauss}"):
        out_window = tmp_path / "reduced.csv"
        with pytest.warns(TruncationRiskWarning, match="grid ends"):
            run_json(capsys, "reduce", "--window", window, "--basis", WIDE_BASIS,
                     "--out-window", str(out_window))
        _, values = read_sampled_csv(out_window)
        assert min(abs(values[0]), abs(values[-1])) > 0.04 * np.max(np.abs(values)), window


@pytest.mark.parametrize("basis", ["0.6,0.3,-0.2,0.9", "0.75,0,0.3,0.75", "-1,0,0.3,-1"])
def test_reduce_file_window_matches_the_closed_form(capsys, tmp_path, basis):
    # hermite:1 on the standard grid and on a coarser, narrower one, reduced
    # through the sampled route (rotation, shear only, reflection)
    exact_csv = tmp_path / "exact.csv"
    # --basis=...: a leading minus would read as a flag
    exact = run_json(capsys, "reduce", "--window", "hermite:1", f"--basis={basis}",
                     "--out-window", str(exact_csv))
    _, want = read_sampled_csv(exact_csv)
    narrow = np.linspace(-6.0, 6.0, 1201)
    for t in (sample_grid(), narrow):
        window_csv, reduced_csv = tmp_path / "h1.csv", tmp_path / "reduced.csv"
        write_sampled_csv(window_csv, t, hermite(1).time_eval(t))
        payload = run_json(capsys, "reduce", "--window", f"file:{window_csv}", f"--basis={basis}",
                           "--out-window", str(reduced_csv))
        assert payload["parity"] == exact["parity"] == "odd"
        _, got = read_sampled_csv(reduced_csv)
        assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want))), t.size


def test_oracle_schema(capsys):
    payload = run_json(
        capsys, "oracle", "--window", "gaussian", "--a", "0.5", "--b", "1.0"
    )
    jsonschema.validate(payload, load_schema("oracle"))
    assert payload["N"] == 240
    assert payload["snapped_a"] == 0.5
    assert 0.0 < payload["ratio"] <= 1.0


def test_oracle_of_file_samples_matches_the_closed_form(capsys, tmp_path):
    # the periodized copies evaluate the samples' band-limited interpolant:
    # linear interpolation read B = 3.7054374 against 3.7053283
    window_csv = tmp_path / "h1.csv"
    write_sampled_csv(window_csv, sample_grid(), hermite(1).time_eval(sample_grid()))
    argv = ("--a", "0.5", "--b", "1", "--n", "240")
    exact = run_json(capsys, "oracle", "--window", "hermite:1", *argv)
    sampled = run_json(capsys, "oracle", "--window", f"file:{window_csv}", *argv)
    assert sampled["B"] == pytest.approx(exact["B"], rel=1e-12, abs=0.0)
    assert (sampled["snapped_a"], sampled["snapped_b"]) == (exact["snapped_a"], exact["snapped_b"])


def test_oracle_accepts_capital_n_alias(capsys):
    payload = run_json(
        capsys, "oracle", "--window", "gaussian", "--a", "0.5", "--b", "1.0", "--N", "144"
    )
    assert payload["N"] == 144


def test_profile_stdout_is_csv(capsys):
    code, out, err = run_cli(
        capsys, "profile", "--window", "gaussian", "--grid-points", "11"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,delta_g_low,delta_g,delta_g_high,tail_bound_num,tail_bound_den"
    # 11 grid points plus refinement rows around the minimum
    assert len(lines) >= 12


def test_profile_file_and_summary_agree(capsys, tmp_path):
    out = tmp_path / "profile.csv"
    code, stdout, err = run_cli(
        capsys,
        "profile",
        "--window",
        "hermite:1",
        "--grid-points",
        "51",
        "--out",
        str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    jsonschema.validate(summary, load_schema("profile_summary"))
    profile = DensityProfile.read_csv(out)
    assert profile.min_value == summary["min_value"]
    assert profile.argmin_omega == summary["argmin_omega"]


def test_barrier_scan_deterministic(capsys, tmp_path):
    args = ("barrier-scan", "--b-min", "0.5", "--b-max", "2.0", "--steps", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    path = tmp_path / "scan.csv"
    code3, _, _ = run_cli(capsys, *args, "--out", str(path))
    assert code3 == 0
    assert path.read_bytes().decode() == out1


def test_json_output_deterministic_and_sorted(capsys, tmp_path):
    args = ("certify", "--window", "gaussian", "--delta", "0.5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    keys = list(json.loads(out1))
    assert keys == sorted(keys)
    path = tmp_path / "verdict.json"
    run_cli(capsys, *args, "--out", str(path))
    assert path.read_bytes().decode() == out1


def test_usage_errors_exit_64(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 64
    assert run_cli(capsys)[0] == 64
    assert run_cli(capsys, "certify", "--delta", "0.5")[0] == 64  # missing --window
    assert run_cli(capsys, "certify", "--window", "gaussian", "--delta", "-1")[0] == 64
    assert run_cli(capsys, "oracle", "--window", "gaussian", "--a", "0.5")[0] == 64
    certify_with_tol = ("certify", "--window", "gaussian", "--delta", "0.5", "--tail-tol", "1e-8")
    assert run_cli(capsys, *certify_with_tol)[0] == 64  # the tolerance is fixed


def test_precondition_errors_exit_2(capsys, tmp_path):
    # window files with a cell that is not a number and with a short row
    (tmp_path / "word.csv").write_text("t,re,im\r\n-0.01,0.0,0.0\r\n0.0,x,0.0\r\n0.01,0.0,0.0\r\n")
    (tmp_path / "short.csv").write_text("t,re,im\r\n-0.01,0.0,0.0\r\n0.0,1.0\r\n0.01,0.0,0.0\r\n")
    cases = [
        ("certify", "--window", f"file:{tmp_path / 'word.csv'}", "--delta", "0.5"),
        ("certify", "--window", f"file:{tmp_path / 'short.csv'}", "--delta", "0.5"),
        ("certify", "--window", "hermite:x", "--delta", "0.5"),
        ("certify", "--window", "gaussian"),
        ("certify", "--window", "gaussian", "--delta", "0.5", "--a", "0.5"),
        ("certify", "--window", f"file:{tmp_path / 'missing.csv'}", "--delta", "0.5"),
        ("certify", "--window", "einstein", "--delta", "0.5"),
        ("iwasawa", "--basis", "1,2,3"),
        ("iwasawa", "--basis", "1,2,3,nope"),
        ("reduce", "--window", "gaussian", "--basis", "1,2,2,4"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, (argv, err)
        assert "gaborcert:" in err
        if argv[2].endswith(("word.csv", "short.csv")):
            assert "line 3" in err, err


def test_unwritable_output_exits_2(capsys, tmp_path):
    # a missing directory and a directory in place of a file, for every --out
    # and --out-window: one stderr line naming the path, no traceback
    subcommands = [
        ("profile", "--window", "hermite:1", "--grid-points", "11"),
        ("certify", "--window", "hermite:1", "--delta", "0.4"),
        ("barrier-scan", "--b-min", "0.5", "--b-max", "2", "--steps", "3"),
        ("gaussian-cert",),
        ("iwasawa", "--basis", "2,0.5,0,0.5"),
        ("reduce", "--window", "hermite:1", "--basis", "0.6,0.3,-0.2,0.9"),
        ("oracle", "--window", "gaussian", "--a", "0.5", "--b", "1", "--n", "24"),
    ]
    cases = [argv + ("--out",) for argv in subcommands] + [subcommands[5] + ("--out-window",)]
    for argv in cases:
        for path in (tmp_path / "missing" / "out.txt", tmp_path):
            code, _, err = run_cli(capsys, *argv, str(path))
            assert code == 2, (argv, err)
            assert err.count("\n") == 1 and f"cannot write {str(path)!r}" in err, err
            assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    # every subcommand, with usage (64) and precondition (2) errors in between
    mixed = [
        ("certify", "--window", "gaussian", "--delta", "0.9"),
        ("certify", "--delta", "0.5"),
        ("profile", "--window", "hermite:1", "--grid-points", "11"),
        ("certify", "--window", "hermite:x", "--delta", "0.5"),
        ("barrier-scan", "--b-min", "0.5", "--b-max", "2", "--steps", "3"),
        ("frobnicate",),
        ("gaussian-cert",),
        ("certify", "--window", "gaussian", "--delta", "0.5", "--a", "0.5"),
        ("iwasawa", "--basis", "2,0.5,0,0.5"),
        ("certify", "--window", "gaussian", "--delta", "-1"),
        ("reduce", "--window", "hermite:1", "--basis", "1,0,0,1"),
        ("profile", "--window", "gaussian", "--grid-points", "4"),
        ("oracle", "--window", "gaussian", "--a", "0.5", "--b", "1", "--n", "24"),
        (),
        ("certify", "--window", "hermite:1", "--a", "0.7", "--b", "0.5"),
        ("certify", "--window", "gaussian", "--delta", "0.9"),
    ]

    def answers():
        return [run_cli(capsys, *argv) for argv in mixed]

    cli._shared_parser.cache_clear()
    shared = answers()
    assert cli._shared_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = answers()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 64, 0, 2, 0, 64, 0, 2, 0, 64, 0, 2, 0, 64, 0, 0]
    assert cli.build_parser() is not cli.build_parser()


def test_numerical_errors_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--window", "gaussian", "--a", "0.001", "--b", "0.001"
    )
    assert code == 3
    assert "numerical failure" in err
    # a rotation angle inside the degenerate band reaches the kernel check
    tiny = "0.999999999999995,1e-07,-1e-07,0.999999999999995"
    code, _, err = run_cli(capsys, "reduce", "--window", "gaussian", "--basis", tiny)
    assert code == 3


@pytest.mark.parametrize("order", [150, 300, 1000])
def test_overflowing_hermite_orders_exit_3(capsys, order):
    # hermite:150 overflows the rounding weight of its sums, hermite:300 and
    # hermite:1000 the envelope amplitude: no verdict, and no numpy warning
    # (the suite turns one into an error)
    code, out, err = run_cli(capsys, "certify", "--window", f"hermite:{order}", "--delta", "0.01")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "overflow" in err, err


def test_tail_tol_flag(capsys):
    # the truncation tolerance is the constant TAIL_TOL: the verdict reports
    # it, and no subcommand takes a flag that would change it
    payload = run_json(capsys, "certify", "--window", "gaussian", "--delta", "0.5")
    assert payload["tail_tol"] == TAIL_TOL == 1e-12
    for args in (
        ("certify", "--window", "gaussian", "--delta", "0.5"),
        ("profile", "--window", "gaussian", "--grid-points", "11"),
        ("barrier-scan", "--b-min", "0.5", "--b-max", "2", "--steps", "3"),
    ):
        code, out, err = run_cli(capsys, *args, "--tail-tol", "1e-8")
        assert code == 64 and out == "" and "--tail-tol" in err, err


def test_dilation_flag_matches_rect_route(capsys):
    via_flag = run_json(
        capsys,
        "certify",
        "--window",
        "hermite:1",
        "--dilation",
        "0.5",
        "--delta",
        "0.35",
    )
    via_rect = run_json(
        capsys, "certify", "--window", "hermite:1", "--a", "0.7", "--b", "0.5"
    )
    assert via_flag["min_delta_g"] == via_rect["min_delta_g"]
    assert via_flag["status"] == via_rect["status"] == "Certified"


def check_entry_point(command, env=None):
    """Run `command gaussian-cert` and `command nope`; return the first stdout."""
    result = subprocess.run(
        [*command, "gaussian-cert"], capture_output=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["schema"] == "gaborcert/gaussian_certificate/v1"
    bad = subprocess.run([*command, "nope"], capture_output=True, timeout=120, env=env)
    assert bad.returncode == 64
    return result.stdout


def child_env():
    """The environment of a child that imports the same package as this process, from any cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def test_console_entry_point(capsys):
    stdout = check_entry_point([sys.executable, "-m", "gaborcert"], env=child_env())
    code, out, _ = run_cli(capsys, "gaussian-cert")
    assert code == 0
    assert stdout == out.encode()


# a child in which any import of scipy fails
WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from gaborcert.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_sampled_route_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency, also on the reduce route
    out_window = tmp_path / "reduced.csv"
    runs = (
        ("reduce", ("reduce", "--window", "hermite:1", "--basis", "0.75,0,0.3,0.75",
                    "--out-window", str(out_window))),
        ("verdict", ("certify", "--window", f"file:{out_window}", "--delta", "0.4")),
    )
    for schema, argv in runs:
        result = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, *argv],
            capture_output=True, timeout=120, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        jsonschema.validate(json.loads(result.stdout), load_schema(schema))


def toml_parser():
    try:
        return importlib.import_module("tomllib")
    except ModuleNotFoundError:
        return pytest.importorskip("tomli")


def test_project_scripts_target_resolves(capsys):
    pyproject = toml_parser().loads((REPO / "pyproject.toml").read_text())
    value = pyproject["project"]["scripts"]["gaborcert"]
    assert value == "gaborcert.cli:main"
    target = EntryPoint(name="gaborcert", value=value, group="console_scripts").load()
    assert target is main
    code = target(["gaussian-cert"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    jsonschema.validate(payload, load_schema("gaussian_certificate"))


@pytest.mark.skipif(
    shutil.which("gaborcert") is None, reason="no installed gaborcert script on PATH"
)
def test_installed_console_script():
    check_entry_point(["gaborcert"])
