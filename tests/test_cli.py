"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rscp
import rscp.cli as cli
from rscp.cli import (EXIT_ERROR, EXIT_IO, EXIT_OK, EXIT_VALIDATION,
                      EXIT_VERIFY, _MAX_LEVELS, _MAX_SAMPLES, _MAX_WORKERS,
                      _dump_json, _parse_levels, _parse_range, _sig, main)
from rscp.density import _MAX_POINTS, DensityGrid
from rscp.states import map_quantum_numbers
from rscp.verify import CheckResult, VerificationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def failing_report(labels, params, grid=None):
    """A verify_state whose radial norm check fails."""
    return VerificationReport(
        labels, params, map_quantum_numbers(labels, params),
        (CheckResult("radial_norm", 2.0, 1.0, 1e-8),
         CheckResult("angular_norm", 1.0, 1.0, 1e-8),
         CheckResult("radial_residual_max", 0.0, 0.0, 1e-6),
         CheckResult("angular_residual_max", 0.0, 0.0, 1e-6)))


def child_env():
    """The environment of a fresh interpreter that imports this rscp."""
    src = str(Path(rscp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def cli_child(*argv, cwd):
    """``python -m rscp.cli ARGV`` in a fresh interpreter."""
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# ------------------------------------------------------------------ helpers


def test_sig_formatting():
    assert _sig(0.00529429) == "0.00529429"
    assert _sig(-0.125) == "-0.125"
    assert _sig(2.0731322456, 9) == "2.07313225"
    assert _sig(1.0) == "1"


def test_parse_range_and_levels():
    assert _parse_range("0:2:5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert _parse_levels("10:100:10") == [10.0 * i for i in range(1, 11)]
    assert _parse_levels("25,50,75") == [25.0, 50.0, 75.0]
    with pytest.raises(ValueError):
        _parse_range("0:2")
    with pytest.raises(ValueError):
        _parse_range("0:2:1")
    # the count is checked before the list is built
    assert len(_parse_range(f"0:1:{_MAX_SAMPLES}")) == _MAX_SAMPLES
    for count in (_MAX_SAMPLES + 1, 10**12):
        with pytest.raises(ValueError, match=f"2 to {_MAX_SAMPLES} samples"):
            _parse_range(f"0:1:{count}")
    with pytest.raises(ValueError):
        _parse_levels("10:100:0")
    assert len(_parse_levels("1:1000:1")) == 1000
    # a step that does not move the level would append for ever
    for text in ("1:1001:1", "10:100:1e-16", "10:100:1e-15"):
        with pytest.raises(ValueError, match="more than 1000 levels"):
            _parse_levels(text)


# -------------------------------------------------------------------- state


def test_state_json(capsys):
    code, out = run_cli(capsys, "state", "--n", "2", "--l", "1", "--m", "0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert (doc["n"], doc["l"], doc["m"]) == (2, 1, 0)
    assert doc["energy"] == -0.125
    assert doc["l_prime"] == 1.0
    assert doc["lambda"] == 2.0


def test_state_ring_values(capsys):
    code, out = run_cli(capsys, "state", "--n", "2", "--l", "1", "--m", "0",
                        "--b", "0.5", "--c", "0.5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert math.isclose(doc["l_prime"], 2.0731322, abs_tol=5e-8)
    assert math.isclose(doc["n_prime"], 3.0731322, abs_tol=5e-8)
    assert math.isclose(doc["energy"], -0.0529429, abs_tol=5e-8)


def test_state_inadmissible_is_validation_error(capsys):
    code, out = run_cli(capsys, "state", "--n", "4", "--l", "1", "--m", "0",
                        "--b", "-0.5", "--c", "0.5")
    assert code == EXIT_VALIDATION
    doc = json.loads(out)
    assert "error" in doc
    assert doc["error"]["type"]
    assert doc["error"]["message"]


@pytest.mark.parametrize("b", ["-1e-3", "-5E-1", "-.25e+0"])
def test_negative_b_with_an_exponent_is_a_value(capsys, b):
    """argparse's own negative-number pattern has no exponent form, so it
    took --b -1e-3 for a flag without a value."""
    state = ["state", "--n", "5", "--l", "2", "--m", "1"]
    spaced = run_cli(capsys, *state, "--b", b, "--c", "0.5")
    assert spaced[0] == EXIT_OK, spaced
    assert spaced == run_cli(capsys, *state, f"--b={b}", "--c", "0.5")


def test_negative_b_with_an_exponent_reaches_the_order_check(capsys):
    code, out = run_cli(capsys, "state", "--n", "5", "--l", "2", "--m", "0",
                        "--b", "-1e-3", "--c", "0.5")
    assert code == EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["type"] == "ImaginaryOrderError"
    assert error["message"].startswith("imaginary order: b + m^2 = -0.001")


# labels with a quasi quantum number past float range, and the label that
# puts it there; each has n > 1000, which is refused first
OVERFLOWING = [({"n": 10 ** 400, "l": 1, "m": 0}, "n"),
               ({"n": 10 ** 400 + 1, "l": 10 ** 400, "m": 0}, "l"),
               ({"n": 10 ** 200 + 1, "l": 10 ** 200, "m": 10 ** 200}, "m")]


@pytest.mark.parametrize("state, name", OVERFLOWING)
def test_state_overflowing_label_is_validation_error(capsys, state, name):
    """Whichever label would overflow a float, the n bound reports."""
    code, out = run_cli(capsys, "state", *(f"--{k}={v}"
                                           for k, v in state.items()))
    assert code == EXIT_VALIDATION
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == ("n is too large: at most 1000 is served,"
                                f" got n={state['n']}")


@pytest.mark.parametrize("n", [10 ** 12, 1001])
def test_huge_n_is_validation_error(tmp_path, capsys, n):
    """A large n is refused up front: its radial series would not end."""
    vtk = tmp_path / "d.vtk"
    for argv in (["state"], ["grid", "--N", "3", "--output", str(vtk)]):
        code, out = run_cli(capsys, *argv, "--n", str(n), "--l", "0",
                            "--m", "0")
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"]["message"].startswith(
            "n is too large")
    assert not vtk.exists()


def test_state_accepts_n_1000(capsys):
    code, out = run_cli(capsys, "state", "--n", "1000", "--l", "0",
                        "--m", "0")
    assert code == EXIT_OK
    assert json.loads(out)["n_r"] == 999


def test_non_finite_input_is_validation_error(tmp_path, capsys):
    vtk = tmp_path / "d.vtk"
    for argv in (["state", "--n", "2", "--l", "1", "--m", "0", "--b", "nan"],
                 ["grid", "--n", "2", "--l", "1", "--m", "0", "--N", "5",
                  "--extent", "inf", "--output", str(vtk)]):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert "NaN" not in out and "Infinity" not in out
        assert json.loads(out)["error"]["type"] == "ValueError"
    assert not vtk.exists()


@pytest.mark.parametrize("argv, message", [
    (["grid", "--n", "1.5", "--l", "1", "--m", "0"],
     "argument --n: invalid int value: '1.5'"),
    (["state", "--n", "2", "--l", "1", "--m", "0", "--Z", "x"],
     "argument --Z: invalid float value: 'x'"),
    (["sweep", "--jobs", "job.json", "--workers", "1e9"],
     "argument --workers: invalid int value: '1e9'"),
    (["grid", "--n", "2"], "the following arguments are required: --l, --m"),
    ([], "the following arguments are required: command"),
    (["movie"], "argument command: invalid choice: 'movie'")])
def test_flag_refusal_is_validation_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(message)
    assert captured.err == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage: rscp verify" in capsys.readouterr().out


# ---------------------------------------------------------------- potential


def test_potential_theta_sweep(capsys):
    # theta = 0, pi/4, pi/2 with b = c = 0.5: pole, zero, pole
    code, out = run_cli(capsys, "potential", "--Z", "1", "--b", "0.5",
                        "--c", "0.5", "--r", "1.0",
                        "--theta-range", "0:1.5707963267948966:3")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "coord,V"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 3
    assert rows[0][1] == "" and rows[2][1] == ""
    assert abs(float(rows[1][1])) < 1e-12


def test_potential_r_sweep_coulomb(capsys):
    code, out = run_cli(capsys, "potential", "--r-range", "1:4:4",
                        "--theta", "0.5")
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in out.strip().split("\n")[2:]]
    assert len(rows) == 4
    for r, v in rows:
        assert math.isclose(float(v), -1.0 / float(r), rel_tol=1e-9)


def test_potential_pole_only_when_term_present(capsys):
    # with b = 0 the theta = pi/2 pole needs c > 0; c = 0 gives a value
    code, out = run_cli(capsys, "potential", "--theta-range",
                        "0.5:1.5707963267948966:2", "--r", "2.0")
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in out.strip().split("\n")[2:]]
    assert rows[1][1] != ""
    assert math.isclose(float(rows[1][1]), -0.5, rel_tol=1e-9)


def test_potential_huge_range_is_validation_error(capsys):
    for flags in (["--r-range", "1:2:1000000000000", "--theta", "0.5"],
                  ["--theta-range", "0:1:1000001", "--r", "1.0"]):
        code, out = run_cli(capsys, "potential", *flags)
        assert code == EXIT_VALIDATION
        assert "samples" in json.loads(out)["error"]["message"]


def test_potential_requires_exactly_one_sweep(capsys):
    code, out = run_cli(capsys, "potential", "--r-range", "1:2:3",
                        "--theta-range", "0:1:3")
    assert code == EXIT_VALIDATION
    code, out = run_cli(capsys, "potential", "--r", "1.0", "--theta", "0.5")
    assert code == EXIT_VALIDATION
    for sweep, fixed in (("--r-range", "--theta"), ("--theta-range", "--r")):
        code, out = run_cli(capsys, "potential", sweep, "1:2:3")
        assert code == EXIT_VALIDATION
        assert (json.loads(out)["error"]["message"]
                == f"{sweep} needs a fixed {fixed}")
    # a fixed value of the swept coordinate would never be read
    for flags, message in (
            (["--r-range", "1:2:3", "--theta", "0.5", "--r", "9"],
             "--r-range sweeps r; drop --r"),
            (["--theta-range", "0:1:3", "--r", "1", "--theta", "0.3"],
             "--theta-range sweeps theta; drop --theta")):
        code, out = run_cli(capsys, "potential", *flags)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"]["message"] == message


@pytest.mark.parametrize("flags, message", [
    (["--r-range", "1:2:3", "--theta", "nan"], "finite theta, got nan"),
    (["--theta-range", "0:1:3", "--r", "inf"], "finite r > 0, got inf"),
    (["--r-range", "1e-320:1:3", "--theta", "0.5", "--b", "1"],
     "V overflows a float at r = 1e-320"),
    (["--r-range", "1e-160:1:3", "--theta", "0.5", "--b", "1"],
     "V overflows a float at r = 1e-160, theta = 0.5"),
])
def test_potential_non_finite_value_is_validation_error(capsys, flags,
                                                        message):
    code, out = run_cli(capsys, "potential", *flags)
    assert code == EXIT_VALIDATION
    assert message in json.loads(out)["error"]["message"]


# --------------------------------------------------------------------- grid


VTK_HEADER = ["# vtk DataFile Version 3.0",
              None,                      # metadata line, state-dependent
              "ASCII",
              "DATASET STRUCTURED_POINTS",
              "DIMENSIONS 21 21 21"]


def test_grid_vtk_exact_header(tmp_path, capsys):
    out_file = tmp_path / "d.vtk"
    code, _ = run_cli(capsys, "grid", "--n", "2", "--l", "1", "--m", "0",
                      "--N", "21", "--extent", "10", "--output",
                      str(out_file))
    assert code == EXIT_OK
    lines = out_file.read_text().split("\n")
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1].startswith("state n=2 l=1 m=0")
    assert "field=rpv" in lines[1]
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 21 21 21"
    assert lines[5] == "ORIGIN -10 -10 -10"
    assert lines[6] == "SPACING 1 1 1"
    assert lines[7] == "POINT_DATA 9261"
    assert lines[8] == "SCALARS density float 1"
    assert lines[9] == "LOOKUP_TABLE default"
    data = [v for ln in lines[10:] for v in ln.split() if v]
    assert len(data) == 9261
    assert max(float(v) for v in data) == 100.0


def test_grid_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    for f in (a, b):
        code, _ = run_cli(capsys, "grid", "--n", "3", "--l", "2", "--m", "1",
                          "--b", "0.5", "--c", "0.5", "--N", "31",
                          "--output", str(f))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- isosurface


def test_isosurface_obj(tmp_path, capsys):
    out_file = tmp_path / "m.obj"
    code, _ = run_cli(capsys, "isosurface", "--n", "6", "--l", "5",
                      "--m", "0", "--b", "0.5", "--c", "0.5", "--N", "61",
                      "--level", "50", "--cutaway", "--output", str(out_file))
    assert code == EXIT_OK
    text = out_file.read_text()
    lines = text.strip().split("\n")
    v_lines = [ln for ln in lines if ln.startswith("v ")]
    f_lines = [ln for ln in lines if ln.startswith("f ")]
    assert len(v_lines) > 100 and len(f_lines) > 100
    # face indices are 1-based and in range
    for ln in f_lines[:50]:
        idx = [int(t) for t in ln.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(v_lines) for i in idx)


def test_isosurface_face_count_holds_at_a_tiny_extent(tmp_path, capsys):
    """A box 1e-5 Bohr wide holds the same surface, scaled, as one 1e-3
    wide: its triangles are small, not degenerate, and none is dropped."""
    faces = []
    for extent in ("1e-3", "1e-5"):
        out_file = tmp_path / f"m{extent}.obj"
        code, _ = run_cli(capsys, "isosurface", "--n", "2", "--l", "1",
                          "--m", "0", "--extent", extent, "--N", "31",
                          "--level", "50", "--output", str(out_file))
        assert code == EXIT_OK
        faces.append(sum(line.startswith("f ")
                         for line in out_file.read_text().splitlines()))
    assert faces[1] == faces[0] > 0


def test_isosurface_level_bounds(capsys):
    code, out = run_cli(capsys, "isosurface", "--n", "2", "--l", "1",
                        "--m", "0", "--N", "21", "--level", "0")
    assert code == EXIT_VALIDATION


# -------------------------------------------------------------------- slice


def test_slice_csv(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, _ = run_cli(capsys, "slice", "--n", "2", "--l", "1", "--m", "0",
                      "--N", "41", "--output", str(out_file))
    assert code == EXIT_OK
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "level,polyline,vertex,y,z"
    levels = {float(ln.split(",")[0]) for ln in lines[2:]}
    assert levels <= {10.0 * i for i in range(1, 11)}
    assert len(levels) >= 5


def test_slice_custom_levels(capsys):
    code, out = run_cli(capsys, "slice", "--n", "2", "--l", "1", "--m", "0",
                        "--N", "31", "--levels", "25,75")
    assert code == EXIT_OK
    body = out.strip().split("\n")[2:]
    levels = {float(ln.split(",")[0]) for ln in body}
    assert levels <= {25.0, 75.0}


def test_slice_bad_level_range_is_validation_error(capsys):
    for levels, message in (("10:100:1e-16", "more than 1000 levels"),
                            ("100:10:5", "levels must not be empty"),
                            ("1:2", "levels must be a:b:step, got '1:2'")):
        code, out = run_cli(capsys, "slice", "--n", "2", "--l", "1", "--m",
                            "0", "--N", "15", "--levels", levels)
        assert code == EXIT_VALIDATION
        assert message in json.loads(out)["error"]["message"]


# ------------------------------------------------------------------- verify


def test_verify_ok(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--l", "1", "--m", "0",
                        "--b", "0.5", "--c", "0.5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {
        "radial_norm", "angular_norm", "radial_residual_max",
        "angular_residual_max"}


def test_verify_near_hydrogen_exits_ok(capsys):
    code, out = run_cli(capsys, "verify", "--n", "6", "--l", "1", "--m", "0",
                        "--b", "1e-3", "--c", "1e-3")
    assert code == EXIT_OK
    assert json.loads(out)["all_passed"] is True


def test_verify_failed_check_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("rscp.verify.verify_state", failing_report)
    code, out = run_cli(capsys, "verify", "--n", "2", "--l", "1", "--m", "0")
    assert code == EXIT_VERIFY
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
        "radial_norm"]


def test_verify_overflowing_radial_factor_reports(tmp_path):
    # the served radial power sum overflows at n_r = 298: the report names
    # the failed check, and the scaled Laguerre recurrence of the residual
    # does not overflow; a subprocess, as pytest makes a RuntimeWarning an
    # error
    child = cli_child("-m", "rscp.cli", "verify", "--n", "300", "--l", "1",
                      "--m", "0", cwd=tmp_path)
    assert child.returncode == EXIT_VERIFY, child.stderr
    assert child.stderr == ""
    doc = json.loads(child.stdout)
    assert "error" not in doc
    assert doc["all_passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
        "radial_norm"]


@pytest.mark.parametrize("flags, failed", [
    ("--n 300 --l 1 --m 0", ["radial_norm"]),
    ("--n 1000 --l 1 --m 0", ["radial_norm"]),
    ("--n 600 --l 599 --m 0 --b 1e6 --c 1", ["angular_norm"])])
def test_verify_overflowing_served_factor_keeps_stderr_empty(tmp_path, flags,
                                                             failed):
    # a served power sum past the float range is a failed check in the
    # report, not a RuntimeWarning; a subprocess, so that one would reach
    # stderr
    child = cli_child("-m", "rscp.cli", "verify", *flags.split(),
                      cwd=tmp_path)
    assert child.returncode == EXIT_VERIFY
    assert child.stderr == ""
    assert "NaN" not in child.stdout and "Infinity" not in child.stdout
    doc = json.loads(child.stdout)
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == failed


@pytest.mark.parametrize("flags", [
    "--n 1000 --l 501 --m 0 --b 0.5 --c 0.5 --N 31",
    "--n 1000 --l 1 --m 0 --N 31",
    # the extent auto_extent used to return there: the density overflows
    "--n 1000 --l 501 --m 0 --b 0.5 --c 0.5 --N 31 --extent 79714.85171811326",
])
def test_non_finite_factor_is_validation_error(tmp_path, flags):
    # a subprocess, so that a RuntimeWarning would reach stderr
    child = cli_child("-m", "rscp.cli", "grid", *flags.split(), cwd=tmp_path)
    assert child.returncode == EXIT_VALIDATION
    assert child.stderr == ""
    error = json.loads(child.stdout)["error"]
    assert error["type"] == "ValueError"
    assert "leaves the float range" in error["message"]
    assert "n=1000" in error["message"]


def test_verify_non_finite_check_is_written_as_string(capsys):
    # the served angular factor overflows at k = 499 (a NaN norm); the
    # report still parses, names the value, and the command exits 3, and
    # no warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "verify", "--n", "1000", "--l", "999",
                            "--m", "0", "--b", "0.5", "--c", "0.5")
    assert code == EXIT_VERIFY
    assert "NaN" not in out and "Infinity" not in out
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["angular_norm"]["value"] == "nan"
    assert checks["angular_norm"]["passed"] is False
    assert doc["all_passed"] is False
    assert checks["angular_residual_max"]["passed"] is True


def test_dump_json_rejects_non_finite():
    assert _dump_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _dump_json({"x": [1.0, bad]})


# ------------------------------------------------------ runtime dependencies

_CHILD = """
import sys
import rscp
argv = sys.argv[1:]
if argv:
    from rscp.cli import main
    assert main(argv) == 0
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""


@pytest.mark.parametrize("argv", [
    [],
    ["grid", "--n", "2", "--l", "1", "--m", "0", "--N", "3"],
    ["verify", "--n", "6", "--l", "5", "--m", "0", "--b", "0.5", "--c", "10"]])
def test_cold_commands_do_not_import_scipy(tmp_path, argv):
    # a fresh interpreter, so modules the test session loaded do not count
    if argv:
        argv = argv + ["--output", str(tmp_path / "out")]
    child = cli_child("-c", _CHILD, *argv, cwd=None)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
    if argv:
        assert (tmp_path / "out").stat().st_size > 0


# -------------------------------------------------------------------- sweep


JOB = {
    "output_dir": None,                 # filled by fixture
    "workers": 2,
    "runs": [
        {"n": 2, "l": 1, "m": 0, "b": 0.5, "c": 0.5,
         "outputs": ["grid", "slice"], "grid": {"n_points": 21}},
        {"n": 4, "l": 1, "m": 0, "b": -0.5, "c": 0.5,
         "outputs": ["grid"], "grid": {"n_points": 21}},
        {"n": 3, "l": 2, "m": 1, "b": 0.5, "c": 5,
         "outputs": ["isosurface"], "level": 40,
         "grid": {"n_points": 21}},
    ],
}


def write_job(tmp_path, workers=2):
    job = dict(JOB, output_dir=str(tmp_path / "out"), workers=workers)
    (tmp_path / "out").mkdir(exist_ok=True)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return path


def test_sweep_manifest_and_invalid_run(tmp_path, capsys):
    path = write_job(tmp_path)
    code, out = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION      # run 1 is inadmissible
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    runs = manifest["runs"]
    assert [r["index"] for r in runs] == [0, 1, 2]
    assert runs[0]["status"] == "ok"
    assert runs[1]["status"] == "invalid"
    assert runs[1]["reason"]
    assert runs[2]["status"] == "ok"
    names = set(runs[0]["artifacts"])
    assert names == {"run_000_n2l1m0.vtk", "run_000_n2l1m0_slice.csv"}
    for name in names:
        assert (tmp_path / "out" / name).exists()
    assert runs[1]["artifacts"] == []


def test_sweep_worker_count_invariance(tmp_path, capsys):
    texts = []
    for workers in (1, 4):
        sub = tmp_path / f"w{workers}"
        sub.mkdir()
        job = dict(JOB, output_dir=str(sub / "out"), workers=workers)
        (sub / "out").mkdir()
        path = sub / "job.json"
        path.write_text(json.dumps(job))
        code, _ = run_cli(capsys, "sweep", "--jobs", str(path))
        assert code == EXIT_VALIDATION
        bundle = {p.name: p.read_bytes()
                  for p in sorted((sub / "out").iterdir())}
        texts.append(bundle)
    assert texts[0] == texts[1]


def test_closed_stdout_exits_4_without_a_traceback(tmp_path):
    """A reader that stops early, as ``| head`` does: the grid's write and
    then the JSON error meet a broken pipe, and neither prints a trace."""
    child = subprocess.Popen(
        [sys.executable, "-m", "rscp.cli", "grid", "--n", "2", "--l", "1",
         "--m", "0", "--N", "31"], env=child_env(), cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=120) == EXIT_IO
    assert stderr == b""


def test_sweep_missing_job_file(tmp_path, capsys):
    code, out = run_cli(capsys, "sweep", "--jobs",
                        str(tmp_path / "missing.json"))
    assert code == EXIT_IO
    assert "error" in json.loads(out)


def test_sweep_bad_output_kind(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path),
                                "runs": [{"n": 2, "l": 1, "m": 0,
                                          "outputs": ["movie"]}]}))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION


def test_sweep_empty_levels_is_invalid_run(tmp_path, capsys):
    job = dict(JOB, output_dir=str(tmp_path / "out"))
    job["runs"] = [JOB["runs"][0], dict(JOB["runs"][2], levels=[])]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, _ = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    runs = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["ok", "invalid"]
    assert runs[1]["reason"] == "levels must not be empty"
    assert runs[1]["artifacts"] == []


@pytest.mark.parametrize("field", [{"level": 150}, {"levels": [10, 150]},
                                   {"grid": {"n_points": 21,
                                             "coverage": 1.5}}])
def test_sweep_out_of_range_field_is_invalid_run(tmp_path, capsys, field):
    job = dict(JOB, output_dir=str(tmp_path / "out"))
    job["runs"] = [JOB["runs"][0], dict(JOB["runs"][2], **field)]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, _ = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    runs = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["ok", "invalid"]
    assert "must lie in" in runs[1]["reason"]
    assert runs[1]["artifacts"] == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "manifest.json", "run_000_n2l1m0.vtk", "run_000_n2l1m0_slice.csv"]


@pytest.mark.parametrize("key", ["n", "l", "m"])
def test_sweep_missing_required_key(tmp_path, capsys, key):
    run = {"n": 2, "l": 1, "m": 0, "outputs": ["grid"]}
    del run[key]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                "runs": [JOB["runs"][0], run]}))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    message = json.loads(out)["error"]["message"]
    assert "run 1" in message and repr(key) in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("job, workers, message", [
    ({"runs": [{"n": None, "l": 1, "m": 0}]}, None,
     "run 1: n must be an integer, got null"),
    ({"runs": [{"n": 2.7, "l": 1, "m": 0}]}, None,
     "run 1: n must be an integer, got 2.7"),
    ({"runs": [{"n": True, "l": 1, "m": 0}]}, None,
     "run 1: n must be an integer, got true"),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "grid": {"n_points": 15.5}}]}, None,
     "run 1: n_points must be an integer, got 15.5"),
    ({"runs": [[2, 1, 0]]}, None, "run 1: a run must be an object"),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "grid": [15]}]}, None,
     "run 1: grid must be an object"),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "b": None}]}, None, "run 1: "),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "Z": 10 ** 400}]}, None,
     "run 1: int too large to convert to float"),
    ({"runs": {"n": 2, "l": 1, "m": 0}}, None, "a 'runs' list"),
    ({"runs": [], "workers": None}, None, "workers must be an integer"),
    ({"runs": [], "workers": 2}, "0", "workers must be >= 1, got 0"),
    ({"runs": [], "workers": 65}, None, "workers must be <= 64, got 65"),
    ({"runs": [], "workers": 2}, "65", "workers must be <= 64, got 65"),
    ({"runs": [], "output_dir": 5}, None, "output_dir must be a string, got 5"),
])
def test_sweep_malformed_job_is_validation_error(tmp_path, capsys, job,
                                                 workers, message):
    """Each malformed entry is exit 2 with a JSON error naming its run."""
    if isinstance(job["runs"], list) and job["runs"]:
        job = dict(job, runs=[JOB["runs"][0], *job["runs"]])
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **job}))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path),
                        *(["--workers", workers] if workers else []))
    assert code == EXIT_VALIDATION
    assert message in json.loads(out)["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("job, message", [
    ({"worker": 2, "runs": []},
     "unknown job key 'worker'; allowed keys: runs, output_dir, workers"),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "levle": 20}]},
     "run 1: unknown key 'levle'; allowed keys: n, l, m, Z, b, c, grid,"
     " outputs, level, levels, cutaway"),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "n_points": 5}]},
     "run 1: unknown key 'n_points'"),
    ({"runs": [{"n": 2, "l": 1, "m": 0, "grid": {"n_point": 5}}]},
     "run 1: unknown grid key 'n_point'; allowed keys: n_points, extent,"
     " coverage"),
], ids=["job", "run", "run-misplaced", "grid"])
def test_sweep_unknown_key_is_refused(tmp_path, capsys, job, message):
    """A misspelt or misplaced key is exit 2 before any run starts, never
    a run with the key's default."""
    if job["runs"]:
        job = dict(job, runs=[JOB["runs"][0], *job["runs"]])
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **job}))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"].startswith(message)
    assert not (tmp_path / "out").exists()


def test_caps_are_checked_before_any_work(tmp_path, capsys, monkeypatch):
    """Past a cap is exit 2 or an invalid run: no grid, no worker thread."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started past a cap")
    monkeypatch.setattr("rscp.density.auto_extent", refuse)
    monkeypatch.setattr("rscp.density.build_grid", refuse)
    target = tmp_path / "d.vtk"
    code, out = run_cli(capsys, "grid", "--n", "2", "--l", "1", "--m", "0",
                        "--N", "20001", "--output", str(target))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == (
        f"n_points must be an odd integer from 3 to {_MAX_POINTS},"
        " got 20001")
    assert not target.exists()

    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), "runs": [
        {"n": 2, "l": 1, "m": 0, "grid": {"n_points": _MAX_POINTS + 2}}]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_VALIDATION
    run, = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
    assert run["status"] == "invalid"
    assert run["reason"].endswith(f"got {_MAX_POINTS + 2}")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", refuse)
    code, out = run_cli(capsys, "sweep", "--jobs", str(path), "--workers",
                        str(_MAX_WORKERS + 1))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == (
        f"workers must be <= {_MAX_WORKERS}, got {_MAX_WORKERS + 1}")
    # at the caps a job parses; nothing here builds the grid or the pool
    path.write_text(json.dumps({"workers": _MAX_WORKERS, "runs": [
        {"n": 2, "l": 1, "m": 0, "grid": {"n_points": _MAX_POINTS}}]}))
    job = cli._parse_job(str(path), None, None)
    cli._check_run(job.runs[0])
    assert job.workers == _MAX_WORKERS


@pytest.mark.parametrize("field, message", [
    ({"levels": "55"}, 'levels must be a list, got "55"'),
    ({"levels": 55}, "levels must be a list, got 55"),
    ({"outputs": "slice"}, 'outputs must be a list, got "slice"'),
    ({"cutaway": "false"}, 'cutaway must be true or false, got "false"'),
    ({"cutaway": 0}, "cutaway must be true or false, got 0"),
])
def test_sweep_job_field_of_the_wrong_json_type(tmp_path, capsys, field,
                                                message):
    """A string or number is never read as a list or a bool."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                "runs": [JOB["runs"][0],
                                         dict(JOB["runs"][2], **field)]}))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == f"run 1: {message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, message", [
    ({"Z": True}, "Z must be a number, got true"),
    ({"b": True}, "b must be a number, got true"),
    ({"c": False}, "c must be a number, got false"),
    ({"level": True}, "level must be a number, got true"),
    ({"levels": [True, 50]}, "levels entry must be a number, got true"),
    ({"grid": {"coverage": True}}, "coverage must be a number, got true"),
    ({"grid": {"extent": True}}, "extent must be a number, got true")])
def test_sweep_bool_in_a_float_field_is_refused(tmp_path, capsys, field,
                                                message):
    """A JSON bool is never read as a number: exit 2, and no run starts."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                "runs": [JOB["runs"][0],
                                         dict(JOB["runs"][2], **field)]}))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == f"run 1: {message}"
    assert not (tmp_path / "out").exists()


def test_every_level_list_is_capped(tmp_path, capsys):
    many = [50.0] * (_MAX_LEVELS + 1)
    message = f"levels must hold at most {_MAX_LEVELS} values, got 1001"
    code, out = run_cli(capsys, "slice", "--n", "2", "--l", "1", "--m", "0",
                        "--N", "5", "--levels", ",".join(map(str, many)))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == message
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                "runs": [dict(JOB["runs"][0], levels=many)]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_VALIDATION
    run, = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
    assert (run["status"], run["reason"]) == ("invalid", message)
    # at the cap a list is served
    code, _ = run_cli(capsys, "slice", "--n", "2", "--l", "1", "--m", "0",
                      "--N", "5", "--levels", ",".join(map(str, many[1:])))
    assert code == EXIT_OK


@pytest.mark.parametrize("flags, message", [
    (["--Z", "1e4"], "Z must lie in [0.001, 1000], got 10000.0"),
    (["--Z", "1e-4"], "Z must lie in [0.001, 1000], got 0.0001"),
    (["--b=-1e13"], "|b| must be at most 1e+12, got -10000000000000.0"),
    (["--c", "1e13"], "c must be at most 1e+12, got 10000000000000.0"),
    (["--extent", "1e101"], "half_extent must be at most 1e+100, got 1e+101"),
])
def test_parameters_outside_the_served_window(capsys, flags, message):
    code, out = run_cli(capsys, "grid", "--n", "2", "--l", "1", "--m", "0",
                        "--N", "5", *flags)
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == message


# past 1 - 1e-12 the auto-extent panel sum cannot resolve the tail: it gave
# 63,587 Bohr for (6,5,0) at 1 - 1e-15 and 1,048.7 for (1,0,0), not 22
@pytest.mark.parametrize("state, coverage", [
    (["--n", "6", "--l", "5", "--m", "0", "--b", "0.5", "--c", "0.5"],
     1 - 1e-15),
    (["--n", "1", "--l", "0", "--m", "0"], 0.9999999999999999)])
def test_coverage_past_the_panel_sum_is_refused(capsys, state, coverage):
    code, out = run_cli(capsys, "grid", *state, "--N", "5",
                        "--coverage", repr(coverage))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"] == (
        f"coverage must be at most 1 - 1e-12, got {coverage!r}")


def test_parameters_at_the_window_edges_are_served(capsys):
    for flags in (["--Z", "1e3"], ["--Z", "1e-3"], ["--b", "1e12"],
                  ["--c", "1e12"]):
        code, _ = run_cli(capsys, "state", "--n", "2", "--l", "1",
                          "--m", "0", *flags)
        assert code == EXIT_OK, flags
    assert rscp.PotentialParams(1.0, -1e12, 0.0).b == -1e12


def test_sweep_job_integer_forms(tmp_path):
    """An integral float or an integer string still parses as an int."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"workers": "3", "runs": [
        {"n": 2.0, "l": "1", "m": " 0", "grid": {"n_points": "15"}}]}))
    job = cli._parse_job(str(path), None, None)
    run, = job.runs
    assert job.workers == 3 and run.n_points == 15
    assert [run.state[k] for k in "nlm"] == [2, 1, 0]
    assert all(type(run.state[k]) is int for k in "nlm")


@pytest.mark.parametrize("state, reason, shown", [
    ({"n": 2, "l": 2, "m": 0}, "l must satisfy", {}),
    ({"n": 3, "l": 1, "m": -2}, "|m| must be <= l", {}),
    ({"n": 2, "l": 1, "m": 0, "c": -0.5}, "c must be >= 0", {}),
    ({"n": 2, "l": 1, "m": 0, "Z": 0.0}, "Z must lie in", {}),
    ({"n": 2, "l": 1, "m": 0, "b": math.inf}, "b must be finite",
     {"b": "inf"}),
    ({"n": 2, "l": 1, "m": 0, "c": math.nan}, "c must be finite",
     {"c": "nan"}),
    *((state, "n is too large", {}) for state, _ in OVERFLOWING),
    ({"n": 10 ** 12, "l": 0, "m": 0}, "n is too large", {}),
    ({"n": 1001, "l": 0, "m": 0}, "n is too large", {}),
])
def test_sweep_inadmissible_state_is_invalid_run(tmp_path, capsys, state,
                                                 reason, shown):
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "runs": [
        JOB["runs"][0], dict(state, outputs=["grid", "verify"])]}))
    code, _ = run_cli(capsys, "sweep", "--jobs", str(path))
    assert code == EXIT_VALIDATION
    text = (out / "manifest.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    runs = json.loads(text)["runs"]
    assert [r["status"] for r in runs] == ["ok", "invalid"]
    assert reason in runs[1]["reason"]
    assert runs[1]["artifacts"] == []
    want = {"Z": 1.0, "b": 0.0, "c": 0.0, **state, **shown}
    assert runs[1]["state"] == want
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "run_000_n2l1m0.vtk", "run_000_n2l1m0_slice.csv"]


def raise_runtime_error(*args, **kwargs):
    raise RuntimeError("unexpected")


@pytest.mark.parametrize("verify_state, code, status, reason, artifacts", [
    (failing_report, EXIT_VERIFY, "verify_failed",
     "verification checks failed", ["run_001_n2l1m0_verify.json"]),
    (raise_runtime_error, EXIT_ERROR, "failed", "RuntimeError: unexpected",
     [])])
def test_sweep_isolates_a_failing_run(tmp_path, capsys, monkeypatch,
                                      verify_state, code, status, reason,
                                      artifacts):
    monkeypatch.setattr("rscp.verify.verify_state", verify_state)
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "workers": 2, "runs": [
        {"n": 2, "l": 1, "m": 0, "outputs": ["grid"],
         "grid": {"n_points": 15}},
        {"n": 2, "l": 1, "m": 0, "outputs": ["verify"]}]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == code
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["ok", status]
    assert runs[1]["reason"] == reason
    assert runs[0]["artifacts"] == ["run_000_n2l1m0.vtk"]
    assert runs[1]["artifacts"] == artifacts
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "run_000_n2l1m0.vtk", *artifacts]


def test_no_command_or_sweep_run_reads_the_full_lattice(tmp_path, capsys,
                                                        monkeypatch):
    """Every reader works from the grid's octant: DensityGrid.values, which
    mirrors the N^3 lattice, is never read."""
    def refuse(grid):
        raise AssertionError("DensityGrid.values was read")
    monkeypatch.setattr(DensityGrid, "values", property(refuse))
    state = ["--n", "6", "--l", "5", "--m", "0", "--b", "0.5", "--c", "0.5",
             "--N", "31"]
    for argv in (["grid"], ["isosurface", "--level", "5", "--cutaway"],
                 ["isosurface", "--level", "50"], ["slice"]):
        target = str(tmp_path / argv[0])
        assert main(argv + state + ["--output", target]) == EXIT_OK
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "workers": 2, "runs": [
        {"n": 6, "l": 5, "m": 0, "b": 0.5, "c": 0.5, "level": 5,
         "cutaway": True, "outputs": ["grid", "isosurface", "slice"],
         "grid": {"n_points": 21}},
        {"n": 2, "l": 1, "m": 0, "outputs": ["isosurface", "verify"],
         "grid": {"n_points": 15}}]}))
    assert main(["sweep", "--jobs", str(path)]) == EXIT_OK
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["ok", "ok"]
    capsys.readouterr()


_STATES = [(2, 1, 0), (3, 2, 1), (4, 3, -2), (2, 2, 0), (3, 1, 1), (1, 0, 0)]
_run_entries = st.fixed_dictionaries(
    {"n": st.sampled_from(_STATES)},
    optional={
        "b": st.sampled_from([0.0, 0.5, -0.5, -4.0]),
        "c": st.sampled_from([0.0, 0.5, 2.0]),
        "outputs": st.lists(st.sampled_from(
            ["grid", "isosurface", "slice", "verify", "movie"]),
            min_size=1, max_size=3),
        "level": st.sampled_from([0.0, 5.0, 50.0, 99.9, 100.0, 150.0]),
        "levels": st.lists(st.sampled_from([-1.0, 10.0, 55.5, 100.0, 101.0]),
                           max_size=3),
        "cutaway": st.booleans(),
        "drop": st.sampled_from(["n", "l", "m"]),
    })
_grids = st.fixed_dictionaries(
    {"n_points": st.sampled_from([3, 5, 7])},
    optional={"coverage": st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.5])})


def _job_run(entry, grid):
    """Spread the drawn state over n, l, m, then drop a key if asked."""
    run = dict(entry, grid=grid)
    run["n"], run["l"], run["m"] = entry["n"]
    run.pop(run.pop("drop", None), None)
    return run


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.builds(_job_run, _run_entries, _grids),
                min_size=1, max_size=3))
def test_sweep_property_manifest_and_exit_code(runs):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps({"output_dir": str(out), "workers": 2,
                                    "runs": runs}))
        try:
            cli._parse_job(str(path), None, None)
            parses = True
        except ValueError:
            parses = False
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["sweep", "--jobs", str(path)])
        assert code in {EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY, EXIT_IO}
        assert (out / "manifest.json").exists() == parses
        if parses:
            manifest = json.loads((out / "manifest.json").read_text())
            listed = {name for r in manifest["runs"] for name in r["artifacts"]}
            assert {p.name for p in out.iterdir()} == listed | {"manifest.json"}
        assert list(Path(tmp).rglob(".*.tmp")) == []


def test_sweep_exit_code_precedence(tmp_path, capsys, monkeypatch):
    """I/O errors outrank invalid runs, which outrank failed verification,
    which outranks an error of no documented kind."""
    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("rscp.verify.verify_state", failing_report)
    monkeypatch.setattr(cli, "_vtk_chunks", raise_runtime_error)
    monkeypatch.setattr(cli, "_obj_chunks", disk_full)

    def run(*outputs, **fields):
        return {"n": 2, "l": 1, "m": 0, "outputs": list(outputs),
                "grid": {"n_points": 15}, **fields}

    runs = [run("verify"), run("grid")]
    path = tmp_path / "job.json"
    for extra, code in (([], EXIT_VERIFY),
                        ([run("isosurface", level=150)], EXIT_VALIDATION),
                        ([run("isosurface", level=150), run("isosurface")],
                         EXIT_IO)):
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                    "runs": runs + extra}))
        assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == code


# ------------------------------------------------ file commands as one-run jobs


# every field given; the first run cuts away, the second sets its extent
PARITY_RUNS = [
    {"n": 6, "l": 5, "m": 0, "Z": 1.0, "b": 0.5, "c": 0.5,
     "grid": {"n_points": 15, "coverage": 0.99}, "level": 30.0,
     "levels": [25.0, 75.0], "cutaway": True},
    {"n": 3, "l": 2, "m": 1, "Z": 2.0, "b": -0.5, "c": 0.5,
     "grid": {"n_points": 15, "extent": 6.0, "coverage": 0.99},
     "level": 60.0, "levels": [50.0], "cutaway": False},
]
SUFFIX = {"grid": ".vtk", "isosurface": ".obj", "slice": "_slice.csv",
          "verify": "_verify.json"}


def _without_defaults(run):
    """The run with level, levels, coverage and cutaway left out."""
    run = {k: v for k, v in run.items()
           if k not in ("level", "levels", "cutaway")}
    run["grid"] = {k: v for k, v in run["grid"].items() if k != "coverage"}
    return run


def _command_argv(kind, run):
    """The file command that describes the same run as a job entry."""
    argv = [kind] + [f"--{k}={run[k]}" for k in ("n", "l", "m", "Z", "b", "c")]
    if kind == "verify":
        return argv
    grid = run["grid"]
    argv.append(f"--N={grid['n_points']}")
    argv += [f"--{k}={grid[k]}" for k in ("extent", "coverage") if k in grid]
    if kind == "isosurface":
        argv += [f"--level={run['level']}"] if "level" in run else []
        argv += ["--cutaway"] if run.get("cutaway") else []
    if kind == "slice" and "levels" in run:
        argv.append("--levels=" + ",".join(map(str, run["levels"])))
    return argv


@pytest.mark.parametrize("given", [True, False], ids=["flags", "defaults"])
def test_file_commands_write_the_sweep_artifacts(tmp_path, capsys, given):
    runs = [run if given else _without_defaults(run) for run in PARITY_RUNS]
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "runs": [
        dict(run, outputs=list(SUFFIX)) for run in runs]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_OK
    for i, run in enumerate(runs):
        stem = f"run_{i:03d}_n{run['n']}l{run['l']}m{run['m']}"
        for kind, suffix in SUFFIX.items():
            target = tmp_path / (kind + suffix)
            argv = _command_argv(kind, run) + ["--output", str(target)]
            assert run_cli(capsys, *argv)[0] == EXIT_OK
            assert target.read_bytes() == (out / (stem + suffix)).read_bytes()


@pytest.mark.parametrize("grid, message", [
    ({"extent": 0}, "half_extent must be positive, got 0.0"),
    ({"extent": 5, "coverage": 2}, "coverage must lie in (0, 1), got 2.0"),
    ({"extent": 5, "coverage": 1 - 1e-13},
     "coverage must be at most 1 - 1e-12, got 0.9999999999999"),
])
def test_file_command_is_checked_like_a_sweep_run(tmp_path, capsys, grid,
                                                  message):
    """A field no output reads is still checked, before any work."""
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "runs": [
        JOB["runs"][0], {"n": 2, "l": 1, "m": 0, "grid": grid}]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_VALIDATION
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["ok", "invalid"]
    assert runs[1]["reason"] == message

    target = tmp_path / "d.vtk"
    flags = [f"--{k}={v}" for k, v in grid.items()]
    code, text = run_cli(capsys, "grid", "--n", "2", "--l", "1", "--m", "0",
                         *flags, "--output", str(target))
    assert code == EXIT_VALIDATION
    assert json.loads(text)["error"]["message"] == message
    assert not target.exists()


# ------------------------------------------------------- one grid per grid key


def count_builds(monkeypatch):
    """Record the (state, spec) of every build_grid call a sweep makes."""
    import rscp.density
    build, calls = rscp.density.build_grid, []

    def counted(labels, params, spec):
        calls.append((labels, params, spec))
        return build(labels, params, spec)
    monkeypatch.setattr(rscp.density, "build_grid", counted)
    return calls


def assert_file_commands_match(capsys, tmp_path, out, runs):
    """Each sweep run is ok and lists its artifacts, and each artifact holds
    the bytes its file command writes alone."""
    manifest = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in manifest] == ["ok"] * len(runs)
    for i, run in enumerate(runs):
        stem = f"run_{i:03d}_n{run['n']}l{run['l']}m{run['m']}"
        assert manifest[i]["artifacts"] == [
            stem + SUFFIX[kind] for kind in run["outputs"]]
        for kind in run["outputs"]:
            target = tmp_path / (kind + SUFFIX[kind])
            argv = _command_argv(kind, run) + ["--output", str(target)]
            assert run_cli(capsys, *argv)[0] == EXIT_OK
            assert (target.read_bytes()
                    == (out / (stem + SUFFIX[kind])).read_bytes())


def test_runs_that_share_a_grid_write_the_file_command_bytes(
        tmp_path, capsys, monkeypatch):
    """Runs with one grid key share one build and write, in job order, what
    each file command writes alone; a verify-only run builds nothing."""
    calls = count_builds(monkeypatch)
    first, second = PARITY_RUNS
    runs = [dict(first, outputs=["grid"]),
            dict(second, outputs=["slice", "isosurface"]),
            dict(first, outputs=["isosurface", "slice"], level=70.0),
            dict(first, outputs=["verify"]),
            dict(second, outputs=["grid"]),
            dict(first, outputs=["isosurface"], cutaway=False)]
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "workers": 2,
                                "runs": runs}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_OK
    assert len(calls) == 2
    assert_file_commands_match(capsys, tmp_path, out, runs)


def test_coverage_is_unread_beside_an_extent(tmp_path, capsys, monkeypatch):
    """Runs that share an extent and differ only in coverage share one
    build, and each writes what its file command writes."""
    calls = count_builds(monkeypatch)
    fixed = PARITY_RUNS[1]
    runs = [dict(fixed, outputs=["grid", "slice"]),
            dict(fixed, grid=dict(fixed["grid"], coverage=0.5),
                 outputs=["isosurface", "grid"])]
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "workers": 2,
                                "runs": runs}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_OK
    assert len(calls) == 1
    assert_file_commands_match(capsys, tmp_path, out, runs)


def test_signed_zeros_never_share_a_grid(tmp_path, capsys, monkeypatch):
    """b = -0.0 and b = 0.0 are one state, but the VTK header prints them as
    -0 and 0, so each gets a grid of its own."""
    calls = count_builds(monkeypatch)
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "runs": [
        {"n": 2, "l": 1, "m": 0, "b": b, "grid": {"n_points": 5}}
        for b in (0.0, -0.0, 0.0)]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_OK
    assert sorted(math.copysign(1.0, p.b) for _, p, _ in calls) == [-1, 1]
    headers = [(out / f"run_{i:03d}_n2l1m0.vtk").read_text().splitlines()[1]
               for i in range(3)]
    assert " b=0 " in headers[0] and " b=-0 " in headers[1]
    assert headers[0] == headers[2]


def test_a_grid_that_fails_fails_every_run_of_its_key(tmp_path, capsys,
                                                      monkeypatch):
    """At extent 1e90 the density underflows to zero everywhere: the one
    build raises DegenerateGridError, each run of that key records it, and
    the other runs complete."""
    calls = count_builds(monkeypatch)
    far = {"n_points": 15, "extent": 1e90}
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "workers": 2, "runs": [
        {"n": 2, "l": 1, "m": 0, "outputs": ["grid", "verify"], "grid": far},
        {"n": 2, "l": 1, "m": 0, "outputs": ["verify"], "grid": far},
        {"n": 2, "l": 1, "m": 0, "outputs": ["slice"], "grid": far},
        {"n": 2, "l": 1, "m": 0, "grid": {"n_points": 15}}]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == EXIT_VALIDATION
    assert len(calls) == 2
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["failed", "ok", "failed", "ok"]
    reason = "DegenerateGridError: cannot rescale an all-zero grid"
    assert runs[0]["reason"] == runs[2]["reason"] == reason
    assert [r["artifacts"] for r in runs] == [
        [], ["run_001_n2l1m0_verify.json"], [], ["run_003_n2l1m0.vtk"]]
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "run_001_n2l1m0_verify.json", "run_003_n2l1m0.vtk"]
