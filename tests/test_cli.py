"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rscp
import rscp.cli as cli
from rscp.cli import (EXIT_ERROR, EXIT_IO, EXIT_OK, EXIT_VALIDATION,
                      EXIT_VERIFY, _dump_json, _parse_levels, _parse_range,
                      _sig, main)
from rscp.verify import ConvergenceError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    with pytest.raises(ValueError):
        _parse_levels("10:100:0")


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


def test_potential_requires_exactly_one_sweep(capsys):
    code, out = run_cli(capsys, "potential", "--r-range", "1:2:3",
                        "--theta-range", "0:1:3")
    assert code == EXIT_VALIDATION
    code, out = run_cli(capsys, "potential", "--r", "1.0", "--theta", "0.5")
    assert code == EXIT_VALIDATION


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


def test_verify_convergence_error_exits_3(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("radial tail bound did not close")

    monkeypatch.setattr(cli, "verify_state", no_convergence)
    code, out = run_cli(capsys, "verify", "--n", "2", "--l", "1", "--m", "0")
    assert code == EXIT_VERIFY
    assert json.loads(out) == {"error": {
        "type": "ConvergenceError",
        "message": "radial tail bound did not close"}}


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
    src = str(Path(rscp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    if argv:
        argv = argv + ["--output", str(tmp_path / "out")]
    child = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                           capture_output=True, text=True, timeout=120)
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
    ({"runs": {"n": 2, "l": 1, "m": 0}}, None, "a 'runs' list"),
    ({"runs": [], "workers": None}, None, "workers must be an integer"),
    ({"runs": [], "workers": 2}, "0", "workers must be >= 1, got 0"),
])
def test_sweep_malformed_job_is_validation_error(tmp_path, capsys, job,
                                                 workers, message):
    """Each malformed entry is exit 2 with a JSON error naming its run."""
    if isinstance(job["runs"], list) and job["runs"]:
        job = dict(job, runs=[JOB["runs"][0], *job["runs"]])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(job, output_dir=str(tmp_path / "out"))))
    code, out = run_cli(capsys, "sweep", "--jobs", str(path),
                        *(["--workers", workers] if workers else []))
    assert code == EXIT_VALIDATION
    assert message in json.loads(out)["error"]["message"]
    assert not (tmp_path / "out").exists()


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
    ({"n": 2, "l": 1, "m": 0, "Z": 0.0}, "Z must be positive", {}),
    ({"n": 2, "l": 1, "m": 0, "b": math.inf}, "b must be finite",
     {"b": "inf"}),
    ({"n": 2, "l": 1, "m": 0, "c": math.nan}, "c must be finite",
     {"c": "nan"}),
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


@pytest.mark.parametrize("error, code", [
    (ConvergenceError("radial tail bound did not close"), EXIT_VERIFY),
    (RuntimeError("unexpected"), EXIT_ERROR)])
def test_sweep_isolates_a_failing_run(tmp_path, capsys, monkeypatch, error,
                                      code):
    def raise_error(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "verify_state", raise_error)
    out = tmp_path / "out"
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"output_dir": str(out), "workers": 2, "runs": [
        {"n": 2, "l": 1, "m": 0, "outputs": ["grid"],
         "grid": {"n_points": 15}},
        {"n": 2, "l": 1, "m": 0, "outputs": ["verify"]}]}))
    assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == code
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert [r["status"] for r in runs] == ["ok", "failed"]
    assert runs[1]["reason"] == f"{type(error).__name__}: {error}"
    assert runs[0]["artifacts"] == ["run_000_n2l1m0.vtk"]
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "run_000_n2l1m0.vtk"]


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
    """I/O errors outrank invalid runs, which outrank failed verification."""
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("radial tail bound did not close")

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "verify_state", no_convergence)
    monkeypatch.setattr(cli, "_obj_chunks", disk_full)
    runs = [{"n": 2, "l": 1, "m": 0, "outputs": ["verify"]},
            {"n": 2, "l": 1, "m": 0, "outputs": ["isosurface"],
             "level": 150}]
    path = tmp_path / "job.json"
    for extra, code in (([], EXIT_VALIDATION), (["isosurface"], EXIT_IO)):
        job_runs = runs + [{"n": 2, "l": 1, "m": 0, "outputs": extra,
                            "grid": {"n_points": 15}}]
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                    "runs": job_runs}))
        assert run_cli(capsys, "sweep", "--jobs", str(path))[0] == code
