"""Property test of ``cli.main`` over the flag space and over job files.

Every flag draws either a cheap valid value or a bad one: huge, negative,
non-finite, non-integer or malformed.  Whatever is drawn, the command ends
in a documented exit code with a JSON error, never in a traceback or a
``NaN`` token.  Valid grids stay at N <= 15, a job holds at most 3 runs
and at most 2 workers, and a size past a cap is refused before anything
is allocated, so each example is cheap.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rscp.cli import (EXIT_IO, EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY,
                      _MAX_LEVELS, _MAX_SAMPLES, main)
from rscp.density import _MAX_POINTS

# bad values shared by every flag: a caps-sized count is refused unbuilt
BAD = ["0", "-1", "-0.0", "1.5", "-2.5", "1e308", "-1e308", "1e-320",
       "nan", "inf", "-inf", "10" * 30, "-" + "9" * 30, "x", ""]

STATES = [("2", "1", "0"), ("3", "2", "1"), ("1", "0", "0"), ("4", "3", "-2"),
          ("3", "1", "1"), ("2", "2", "0")]
# per flag: cheap valid values, and bad values of the flag's own form
OWN = {
    "--Z": ["1", "2", "0.5"],
    "--b": ["0", "0.5", "-0.5", "3"],
    "--c": ["0", "0.5", "10"],
    "--N": ["3", "5", "15", "4", str(_MAX_POINTS + 2)],
    "--extent": ["5", "20", "1e-300", "1e300"],
    "--coverage": ["0.5", "0.999", "1", "0.9999999999"],
    "--level": ["50", "5", "99.9", "100"],
    "--levels": ["10,50", "10:100:30", "50", f"1:{_MAX_LEVELS + 1}:1",
                 ",".join(["50"] * (_MAX_LEVELS + 1)), "10:100:0", "10,",
                 "1:2"],
    "--r-range": ["1:4:4", "0:2:5", "1:2:2", "2:1:3", "1:2:1",
                  f"0:1:{_MAX_SAMPLES + 1}", "1:2", "a:b:c", "nan:1:3",
                  "1:inf:3"],
    "--theta-range": ["0:1.5707963267948966:3", "0.1:3:4", "1:2:-3",
                      f"0:1:{10 ** 12}"],
    "--r": ["1", "0.5"],
    "--theta": ["0.5", "0", "1.5707963267948966"],
    "--workers": ["1", "2", "65", str(10 ** 12)],
}
# the flags each command takes, besides the state flags and --output
FLAGS = {
    "state": [],
    "potential": ["--r-range", "--theta-range", "--r", "--theta"],
    "grid": ["--N", "--extent", "--coverage"],
    "isosurface": ["--N", "--extent", "--coverage", "--level", "--cutaway"],
    "slice": ["--N", "--extent", "--coverage", "--levels"],
    "verify": [],
}


def _value(flag):
    return st.sampled_from(OWN.get(flag, []) + BAD)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command != "potential":
        labels = list(draw(st.sampled_from(STATES)))
        bad = draw(st.sampled_from([None, 0, 1, 2]))
        if bad is not None:
            labels[bad] = draw(st.sampled_from(BAD))
        for flag, value in zip(("--n", "--l", "--m"), labels):
            argv += [flag, value]
    for flag in ["--Z", "--b", "--c"] + FLAGS[command]:
        if flag == "--cutaway":
            argv += draw(st.sampled_from([[], [flag]]))
        elif draw(st.booleans()):
            argv += [flag, draw(_value(flag))]
    return argv


# job-file values: JSON values of the right kind, and of every wrong kind
# (json writes a non-finite float as a NaN or Infinity token, and reads it)
JSON_BAD = [None, True, -1, 0, 1.5, 1e308, 10 ** 30, 1e-320, float("nan"),
            float("inf"), "x", "55", [], {}]


def _json(valid):
    return st.sampled_from(valid + JSON_BAD)


RUN_KEYS = {
    "b": _json([0.0, 0.5, -0.5]),
    "c": _json([0.0, 0.5, 10.0]),
    "Z": _json([1.0, 2]),
    "outputs": _json([["grid"], ["isosurface", "slice"], ["verify"],
                      ["movie"], "grid"]),
    "level": _json([50, 5.0, 100]),
    "levels": _json([[10, 50], [], [50.0] * (_MAX_LEVELS + 1), ["10"]]),
    "cutaway": _json([True, False, "false"]),
    "grid": _json([{"n_points": 5}, {"n_points": 15, "coverage": 0.9},
                   {"n_points": 7, "extent": 0}, {"n_points": 403},
                   {"n_points": "15"}, {"coverage": 2}]),
}
# keys the job file does not know: misspelt, or in the wrong object
UNKNOWN = [{"levle": 20}, {"n_points": 5}, {"grid": {"n_point": 5}}]


@st.composite
def runs(draw):
    run = dict(zip("nlm", map(int, draw(st.sampled_from(STATES)))))
    run["grid"] = {"n_points": 5}
    for key in draw(st.lists(st.sampled_from(sorted([*RUN_KEYS, "nlm",
                                                     "unknown"])),
                             unique=True, max_size=3)):
        if key == "nlm":
            run[draw(st.sampled_from("nlm"))] = draw(st.sampled_from(JSON_BAD))
        elif key == "unknown":
            run.update(draw(st.sampled_from(UNKNOWN)))
        else:
            run[key] = draw(RUN_KEYS[key])
    return run


jobs = st.one_of(
    st.fixed_dictionaries(
        {"runs": st.lists(runs(), max_size=3)},
        optional={"workers": _json([1, 2, 65])}),
    st.sampled_from([[], {}, {"runs": {}}, {"runs": [[2, 1, 0]]}, "runs",
                     None, {"runs": [], "worker": 2}]))


def _has_unknown_key(job):
    """Whether the job holds a key it does not know: "worker" in the job,
    or one of UNKNOWN in a run."""
    if not isinstance(job, dict) or not isinstance(job.get("runs"), list):
        return False
    runs = [run for run in job["runs"] if isinstance(run, dict)]
    grids = [run["grid"] for run in runs if isinstance(run.get("grid"), dict)]
    return ("worker" in job
            or any("levle" in run or "n_points" in run for run in runs)
            or any("n_point" in grid for grid in grids))


def _no_constant(token):
    raise AssertionError(f"JSON output carries the token {token}")


def _check(code, out, written):
    """The output contract shared by every command: a documented exit code,
    JSON without NaN or Infinity tokens, data files without non-finite
    values."""
    assert code in {EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY, EXIT_IO}
    for text in [out, *written]:
        if text.startswith("{"):
            json.loads(text, parse_constant=_no_constant)
        else:
            assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)


def _run(argv):
    """main(argv) in-process: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


_SETTINGS = settings(max_examples=100, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(argvs(), st.booleans())
def test_fuzz_command_flags(argv, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        if to_file and argv[0] != "state":
            argv = argv + ["--output", str(target)]
        code, out = _run(argv)
        written = [target.read_text()] if target.exists() else []
        _check(code, out, written)
        if code in (EXIT_VALIDATION, EXIT_IO):
            assert set(json.loads(out)) == {"error"}
            assert not written


@_SETTINGS
@given(jobs, st.one_of(st.none(), _value("--workers")))
def test_fuzz_job_files(job, workers):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        path = Path(tmp) / "job.json"
        if isinstance(job, dict):
            job = dict(job, output_dir=str(out_dir))
        path.write_text(json.dumps(job))
        argv = ["sweep", "--jobs", str(path)]
        if workers is not None:
            argv += ["--workers", workers]
        code, out = _run(argv)
        manifest = out_dir / "manifest.json"
        written = ([p.read_text() for p in out_dir.iterdir()]
                   if out_dir.exists() else [])
        _check(code, out, written)
        if _has_unknown_key(job):
            assert code == EXIT_VALIDATION and out
        if out:     # the job was refused as a whole: no run started
            assert code in (EXIT_VALIDATION, EXIT_IO)
            assert set(json.loads(out)) == {"error"}
            assert not out_dir.exists()
            return
        records = json.loads(manifest.read_text())["runs"]
        assert len(records) == len(job["runs"])
        statuses = {r["status"] for r in records}
        assert statuses <= {"ok", "invalid", "verify_failed", "io_error"}
        if code in (EXIT_VALIDATION, EXIT_IO):
            # the reason is in the manifest
            assert all(r["reason"] for r in records if r["status"] != "ok")
            assert statuses - {"ok", "verify_failed"}
