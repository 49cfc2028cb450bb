"""Child processes and output checks.

Each operation runs as its own child process in a fresh temporary
directory under the checkout, is timed from spawn to exit, has its
resource usage read from ``os.wait4``, and has every output checked.
The directory is removed once the operation is done.

Failure kinds, counted per operation:

- ``exit_code``: the child exited with another code than expected.
- ``traceback``: a Python traceback appeared on stderr.
- ``nonfinite_json``: a ``NaN`` or ``Infinity`` token in JSON output.
- ``wrong_artifact``: a data file differs from its sha256 golden, a
  verify report fails a check, or an expected file is missing.
- ``timeout``: the child outlived its time limit and was killed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from pool import key, sweep_key

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
OP_TIMEOUT_S = 150.0

_NONFINITE = re.compile(r"\b(NaN|-?Infinity)\b")
_TRACEBACK = "Traceback (most recent call last)"
_SUFFIX = {"grid": ".vtk", "isosurface": ".obj", "slice": ".csv"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(WORK)
    return env


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_goldens() -> dict:
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text())


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@dataclass
class Outcome:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    failures: list = field(default_factory=list)


def spawn(argv: list[str], cwd: Path,
          timeout: float = OP_TIMEOUT_S) -> Outcome:
    """Run argv to completion; time it and read its rusage via wait4.

    Any exit code but 0 is a failure.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timed_out = False
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    outcome = Outcome(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      os.waitstatus_to_exitcode(status),
                      out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"))
    if timed_out:
        outcome.failures.append("timeout")
    if outcome.exit_code != 0:
        outcome.failures.append("exit_code")
    if _TRACEBACK in outcome.stderr:
        outcome.failures.append("traceback")
    return outcome


def rscp_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "rscp.cli", *argv]


def check_json_text(text: str) -> list[str]:
    return ["nonfinite_json"] if _NONFINITE.search(text) else []


def verify_report_failures(text: str) -> list[str]:
    """Content check: all_passed, and each check within its tolerance."""
    try:
        report = json.loads(text)
        checks = report["checks"]
        ok = report["all_passed"] is True and len(checks) > 0 and all(
            c["passed"] is True
            and abs(c["value"] - c["reference"]) < c["tolerance"]
            for c in checks)
    except (ValueError, KeyError, TypeError):
        ok = False
    return [] if ok else ["wrong_artifact"]


class Workdir:
    """A fresh directory under the checkout, removed on exit."""

    def __enter__(self) -> Path:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="op-", dir=WORK))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


@dataclass
class Tally:
    """Operations attempted and failed, with failures counted by kind."""

    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    wrong: int = 0

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.kinds.update(set(failures))
            if {"wrong_artifact", "nonfinite_json"} & set(failures):
                self.wrong += 1


def golden_failures(goldens: dict, gkey: str, path: Path) -> list[str]:
    expected = goldens.get(gkey)
    if expected is None or not path.exists():
        return ["wrong_artifact"]
    return [] if sha256_file(path) == expected else ["wrong_artifact"]


def run_command(argv: list[str], goldens: dict) -> Outcome:
    """One rscp command as a cold child, with its output checked.

    File-writing commands (grid, isosurface, slice) write to a file that
    is compared by sha256; ``state`` JSON goes to stdout and is compared
    the same way; ``verify`` reports are checked by content.
    """
    gkey, command = key(argv), argv[0]
    with Workdir() as wd:
        if command in _SUFFIX:
            target = wd / ("out" + _SUFFIX[command])
            outcome = spawn(rscp_argv(argv + ["--output", str(target)]), wd)
            if not outcome.failures:
                outcome.failures += golden_failures(goldens, gkey, target)
            return outcome
        outcome = spawn(rscp_argv(argv), wd)
        outcome.failures += check_json_text(outcome.stdout)
        if outcome.failures:
            return outcome
        if command == "verify":
            outcome.failures += verify_report_failures(outcome.stdout)
        else:
            stdout_file = wd / ".stdout"
            outcome.failures += golden_failures(goldens, gkey, stdout_file)
        return outcome


def run_sweep(job: dict, goldens: dict, workers: int) -> Outcome:
    """One ``rscp sweep`` child; manifest and every per-run file checked."""
    expected = goldens.get("sweep " + sweep_key(job), {})
    with Workdir() as wd:
        (wd / "job.json").write_text(json.dumps(job, indent=2))
        out = wd / "out"
        outcome = spawn(rscp_argv(["sweep", "--jobs", "job.json",
                                   "--output-dir", str(out),
                                   "--workers", str(workers)]), wd)
        produced = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if not expected or produced != sorted(expected):
            outcome.failures.append("wrong_artifact")
        for name in produced:
            path = out / name
            if name.endswith(".json"):
                text = path.read_text()
                outcome.failures += check_json_text(text)
                if name.endswith("_verify.json"):
                    outcome.failures += verify_report_failures(text)
                    continue
            if expected.get(name) != sha256_file(path):
                outcome.failures.append("wrong_artifact")
        return outcome
