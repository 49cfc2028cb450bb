"""Replay the benchmark's recorded outputs in-process, byte for byte.

``perfbench/goldens.json`` holds the sha256 of every artifact the
benchmark can produce.  Every command and every sweep job in it is run
here through ``rscp.cli.main`` and must reproduce those hashes, so any
drift in a writer, in the octant reads or in the surface's numbering shows
up without running the benchmark.  The file is only read.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from rscp.cli import EXIT_OK, main

GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "goldens.json").read_text())
SUFFIX = {"grid": ".vtk", "isosurface": ".obj", "slice": ".csv"}
NONFINITE = re.compile(r"\b(NaN|-?Infinity)\b")

COMMANDS = sorted(k for k in GOLDENS if not k.startswith("sweep "))
SWEEPS = sorted(k for k in GOLDENS if k.startswith("sweep "))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_replay_covers_every_golden():
    kinds = [k.split()[0] for k in COMMANDS]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "grid": 11, "isosurface": 43, "slice": 30, "state": 13}
    assert len(SWEEPS) == 8


@pytest.mark.parametrize("key", COMMANDS)
def test_command_matches_golden(key, tmp_path, capsys):
    argv = key.split()
    if argv[0] in SUFFIX:
        target = tmp_path / ("out" + SUFFIX[argv[0]])
        assert main(argv + ["--output", str(target)]) == EXIT_OK
        data = target.read_bytes()
    else:
        assert main(argv) == EXIT_OK
        data = capsys.readouterr().out.encode()
    assert sha256(data) == GOLDENS[key]


def verify_report_ok(text: str) -> bool:
    """Reports are checked by content: every check passed within tolerance."""
    report = json.loads(text)
    checks = report["checks"]
    return report["all_passed"] is True and len(checks) > 0 and all(
        c["passed"] is True
        and abs(c["value"] - c["reference"]) < c["tolerance"]
        for c in checks)


@pytest.mark.parametrize("key", SWEEPS, ids=[f"smoke-{i}"
                                             for i in range(len(SWEEPS))])
def test_sweep_matches_golden(key, tmp_path):
    expected = GOLDENS[key]
    (tmp_path / "job.json").write_text(key[len("sweep "):])
    out = tmp_path / "out"
    assert main(["sweep", "--jobs", str(tmp_path / "job.json"),
                 "--output-dir", str(out), "--workers", "2"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, digest in expected.items():
        data = (out / name).read_bytes()
        if name.endswith(".json"):
            assert not NONFINITE.search(data.decode())
        if name.endswith("_verify.json"):
            assert verify_report_ok(data.decode())
        else:
            assert sha256(data) == digest, name
