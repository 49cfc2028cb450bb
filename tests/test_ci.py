"""The CI workflow measures nothing itself: every number it prints comes
from the benchmark harness, perfbench/run.py, or from its line counts.  It
discards no output, so a failed step shows why it failed.  And its floor
row tests the python and numpy floors that pyproject.toml declares."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_has_no_timing_code():
    """A timing or memory probe in the workflow is a second harness, whose
    numbers no benchmark record holds."""
    text = WORKFLOW.read_text()
    probes = ["tracemalloc", "wait4", "getrusage", "perf_counter"]
    assert [probe for probe in probes if probe in text] == []


def test_workflow_discards_no_output():
    """Output sent to /dev/null is lost with the reason a run failed."""
    assert "/dev/null" not in WORKFLOW.read_text()


def test_the_floor_row_tests_the_declared_floor():
    """The matrix row marked as the declared floor runs the python and
    numpy floors of pyproject.toml, so a raised floor cannot leave CI
    testing a version the package no longer declares."""
    row = re.search(r'- python: "([\d.]+)"\n\s*numpy: "numpy==([\d.]+)\.\*"'
                    r' *# the declared floor\n', WORKFLOW.read_text())
    assert row, "no matrix row is commented as the declared floor"
    project = (ROOT / "pyproject.toml").read_text()
    python = re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M)
    numpy = re.search(r'^    "numpy>=([\d.]+)",$', project, re.M)
    assert (row[1], row[2]) == (python[1], numpy[1])
