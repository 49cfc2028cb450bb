"""The CI workflow measures nothing itself: every number it prints comes
from the benchmark harness, perfbench/run.py, or from its line counts.  And
it discards no output, so a failed step shows why it failed."""

from pathlib import Path

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tests.yml")


def test_workflow_has_no_timing_code():
    """A timing or memory probe in the workflow is a second harness, whose
    numbers no benchmark record holds."""
    text = WORKFLOW.read_text()
    probes = ["tracemalloc", "wait4", "getrusage", "perf_counter"]
    assert [probe for probe in probes if probe in text] == []


def test_workflow_discards_no_output():
    """Output sent to /dev/null is lost with the reason a run failed."""
    assert "/dev/null" not in WORKFLOW.read_text()
