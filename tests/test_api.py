"""The public surface: every exported name resolves and has a caller, the
README runs."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import rscp

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# what reaches the library: the commands, the benchmark probe, the README
CALLERS = [ROOT / "src" / "rscp" / "cli.py", ROOT / "perfbench" / "probe.py",
           README]


@pytest.mark.parametrize("module", ["rscp", "rscp.cli", "rscp.density",
                                    "rscp.specfun", "rscp.states",
                                    "rscp.surface", "rscp.verify"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], (module, missing)


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_public_function_has_a_caller():
    """rscp exports a function only if a command, the benchmark probe or
    the README names it; the classes it exports are those such functions
    take, return or raise.  A function with tests as its only caller
    belongs in tests/."""
    text = "\n".join(path.read_text() for path in CALLERS)
    uncalled = [name for name in rscp.__all__
                if inspect.isfunction(getattr(rscp, name))
                and not re.search(rf"\b{name}\b", text)]
    assert uncalled == []
