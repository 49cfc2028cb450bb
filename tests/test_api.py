"""The public surface: every exported name resolves, the README runs."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


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
