"""The public surface: it is declared once, every exported name resolves
where it is declared and has a caller, the README runs."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import rscp

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# what reaches the library: the commands, the benchmark probe, the README
CALLERS = [ROOT / "src" / "rscp" / "cli.py", ROOT / "perfbench" / "probe.py",
           README]
# the names each module declares: rscp.__all__, the console script's entry
# point, and each _SOURCE name in the submodule it names
DECLARED = {"rscp": list(rscp.__all__), "rscp.cli": ["main"]}
for name, module in rscp._SOURCE.items():
    DECLARED.setdefault(f"rscp.{module}", []).append(name)


@pytest.mark.parametrize("module", sorted(DECLARED))
def test_all_names_resolve(module):
    """Each declared name resolves, and a submodule defines each name
    declared in it rather than importing it from elsewhere."""
    mod = importlib.import_module(module)
    missing = [name for name in DECLARED[module] if not hasattr(mod, name)]
    assert missing == [], (module, missing)
    if module != "rscp":
        foreign = [name for name in DECLARED[module]
                   if getattr(mod, name).__module__ != module]
        assert foreign == [], (module, foreign)


def test_no_submodule_assigns_all():
    """rscp._SOURCE is the one declaration of the public surface; a
    submodule list of it would repeat it and drift from it."""
    assigning = [info.name for info in pkgutil.iter_modules(rscp.__path__)
                 if hasattr(importlib.import_module(f"rscp.{info.name}"),
                            "__all__")]
    assert assigning == []


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
