"""Import structure: each cold command loads only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rscp
from rscp.cli import main

SRC = str(Path(rscp.__file__).resolve().parents[1])


def _child(code, *argv, cwd):
    """Run ``code`` in a fresh interpreter that imports ``rscp`` from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


# runs a statement or a command, then prints the loaded module names
_LOADED = """
import contextlib, io, json, sys
if sys.argv[1].startswith("import "):
    exec(sys.argv[1])
else:
    from rscp.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""

_STATE = ["--n", "6", "--l", "5", "--m", "0", "--b", "0.5", "--c", "0.5"]


@pytest.fixture(scope="module")
def numpy_own_modules(tmp_path_factory):
    """The modules ``import numpy`` loads by itself: numpy 1.x imports
    numpy.random eagerly, numpy 2 on first access, so a command that uses
    numpy is judged only on the modules it adds."""
    child = _child(_LOADED, "import numpy", cwd=tmp_path_factory.mktemp("np"))
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout))


@pytest.mark.parametrize("argv, loaded, not_loaded", [
    (["import rscp"], ["rscp"], ["numpy", "rscp.states"]),
    (["import rscp.cli"], ["rscp.states"], ["numpy"]),
    (["import rscp.states"], ["rscp.states"], ["numpy", "rscp.specfun"]),
    (["state", *_STATE], ["rscp.states"], ["numpy", "rscp.specfun"]),
    (["potential", "--b", "0.5", "--c", "0.5", "--r-range", "1:4:4",
      "--theta", "0.5"], ["rscp.states"], ["numpy"]),
    (["grid", *_STATE, "--N", "5"], ["numpy", "rscp.density"],
     ["rscp.surface", "rscp.verify", "rscp._mc_tables",
      "concurrent.futures"]),
    (["verify", *_STATE], ["numpy", "rscp.verify"],
     ["rscp.surface", "rscp._mc_tables", "numpy.random"]),
    (["isosurface", *_STATE, "--N", "5", "--level", "30"],
     ["rscp.surface", "rscp._mc_tables"], ["rscp.verify"]),
    (["slice", *_STATE, "--N", "5"], ["rscp.surface"],
     ["rscp.verify", "numpy.random"]),
], ids=["import-rscp", "import-cli", "import-states", "state", "potential", "grid", "verify",
        "isosurface", "slice"])
def test_cold_command_loads_only_what_it_runs(tmp_path, argv, loaded,
                                              not_loaded, numpy_own_modules):
    child = _child(_LOADED, *argv, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    modules = set(json.loads(child.stdout))
    assert set(loaded) <= modules
    if "numpy" in modules:
        modules -= numpy_own_modules
    assert not set(not_loaded) & modules


def test_package_exports_load_on_first_access():
    code = ("import sys, rscp; assert 'numpy' not in sys.modules;"
            " rscp.PoleError; assert 'numpy' not in sys.modules;"
            " rscp.marching_cubes; assert 'rscp.surface' in sys.modules;"
            " assert 'rscp.verify' not in sys.modules")
    child = _child(code, cwd=None)
    assert child.returncode == 0, child.stderr


def test_package_exports():
    with pytest.raises(AttributeError, match="no_such_name"):
        rscp.no_such_name
    assert set(rscp.__all__) <= set(dir(rscp))
    for name in rscp.__all__:
        assert getattr(rscp, name) is not None
    from rscp import states, verify
    assert rscp.PoleError is states.PoleError
    assert rscp.ode_residuals is verify.ode_residuals


def test_radial_factor_is_served_from_specfun_only():
    from rscp import specfun, states
    assert rscp.radial_u is specfun.radial_u
    for name in ("radial_u", "_radial_log_prefactor", "_kummer_terms"):
        assert not hasattr(states, name), name
    assert "log_gamma" not in rscp.__all__
    assert not hasattr(specfun, "log_gamma")


_CACHES = {"cache", "cached_property", "lru_cache"}


def _functools_caches(tree):
    """Where a module names a functools cache: the function or class it
    decorates, else the line it is named on."""
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for a in node.names if a.name in _CACHES}
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}

    def names_cache(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id in modules)

    sites, seen = [], set()
    for node in ast.walk(tree):
        for d in getattr(node, "decorator_list", ()):
            d = d.func if isinstance(d, ast.Call) else d
            if names_cache(d):
                sites.append(node.name)
                seen.add(d)
    return sites + [f"line {node.lineno}" for node in ast.walk(tree)
                    if names_cache(node) and node not in seen]


def test_gauss_nodes_is_the_one_memo_cache():
    """A cache that no workload hits only hides state from tests: the
    auto-extent bisection's Gauss nodes are the one cache rscp keeps."""
    found = [f"{path.stem}.{site}"
             for path in sorted(Path(rscp.__file__).parent.glob("*.py"))
             for site in _functools_caches(ast.parse(path.read_text()))]
    assert found == ["density._gauss_nodes"]


# --------------------------------------------------------------- cold sweep

_STATES = [{"n": 2, "l": 1, "m": 0, "b": 0.5, "c": 0.5},
           {"n": 3, "l": 2, "m": 1, "b": 0.5, "c": 5.0},
           {"n": 4, "l": 3, "m": 0}]
# surface and verify load first inside the two worker threads, and both
# threads reach each module at about the same time
COLD_JOB = {"workers": 2, "runs": [
    {**_STATES[0], "outputs": ["isosurface"], "cutaway": True, "level": 30,
     "grid": {"n_points": 15}},
    {**_STATES[1], "outputs": ["slice", "verify"], "grid": {"n_points": 13}},
    {**_STATES[2], "outputs": ["verify", "grid", "isosurface"], "level": 50,
     "grid": {"n_points": 11}},
]}

_SWEEP = """
import json, sys
from rscp.cli import main
assert not {"numpy", "rscp.surface", "rscp.verify"} & set(sys.modules)
code = main(sys.argv[1:])
with open("modules.json", "w") as f:
    json.dump(sorted(sys.modules), f)
sys.exit(code)
"""


def test_cold_sweep_matches_an_in_process_sweep(tmp_path, capsys,
                                                numpy_own_modules):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(COLD_JOB))
    child = _child(_SWEEP, "sweep", "--jobs", str(path), "--output-dir",
                   str(tmp_path / "cold"), cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    # both verify outputs ran, with no random number generator added
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert "numpy.random" not in set(modules) - numpy_own_modules
    assert main(["sweep", "--jobs", str(path), "--output-dir",
                 str(tmp_path / "warm")]) == 0
    assert capsys.readouterr().out == child.stdout == ""
    cold, warm = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                  for d in ("cold", "warm"))
    assert len(cold) == 7 and "manifest.json" in cold
    assert cold == warm
