"""Every submodule's ``__all__`` names only what the module defines, and only
what something runs: the package itself, the benchmark's traced targets or
the acceptance tests.  ``import gaborflow`` loads the numerical submodules,
and the command-line front end runs as ``python -m gaborflow.cli``."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gaborflow

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(gaborflow.__path__))

# writes the state files that a scenario's ``window.file`` loads
NO_CALLER_NEEDED = {"save_state"}


def _loaded(tree) -> set:
    """Names read in the code of tree; docstrings and ``__all__`` strings are
    constants, not names, and do not count."""
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _reads_in_src() -> dict:
    """(module, name of the top-level definition or None) -> names it reads."""
    reads = {}
    for path in Path(gaborflow.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            key = (path.stem, getattr(node, "name", None))
            reads.setdefault(key, set()).update(_loaded(node))
    return reads


def _benchmark_targets() -> set:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {attr.split(".")[0] for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from gaborflow.{name} import *", {})


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    reads = _reads_in_src()
    outside = (
        _benchmark_targets()
        | _loaded(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
        | NO_CALLER_NEEDED
    )
    exports = getattr(importlib.import_module(f"gaborflow.{name}"), "__all__", [])
    uncalled = [
        x for x in exports
        if x not in outside
        # a name read only inside its own definition (recursion, its own
        # docstring) has no caller
        and not any(x in names for where, names in reads.items() if where != (name, x))
    ]
    assert uncalled == []


def test_package_loads_its_submodules_and_the_cli_runs_as_main(tmp_path):
    # fresh interpreters, so that no other test's imports count
    numerical = [m for m in MODULES if m != "cli"]
    script = f"import gaborflow\nprint([getattr(gaborflow, m).__name__ for m in {numerical!r}])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [f"gaborflow.{m}" for m in numerical]
    # a package that imported cli would make runpy load it a second time as
    # __main__, which it reports with a RuntimeWarning
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gaborflow.cli", "count",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
