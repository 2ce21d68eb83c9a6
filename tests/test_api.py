"""Shape of the public API and the README's library example."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

MODULES = ("spectra", "hamiltonian", "integrators", "stationary", "experiments", "cli")

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def public_callables(name):
    """The module's ``__all__``, or the public names it defines when it has none."""
    module = importlib.import_module(f"kgorbit.{name}")
    names = getattr(module, "__all__", None) or [
        n for n, obj in vars(module).items()
        if not n.startswith("_") and getattr(obj, "__module__", None) == module.__name__]
    return [(n, getattr(module, n)) for n in names
            if inspect.isfunction(getattr(module, n)) or inspect.isclass(getattr(module, n))]


@pytest.mark.parametrize("module", MODULES)
def test_no_callable_takes_both_table_and_params(module):
    # the table carries its model, so a second source of it could disagree
    both = [name for name, obj in public_callables(module)
            if {"table", "params"} <= set(inspect.signature(obj).parameters)]
    assert both == []


def test_export_lists_name_what_exists():
    # every __all__ entry resolves, and the package re-exports from a module
    # with __all__ only names on that list, so a deleted function cannot
    # linger in either
    import kgorbit
    with open(kgorbit.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(a.name for a in node.names)
    checked = []
    for module in MODULES + ("errors",):
        mod = importlib.import_module(f"kgorbit.{module}")
        exports = getattr(mod, "__all__", None)
        if exports is None:
            continue
        checked.append(module)
        assert [name for name in exports if not hasattr(mod, name)] == [], module
        assert [name for name in imported.get(module, ()) if name not in exports] == [], module
    assert checked


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


def test_import_loads_no_scipy_and_loads_numpy_random():
    # scipy.integrate alone added about 40 MiB to the peak RSS of every
    # run; numpy.random is imported up front because numpy loads it
    # lazily, inside the first perturbation of a timed run otherwise
    import kgorbit
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgorbit.__file__)))
    code = ("import json, sys; import kgorbit, kgorbit.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    modules = json.loads(out)
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert "numpy.random" in modules
