"""Shape of the public API and the README's library example."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
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


def test_package_attributes_named_after_modules_are_the_modules():
    # a function re-exported under its module's name would shadow the
    # module: `from kgorbit import m` and monkeypatch("kgorbit.m._X")
    # would both reach the function
    import kgorbit
    names = [info.name for info in pkgutil.iter_modules(kgorbit.__path__)]
    assert set(MODULES) <= set(names)
    for name in names:
        importlib.import_module(f"kgorbit.{name}")
        assert inspect.ismodule(getattr(kgorbit, name)), name


# Every private name one kgorbit module imports from another: a new
# coupling through a private name has to be added here by name.
PRIVATE_IMPORTS = {
    ("cli", "experiments", "_check_seed"),
    ("hamiltonian", "spectra", "_analysis"),
    ("hamiltonian", "spectra", "_chunk_rows"),
    ("hamiltonian", "spectra", "_grid_power"),
    ("hamiltonian", "spectra", "_project_power_raw"),
    ("hamiltonian", "spectra", "_synthesis"),
    ("integrators", "hamiltonian", "_energy_rows"),
    ("integrators", "spectra", "_chunk_rows"),
    ("integrators", "spectra", "_kernel_work"),
    ("integrators", "spectra", "_project_power_raw"),
    ("stationary", "hamiltonian", "_bound_force"),
    ("stationary", "hamiltonian", "_xnorm_rows"),
}


def test_private_imports_are_listed():
    import kgorbit
    package = os.path.dirname(os.path.abspath(kgorbit.__file__))
    found = set()
    for entry in sorted(os.listdir(package)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(package, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update((entry[:-3], node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert found == PRIVATE_IMPORTS


def test_readme_dotted_names_resolve():
    # every `a.b` the README cites under kgorbit, one of its modules or an
    # exported class resolves, so the docs cannot name deleted code
    import kgorbit
    with open(README, encoding="utf-8") as fh:
        cited = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", fh.read()))
    roots = {name: obj for name, obj in vars(kgorbit).items() if inspect.isclass(obj)}
    roots.update((m, importlib.import_module(f"kgorbit.{m}")) for m in MODULES + ("errors",))
    roots["kgorbit"] = kgorbit
    absent = object()
    checked, missing = [], []
    for name in sorted(cited):
        head, *parts = name.split(".")
        if head not in roots:
            continue
        obj = roots[head]
        for part in parts:
            obj = getattr(obj, part, absent)
        (missing if obj is absent else checked).append(name)
    assert missing == []
    assert {"kgorbit.cli", "SpectrumTable.basis", "Trajectory.times"} <= set(checked)


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


# One fresh interpreter imports kgorbit, runs the floquet and period-sweep
# configs in its argument's directory through cli.main (outputs go there
# too), draws one seeded random_direction perturbation and then runs the
# seeded first-return config.  It reports the loaded modules after each
# step and the start state as float.hex.
_LAZY_RANDOM_PROBE = """
import json, os, sys
import kgorbit, kgorbit.cli
from kgorbit import ModelParams, PerturbationSpec, build_spectrum, perturb_near_orbit

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                  or m == "numpy.random" or m.startswith("numpy.random.")
                  or m in ("secrets", "hashlib", "_hashlib"))

out = sys.argv[1]
report = {"import": loaded(), "codes": []}
for kind in ("floquet", "period-sweep"):
    config = os.path.join(out, kind + ".cfg")
    report["codes"].append(kgorbit.cli.main(["--config", config, "--output", out]))
    report[kind] = loaded()
table = build_spectrum(ModelParams(m=0.5, p=1, dim=1, cutoff=4))
spec = PerturbationSpec(amplitude=1e-3, mode_set=(1, 2, 3, 4),
                        distribution="random_direction", seed=7)
s0 = perturb_near_orbit(0.05, spec, table)
report["draw"] = loaded()
report["a"] = [x.hex() for x in s0.a.tolist()]
report["b"] = [x.hex() for x in s0.b.tolist()]
config = os.path.join(out, "first-return.cfg")
report["codes"].append(kgorbit.cli.main(["--config", config, "--output", out]))
report["first-return"] = loaded()
print(json.dumps(report))
"""

# The start state of the probe's perturbation when numpy.random was still
# imported with the package: kgorbit's own stream must draw the same numbers.
_SEEDED_START_A = ["0x1.999999999999ap-5", "0x1.83ac8d2139df6p-24", "0x1.6fc384be1c7fap-16",
                   "-0x1.517895650f9b2p-16", "-0x1.1215e9501d0f0p-14"] + ["0x0.0p+0"] * 4
_SEEDED_START_B = ["0x0.0p+0", "-0x1.17db1f5019150p-15", "-0x1.312f943d9512dp-14",
                   "0x1.28274dd60d810p-18", "0x1.9c75cfad8c4cfp-14"] + ["0x0.0p+0"] * 4


def test_no_seeded_draw_loads_numpy_random(tmp_path):
    # scipy.integrate alone added about 40 MiB to the peak RSS of every
    # run, and numpy.random about 5 MiB and 8 ms of CPU, most of it OpenSSL
    # through secrets and hashlib; no run loads any of them, a seeded draw
    # and a seeded first-return run included
    import kgorbit
    model = "[model]\nm = 0.5\np = 1\ndim = 1\ncutoff = 2\n[experiment]\n"
    (tmp_path / "floquet.cfg").write_text(
        model + "kind = floquet\neta_list = 0.1,0.05\nlambdas = 6.283185307179586\n")
    (tmp_path / "period-sweep.cfg").write_text(
        model + "kind = period-sweep\neta_list = 0.1,0.05,0.02\n")
    (tmp_path / "first-return.cfg").write_text(
        model.replace("[experiment]", "[stepper]\ndt = 0.01\nscheme = rk4\n[experiment]")
        + "kind = first-return\neta = 0.1\ndistribution = random_direction\nseed = 3\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgorbit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _LAZY_RANDOM_PROBE, str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    for step in ("import", "floquet", "period-sweep", "draw", "first-return"):
        assert report[step] == [], step
    assert report["a"] == _SEEDED_START_A and report["b"] == _SEEDED_START_B
    assert len(json.loads((tmp_path / "first-return.json").read_text())["runs"]) == 1
