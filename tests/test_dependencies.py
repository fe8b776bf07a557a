"""The library needs numpy alone at run time; scipy is a test-only dependency.

The verification routes, the closed forms and the Fock oracle, stay
independent of the pair-sum engine and of each other, and the tests' Kraus
reference stays independent of the oracle's binomial thinning that it checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    code = "import sys, qlidar; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_numpy_submodule():
    # numpy.fft is read at the first spectral curve, not at import
    code = "import sys, numpy; before = set(sys.modules); import qlidar; print(sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert not [m for m in ast.literal_eval(proc.stdout) if m.startswith("numpy")]


def test_sources_never_mention_scipy():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "scipy" in line
    ]
    assert hits == []


def _qlidar_imports(source: str) -> set[str]:
    """Names of the qlidar modules that a module of the package imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qlidar."))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "qlidar":
                continue
            parts = base.split(".")[1:] if node.level == 0 else base.split(".") if base else []
            # "from . import x" and "from qlidar import x" name the modules after "import"
            found.update(parts[:1] or (alias.name for alias in node.names))
    return found


def test_import_parser_sees_every_form():
    source = "import numpy\nfrom . import detection\nfrom .metrology import fwhm\nimport qlidar.wigner\nfrom qlidar import cli\n"
    assert _qlidar_imports(source) == {"detection", "metrology", "wigner", "cli"}


ENGINE = {"detection", "metrology", "wigner", "cli"}


@pytest.mark.parametrize("module,forbidden", [("fock_oracle", ENGINE | {"closedform"}), ("closedform", ENGINE)])
def test_verification_routes_stay_independent(module, forbidden):
    imports = _qlidar_imports((SRC / "qlidar" / f"{module}.py").read_text())
    assert {"interferometer", "states"} <= imports  # the shared definitions are seen, so the parse is live
    assert imports.isdisjoint(forbidden), sorted(imports & forbidden)


def _reachable_names(source: str, entry: str) -> set[str]:
    """Names and attributes that a module function reads, with those of every module function it calls, transitively."""
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    names, todo, seen = set(), [entry], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in functions:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_call_walk_follows_module_functions():
    source = "def f():\n    return g()\n\ndef g():\n    return fo.simulate(1)\n\ndef h():\n    return fo._thin(1)\n"
    assert _reachable_names(source, "f") == {"g", "fo", "simulate"}


def test_kraus_reference_never_runs_the_thinning_it_checks():
    # the density route must reach its port-a counts without the oracle's thinned readout
    names = _reachable_names((Path(__file__).parent / "helpers.py").read_text(), "reference_simulate_density")
    assert {"reference_loss_channel", "beam_splitter_unitary", "_kravchuk_block"} <= names  # the walk is live
    assert names.isdisjoint({"simulate", "_thin"}), sorted(names & {"simulate", "_thin"})
