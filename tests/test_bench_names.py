"""The benchmark harness under ``bench/`` patches toolkit functions by name
and reads toolkit attributes; each of those names must still resolve in the
package.  The harness files are parsed as source, and the harness's own
tests run in a subprocess, so a deletion that breaks the harness fails here
and not only in a benchmark run."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = "meanfield_lq"


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def package_modules(source):
    """Local name -> package module, for every ``from meanfield_lq import m``."""
    return {alias.asname or alias.name: importlib.import_module(f"{PACKAGE}.{alias.name}")
            for node in ast.walk(source)
            if isinstance(node, ast.ImportFrom) and node.module == PACKAGE
            for alias in node.names}


def test_layer_targets_resolve():
    source = parsed(BENCH / "layers.py")
    modules = package_modules(source)
    targets = [node.value for node in ast.walk(source) if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    assert len(targets) == 1
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in targets[0].elts]
    assert pairs
    for module, attr in pairs:
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"


def test_attribute_reads_and_imports_resolve():
    checked = 0
    for path in sorted(BENCH.rglob("*.py")):
        source = parsed(path)
        modules = package_modules(source)
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE + "."):
                module = importlib.import_module(node.module)
                names = [(module, alias.name) for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names = [(modules[node.value.id], node.attr)]
            else:
                continue
            for module, attr in names:
                assert hasattr(module, attr), f"{path.name}: {module.__name__}.{attr}"
                checked += 1
    assert checked


def test_harness_tests_pass():
    # they read object attributes that no AST walk can follow (bench/instances
    # reads GainSchedule.N); their conftest collides with this directory's,
    # so they run in a process of their own
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(BENCH / "tests")], cwd=BENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
