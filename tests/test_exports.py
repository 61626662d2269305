"""The package's exports agree with its modules' `__all__` lists, every
module-level import is used, and the package runs on its declared runtime
dependencies alone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpsrgd

_MODULES = ["accounting", "counting", "geometry", "harness", "objectives",
            "optim", "verify"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"dpsrgd.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_every_package_export_is_in_its_defining_module_all():
    unlisted = []
    for name in dpsrgd.__all__:
        obj = getattr(dpsrgd, name)
        module = getattr(obj, "__module__", None)
        if module is None or not module.startswith("dpsrgd."):
            continue  # __version__
        if name not in importlib.import_module(module).__all__:
            unlisted.append(f"{module}.{name}")
    assert unlisted == []


_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked: not a runtime dependency")

sys.meta_path.insert(0, NoScipy())
import dpsrgd
from dpsrgd.cli import main
code = main(["verify", "--criteria", "9"])
assert not any(m.split(".")[0] == "scipy" for m in sys.modules), "scipy was imported"
sys.exit(code)
"""


def test_the_package_imports_and_verifies_without_scipy():
    # scipy is a test dependency only: the tests use it as an independent
    # reference, the package must not need it
    src = str(Path(dpsrgd.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[ 9] PASS" in proc.stdout


def _unused_imports(path: Path) -> list[str]:
    """The names that the module's top-level imports bind but that no
    expression in it reads and its `__all__` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, listed = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            listed = {n.value for n in ast.walk(node.value)  # its string literals
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read and name not in listed]


@pytest.mark.parametrize("path", sorted(Path(dpsrgd.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_level_import_is_read_or_exported(path):
    assert _unused_imports(path) == []
