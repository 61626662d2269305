"""The package's exports agree with its modules' `__all__` lists."""

import importlib

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
