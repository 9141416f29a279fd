"""The export lists: every name in an ``__all__`` resolves, none is listed
twice, star imports of the package and its modules succeed, and every
public callable has an entry in the edge-input contract table."""

import importlib
import pkgutil

import pytest
from test_contract import CONTRACT, LISTED, RECORDS

import plevt

MODULES = [plevt] + [
    importlib.import_module(f"plevt.{info.name}") for info in pkgutil.iter_modules(plevt.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_package_and_library_modules_declare_exports():
    names = {m.__name__ for m in EXPORTING}
    assert {"plevt", "plevt.distribution", "plevt.quantile", "plevt.sampling",
            "plevt.tail", "plevt.records", "plevt.harness", "plevt.gof"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_exported_names_resolve_once(module):
    names = list(module.__all__)
    assert all(isinstance(name, str) for name in names)
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_star_import(module):
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_public_callable_has_a_contract_entry():
    # the error classes are callable too, but they are what the contract raises
    public = {name for name in plevt.__all__ if callable(obj := getattr(plevt, name))
              and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    assert public - set(CONTRACT) - RECORDS == set()
    assert RECORDS <= public and set(LISTED) <= set(CONTRACT)
