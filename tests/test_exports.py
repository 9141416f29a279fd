"""The export lists: every name in an ``__all__`` resolves, none is listed
twice, star imports of the package and its modules succeed, every
public callable has an entry in the edge-input contract table that gives
each of its parameters a kind, and every name a module imports is used
there or exported."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest
from test_contract import CONTRACT, RECORDS, resolve

import plevt

MODULES = [plevt] + [
    importlib.import_module(f"plevt.{info.name}") for info in pkgutil.iter_modules(plevt.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]
SOURCES = sorted(Path(plevt.__file__).parent.glob("*.py"))


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
    assert RECORDS <= public


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_every_parameter_has_a_contract_kind(name):
    # a parameter left out of its row is never swept, only held at its default
    assert set(inspect.signature(resolve(name)).parameters) - set(CONTRACT[name]) == set()


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from .errors import DomainError, check_real\n__all__ = ['check_real']\n"
    assert unused_imports(source) == ["DomainError"]
    assert unused_imports("import numpy as np\nimport os.path\nos.sep\n") == ["np"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
