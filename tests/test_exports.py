"""The export lists: every name in an ``__all__`` resolves, none is listed
twice, star imports of the package and its modules succeed, every
public callable has an entry in the edge-input contract table that gives
each of its parameters a kind, every name a module imports is used there
or exported, and every exported name is used by the package or named in
the README."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
from test_contract import CONTRACT, RECORDS, resolve
from test_readme import README

import plevt

MODULES = [plevt] + [
    importlib.import_module(f"plevt.{info.name}") for info in pkgutil.iter_modules(plevt.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]
SOURCES = sorted(Path(plevt.__file__).parent.glob("*.py"))


def test_package_and_library_modules_declare_exports():
    names = {m.__name__ for m in EXPORTING}
    assert {"plevt", "plevt.distribution", "plevt.errors", "plevt.quantile", "plevt.sampling",
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
    # and back: every contract row and record is exported, so a name that
    # drops out of its module's __all__ fails here
    assert {name for name in CONTRACT if "." not in name} | RECORDS <= public


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_every_parameter_has_a_contract_kind(name):
    # a parameter left out of its row is never swept, only held at its default
    assert set(inspect.signature(resolve(name)).parameters) - set(CONTRACT[name]) == set()


def export_lists(tree: ast.AST) -> list[ast.Assign | ast.AugAssign]:
    """The ``__all__ = ...`` and ``__all__ += ...`` assignments in ``tree``."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign))
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))]


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but neither reads nor lists in ``__all__``.

    ``from .m import *`` binds the names in ``m.__all__``, so it counts as
    used only where ``source`` re-exports that list (``__all__ += m.__all__``);
    it is reported as ``m.*``.
    """
    tree = ast.parse(source)
    imported = [f"{node.module}.*" if alias.name == "*"
                else alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in export_lists(tree):
        value = node.value
        if isinstance(value, (ast.List, ast.Tuple)):
            used |= {e.value for e in value.elts if isinstance(e, ast.Constant)}
        elif (isinstance(node, ast.AugAssign) and isinstance(value, ast.Attribute)
              and value.attr == "__all__" and isinstance(value.value, ast.Name)):
            used.add(f"{value.value.id}.*")
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from .errors import DomainError, check_real\n__all__ = ['check_real']\n"
    assert unused_imports(source) == ["DomainError"]
    assert unused_imports("import numpy as np\nimport os.path\nos.sep\n") == ["np"]
    # a star import is used only by re-exporting its module's list
    source = "from .tail import *\nfrom .errors import *\n__all__ = ['x']\n__all__ += tail.__all__\n"
    assert unused_imports(source) == ["errors.*"]
    assert unused_imports("from .tail import *\ntail.hill\n") == ["tail.*"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def referenced_names(source: str) -> set[str]:
    """Names that ``source`` reads, as a name or an attribute, or spells as a
    string constant outside ``__all__`` (a lookup by name)."""
    tree = ast.parse(source)
    exported = {id(node) for assign in export_lists(tree) for node in ast.walk(assign.value)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            names.add(node.value)
    return names


def test_references_are_found():
    # a definition, an assignment and the export list itself are not uses
    source = "__all__ = ['a', 'b']\na = 1\ndef b():\n    pass\nc = d.e + lookup('f')\n"
    assert referenced_names(source) == {"d", "e", "lookup", "f"}


def test_every_export_is_used_or_documented():
    # a public name that only the tests reach does not belong in the API
    used = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    for path in SOURCES:
        used |= referenced_names(path.read_text(encoding="utf-8"))
    assert [f"{m.__name__}.{name}" for m in EXPORTING for name in m.__all__
            if name not in used] == []
