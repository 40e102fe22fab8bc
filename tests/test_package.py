"""The package namespace re-exports every public name of its modules, and
no module imports a name it does not use."""

import ast
from pathlib import Path

import pytest

import ttinfer
from ttinfer import chancode, cross, harness, mimo, posterior, tt


@pytest.mark.parametrize("module", [tt, cross, posterior, mimo, chancode, harness],
                         ids=lambda m: m.__name__)
def test_every_module_export_resolves_from_the_package(module):
    for name in module.__all__:
        assert getattr(ttinfer, name, None) is getattr(module, name), name


@pytest.mark.parametrize("path", sorted(p for p in Path(ttinfer.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """A deletion that leaves an import behind fails here (``__init__.py``
    imports to re-export, so it is not checked)."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
