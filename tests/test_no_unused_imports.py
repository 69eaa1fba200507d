"""Every name a module of the package imports is used in that module.

__init__.py imports to re-export and is exempt; a name a module lists in
its __all__ counts as used there."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "gkpstab").glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names import statements in source bind and nothing in it reads,
    as 'name (line n)'."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_the_check_finds_a_stale_import():
    source = ("import os\nimport numpy as np\nfrom . import io, fock\n"
              "__all__ = ['fock']\nnp.zeros(io.N)\n")
    assert unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
