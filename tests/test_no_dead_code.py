"""Every top-level function and class in the package, and every method and
property of its classes, is used by the package, a demo or the benchmark
harness (tests alone do not count)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "gkpstab").glob("*.py"))
USERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def names_used(tree):
    """Identifiers a module refers to: loads, attributes, imported names and
    string constants that spell an identifier (export lists, wrapped names)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


def all_names_used():
    used = set()
    for path in USERS:
        used |= names_used(ast.parse(path.read_text(), filename=str(path)))
    return used


def test_every_top_level_definition_is_used():
    used = all_names_used()
    unused = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert not unused, unused


def test_every_method_and_property_is_used():
    # a method or property counts as used when its name is referred to
    # anywhere outside its own definition; special methods are called by
    # Python itself
    used = all_names_used()
    unused = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in MODULES
        for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not unused, unused
