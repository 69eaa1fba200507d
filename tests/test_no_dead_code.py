"""Every top-level function and class in the package, every method and
property of its classes, every defaulted parameter of those functions and
methods, and every dataclass field is used by the package, a demo or the
benchmark harness (tests alone do not count)."""

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


def calls_by_name(trees):
    """Called name (a bare name or the last attribute) -> the ast.Call nodes."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def unpassed_parameters(trees, users):
    """'function parameter' for each defaulted parameter of a top-level
    function or method in trees that no call of that name in users passes,
    by keyword or by position. Calls are matched by name alone, and a call
    with *args or **kwargs passes every parameter it could reach."""
    calls = calls_by_name(users)
    out = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(None, node)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(node, f) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for cls, func in funcs:
                args = func.args
                # a method's call by attribute does not pass self positionally
                bound = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
                positional = args.posonlyargs + args.args
                defaulted = [(i, a.arg) for i, a in enumerate(positional)
                             if i >= len(positional) - len(args.defaults)]
                defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                names = [func.name] + ([cls.name] if func.name == "__init__" else [])
                sites = [c for name in names for c in calls.get(name, [])]
                for index, arg in defaulted:
                    passed = any(
                        any(k.arg in (arg, None) for k in c.keywords)
                        or (index is not None
                            and (any(isinstance(a, ast.Starred) for a in c.args)
                                 or len(c.args) + bound > index))
                        for c in sites)
                    if not passed:
                        owner = f"{cls.name}." if cls is not None else ""
                        out.append(f"{owner}{func.name} {arg}")
    return out


def unread_fields(trees, users):
    """'Class.field' for each field of a dataclass in trees that no tree in
    users reads as an attribute, sets by keyword or spells as a string (a
    getattr name)."""
    read = set()
    for tree in users:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                read.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in tree.body if isinstance(cls, ast.ClassDef) and any(
            "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
            for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


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


def parsed(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def test_every_defaulted_parameter_is_passed():
    # a default that every caller keeps is a constant; the package's own
    # calls count, and positional passes such as cli.main(argv) do too
    unpassed = unpassed_parameters(parsed(MODULES), parsed(USERS))
    assert not unpassed, unpassed


def test_every_dataclass_field_is_read():
    unread = unread_fields(parsed(MODULES), parsed(USERS))
    assert not unread, unread


def test_the_checks_find_an_unpassed_parameter_and_an_unread_field():
    module = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    kept: int = 0\n"
        "    stale: int = 0\n"
        "def draw(dim, rng, support=None, scale=1.0, *, tag=None):\n"
        "    return Spec(kept=dim).kept\n"
        "class Prop:\n"
        "    def step(self, x, h, n1=None):\n"
        "        return x\n"
        "draw(3, 4, 5)\n"
        "draw(3, 4, tag='a')\n"
        "Prop().step(1, 2, 3)\n")
    assert unpassed_parameters([module], [module]) == ["draw scale"]
    assert unread_fields([module], [module]) == ["Spec.stale"]
