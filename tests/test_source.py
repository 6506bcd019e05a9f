"""Source guards: properties of the library's code rather than of its answers."""

import ast
import os

import hmkit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hmkit")


def unreferenced_definitions(trees):
    """Names of functions and methods with no reference outside their own
    definitions, as (file:line, name).  A reference is a name or an attribute
    with that name anywhere in the trees; a use inside a definition of the
    same name does not count, and neither does an import."""
    defined, referenced = {}, set()

    def walk(node, path, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(child.name, f"{path}:{child.lineno}")
                walk(child, path, inside | {child.name})
                continue
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name is not None and name not in inside:
                referenced.add(name)
            walk(child, path, inside)

    for path, tree in trees.items():
        walk(tree, path, frozenset())
    return sorted((where, name) for name, where in defined.items() if name not in referenced)


def test_every_library_function_is_used_by_the_library():
    """Code that only tests call belongs in the tests, or nowhere.  Exempt:
    dunders, the `cmd_*` handlers (main finds them by name) and the names
    the package exports."""
    probe = ast.parse(
        "def loop(n):\n    return loop(n - 1)\n"
        "class A:\n    def used(self):\n        return self.spare\n    def spare(self):\n        return 1\n"
        "A().used()\n"
    )
    assert unreferenced_definitions({"m.py": probe}) == [("m.py:1", "loop")]

    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())
    unused = [
        (where, name)
        for where, name in unreferenced_definitions(trees)
        if not (name.startswith("__") and name.endswith("__")) and not name.startswith("cmd_") and name not in hmkit.__all__
    ]
    assert unused == []
