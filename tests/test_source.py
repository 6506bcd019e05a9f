"""Source guards: properties of the library's code rather than of its answers."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter

import hmkit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hmkit")


def unreferenced_definitions(trees):
    """Functions and methods with no reference outside their own
    definitions, as (file:line, name).

    An attribute `obj.x` is resolved to a class C when obj is `self` or `cls`
    in a method of C, C itself, a call C(...) or f(...) with f annotated to
    return C, or a name the function binds only as a parameter annotated C,
    only by one such call, or only as the target of one `for` or
    comprehension over a parameter annotated list[C], tuple[C, ...],
    Sequence[C] or Iterable[C]; it then refers only to the x of C, of C's
    ancestors and of C's descendants.  Any other attribute x refers to every
    definition named x, and a bare name x to every function named x and to
    a method x named in its own class body.  A use inside a definition does
    not count for that definition, and neither does an import."""
    classes, returns = {}, {}  # class -> names of its bases; function name -> the class it returns
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                c = class_named(node.returns, classes)
                returns[node.name] = c if returns.get(node.name, c) == c else None  # a shared name resolves nowhere

    def family(c):
        up, down, todo = set(), set(), [c]
        while todo:  # ancestors
            for b in classes.get(todo.pop(), ()):
                if b not in up:
                    up.add(b)
                    todo.append(b)
        todo = [c]
        while todo:  # descendants
            d = todo.pop()
            for k, bases in classes.items():
                if d in bases and k not in down:
                    down.add(k)
                    todo.append(k)
        return up | down | {c}

    def owner_of(value, env):
        if isinstance(value, ast.Call):
            f = value.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            return name if name in classes else returns.get(name)
        if isinstance(value, ast.Name):
            return value.id if value.id in classes else env.get(value.id)
        return None

    defined, refs = {}, {}  # (class or None, name) -> where; name -> [(classes or None, enclosing definitions)]

    def walk(node, path, inside, cls, env):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, inside, child.name, env)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault((cls, child.name), f"{path}:{child.lineno}")
                params = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                stores = Counter(n.id for n in ast.walk(child) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
                inner = {k: v for k, v in env.items() if k not in stores and k not in {p.arg for p in params}}
                inner.update({p.arg: class_named(p.annotation, classes) for p in params if p.arg not in stores})
                items = {p.arg: element_class(p.annotation, classes) for p in params if p.arg not in stores}
                if cls is not None:
                    inner.update(self=cls, cls=cls)
                for a in ast.walk(child):
                    if isinstance(a, ast.Assign) and len(a.targets) == 1 and isinstance(a.targets[0], ast.Name):
                        if stores[a.targets[0].id] == 1 and a.targets[0].id not in inner:
                            inner[a.targets[0].id] = owner_of(a.value, {}) if isinstance(a.value, ast.Call) else None
                    elif isinstance(a, (ast.For, ast.comprehension)) and isinstance(a.target, ast.Name):
                        if stores[a.target.id] == 1 and a.target.id not in inner:
                            inner[a.target.id] = items.get(a.iter.id) if isinstance(a.iter, ast.Name) else None
                walk(child, path, inside | {(cls, child.name)}, None, {k: v for k, v in inner.items() if v})
                continue
            if isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append(({None, cls}, inside))
            elif isinstance(child, ast.Attribute):
                owner = owner_of(child.value, env)
                refs.setdefault(child.attr, []).append((owner and family(owner), inside))
            walk(child, path, inside, cls, env)

    for path, tree in trees.items():
        walk(tree, path, frozenset(), None, {})
    return sorted(
        (where, name)
        for (cls, name), where in defined.items()
        if not any((cls, name) not in inside and (owners is None or cls in owners) for owners, inside in refs.get(name, ()))
    )


def class_named(annotation, classes):
    """The class an annotation names (a name or a string), if it is one of classes."""
    name = annotation.id if isinstance(annotation, ast.Name) else getattr(annotation, "value", None)
    return name if isinstance(name, str) and name in classes else None


def element_class(annotation, classes):
    """The class C of an annotation list[C], tuple[C, ...], Sequence[C] or
    Iterable[C], if C is one of classes."""
    if not (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)):
        return None
    item = annotation.slice
    if annotation.value.id == "tuple":
        ellipsis = isinstance(item, ast.Tuple) and len(item.elts) == 2 and getattr(item.elts[1], "value", None) is Ellipsis
        return class_named(item.elts[0], classes) if ellipsis else None
    return class_named(item, classes) if annotation.value.id in ("list", "Sequence", "Iterable") else None


PROBE = """\
def loop(n):
    return loop(n - 1)
class A:
    def used(self):
        return self.spare
    def spare(self):
        return 1
class B:
    def spare(self):
        return 2
    def twin(self):
        return 3
class C(A):
    def spare(self):
        return 4
    def twin(self):
        return 5
def main(b: B, c: C):
    return b.twin(), C.used(c), A().used()
class Ref(NamedTuple):
    identity: str
class D:
    def identity(self):
        return 6
def report(refutations: list[Ref]):
    for r in refutations:
        yield r.identity
"""


def test_unreferenced_definitions_resolves_methods_per_class():
    # B.spare shares its name with the A.spare that A.used reads, and C.twin
    # with the B.twin that main reads; C.spare overrides A.spare, which
    # self.spare in A may reach
    dead = [("m.py:1", "loop"), ("m.py:16", "twin"), ("m.py:18", "main")]
    dead += [("m.py:23", "identity"), ("m.py:25", "report"), ("m.py:9", "spare")]
    assert unreferenced_definitions({"m.py": ast.parse(PROBE)}) == dead
    # once main rebinds b, b.twin may be any twin
    rebound = PROBE.replace("    return b.twin()", "    b = b or C()\n    return b.twin()")
    found = unreferenced_definitions({"m.py": ast.parse(rebound)})
    assert found == [("m.py:1", "loop"), ("m.py:18", "main"), ("m.py:24", "identity"), ("m.py:26", "report"), ("m.py:9", "spare")]
    # r in refutations is a Ref, whose identity is a field, so D.identity is
    # dead; over a bare list, r.identity may be any identity
    loop = "    for r in refutations:\n        yield r.identity"
    comprehension = PROBE.replace(loop, "    return [r.identity for r in refutations]")
    for text in (comprehension, PROBE.replace("list[Ref]", "tuple[Ref, ...]"), PROBE.replace("list[Ref]", "Iterable[Ref]")):
        assert unreferenced_definitions({"m.py": ast.parse(text)}) == dead
    masked = unreferenced_definitions({"m.py": ast.parse(PROBE.replace("list[Ref]", "list"))})
    assert masked == [d for d in dead if d[1] != "identity"]
    # a use inside a definition skips that definition only
    nested = "class P:\n    def size(self):\n        return sum(p.size() for p in self.parts)\n"
    nested += "class Q:\n    def size(self):\n        return 1\n"
    assert unreferenced_definitions({"m.py": ast.parse(nested)}) == [("m.py:2", "size")]


def test_every_library_function_is_used_by_the_library():
    """Code that only tests call belongs in the tests, or nowhere.  Exempt:
    dunders, the `cmd_*` handlers (main finds them by name) and the names
    the package exports."""
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


def parameter_attribute_stores(tree):
    """Every store to, or deletion of, an attribute of a function's own
    parameter, outside `__init__`, as (line, function, target).  A nested
    function's store counts for every enclosing function that has the name
    as a parameter; a store through a local that holds a parameter does
    not count."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "__init__":
            args = node.args
            params = {p.arg for p in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if p}
            found += [
                (n.lineno, node.name, ast.unparse(n))
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Load)
                and isinstance(n.value, ast.Name) and n.value.id in params
            ]
    return sorted(found)


MUTATOR = """\
class Box:
    def __init__(self, v):
        self.v = v
    def reset(self):
        self.v = 0
def fill(bundle, *rest, **options):
    bundle.K, other = 1, bundle
    other.K = 2
    rest.n += 1
    def inner(decode):
        bundle.decode = decode
        del options.seen
    return inner
def main(argv):
    args = parse(argv)
    args.group, args.command = "a", "b"
"""


def test_parameter_attribute_stores_flags_each_store_through_a_parameter():
    assert parameter_attribute_stores(ast.parse(MUTATOR)) == [
        (5, "reset", "self.v"), (7, "fill", "bundle.K"), (9, "fill", "rest.n"),
        (11, "fill", "bundle.decode"), (12, "fill", "options.seen"),
    ]


def test_no_library_function_changes_an_attribute_of_its_arguments():
    """Records are built whole: a stage returns a new record (`_replace` on
    a named tuple) rather than writing into the one it is given."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                assert parameter_attribute_stores(ast.parse(fh.read())) == [], name


def test_importing_the_cli_generates_no_code():
    """Start-up is a fresh import of hmkit.cli.  No record class generates
    code there, so `dataclasses` and the `inspect` under it stay unloaded,
    and `traceback` (with `textwrap`) loads only on an internal error.  -S
    keeps modules that site-installed .pth files import out of the check."""
    probe = "import sys, hmkit.cli; print(sorted({'dataclasses', 'inspect', 'traceback', 'textwrap'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_every_name_the_benchmark_traces_exists():
    """perfbench/tracing.py wraps library functions and methods by name, so
    a renamed one would break traced benchmark runs and nothing else."""
    path = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"hmkit.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            assert callable(getattr(getattr(module, owner) if owner else module, attr, None)), f"{layer}.{name}"
