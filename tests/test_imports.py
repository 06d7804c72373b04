"""Every name a module of the package imports is used in that module, every
private module-level name is used somewhere in the package, and every
parameter of a private function or method is read by its body.

``__init__.py`` is exempt from the import check: it imports names to
re-export them."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gpseries"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    # an attribute chain such as ``math.inf`` starts with the Name ``math``
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "import os.path\nimport math as m\nfrom fractions import Fraction\nm.floor(1)\n"
    assert unused_imports(source) == ["Fraction", "os"]


def _references(node: ast.AST) -> Counter:
    """How often each name is read below ``node``, as a variable or as an
    attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
    return names


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level function, class or assignment
    whose name starts with ``_`` (dunders aside) and is read nowhere in
    ``sources`` outside its own definition.  Names are matched by name
    alone, across all modules."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(_references, trees.values()), Counter())
    unreferenced = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if _private(name) and everywhere[name] == _references(stmt)[name]:
                    unreferenced.append(f"{module}:{name}")
    return sorted(unreferenced)


def test_every_private_name_is_used():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_an_unused_private_name_is_reported():
    a = "__all__ = []\n_k = 1\n_t, _u = 1, 2\ndef _left(n):\n    return _left(n - 1)\nclass _Used: pass\n"
    b = "import a\n_x: int = 2\ndef _y():\n    return a._Used, a._u\n_y()\n"
    assert unreferenced_private_names({"a": a, "b": b}) == ["a:_k", "a:_left", "a:_t", "b:_x"]


def unused_parameters(source: str) -> list[str]:
    """``function:parameter`` for each parameter of a private function or
    method (``_name``, dunders aside), nested ones included, that its body
    never reads.  A method's receiver (``self``, ``cls``) is exempt, unless
    the method is a ``staticmethod``."""
    tree = ast.parse(source)
    methods = {
        id(f)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in getattr(f, "decorator_list", ())
        )
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not _private(node.name):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params = params[id(node) in methods :]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        read = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unused += [f"{node.name}:{p}" for p in params if p not in read]
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_of_a_private_function_is_read(path):
    assert unused_parameters(path.read_text()) == []


def test_an_unused_parameter_is_reported():
    source = (
        "def _f(a, b=1, *args, c, **kw):\n"
        "    def _inner(d):\n"
        "        return a\n"
        "    return _inner, c\n"
        "def public(e):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, g):\n"
        "        pass\n"
        "    def _m(self, h):\n"
        "        return h\n"
        "    @staticmethod\n"
        "    def _s(i):\n"
        "        pass\n"
    )
    assert unused_parameters(source) == ["_f:args", "_f:b", "_f:kw", "_inner:d", "_s:i"]
