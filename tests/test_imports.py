"""Every name a module of the package imports is used in that module.

``__init__.py`` is exempt: it imports names to re-export them."""

import ast
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
