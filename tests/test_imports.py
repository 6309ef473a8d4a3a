"""Every module-level import in the package is referenced by its module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "signdeloop").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os.path\nfrom typing import Any, List as L\nx: L = []\n"
    assert unused_imports(source) == ["os", "Any"]


def unread_definitions(sources: list[str]) -> list[str]:
    """Module-level functions and classes, and methods other than dunders,
    whose name no Name or Attribute node of any source reads."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [
                    f"{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name.rsplit(".", 1)[-1] not in read]


def test_every_definition_is_read_by_the_package():
    assert unread_definitions([path.read_text() for path in SOURCES]) == []
