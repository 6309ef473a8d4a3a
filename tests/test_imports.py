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


# Cartier's construction never consults permutation parity.  Statically:
# nothing reachable from the cartier record's four callables or from
# sign_from_delooping reaches a definition that computes parity; nor does
# the census oracle, exhaustive_fixed_points.
PARITY_DEFINITIONS = {
    "perms.sign_inversions",
    "perms.inversions",
    "perms.Sign.of_parity",
    "perms._sign_of_images",
}


def package_definitions(trees: dict[str, ast.Module]) -> dict[str, list]:
    """Every def and class of the package, nested ones too, and every name
    assigned in a module or class body, by bare name: name -> [(qualified
    name, node)].  An assignment's node is its value."""
    defs: dict[str, list] = {}

    def visit(node, prefix, in_function=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                defs.setdefault(child.name, []).append((qual, child))
                visit(child, qual, in_function or isinstance(child, ast.FunctionDef))
                continue
            assigns = isinstance(child, (ast.Assign, ast.AnnAssign))
            if assigns and child.value is not None and not in_function:
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            qual = f"{prefix}.{name.id}"
                            defs.setdefault(name.id, []).append((qual, child.value))
            visit(child, prefix, in_function)

    for module, tree in trees.items():
        visit(tree, module)
    return defs


def names_read(node) -> set[str]:
    """Names and attribute names a node reads.  A class reads what its
    dunder methods and its other statements read: its other methods run
    only when something reads their name."""
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.decorator_list + [
            stmt
            for stmt in node.body
            if not isinstance(stmt, ast.FunctionDef)
            or (stmt.name.startswith("__") and stmt.name.endswith("__"))
        ]
        return set().union(*map(names_read, parts))
    read, stack = set(), [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
        for field, value in ast.iter_fields(sub):
            if field in ("annotation", "returns"):  # never evaluated
                continue
            values = value if isinstance(value, list) else [value]
            stack.extend(v for v in values if isinstance(v, ast.AST))
    return read


def reachable(trees: dict[str, ast.Module], roots: list) -> set[str]:
    """Qualified names of the definitions reachable from the root nodes,
    over-approximated: a name read reaches every definition of that name."""
    defs = package_definitions(trees)
    seen: set[str] = set()
    stack = list(roots)
    while stack:
        for name in names_read(stack.pop()):
            for qual, node in defs.get(name, ()):
                if qual not in seen:
                    seen.add(qual)
                    stack.append(node)
    return seen


def deloopings_function(trees: dict[str, ast.Module], name: str) -> ast.FunctionDef:
    body = trees["deloopings"].body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def sign_free_roots(trees: dict[str, ast.Module]) -> list:
    """The cartier record's four callables and sign_from_delooping."""
    body = trees["deloopings"].body
    record = next(
        node.value
        for node in body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["cartier_delooping"]
    )
    callables = record.args[1:]
    assert len(callables) == 4
    return callables + [deloopings_function(trees, "sign_from_delooping")]


def parse_package(replace: tuple[str, str] | None = None) -> dict[str, ast.Module]:
    sources = {path.stem: path.read_text() for path in SOURCES}
    if replace is not None:
        old, new = replace
        assert sources["deloopings"].count(old) == 1
        sources["deloopings"] = sources["deloopings"].replace(old, new)
    return {module: ast.parse(source) for module, source in sources.items()}


def test_cartier_and_sign_extraction_reach_no_parity_definition():
    trees = parse_package()
    reached = reachable(trees, sign_free_roots(trees))
    assert "deloopings.orientation_action" in reached
    assert "deloopings.Construction.__call__.action" in reached
    assert reached & PARITY_DEFINITIONS == set()
    census = reachable(trees, [deloopings_function(trees, "exhaustive_fixed_points")])
    assert "finite.enumerate_bijections" in census
    assert census & PARITY_DEFINITIONS == set()


def test_reachability_sees_parity_where_it_is_used():
    trees = parse_package()
    simpson_class = [deloopings_function(trees, "simpson_class")]
    assert {"perms.sign_inversions", "perms._sign_of_images"} <= reachable(trees, simpson_class)
    mutant = parse_package(
        replace=(
            "    return relative_inversions(u, canonical_orientation(u.carrier)) % 2",
            "    sign_inversions(order_bijection(u.carrier))\n"
            "    return relative_inversions(u, canonical_orientation(u.carrier)) % 2",
        )
    )
    assert "perms.sign_inversions" in reachable(mutant, sign_free_roots(mutant))
