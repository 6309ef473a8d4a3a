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
# the census oracle, exhaustive_fixed_points, nor the Cayley walk that the
# sign-homomorphism edge law checks signs along.
PARITY_DEFINITIONS = {
    "perms.chart_sign",
    "perms.sign_inversions",
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


def module_function(trees: dict[str, ast.Module], module: str, name: str) -> ast.FunctionDef:
    body = trees[module].body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def record_callables(trees: dict[str, ast.Module], name: str) -> list:
    """elements, representative, transport and classify of the Construction
    record that deloopings binds to name."""
    body = trees["deloopings"].body
    record = next(
        node.value
        for node in body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]
    )
    callables = record.args[1:]
    assert len(callables) == 4
    return callables


def sign_free_roots(trees: dict[str, ast.Module]) -> list:
    """The cartier record's four callables and sign_from_delooping."""
    return record_callables(trees, "cartier_delooping") + [
        module_function(trees, "deloopings", "sign_from_delooping")
    ]


def parse_package(replace: tuple[str, str] | None = None) -> dict[str, ast.Module]:
    """The package's modules parsed, with old replaced by new in the one
    module whose source holds old, exactly once."""
    sources = {path.stem: path.read_text() for path in SOURCES}
    if replace is not None:
        old, new = replace
        (module,) = [m for m, source in sources.items() if old in source]
        assert sources[module].count(old) == 1
        sources[module] = sources[module].replace(old, new)
    return {module: ast.parse(source) for module, source in sources.items()}


def test_cartier_and_sign_extraction_reach_no_parity_definition():
    trees = parse_package()
    reached = reachable(trees, sign_free_roots(trees))
    assert "deloopings.orientation_action" in reached
    assert "deloopings.Construction.__call__.action" in reached
    assert reached & PARITY_DEFINITIONS == set()
    # The census takes its caller's listing of S_n, and not the signs.
    census = reachable(trees, [module_function(trees, "deloopings", "exhaustive_fixed_points")])
    assert {"perms.transposition", "finite.Bijection.then"} <= census
    assert census & PARITY_DEFINITIONS == set()


def test_reachability_sees_parity_where_it_is_used():
    trees = parse_package()
    simpson_classify = record_callables(trees, "simpson_delooping")[3:]
    assert {"perms.chart_sign", "perms._sign_of_images"} <= reachable(trees, simpson_classify)
    line = "    return MINUS if (_canonical_bit_count(u.carrier) - u.bits.bit_count()) % 2 else PLUS"
    mutant = parse_package(
        replace=(line, "    sign_inversions(order_bijection(u.carrier))\n" + line)
    )
    assert "perms.sign_inversions" in reachable(mutant, sign_free_roots(mutant))


def test_the_sign_oracle_reaches_no_family_reader():
    # sign_inversions judges the families that classify through chart_sign,
    # so it counts for itself: a fault in the reader or its memo is then
    # not a fault in the oracle.
    readers = {"perms.chart_sign", "perms._sign_of_images"}
    trees = parse_package()
    oracle = reachable(trees, [module_function(trees, "perms", "sign_inversions")])
    assert "perms.Sign.of_parity" in oracle
    assert oracle & readers == set()
    count = (
        "    pairs = itertools.combinations(e.positions, 2)\n"
        "    return Sign.of_parity(sum(itertools.starmap(operator.gt, pairs)))\n"
    )
    mutant = parse_package(replace=(count, "    return chart_sign(e)\n"))
    assert readers <= reachable(mutant, [module_function(mutant, "perms", "sign_inversions")])


def recipe_parity(trees: dict[str, ast.Module]) -> set[str]:
    """The parity definitions that the orbit and fixed recipes reach."""
    recipes = [module_function(trees, "deloopings", f"{r}_recipe") for r in ("orbit", "fixed")]
    return reachable(trees, recipes) & PARITY_DEFINITIONS


def test_the_recipes_read_parity_only_through_their_homomorphism():
    # orbit and fixed read the sign only as the phi they are given, and the
    # registry gives it: chart_sign is read, in deloopings, by the orbit and
    # fixed registry lines and simpson's record alone.
    trees = parse_package()
    assert recipe_parity(trees) == set()
    sign_readers = {r for r in readers(trees, {"chart_sign"}) if r.startswith("deloopings.")}
    assert sign_readers == {
        "deloopings.orbit_delooping",
        "deloopings.fixed_point_delooping",
        "deloopings.simpson_delooping",
    }


def test_a_recipe_that_reads_a_sign_is_flagged():
    line = "        lambda pair: phi(pair[0]) * pair[1],"
    mutant = parse_package(replace=(line, line.replace("phi(", "chart_sign(")))
    assert recipe_parity(mutant) == PARITY_DEFINITIONS - {"perms.sign_inversions"}


def walk_parity(trees: dict[str, ast.Module]) -> set[str]:
    """The parity definitions that verify's Cayley walk reaches."""
    return reachable(trees, [module_function(trees, "verify", "cayley_walk")]) & PARITY_DEFINITIONS


def test_the_cayley_walk_reaches_no_parity_definition():
    # The edge law reads parity only through sign_inversions, once per
    # permutation; the walk that supplies its edges, to the edge law and to
    # the kernel's generation proof, reads none.
    trees = parse_package()
    assert walk_parity(trees) == set()
    edge_law = reachable(trees, [module_function(trees, "verify", "sign_homomorphism")])
    assert {"verify.cayley_walk", "perms.sign_inversions"} <= edge_law
    closure = reachable(trees, [module_function(trees, "verify", "kernel_closure")])
    assert "verify.cayley_walk" in closure


def test_a_walk_that_reads_a_sign_is_flagged():
    line = "    order = [] if start is None else [start]\n"
    mutant = parse_package(replace=(line, line + "    sign_inversions(listing[0])\n"))
    assert walk_parity(mutant) == {"perms.sign_inversions", "perms.Sign.of_parity"}


def test_the_orbit_oracle_walks_and_reads_no_parity():
    # expand_orbits colours the walk by edges alone, independent of the
    # class-label shortcut that orbit_structure checks it against.
    trees = parse_package()
    orbits = reachable(trees, [module_function(trees, "verify", "expand_orbits")])
    assert "verify.cayley_walk" in orbits
    assert orbits & PARITY_DEFINITIONS == set()


def test_recognition_runs_the_condition_scans():
    # check_recognition reads conditions 4 and 5 through the scans the
    # transpositions-swap and sign-agreement rows run, and loops over the
    # listing only in condition 3's any(...).
    trees = parse_package()
    recognition = module_function(trees, "deloopings", "check_recognition")
    reached = reachable(trees, [recognition])
    assert {"deloopings.unswapped_transposition", "deloopings.sign_mismatch"} <= reached
    loops = [
        node
        for node in ast.walk(recognition)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert len(loops) == 1


# The quotient and endofunction engines are exercised only by their own
# verify rows (ROADMAP items 11b and 11c): no construction, CLI command or
# other row reads them.
ENGINE_ROWS = {
    "partition_from_relation": "verify.relation_validity",
    "decompose_endofunction": "verify.endofunction_roundtrip",
    "recompose_endofunction": "verify.endofunction_roundtrip",
}


def readers(trees: dict[str, ast.Module], names: set[str]) -> set[str]:
    """The innermost owner of every Name or Attribute read of one of names:
    module.def for a def or class, dotted when nested, module.target for
    the value of a module- or class-level assignment, and the module for
    any other module-level statement."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}"
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) and isinstance(
                node, (ast.Module, ast.ClassDef)
            ):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                inner = f"{owner}." + ",".join(ast.unparse(t) for t in targets)
            read = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if read in names and isinstance(getattr(child, "ctx", None), ast.Load):
                found.add(owner)
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, module)
    return found


def test_each_test_only_engine_is_read_by_its_own_row_alone():
    trees = parse_package()
    for engine, row in ENGINE_ROWS.items():
        assert readers(trees, {engine}) == {row}
        line = "        lambda pair: phi(pair[0]) * pair[1],"
        mutant = parse_package(replace=(line, line.replace("pair[1]", f"{engine}(pair)[1]")))
        assert readers(mutant, {engine}) == {row, "deloopings.orbit_recipe"}


# recompose_endofunction validates a caller's (cycles, transient) by its
# own rules: a fault in decomposing must not also be a fault in the check.
DECOMPOSING = {"cycles.decompose_endofunction", "cycles._orbits"}


def validator_decomposes(trees: dict[str, ast.Module]) -> set[str]:
    """The decomposing definitions that recompose_endofunction reaches."""
    validator = module_function(trees, "cycles", "recompose_endofunction")
    return reachable(trees, [validator]) & DECOMPOSING


def test_the_endofunction_validator_reaches_no_decomposition():
    trees = parse_package()
    assert validator_decomposes(trees) == set()
    validator = module_function(trees, "cycles", "recompose_endofunction")
    assert "cycles._union_of_orbits" in reachable(trees, [validator])


def test_a_validator_that_decomposes_is_flagged():
    # Re-decomposing the rebuilt table, and comparing, checks the pair too.
    line = "    image.update(transient)\n"
    check = (
        "    if decompose_endofunction(LabeledSet.of(image), image) != dec:\n"
        "        raise MalformedDecomposition('not a decomposition')\n"
    )
    mutant = parse_package(replace=(line, line + check))
    assert validator_decomposes(mutant) == DECOMPOSING


def hash_callers(source: str) -> list[str]:
    """The functions, innermost first named, that call the builtin hash()
    anywhere but in a __hash__ method."""
    callers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
                and function != "__hash__"
            ):
                callers.append(function)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(ast.parse(source), "<module>")
    return callers


def test_no_verdict_depends_on_hashing():
    # Hashes of tuples of ints are stable, but a verdict that branched on one
    # would be decided by the hash function, not by the mathematics.
    assert [c for path in SOURCES for c in hash_callers(path.read_text())] == []


def test_detects_a_hash_call_outside_hash_methods():
    deformations = Path(__file__).parent / "deformations.py"
    assert hash_callers(deformations.read_text()) == ["twist"]
    source = "class A:\n    def __hash__(self):\n        return hash(1)\n\nk = hash(2)\n"
    assert hash_callers(source) == ["<module>"]


# The module-level caches the package may keep, and why each outlives a run
# harmlessly.  A listing of S_n, or its signs, belongs to the run that made it.
ALLOWED_CACHES = {
    "finite._fin": "one small set per size, shared by every carrier of that size",
    "perms.transposition": "at most C(8, 2) = 28 small transpositions, built once each",
    "perms._sign_of_images": "a pure parity memo under chart_sign, keyed by positions",
    "deloopings._transported_bits": (
        "a pure bit transport memo under orientation_action, keyed by positions and bits"
    ),
    "deloopings._naturality_signs": "keyed by the run's own families, so no later run hits it",
}


def module_caches(trees: dict[str, ast.Module]) -> set[str]:
    """module.function for every module-level function decorated with
    lru_cache or cache, called or not, bare or as functools.<name>."""
    caches = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    caches.add(f"{module}.{node.name}")
    return caches


def test_only_the_allowed_caches_are_kept():
    assert module_caches(parse_package()) == set(ALLOWED_CACHES)


def test_a_cached_listing_is_refused():
    mutant = parse_package(
        replace=("def symmetric_group(", "@lru_cache(maxsize=1)\ndef symmetric_group(")
    )
    assert module_caches(mutant) - set(ALLOWED_CACHES) == {"finite.symmetric_group"}
    wrapped = parse_package(replace=("def _column(", "@functools.cache\ndef _column("))
    assert module_caches(wrapped) - set(ALLOWED_CACHES) == {"deloopings._column"}
