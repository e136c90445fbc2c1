"""Every public top-level function and class of the package has a caller
outside the tests: another place in the package (``__init__``'s exports and
the definition itself do not count), a demo, or ``REFERENCES``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bierlab"

# no program code calls these; tests check the engines against them
REFERENCES = {
    "full_subcomplex",  # drop_ghosts is checked against it
    "link",  # link f-vectors are an isomorphism invariant
    "maps_facets_onto",  # checks the isomorphisms the engine returns
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_read(tree, skip=frozenset()):
    """Names ``tree`` reads, as bare names or attributes, outside the nodes
    in ``skip``."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    demos = [parse(path) for path in sorted((ROOT / "demos").glob("*.py"))]
    read_by_demos = {name for tree in demos for name in names_read(tree)}
    defined = set()
    uncalled = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.add(node.name)
            if node.name in REFERENCES or node.name in read_by_demos:
                continue
            own = frozenset(id(n) for n in ast.walk(node))
            if not any(node.name in names_read(other, own if other is tree else frozenset())
                       for other in modules.values()):
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == [], "only tests call these; delete them or move them into a test"
    assert REFERENCES <= defined
