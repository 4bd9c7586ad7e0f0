"""Guard against dead surface in src/rieszops.

A public module-level function or class must be exported by
rieszops/__init__.py or referenced in another module of the package; a
private one (leading underscore) must be referenced in its own module.
"""

import ast
from pathlib import Path

import rieszops

PACKAGE = Path(rieszops.__file__).resolve().parent

#: public names reached only from outside src/, each with the reason
REACHED_FROM_OUTSIDE = {
    ("cli", "main"): "console-script entry point in pyproject.toml",
    ("cli", "build_parser"): "the parser of main; tests pin that it is built once",
    ("linalg", "singular_extremes"): "a layer the benchmark traces by name",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _references(tree):
    """Names a module uses: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def test_no_dead_module_level_definitions():
    trees = _trees()
    exported = _references(trees["__init__"])
    dead = []
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        elsewhere = set().union(
            *(_references(t) for m, t in trees.items() if m != module)
        )
        inside = _references(tree)
        for node in _definitions(tree):
            name = node.name
            if name.startswith("_"):
                live = name in inside
            else:
                live = name in exported or name in elsewhere
            if not live and (module, name) not in REACHED_FROM_OUTSIDE:
                dead.append(f"{module}.{name}")
    assert not dead, f"defined but never used: {dead}"


def test_exemptions_are_still_defined():
    trees = _trees()
    for module, name in REACHED_FROM_OUTSIDE:
        assert name in {n.name for n in _definitions(trees[module])}, (module, name)
