"""Guard against dead surface in src/rieszops.

A module-level function, class or UPPERCASE constant, and a public method,
is live only when its name is read (a loaded name or attribute) in some
module of the package other than __init__.py; a read in its own module
counts.  A re-export from __init__.py is not a use, and neither is a test.
"""

import ast
from pathlib import Path

import rieszops

PACKAGE = Path(rieszops.__file__).resolve().parent

#: names reached only from outside src/, each with the reason
REACHED_FROM_OUTSIDE = {
    ("cli", "main"): "console-script entry point in pyproject.toml",
}


def _reads(tree):
    """Every name a module loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _definitions(tree):
    """Qualified names of the module-level functions, classes and UPPERCASE
    constants, and of the public methods ("Class.method")."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.lstrip("_").isupper():
                    yield target.id


def dead_names(sources, exempt=()):
    """'module.name' of every definition in sources ({module: source text})
    whose last name component no module other than __init__ reads."""
    trees = {m: ast.parse(text) for m, text in sources.items() if m != "__init__"}
    read = set().union(*map(_reads, trees.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.rpartition(".")[2] not in read and (module, name) not in exempt
    )


def _package_sources():
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_no_dead_module_level_definitions():
    dead = dead_names(_package_sources(), REACHED_FROM_OUTSIDE)
    assert not dead, f"defined but never read in src/rieszops: {dead}"


def test_exemptions_are_still_defined():
    sources = _package_sources()
    for module, name in REACHED_FROM_OUTSIDE:
        assert name in set(_definitions(ast.parse(sources[module]))), (module, name)


def test_guard_counts_only_reads_outside_init():
    sources = {
        "__init__": "from .a import Config, helper, only_exported\n",
        "a": (
            "LIMIT = 3\n"
            "UNUSED_LIMIT = 4\n"
            "def only_exported():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return LIMIT\n"
            "class Config:\n"
            "    def used(self):\n"
            "        return 1\n"
            "    def unused(self):\n"
            "        return 2\n"
            "    def _private(self):\n"
            "        return 3\n"
        ),
        "b": "from .a import Config\n\ndef run():\n    return Config().used()\n",
    }
    assert dead_names(sources) == [
        "a.Config.unused",
        "a.UNUSED_LIMIT",
        "a.only_exported",
        "b.run",
    ]
    assert dead_names(sources, {("b", "run"): "entry point"}) == [
        "a.Config.unused",
        "a.UNUSED_LIMIT",
        "a.only_exported",
    ]
