"""Guard against dead surface in src/rieszops.

A module-level function, class or UPPERCASE constant is live only when its
own module loads its name, or another module imports it and reads it
(`from .m import name`, or `m.name` after `from . import m`); a public
method is live when any module reads an attribute of that name.  Modules
count except __init__.py: a re-export is not a use, and neither is a test.
"""

import ast
from pathlib import Path

import rieszops

PACKAGE = Path(rieszops.__file__).resolve().parent

#: names reached only from outside src/, each with the reason
REACHED_FROM_OUTSIDE = {
    ("cli", "main"): "console-script entry point in pyproject.toml",
}


def _reads(module, tree):
    """(module, name) pairs that `module` reads, resolved through its
    relative imports, and the attribute names it reads on anything."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                else:
                    imported[bound] = (node.module, alias.name)
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(imported.get(node.id, (module, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names, attrs


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
    that no module other than __init__ reads, by the rules above."""
    trees = {m: ast.parse(text) for m, text in sources.items() if m != "__init__"}
    names, attrs = set(), set()
    for module, tree in trees.items():
        module_names, module_attrs = _reads(module, tree)
        names |= module_names
        attrs |= module_attrs

    def read(module, name):
        if "." in name:  # Class.method: any attribute read of that name
            return name.rpartition(".")[2] in attrs
        return (module, name) in names

    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if (module, name) not in exempt and not read(module, name)
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


def test_guard_resolves_imports():
    # b reads a local `inner` and an attribute `.norm` of an unrelated
    # object: neither keeps a's definitions of those names alive
    sources = {
        "a": (
            "def inner():\n    return 1\n"
            "def norm():\n    return 2\n"
            "def used():\n    return 3\n"
            "def via_module():\n    return 4\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import used as alias\n"
            "def run(inner, x):\n"
            "    return inner + x.norm + alias() + a.via_module()\n"
        ),
    }
    assert dead_names(sources, {("b", "run"): "entry point"}) == ["a.inner", "a.norm"]
