"""Guard against dead surface in src/rieszops.

A module-level function, class or UPPERCASE constant is live only when its
own module loads its name, or another module imports it and reads it
(`from .m import name`, or `m.name` after `from . import m`), or, for a
`suites` function, a row of the CLI's suite table names it; a public
method, and a field of a dataclass or NamedTuple, is live when any module
reads an attribute of that name.  Modules count except __init__.py: a
re-export is not a use, and neither is a test.  No module imports a private
(underscore) name from a sibling module or reads one as an attribute of it.
"""

import ast
from pathlib import Path

import rieszops
from rieszops import cli

PACKAGE = Path(rieszops.__file__).resolve().parent

#: names reached only from outside src/, each with the reason
REACHED_FROM_OUTSIDE = {
    ("cli", "main"): "console-script entry point in pyproject.toml",
    ("factory", "rank_one_sum"): "library API (README example): the builders share "
    "weighted_product, which it calls",
}

#: the suites functions the CLI's table names: cli.main reads each with
#: getattr on the suites module at call time, which no import shows
READ_BY_NAME = {("suites", function) for _, function, _ in cli.SUITES.values()}

#: dataclasses and NamedTuples whose fields are read whole, each with the reason
READ_WHOLE = {}


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


def _records(tree):
    """The module-level dataclasses and NamedTuples."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            names = {ast.unparse(m).rpartition(".")[2] for m in marks + node.bases}
            if names & {"dataclass", "NamedTuple"}:
                yield node


def _fields(record):
    """Names of a record's annotated fields."""
    for item in record.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id


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


def dead_fields(sources, exempt=()):
    """'module.Class.field' of every field of a dataclass or NamedTuple in
    sources whose name no module other than __init__ reads as an attribute;
    exempt holds (module, Class) pairs read whole."""
    trees = {m: ast.parse(text) for m, text in sources.items() if m != "__init__"}
    attrs = set().union(*(_reads(module, tree)[1] for module, tree in trees.items()))
    return sorted(
        f"{module}.{record.name}.{name}"
        for module, tree in trees.items()
        for record in _records(tree)
        if (module, record.name) not in exempt
        for name in _fields(record)
        if name not in attrs
    )


def private_reach_ins(sources):
    """'module: sibling._name' for every private name a module imports from a
    sibling (`from .sibling import _name`) or reads on one (`sibling._name`
    after `from . import sibling`)."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        siblings = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [
                    f"{module}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                found.append(f"{module}: {node.value.id}.{node.attr}")
    return sorted(found)


def _package_sources():
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_no_dead_module_level_definitions():
    dead = dead_names(_package_sources(), REACHED_FROM_OUTSIDE.keys() | READ_BY_NAME)
    assert not dead, f"defined but never read in src/rieszops: {dead}"


def test_no_dead_record_fields():
    dead = dead_fields(_package_sources(), READ_WHOLE)
    assert not dead, f"fields never read in src/rieszops: {dead}"


def test_no_private_reach_ins():
    found = private_reach_ins(_package_sources())
    assert not found, f"private names read across modules: {found}"


def test_exemptions_are_still_defined():
    sources = _package_sources()
    for module, name in REACHED_FROM_OUTSIDE:
        assert name in set(_definitions(ast.parse(sources[module]))), (module, name)
    for module, name in READ_WHOLE:
        records = {record.name for record in _records(ast.parse(sources[module]))}
        assert name in records, (module, name)


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


def test_field_guard_counts_attribute_reads_outside_init():
    sources = {
        "__init__": "from .a import Point\n\ndef show(p):\n    return p.hidden\n",
        "a": (
            "from dataclasses import dataclass\n"
            "from typing import NamedTuple\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: float\n"
            "    hidden: float\n"
            "    LIMIT = 3\n"
            "class Pair(NamedTuple):\n"
            "    left: int\n"
            "    right: int\n"
            "class Whole(NamedTuple):\n"
            "    unread: int\n"
            "class Plain:\n"
            "    untracked: int\n"
        ),
        "b": "def run(p, q):\n    return p.x + q.left\n",
    }
    assert dead_fields(sources) == ["a.Pair.right", "a.Point.hidden", "a.Whole.unread"]
    assert dead_fields(sources, {("a", "Whole"): "read whole"}) == [
        "a.Pair.right",
        "a.Point.hidden",
    ]


def test_reach_in_guard_finds_imports_and_attributes():
    sources = {
        "a": "def _helper():\n    return 1\n\ndef public():\n    return _helper()\n",
        "b": (
            "from . import a\n"
            "from .a import _helper, public\n"
            "def run(obj):\n"
            "    return a._helper() + a.public() + obj._cache + _helper()\n"
        ),
    }
    assert private_reach_ins(sources) == ["b: a._helper", "b: a._helper"]
