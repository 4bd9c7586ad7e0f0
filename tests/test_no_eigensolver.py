"""Guard: src/rieszops calls no numpy.linalg eigensolver.

The kernel factorizes with svd and solve only (see the rieszops.linalg
docstring): the eigenvalues of T T* square cond(T), and the spectra of the
non-normal operators are checked against known eigenvectors instead.  A
use is an attribute read `<...>.linalg.<solver>` or `linalg.<solver>` on
any alias, or a `from numpy.linalg import <solver>`.
"""

import ast
from pathlib import Path

import rieszops

PACKAGE = Path(rieszops.__file__).resolve().parent

EIGENSOLVERS = frozenset({"eig", "eigh", "eigvals", "eigvalsh"})


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def eigensolver_uses(source):
    """(line, text) of every eigensolver use in a module's source."""
    nodes = list(ast.walk(ast.parse(source)))
    linalg_aliases = {"linalg"}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            linalg_aliases |= {a.asname or a.name for a in node.names if a.name == "linalg"}
    uses = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            uses += [
                (node.lineno, f"numpy.linalg.{a.name}")
                for a in node.names
                if a.name in EIGENSOLVERS
            ]
        elif isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            base = _dotted(node.value)
            if base is not None and base.rpartition(".")[2] in linalg_aliases:
                uses.append((node.lineno, f"{base}.{node.attr}"))
    return sorted(uses)


def test_src_calls_no_eigensolver():
    uses = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := eigensolver_uses(path.read_text()))
    }
    assert not uses, f"eigensolver calls in src/rieszops: {uses}"


def test_guard_finds_every_spelling():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import linalg as la\n"
        "from numpy.linalg import eigvalsh, svd\n"
        "a = np.linalg.eigh(m)\n"
        "b = numpy.linalg.eig(m)\n"
        "c = la.eigvals(m)\n"
        "d = np.linalg.svd(m)\n"
        "e = pair.eigh\n"
    )
    assert eigensolver_uses(source) == [
        (4, "numpy.linalg.eigvalsh"),
        (5, "np.linalg.eigh"),
        (6, "numpy.linalg.eig"),
        (7, "la.eigvals"),
    ]
