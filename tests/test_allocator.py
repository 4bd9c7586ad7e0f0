"""The CLI keeps freed heap memory between operators; the library leaves the
allocator alone.

`cli.main` raises glibc's trim and mmap thresholds once per process, so a
dim-64 report or a stack of sweep points reuses the heap the previous one
freed instead of page-faulting it in again.  These are process-wide side
effects, so they stay at the entry point: `cli.py` is the only module of
src/rieszops that imports ctypes, and importing the package sets nothing.
"""

import ast
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import rieszops
from conftest import cli_env

PACKAGE = Path(rieszops.__file__).resolve().parent

#: in a fresh interpreter: whether importing cli set the allocator, then
#: the minor page faults of the second of two identical cli.main calls
FAULTS_SCRIPT = """
import resource, sys
from rieszops import cli
print(cli._keep_heap.cache_info().currsize)
out = sys.argv[1]
argvs = (
    ["verify", "random", "--dim", "64", "--out", out],
    ["sweep", "projection", "--dim", "64", "--n-min", "5", "--n-max", "7", "--out", out],
)
for argv in argvs:
    cli.main(argv)
for argv in argvs:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.main(argv)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

def ctypes_imports(source):
    """Lines of every import of ctypes or a ctypes submodule in a source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "ctypes" or name.startswith("ctypes.") for name in names):
            lines.append(node.lineno)
    return lines


def test_only_cli_imports_ctypes():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if ctypes_imports(path.read_text())
    )
    assert importers == ["cli.py"]


def test_guard_finds_every_spelling():
    source = (
        "import ctypes\n"
        "import os, ctypes.util\n"
        "from ctypes import CDLL\n"
        "from ctypes.util import find_library\n"
        "import ctypeslib\n"
        "from .ctypes import x\n"
    )
    assert ctypes_imports(source) == [1, 2, 3, 4]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc mallopt"
)
def test_second_dim64_calls_take_no_page_faults(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT, str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        check=True,
        env=cli_env(),
    )
    set_at_import, verify_faults, sweep_faults = map(int, done.stdout.split())
    assert set_at_import == 0
    assert verify_faults < 32
    assert sweep_faults < 32

