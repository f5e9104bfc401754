"""Checks that names resolve before the code that uses them runs.

A module that uses a name it neither defines, imports nor gets from
builtins fails only when that line runs (or, for a decorator, when the
module is collected).  The stdlib `symtable` pass below finds such names in
every package, test and benchmark module without running them.

The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
name when it installs, so a renamed or deleted function breaks every traced
benchmark run; the tracer tests check that every name it lists resolves.
The last test checks the package's export list against what it imports.
"""

import ast
import builtins
import importlib
import importlib.util
import symtable
from pathlib import Path

from orbitideals.membership import GradedPiece
from orbitideals.orbit import sample_orbit
from orbitideals.partitions import Partition

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [
        *(ROOT / "src" / "orbitideals").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
)
MODULE_NAMES = {"__file__", "__name__", "__doc__", "__spec__", "__loader__", "__package__", "__path__"}


def tables(table):
    yield table
    for child in table.get_children():
        yield from tables(child)


def undefined_globals(source: str, filename: str) -> set[str]:
    top = symtable.symtable(source, filename, "exec")
    bound = set(dir(builtins)) | MODULE_NAMES
    for table in tables(top):
        for sym in table.get_symbols():
            at_module = table is top or sym.is_declared_global()
            if at_module and (sym.is_assigned() or sym.is_imported()):
                bound.add(sym.get_name())
    missing = set()
    for table in tables(top):
        for sym in table.get_symbols():
            if sym.is_referenced() and (table is top or sym.is_global()):
                if sym.get_name() not in bound:
                    missing.add(sym.get_name())
    return missing


def test_scan_finds_an_unimported_name():
    source = "import os\n\n@settings(deadline=None)\ndef f():\n    return os.sep, st, len\n"
    assert undefined_globals(source, "example.py") == {"settings", "st"}


def test_no_undefined_global_names():
    assert len(FILES) > 10
    found = {}
    for path in FILES:
        missing = undefined_globals(path.read_text(), str(path))
        if missing:
            found[str(path.relative_to(ROOT))] = sorted(missing)
    assert found == {}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for short, attrs in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            # the tracer replaces a method through the class __dict__
            scope = vars(getattr(module, owner)) if owner else vars(module)
            if not callable(scope.get(name)):
                missing.append(f"{short}.{attr}")
    assert missing == []
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    assert all(callable(getattr(cli.json, attr)) for attr in tracer.JSON_TRACED)


def test_values_the_benchmark_hooks_read():
    # perfbench/layers.py adds every sample's matrix to a set and reads a
    # fresh piece's rows, nonzeros and path
    assert hash(sample_orbit(Partition((2, 1)), 0).matrix) is not None
    piece = GradedPiece(3, [((), (), 1)], 2)  # the tag of t_1
    assert (len(piece.rows), piece.nonzeros, piece.path) == (0, 0, "exact")


def test_export_list_matches_imports():
    # a name dropped from a module but left in __all__ fails here, not at
    # a user's `from orbitideals import *`
    package = importlib.import_module("orbitideals")
    exported = package.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(package, name)] == []
    tree = ast.parse((ROOT / "src" / "orbitideals" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported - set(exported) == set()
