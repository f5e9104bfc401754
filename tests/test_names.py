"""Static scan for global names that are read but never bound.

A module that uses a name it neither defines, imports nor gets from
builtins fails only when that line runs (or, for a decorator, when the
module is collected).  The stdlib `symtable` pass below finds such names in
every package, test and benchmark module without running them.
"""

import builtins
import symtable
from pathlib import Path

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
