"""The README's library example runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The source of the README's one ```python block."""
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start : text.index("```", start)]


def test_readme_library_example():
    # each line `expr  # text` has a text that starts with repr(expr); the
    # other statements run in order, so later lines see their names
    source = library_example()
    lines = source.splitlines()
    scope: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        if isinstance(stmt, ast.Expr) and comment.startswith("#"):
            value = eval(code, scope)
            assert comment[1:].strip().startswith(repr(value)), (code, value)
            checked += 1
        else:
            exec(code, scope)
    assert checked == 11
