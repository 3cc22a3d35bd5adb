"""src/purebraid checks with raises, not `assert`: python -O strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "purebraid"


def assert_lines(source: str) -> list:
    """The line of each assert statement in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_no_asserts_in_the_package():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    found = {p.name: lines for p in sources
             for lines in [assert_lines(p.read_text(encoding="utf-8"))] if lines}
    assert found == {}


def test_detects_asserts():
    source = ("def f(x):\n    assert x, 'no'\n    if x:\n"
              "        assert x > 0\n    return 'assert x'\n")
    assert assert_lines(source) == [2, 4]
