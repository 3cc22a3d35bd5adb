"""Every private function or class of purebraid is used somewhere in src/.

A definition counts as used when code outside its own body reads its name,
as a name or as an attribute (`self._fill`, `coxeter._alt`).  An import
alone does not count, and an attribute of the same name on another object
does, so the check errs on the side of passing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "purebraid"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(node) -> bool:
    return (isinstance(node, DEFINITIONS) and node.name.startswith("_")
            and not node.name.startswith("__"))


def private_definitions(sources: dict) -> list:
    """(module, name) of each def or class, at any depth, whose name starts
    with one underscore, in `sources` ({module: source})."""
    return [(module, node.name) for module, source in sources.items()
            for node in ast.walk(ast.parse(source)) if _is_private(node)]


def orphaned_helpers(sources: dict) -> list:
    """The private definitions of `sources` that no code outside their own
    body reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    readers = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            readers.setdefault(name, []).append(node)
    out = []
    for module, tree in trees.items():
        for node in filter(_is_private, ast.walk(tree)):
            inside = set(map(id, ast.walk(node)))
            if all(id(reader) in inside for reader in readers.get(node.name, [])):
                out.append(f"{module}:{node.name}")
    return sorted(out)


def _sources() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_private_definitions_are_found():
    defs = private_definitions(_sources())
    assert {("coxeter.py", "_alt"), ("schreier.py", "_relation_instances")} <= set(defs)
    assert len(defs) >= 30


def test_no_orphaned_private_helpers():
    assert orphaned_helpers(_sources()) == []


def test_detects_orphaned_private_helpers():
    sources = {
        "a.py": ("def _used():\n    return 1\n\n"
                 "def _braid_relations_among(system, I):\n    return []\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
                 "class _Only:\n    def _method(self):\n        return self._helper()\n\n"
                 "    def _helper(self):\n        return 0\n\n"
                 "def __dunder__():\n    pass\n"),
        "b.py": ("from .a import _used, _Only\n\n"
                 "def f(mod):\n    return _used() + mod._via_attribute()\n"),
        "c.py": "def _via_attribute():\n    return 0\n",
    }
    assert orphaned_helpers(sources) == ["a.py:_Only", "a.py:_braid_relations_among",
                                         "a.py:_method", "a.py:_recursive"]
