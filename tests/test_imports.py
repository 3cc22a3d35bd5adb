"""Every name a module of purebraid imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "purebraid"
# __init__.py imports to re-export
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations such as -> "CoxElem"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_are_found():
    assert {"coxeter.py", "schreier.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_detects_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from json import dumps, loads\n\ndef f() -> 'Path':\n    return dumps(1)\n")
    assert unused_imports(source) == ["loads (line 4)", "os (line 2)", "osp (line 3)"]


def imported_modules(source: str) -> set:
    """The modules a source imports, relative ones under the package name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ("purebraid." if node.level else "") + (node.module or "")
            base = base.rstrip(".")
            out |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return out


def imports_between(source: str, module: str) -> set:
    """The imports of `module` (a purebraid module) that a source makes."""
    name = f"purebraid.{module}"
    return {m for m in imported_modules(source) if m == name or m.startswith(name + ".")}


def test_kernel_does_not_import_its_oracles():
    # the oracles check the kernel, so the kernel keeps its own arithmetic
    source = (SRC / "coxeter.py").read_text(encoding="utf-8")
    assert imports_between(source, "oracles") == set()


@pytest.mark.parametrize("importer,imported", [("schreier", "nmap"),
                                               ("free_actions", "schreier"),
                                               ("schreier", "braid"),
                                               ("free_actions", "nmap.eval_N")])
def test_layering(importer, imported):
    # the presentations need no (N, p) of elements and no braid words, and
    # the action tables no Schreier rewriting: what linked them was
    # test-only code; the action tables ask only whether a pure word lies in
    # D(P_W), which the fold decides without the reflections of eval_N
    source = (SRC / f"{importer}.py").read_text(encoding="utf-8")
    assert imports_between(source, imported) == set()


def test_detects_imports_between_modules():
    for source in ("from .nmap import nbar\n", "from . import nmap\n",
                   "import purebraid.nmap\n", "from purebraid.nmap import x\n",
                   "def f():\n    from .nmap import nbar\n"):
        assert imports_between(source, "nmap"), source
    assert imports_between("from .coxeter import nmap_of\n", "nmap") == set()
    assert imports_between("from .nmaps import x\n", "nmap") == set()


def test_detects_imports_of_the_oracles():
    for source in ("from .oracles import MatrixOracle\n", "from . import oracles\n",
                   "import purebraid.oracles\n", "from purebraid.oracles import x\n"):
        assert "purebraid.oracles" in imported_modules(source), source
    assert "purebraid.oracles" not in imported_modules("from .coxeter import oracles_of\n")
