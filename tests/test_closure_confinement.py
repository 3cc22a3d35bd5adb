"""The element kernel is one entry, reached only through `CoxElem` arithmetic.

The braid-move closure and its cache are gone from the package: they live
on as the test oracle `closure_oracle`.  `CoxeterSystem._shortlex`, the
ShortLex normal form, is called only by `normal_form` and the `CoxElem`
methods that multiply, invert and conjugate, and `reduced_words` is called
only where reduced words are what is asked for.  A swap of the element
kernel then stays inside `CoxeterSystem`/`CoxElem`.

Frames are stepped in one place, the frames of a set of words
(`CoxeterSystem._frames`).  A word acts on a root (`_act`) and on the coset
vector (the ring's `walk`) in `coxeter` alone too: in `_reflected_id`, which
fills the table of reflection ids that the one (N, p) fold
`CoxeterSystem._fold_Np` reads, in `_root`, in the root poset of
`_root_walk`, which raises a root by one simple reflection, in the prefix
palindromes of `_palindromes`, and in the walks of the element kernel, so
that no second (N, p) evaluator grows in `nmap` or `schreier`.  N, nbar and the cocycle
each read prefix palindromes and nothing else, and the fold serves only the
comparisons of images under (N, p).  No root is lowered back to its
witness in the package: the root poset gives a raised root its witness
from its parent, and the lowering lives on as the test oracle `nmap_oracle`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "purebraid"

CLOSURE = {"braid_class", "_class_cache", "_canonical", "_mult_gen"}
SHORTLEX_SCOPES = {
    "coxeter.CoxeterSystem._shortlex",
    "coxeter.CoxeterSystem.normal_form",
    "coxeter.CoxElem.__mul__",
    "coxeter.CoxElem.inv",
    "coxeter.CoxElem.conj",
}
REDUCED_WORDS_SCOPES = set()
FRAME_STEP_SCOPES = {"coxeter.CoxeterSystem._frames"}
ACT_AND_WALK_SCOPES = {
    "coxeter.CoxeterSystem._palindromes",
    "coxeter.CoxeterSystem._reflected_id",
    "coxeter.CoxeterSystem._root",
    "coxeter.CoxeterSystem._root_walk",
    "coxeter.CoxeterSystem._vector",
    "coxeter.CoxeterSystem._shortlex",
}
WITNESS_SCOPES = set()
# the scopes that name them, their definitions included
PALINDROME_SCOPES = {"coxeter.CoxeterSystem._palindromes",
                     "nmap.eval_N", "nmap.nbar", "nmap.cocycle"}
FOLD_SCOPES = {"coxeter.CoxeterSystem._fold_Np",
               "nmap.equal_mod_derived", "schreier.soundness_report"}


def _name_of(node):
    """The name a node reads, defines or spells as a string, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def scopes_using(source: str, module: str, names: set, calls_only=False,
                 methods_only=False) -> set:
    """The qualified scopes (module.Class.function) in which one of `names`
    appears; with calls_only, in which one is called; with methods_only, in
    which one is called as an attribute (x.name(...)), so that a local
    function of the same name does not count."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if calls_only or methods_only:
            if isinstance(node, ast.Call) and _name_of(node.func) in names and \
                    (calls_only or isinstance(node.func, ast.Attribute)):
                found.add(scope)
        elif _name_of(node) in names:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def _package_scopes(names: set, calls_only=False, methods_only=False) -> set:
    return {scope for path in SRC.glob("*.py")
            for scope in scopes_using(path.read_text(encoding="utf-8"), path.stem,
                                      names, calls_only, methods_only)}


def test_the_closure_has_left_the_package():
    assert _package_scopes(CLOSURE) == set()


def test_shortlex_is_reached_only_by_the_element_arithmetic():
    assert _package_scopes({"_shortlex"}) == SHORTLEX_SCOPES


def test_reduced_words_is_called_only_where_words_are_asked_for():
    assert _package_scopes({"reduced_words"}, calls_only=True) == REDUCED_WORDS_SCOPES


def test_frames_are_stepped_only_in_coxeter():
    assert _package_scopes({"_frame_step"}, calls_only=True) == FRAME_STEP_SCOPES


def test_words_act_on_roots_and_vectors_only_in_coxeter():
    assert _package_scopes({"_act", "walk"}, methods_only=True) == ACT_AND_WALK_SCOPES


def test_no_root_is_lowered_in_the_package():
    assert _package_scopes({"_witness"}, calls_only=True) == WITNESS_SCOPES


def test_N_nbar_and_the_cocycle_read_prefix_palindromes_alone():
    assert _package_scopes({"_palindromes"}) == PALINDROME_SCOPES
    assert _package_scopes({"_fold_Np"}) == FOLD_SCOPES
    assert _package_scopes({"_reflection", "_roots", "_root", "_positive"}) \
        .isdisjoint(PALINDROME_SCOPES)


def test_detects_uses_outside_the_allowed_scopes():
    source = ("class K:\n"
              "    def f(self):\n"
              "        return self.braid_class(())\n"
              "    def g(self):\n"
              "        return getattr(self, '_class_cache')\n"
              "def h(w):\n"
              "    def inner():\n"
              "        return w.reduced_words()\n"
              "    return w.reduced_words\n")
    assert scopes_using(source, "m", CLOSURE) == {"m.K.f", "m.K.g"}
    assert scopes_using(source, "m", {"reduced_words"}, calls_only=True) == {"m.h.inner"}
    source = ("def f(ring, word):\n"
              "    return ring.walk(word)\n"
              "def g(node):\n"
              "    def walk(x):\n"
              "        return x\n"
              "    return walk(node)\n")
    assert scopes_using(source, "m", {"walk"}, calls_only=True) == {"m.f", "m.g"}
    assert scopes_using(source, "m", {"walk"}, methods_only=True) == {"m.f"}
