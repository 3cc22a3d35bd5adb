"""Claims of the paper that the tests check, stated over the library.

No module of purebraid calls these: they certify lemmas of the paper (the
dihedral conjugation criterion, b^I and the I-reduced reflections, the
conjugation towers and the type-D commutation of the action tables, the
monotonicity of N), name an element-level notion (a reflection with its
witness, membership in W_I) or spell a presentation word as a braid word.
Every coset table here is a walk cut at the length it needs,
`CosetTable(system, I, max_length)`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from purebraid.braid import BraidWord
from purebraid.coxeter import (
    CoxElem,
    CoxeterError,
    CoxeterSystem,
    Reflection,
    coset_rep,
    is_I_reduced,
    longest_element,
    named_system,
    palindromize,
    reflections,
)
from purebraid.free_actions import FreeAut, _conj, action_model, aut_invert
from purebraid.freeword import FreeWord, free_word_str, letter, substitute, word_mul
from purebraid.nmap import eval_N, eval_Np, nbar
from purebraid.schreier import (
    DOWN,
    CosetTable,
    minimal_generating_set,
    pure_symbol,
)

# ---------------------------------------------------------------------------
# presentation words as braid words


def symbol_to_braid(system: CoxeterSystem, sym: tuple) -> BraidWord:
    """The braid word of a generator symbol: s for ("s", s), and
    b s^2 b^-1 for the pure generator ("a", b, s)."""
    if sym[0] == "s":
        return BraidWord(system, [(sym[1], 1)])
    base = BraidWord.from_positive(system, sym[1])
    return base * BraidWord(system, [(sym[2], 1)] * 2) * base.inv()


def word_to_braid(system: CoxeterSystem, word: tuple) -> BraidWord:
    """The braid word of a word over the generator symbols."""
    out = BraidWord(system)
    for sym, e in word:
        b = symbol_to_braid(system, sym)
        out = out * (b if e == 1 else b.inv())
    return out


# ---------------------------------------------------------------------------
# reflections and parabolic subgroups


def make_reflection(el: CoxElem) -> Reflection:
    u, s = palindromize(el)
    return Reflection(el, u, s)


def in_parabolic(w: CoxElem, I: Iterable[int]) -> bool:
    """Membership in W_I, by peeling left I-descents down to the identity."""
    return coset_rep(w, I).is_identity()


# ---------------------------------------------------------------------------
# the greatest I-reduced element


def max_I_reduced(system: CoxeterSystem, I) -> CoxElem:
    """b^I = w_I^{-1} w_S, the greatest I-reduced element (finite W)."""
    I = tuple(sorted(set(I)))
    wS = longest_element(system)
    if not I:
        return wS
    return longest_element(system, I).inv() * wS


# ---------------------------------------------------------------------------
# dihedral conjugation criterion (Lemme "s'*a_b1s*s' inv")


def decompose_alternating(table: CosetTable, k: int, s: int, t: int):
    """(b0, x, y, i) with b = b0 (x y x ...)_i, b rep k of `table` (a walk
    with I empty), l(b) = l(b0) + i, {x, y} = {s, t} and neither s nor t a
    right descent of b0: the parabolic decomposition for W_{s,t}, found by
    peeling right descents in {s, t}.  The tail fixes the orientation except
    when i is 0 or m(s, t); then x is the smaller letter."""
    peeled = []
    while d := [r for r in sorted((s, t)) if table.step(k, r)[0] == DOWN]:
        peeled.append(d[0])
        k = table.step(k, d[0])[1]
    i = len(peeled)
    x = min(s, t) if i in (0, table.system.m(s, t)) else peeled[-1]
    return table.reps[k], x, s + t - x, i


def dihedral_conjugation_test(b: CoxElem, s_prime: int, I) -> Optional[int]:
    """The unique t with b^{-1} s' b in B_{s,t}, i.e. with a type-(2) relation
    conjugating a generator based at b by s'; None when no such t exists.

    Decided at the Coxeter level through the alternating decomposition
    b = b0 (sts..)_i with s' b0 = b0 t.
    """
    system = b.system
    I = tuple(sorted(set(I)))
    if s_prime not in I:
        raise CoxeterError("s' must lie in I")
    table = CosetTable(system, (), len(b))
    k = table.reps.index(b)
    found = set()
    for s in range(system.rank):
        for t in range(system.rank):
            if s == t or system.m(s, t) is None:
                continue
            b0, x, y, i = decompose_alternating(table, k, s, t)
            # realign the oriented decomposition on the couple (s, t)
            if (x, y) != (s, t) and i > 0:
                continue
            if not is_I_reduced(b0 * system.gen(s), I):
                continue
            if system.gen(s_prime) * b0 == b0 * system.gen(t):
                found.add(t)
    if not found:
        return None
    if len(found) > 1:
        raise CoxeterError(f"ambiguous conjugating generator: {sorted(found)}")
    return found.pop()


# ---------------------------------------------------------------------------
# I-reduced reflections vs the inversion set of w_I w_S


def reflections_vs_nbar_check(system: CoxeterSystem, I,
                              max_length: Optional[int] = None) -> dict:
    """Finite W: {p(b s b~) : b s I-reduced} = nbar(w_I w_S).  Infinite W:
    list the reflections (up to max_length) outside W_I with no I-reduced
    witness b s such that b s b~ is a reduced lift."""
    I = tuple(sorted(set(I)))
    if system.is_finite():
        witnessed = {system.normal_form(b + (s,) + b[::-1])
                     for _, b, s in minimal_generating_set(system, I, max_length)}
        target = nbar(max_I_reduced(system, I))
        return {"finite": True, "equal": witnessed == target,
                "count": len(witnessed),
                "missing": sorted(str(t) for t in target - witnessed),
                "extra": sorted(str(t) for t in witnessed - target)}
    # by positive roots: a reflection lies in W_I iff its root's support
    # does, and is witnessed iff minimal_generating_set keys its root
    witnessed = system._root_walk(I, max_length)
    zero = system._cartan_rows()[0].zero
    missing = []
    for r in reflections(system, max_length=max_length):
        root = system._root(r.witness_u.word, r.witness_s)
        if root not in witnessed and any(c != zero for j, c in enumerate(root)
                                         if j not in I):
            missing.append(str(r.element))
    return {"finite": False, "count": len(witnessed), "missing": sorted(missing)}


# ---------------------------------------------------------------------------
# monotonicity of N on the positive monoid


def monoid_monotonicity_check(words: Iterable[BraidWord]) -> dict:
    """N is order-preserving on positive words for prefix divisibility.

    For each positive word v and each prefix u, N(v) - N(u) must lie in NT.
    """
    checked = 0
    failures = []
    for v in words:
        if not v.is_positive():
            raise CoxeterError("monotonicity is defined on positive words")
        nv = eval_N(v)
        for i in range(len(v) + 1):
            u = BraidWord(v.system, v.letters[:i])
            diff = nv - eval_N(u)
            checked += 1
            if not diff.all_nonnegative():
                failures.append((str(v), i))
    return {"checked": checked, "failures": failures, "passed": not failures}


# ---------------------------------------------------------------------------
# free automorphisms and the action tables


def is_automorphism(f: FreeAut) -> bool:
    try:
        aut_invert(f)
        return True
    except CoxeterError:
        return False


def conj_tower_check(kind: str, n: int) -> dict:
    """Conjugation by s_i sends level-(i-1) generators into level-i generators.

    Levels in the top model: level j of type A is {a1..a_{j+1}}; of type B
    (a/b basis) it is {a1..a_{j+1}, b2..b_{j+1}}.  Also checks the commuting
    negative control: s_j with j >= i+1 fixes every level-(i-1) generator
    except its own neighbors.
    """
    if kind not in ("A", "B"):
        raise CoxeterError("tower check supports types A and B")
    model = action_model("A" if kind == "A" else "B_ab",
                         n if kind == "A" else n + 1)

    def level(j: int) -> set:
        syms = {f"a{i}" for i in range(1, j + 2) if f"a{i}" in model.basis}
        if kind == "B":
            syms |= {f"b{i}" for i in range(2, j + 2) if f"b{i}" in model.basis}
        return syms

    checked = 0
    failures = []
    for i in range(2, n + 1):
        label = f"s{i}"
        if label not in model.table:
            continue
        target = level(i)
        for g in sorted(level(i - 1)):
            img = model.aut(label).apply(letter(g))
            checked += 1
            if not {sym for sym, _ in img} <= target:
                failures.append({"s": label, "generator": g,
                                 "image": free_word_str(img)})
        # commuting control: later generators fix the lower level
        for j in range(i + 2, n + 1):
            lab = f"s{j}"
            if lab not in model.table:
                continue
            for g in sorted(level(i - 1)):
                checked += 1
                if model.aut(lab).apply(letter(g)) != letter(g):
                    failures.append({"s": lab, "generator": g,
                                     "expected": "fixed"})
    return {"checked": checked, "failures": failures, "passed": not failures}


def change_of_basis_check(n: int) -> dict:
    """The x/y model and the a/b model of type B_n are the same action.

    Substituting x_i = b_n..b_2 a_1..a_i and y_i = b_n..b_{i+1} into the x/y
    table must reproduce the a/b table: h(s(u)) = s(h(u)) for the basis
    homomorphism h and every generator s and x/y basis element u.
    """
    xy = action_model("B", n)
    ab = action_model("B_ab", n)
    sub: Dict[str, FreeWord] = {}
    b_part = word_mul(*[letter(f"b{k}") for k in range(n, 1, -1)])
    for i in range(1, n + 1):
        a_part = word_mul(*[letter(f"a{k}") for k in range(1, i + 1)])
        sub[f"x{i}"] = word_mul(b_part, a_part)
    for i in range(1, n):
        sub[f"y{i}"] = word_mul(*[letter(f"b{k}") for k in range(n, i, -1)])

    checked = 0
    failures = []
    for label in xy.acting:
        for u in xy.basis:
            lhs = substitute(sub, xy.aut(label).apply(letter(u)))
            rhs = ab.aut(label).apply(substitute(sub, letter(u)))
            checked += 1
            if lhs != rhs:
                failures.append({"s": label, "symbol": u,
                                 "lhs": free_word_str(lhs),
                                 "rhs": free_word_str(rhs)})
    return {"checked": checked, "failures": failures, "passed": not failures}


def d_commutation_regression(n: int = 4) -> dict:
    """The extra type-D commutation: a2'^-1 b3 a2' commutes with a3.

    These are the images of a2' and a2 under conjugation by s2, and a2, a2'
    commute; the identity is certified here at the image level (eval_Np on
    both products) together with the table-level derivation.
    """
    system = named_system(f"D{n}")
    # the longest base below, s_n .. s_3 s2 s2', has n letters
    table = CosetTable(system, (), n + 1)

    def pure(base_gens, s):
        # a_{b,s} needs b s reduced: climb it from e
        base = table.climb(0, base_gens)
        table.climb(base, (s,))
        return symbol_to_braid(system, pure_symbol(table.reps[base], s))

    # a_i = (s_n..s_{i+1} conjugate of s_i)^2 with the section-4 bases
    idx = {lab: k for k, lab in enumerate(system.labels)}
    chain = [idx[f"s{k}"] for k in range(n, 2, -1)]  # s_n .. s_3
    a2 = pure(chain, idx["s2"])
    a2p = pure(chain, idx["s2'"])
    a3 = pure(chain[:-1], idx["s3"])
    b3 = pure(chain + [idx["s2"], idx["s2'"]], idx["s3"])
    u = a2p.inv() * b3 * a2p
    base_comm = eval_Np(a2 * a2p) == eval_Np(a2p * a2)
    extra_comm = eval_Np(u * a3) == eval_Np(a3 * u)
    model = action_model("D", n)
    s2 = model.aut("s2")
    derivation = (s2.apply(letter("a2'")) == _conj(letter("a2'"), letter("b3"))
                  and s2.apply(letter("a2")) == letter("a3"))
    return {"base_commutation": base_comm, "extra_commutation": extra_comm,
            "table_derivation": derivation,
            "passed": base_comm and extra_comm and derivation}
