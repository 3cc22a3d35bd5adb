import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import nmap_oracle
from golden_tables import (
    check_golden_D4,
    check_golden_simple,
    golden_A,
    golden_B,
    golden_I2,
)
from paper_claims import (
    decompose_alternating,
    dihedral_conjugation_test,
    max_I_reduced,
    reflections_vs_nbar_check,
    symbol_to_braid,
    word_to_braid,
)
import purebraid
from purebraid import schreier
from purebraid.braid import BraidWord, lift
from purebraid.coxeter import (
    CoxElem,
    CoxeterError,
    CoxeterSystem,
    _alt,
    coset_rep,
    is_I_reduced,
    named_system,
    reflections,
    system_from_json,
)
from purebraid.freeword import free_reduce
from purebraid.nmap import SemidirectElem, ZTVector, eval_Np, nbar
from purebraid.schreier import (
    CONJ,
    DOWN,
    UP,
    CosetTable,
    Presentation,
    abelianization,
    cox_symbol,
    crosscheck_closed_vs_raw,
    devissage,
    minimal_generating_set,
    presentation_DI,
    presentation_pure,
    semidirect_split,
    soundness_report,
    standard_chain,
    word_str,
)


# -- golden presentations ------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_presentation_A_matches_table(n):
    system, I, gens, rels = golden_A(n)
    check_golden_simple(presentation_DI(system, I), gens, rels)


@pytest.mark.parametrize("n", [2, 3])
def test_presentation_B_matches_table(n):
    system, I, gens, rels = golden_B(n)
    check_golden_simple(presentation_DI(system, I), gens, rels)


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_presentation_I2_matches_table(m):
    system, I, gens, rels = golden_I2(m)
    check_golden_simple(presentation_DI(system, I), gens, rels)


def test_presentation_D4_matches_table():
    system = named_system("D4")
    check_golden_D4(presentation_DI(system, (0, 1, 2)))


# -- generators ----------------------------------------------------------


def _reflection(system, sym):
    """p(b s b~) for the pure generator symbol ("a", b, s)."""
    _, base, s = sym
    return system.normal_form(base + (s,) + base[::-1])


def test_minimal_generating_set_counts():
    # one generator per reflection outside W_I
    for name, I, expected in (("A3", (0, 1), 3), ("B3", (0, 1), 5),
                              ("D4", (0, 1, 2), 6), ("I2(5)", (0,), 4)):
        system = named_system(name)
        gens = minimal_generating_set(system, I)
        assert len(gens) == expected
        assert len({_reflection(system, g) for g in gens}) == expected


@pytest.mark.parametrize("name", ["H3", "H4", "I2(5)", "I2(7)", "B3", "F4", "D4"])
def test_one_positive_root_per_reflection(name):
    # the positive roots b(a_s) of the UP steps of the walk of W are one
    # per reflection; a Cartan split that is not symmetric on odd bonds
    # gives conjugate generators roots in different ratios, and more keys
    system = named_system(name)
    table = CosetTable(system, ())
    keys = {system._root(table.reps[k].word, s)
            for k in range(len(table.reps)) for s in range(system.rank)
            if table.step(k, s)[0] == UP}
    assert len(keys) == len(reflections(system))
    assert len(minimal_generating_set(system, ())) == len(keys)


def test_reflections_of_H4_are_the_roots_of_the_generating_set():
    # H4 has Coxeter number 30, so 4 * 30 / 2 reflections, one per root
    system = named_system("H4")
    roots = {system._positive(system._root(r.witness_u.word, r.witness_s))
             for r in reflections(system)}
    assert len(roots) == 60
    assert roots == {system._root(b, s) for _, b, s in minimal_generating_set(system, ())}


def test_minimal_generators_realize_nbar_of_bI():
    for name, I in (("A3", (0, 1)), ("B3", (0, 1)), ("D4", (0, 1, 2))):
        system = named_system(name)
        report = reflections_vs_nbar_check(system, I)
        assert report["finite"] and report["equal"]
        bI = max_I_reduced(system, I)
        assert {_reflection(system, g) for g in minimal_generating_set(system, I)} \
            == nbar(bI)


def test_affine_counterexample():
    system = named_system("Atilde2")
    report = reflections_vs_nbar_check(system, (0, 1), max_length=6)
    assert not report["finite"]
    assert report["missing"] == ["r s t s r", "s r t r s"]


def test_presentation_generators_are_valid():
    system = named_system("B3")
    for g in CosetTable(system, (0, 1)).generators():
        _, base, s = g
        bs = system.normal_form(base + (s,))
        assert len(bs) == len(base) + 1
        b = symbol_to_braid(system, g)
        assert b.project().is_identity()  # pure


# -- rewriting -----------------------------------------------------------


def _rewrite(table, k, letters):
    """`table.rewrite_codes` spelled over the generators of D_I: those of I
    in order, then the table's a_{b,s}."""
    codes, k = table.rewrite_codes(k, letters)
    gens = [cox_symbol(t) for t in sorted(table.I)] + table.generators()
    return [(gens[c >> 1], -1 if c & 1 else 1) for c in codes], k


def test_schreier_rewrite_certificate():
    # b = word * lift(rep) in B_W, rep the representative its letters reach
    # in a walk as long as the longest word
    rng = random.Random(0)
    for name, I, max_letters in (("B3", (0, 1), 8), ("D4", (0,), 10),
                                 ("Atilde2", (0, 1), 10)):
        system = named_system(name)
        table = CosetTable(system, I, max_letters)
        for _ in range(40):
            k = rng.randrange(1, max_letters + 1)
            b = BraidWord(system, [(rng.randrange(system.rank), rng.choice((1, -1)))
                                   for _ in range(k)])
            word, j = _rewrite(table, 0, b.letters)
            rep = table.reps[j]
            recomposed = word_to_braid(system, word) * lift(rep)
            assert eval_Np(recomposed) == eval_Np(b)
            # the representative is the I-reduced representative of p(b)
            assert is_I_reduced(rep, I)
            assert coset_rep(b.project(), I) == rep


def _table_cases():
    for name in ("A3", "B3", "H3", "D4", "I2(5)"):
        rank = named_system(name).rank
        for k in range(3):
            for I in itertools.combinations(range(rank), k):
                yield name, I, None
    for I in ((), (0,), (0, 1)):
        yield "Atilde2", I, 6


@pytest.mark.parametrize("name,I,max_length", list(_table_cases()),
                         ids=lambda v: str(list(v)) if isinstance(v, tuple) else str(v))
def test_coset_table_agrees_with_the_kernel(name, I, max_length):
    system = named_system(name)
    walk = list(system.enumerate_elements(max_length, I=I))
    table = CosetTable(system, I, max_length)
    for k, rep in enumerate(walk):
        for s in range(system.rank):
            kind, x = table.step(k, s)
            ws = rep * system.gen(s)
            if kind == CONJ:
                assert len(ws) == len(rep) + 1 and not is_I_reduced(ws, I)
                assert [t for t in I if system.gen(t) * rep == ws] == [x]
            elif x is None:
                # a step that leaves a truncated walk: UP, with no representative
                assert kind == UP and len(rep) == max_length
                assert len(ws) == len(rep) + 1 and is_I_reduced(ws, I)
            else:
                assert table.reps[x] == ws and is_I_reduced(ws, I)
                assert len(ws) == len(rep) + (1 if kind == UP else -1)
    assert len(table.reps) == len(walk) and table.reps == walk


def test_climb_and_rewrite_stop_at_the_end_of_the_walk():
    system = named_system("Atilde2")
    table = CosetTable(system, (), 2)
    assert table.climb(0, (0, 1)) == table.reps.index(system.normal_form((0, 1)))
    for run in (lambda: table.climb(0, (0, 1, 2)),
                lambda: _rewrite(table, 0, [(0, 1), (1, -1), (2, 1)])):
        with pytest.raises(CoxeterError, match="leaves the walk"):
            run()
    # a DOWN step never leaves the walk
    assert all(table.step(k, s)[1] is not None for k in range(len(table.reps))
               for s in range(system.rank) if table.step(k, s)[0] == DOWN)
    # the walk of an infinite W needs a cap
    with pytest.raises(CoxeterError, match="max_length required"):
        CosetTable(system, ())


# the 5-5-5 triangle group, hyperbolic: its walks are cut at max_length 12
TRIANGLE_555 = '{"rank": 3, "m": [[1, 5, 5], [5, 1, 5], [5, 5, 1]]}'


@pytest.mark.parametrize("name", ["D4", "H3", "A4"])
def test_schreier_kernel_call_budget(name, monkeypatch):
    # the walk and the coset table read every step off a coset vector: no
    # product of elements, whatever is rewritten
    calls = []
    shortlex = CoxeterSystem._shortlex
    monkeypatch.setattr(CoxeterSystem, "_shortlex",
                        lambda self, word: calls.append(1) or shortlex(self, word))
    for I, run in (((), presentation_pure), ((0,), presentation_DI),
                   ((0,), crosscheck_closed_vs_raw), ((0,), semidirect_split)):
        run(named_system(name), *([I] if I else []))
        assert calls == [], run.__name__


@pytest.mark.parametrize("name,I,max_length", [
    ("D4", (), None), ("D4", (0,), None), ("H3", (), None), ("H3", (0, 1), None),
    ("5-5-5", (), 6), ("5-5-5", (0,), 6)])
def test_coset_table_takes_one_step_per_transition(name, I, max_length, monkeypatch):
    # the walk records each transition as it steps: one coset step of the
    # ring per (representative, s), the last level of a truncated walk
    # included, and none after the walk, whatever is built on the table
    system = system_from_json(TRIANGLE_555) if name == "5-5-5" else named_system(name)
    expected = len(CosetTable(system, I, max_length).reps) * system.rank
    calls = []
    ring, _ = system._cartan_rows()
    step = ring.step
    monkeypatch.setattr(ring, "step",
                        lambda r, s, row: calls.append((r, s)) or step(r, s, row))
    for run in (CosetTable, presentation_DI, crosscheck_closed_vs_raw):
        calls.clear()
        run(system, I, max_length)
        assert len(calls) == len(set(calls)) == expected, run.__name__


def test_generators_take_no_step_on_a_truncated_walk(monkeypatch):
    # whether b s is an UP step is the sign of entry s of the coset vector
    # of b: the generators of a truncated walk need no product of elements,
    # and presentation_DI drops the instances that leave the walk by the
    # lengths of their bases, without climbing them
    calls = []
    shortlex = CoxeterSystem._shortlex
    monkeypatch.setattr(CoxeterSystem, "_shortlex",
                        lambda self, word: calls.append(1) or shortlex(self, word))
    for I in ((), (0,), (0, 1)):
        system = system_from_json(TRIANGLE_555)
        gens = CosetTable(system, I, 12).generators()
        assert calls == [] and len(gens) == {(): 15735, (0,): 10274, (0, 1): 5029}[I]
        p = presentation_DI(system, I, max_length=12)
        assert p.partial and p.pure_generators() == gens
        assert crosscheck_closed_vs_raw(system, I, max_length=12)["passed"]
        assert calls == [], I


@pytest.mark.parametrize("name,I", [
    ("A2", ()), ("A3", (0, 1)), ("B2", ()), ("I2(5)", (0,)),
    ("I2(4)", ()), ("D4", (0, 1, 2)),
])
def test_closed_forms_equal_raw_rewriting(name, I):
    report = crosscheck_closed_vs_raw(named_system(name), I)
    assert report["passed"] and report["checked"] > 0


@pytest.mark.parametrize("name,I", [("D4", ()), ("H3", ()), ("D4", (0,)), ("H3", (1, 2))])
def test_one_pair_of_climbs_per_braid_square(name, I, monkeypatch):
    # every instance at a square (b0, s < t) slices the climbs of
    # (s t s ...) and (t s t ...) from b0 when b0 s and b0 t are both UP
    # steps, and the one climb of (x y x ...) when b0 y is a CONJ step
    system = named_system(name)
    table = CosetTable(system, I)
    budget = {}
    for b0 in range(len(table.reps)):
        for s, t in itertools.combinations(range(system.rank), 2):
            kinds = sorted((table.step(b0, s)[0], table.step(b0, t)[0]))
            budget[b0, s, t] = {(UP, UP): 2, (CONJ, UP): 1}.get(tuple(kinds), 0)
    climbs = []
    a_super = schreier._a_super
    monkeypatch.setattr(schreier, "_a_super", lambda table, b0, s, t, n: climbs.append(
        (b0, min(s, t), max(s, t))) or a_super(table, b0, s, t, n))
    for run in (lambda: presentation_DI(system, I),
                lambda: presentation_DI(system, I, family1_top=False),
                lambda: crosscheck_closed_vs_raw(system, I)):
        climbs.clear()
        run()
        assert climbs
        for square, count in Counter(climbs).items():
            assert count <= budget[square], square


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_crosscheck_catches_a_corrupted_climb(name, monkeypatch):
    # the raw side rewrites on the coset table alone: closed forms built on
    # climbs with their first two codes swapped must fail the cross-check
    a_super = schreier._a_super
    monkeypatch.setattr(schreier, "_a_super",
                        lambda *args: (lambda c: c[1::-1] + c[2:])(a_super(*args)))
    system = named_system(name)
    for I in ((), (0,)):
        report = crosscheck_closed_vs_raw(system, I)
        assert report["failures"] and not report["passed"], I


def test_crosscheck_checks_that_the_walk_reaches_each_representative(monkeypatch):
    # each relation is rewritten from its representative, not along the
    # representative's word from e: the walk along that word is checked
    # once per table, and two swapped representatives must fail it
    init = schreier.CosetTable.__init__

    def swapped(self, *args):
        init(self, *args)
        self.reps[1], self.reps[2] = self.reps[2], self.reps[1]

    monkeypatch.setattr(schreier.CosetTable, "__init__", swapped)
    with pytest.raises(CoxeterError, match="does not reach"):
        crosscheck_closed_vs_raw(named_system("A3"), ())


# -- certificates on presentations ----------------------------------------


@pytest.mark.parametrize("name,I", [
    ("A3", (0, 1)), ("B3", (0, 1)), ("I2(5)", (0,)), ("D4", (0, 1, 2)),
])
def test_relations_hold_under_eval_Np(name, I):
    p = presentation_DI(named_system(name), I)
    report = soundness_report(p)
    assert report["passed"] and report["certificate"] == "mod D(P_W)"


def _presentations_of(name):
    system = named_system(name)
    if not system.is_finite():
        return [presentation_pure(system, max_length=4),
                presentation_DI(system, (0, 1), max_length=4)]
    return [presentation_pure(system)] + [presentation_DI(system, (i,))
                                          for i in range(system.rank)]


def _expanded_report(p):
    """soundness_report the long way: each side expanded into braid letters
    and evaluated letter by letter by the oracle."""
    failures = [(word_str(p.system, u), word_str(p.system, v))
                for u, v in p.relations
                if nmap_oracle.eval_Np(word_to_braid(p.system, u))
                != nmap_oracle.eval_Np(word_to_braid(p.system, v))]
    return {"checked": len(p.relations), "failures": failures,
            "passed": not failures, "certificate": "mod D(P_W)"}


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)", "D4", "Atilde2"])
def test_folded_generator_images_equal_expanded_relations(name):
    # (N, p) is a homomorphism: the product of the images of the letters of
    # a side is the image of the side written out in braid letters
    for p in _presentations_of(name):
        unit = SemidirectElem(ZTVector(p.system), p.system.identity)
        for side in (side for rel in p.relations for side in rel):
            folded = unit
            for sym, e in side:
                b = symbol_to_braid(p.system, sym)
                folded = folded * eval_Np(b if e == 1 else b.inv())
            assert folded == eval_Np(word_to_braid(p.system, side))
        assert soundness_report(p) == _expanded_report(p)


def test_soundness_fails_exactly_on_false_relations():
    system = named_system("A2")
    a1, a2 = ("a", (), 0), ("a", (), 1)
    pure = presentation_pure(system)
    false = [(((a1, 1),), ((a2, 1),)),
             (((a1, 1),), ()),
             (((a1, -1),), ((a1, 1),))]
    p = Presentation(system, (), pure.generators, pure.relations + tuple(false))
    report = soundness_report(p)
    assert report["failures"] == [(word_str(system, u), word_str(system, v))
                                  for u, v in false]
    assert report == _expanded_report(p)

    # s1 a[s3 s2;s1] = a[s3;s2] s1 in D_{s1,s2} of A3, with s2 for s1 on the left
    system = named_system("A3")
    p = presentation_DI(system, (0, 1))
    swap = {("s", 0): ("s", 1), ("s", 1): ("s", 0)}
    k = [word_str(system, u) for u, _ in p.relations].index("s1 a[s3 s2;s1]")
    u, v = p.relations[k]
    bad = (tuple((swap.get(sym, sym), e) for sym, e in u), v)
    relations = p.relations[:k] + (bad,) + p.relations[k + 1:]
    q = Presentation(system, p.I, p.generators, relations)
    assert soundness_report(p)["passed"]
    report = soundness_report(q)
    assert report["failures"] == [(word_str(system, bad[0]), word_str(system, v))]
    assert report == _expanded_report(q)


@pytest.mark.xfail(strict=True, reason="(N, p) sees B_W only modulo D(P_W); "
                   "needs exact equality in B_W")
def test_soundness_rejects_false_pure_commutation():
    # s1^2 and s2^2 generate a free subgroup of P_3, so they do not commute
    system = named_system("A2")
    a1, a2 = ("a", (), 0), ("a", (), 1)
    p = Presentation(system, (), [a1, a2], [(((a1, 1), (a2, 1)),
                                            ((a2, 1), (a1, 1)))])
    assert not soundness_report(p)["passed"]


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "D4", "I2(5)", "Atilde2"])
def test_soundness_report_never_runs_the_closure(name, monkeypatch):
    # each presentation is certified on a fresh system with the element
    # kernel and braid words switched off: roots and frames only
    presentations = _presentations_of(name)
    if name == "B3":
        presentations.append(presentation_DI(named_system(name), (0, 1)))

    def kernel(self, *args):
        raise AssertionError("an element product or descent set was computed")

    def braid_word(self, *args):
        raise AssertionError("a generator was expanded into its braid word")

    monkeypatch.setattr(CoxeterSystem, "_shortlex", kernel)
    monkeypatch.setattr(CoxElem, "descents", kernel)
    monkeypatch.setattr(BraidWord, "__init__", braid_word)
    for p in presentations:
        system = named_system(name)
        report = soundness_report(Presentation(system, p.I, p.generators,
                                               p.relations, p.partial))
        assert report["passed"] and report["checked"] == len(p.relations) > 0


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)", "D4"])
def test_pure_generators_equal_their_braid_words(name):
    # a_{b,s}^e = (b s s b^-1)^e spelled in the Coxeter lifts: the image of
    # a pure generator is e at +-b(a_s) twice over, with a trivial W-part
    system = named_system(name)
    for p in (presentation_pure(system), presentation_DI(system, (0,))):
        symbols = sorted(set(p.generators) | {("s", i) for i in range(system.rank)})
        relations = []
        for g in p.pure_generators():
            b = symbol_to_braid(system, g)
            for e, braid in ((1, b), (-1, b.inv())):
                relations.append((((g, e),), tuple((("s", s), f) for s, f in braid.letters)))
        report = soundness_report(Presentation(system, p.I, symbols, relations))
        assert report["passed"] and report["checked"] == 2 * len(p.pure_generators())


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)", "Atilde2"])
def test_reflection_ids_agree_with_the_frames_on_every_pure_generator(name):
    # _frames is the oracle: b(a_s) is column s of the frame of b, and the
    # id of a_{b,s} names the positive one of +-b(a_s)
    system = named_system(name)
    cap = None if system.is_finite() else 4
    gens = [g for I in ((), (0,), (0, 1))
            for g in CosetTable(system, I, cap).generators()]
    frames = system._frames(g[1] for g in gens)
    roots = system._id_table()[1]
    ids = {}
    for _, b, s in gens:
        i = system._root_id(b, s)
        assert roots[i] == system._positive(frames[b][s]), (b, s)
        ids.setdefault(roots[i], i)
        assert ids[roots[i]] == i
    assert len(roots) == len(set(roots))
    assert roots[:system.rank] == list(system._frame())


@pytest.mark.parametrize("name,roots", [("D4", 12), ("H3", 15)])
def test_soundness_report_acts_at_most_once_per_root_and_letter(name, roots, monkeypatch):
    # the id table reflects each positive root by each simple reflection at
    # most once per system, whatever the number of letters: a report that
    # acts on a root per letter would make thousands of calls
    calls = []
    act = CoxeterSystem._act
    monkeypatch.setattr(CoxeterSystem, "_act",
                        lambda self, *args: calls.append(args) or act(self, *args))
    for I in ((), (0,), (0, 1)):
        p = presentation_DI(named_system(name), I)
        system = named_system(name)
        calls.clear()
        report = soundness_report(Presentation(system, p.I, p.generators, p.codes,
                                               codes=True))
        letters = sum(len(u) + len(v) for u, v in p.codes)
        assert report["passed"] and letters > roots * system.rank, I
        assert 0 < len(calls) <= roots * system.rank, I


def _random_relations(p, rng, count):
    """Seeded pairs of words over the generators of p and the Coxeter lifts
    of S: random pairs, which nearly all fail, and a word against itself
    with a relation of p inserted (which holds) or with two adjacent letters
    swapped (which holds mod D(P_W) when both letters are pure)."""
    letters = sorted(set(p.generators) | {("s", i) for i in range(p.system.rank)})

    def word(length):
        return tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(length))

    pairs = []
    while len(pairs) < count:
        u = word(rng.randrange(1, 6))
        k = rng.randrange(len(u))
        kind = rng.choice(("random", "relation", "swap"))
        if kind == "random":
            pairs.append((u, word(rng.randrange(0, 6))))
        elif kind == "relation" and p.relations:
            lhs, rhs = rng.choice(p.relations)
            pairs.append((u, u[:k] + lhs + tuple((sym, -e) for sym, e in reversed(rhs)) + u[k:]))
        elif kind == "swap" and k + 1 < len(u):
            pairs.append((u, u[:k] + (u[k + 1], u[k]) + u[k + 2:]))
    return Presentation(p.system, p.I, letters, pairs)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)", "Atilde2", "A4", "D4"])
def test_soundness_agrees_with_the_expanded_images_on_random_pairs(name):
    # the random pairs mix the Coxeter lifts of S with pure letters, also
    # over presentations of D_I with two letters in I
    rng = random.Random(f"soundness-{name}")
    outcomes = set()
    system = named_system(name)
    for p in _presentations_of(name) + [presentation_DI(system, (0, 1), max_length=(
            None if system.is_finite() else 4))]:
        q = _random_relations(p, rng, 40)
        report = soundness_report(q)
        assert report == _expanded_report(q)
        outcomes |= {not report["failures"], len(report["failures"]) == len(q.relations)}
    # on every presentation some pairs hold and some do not
    assert outcomes == {False}


@pytest.mark.parametrize("name,I", [
    ("A3", (0, 1)), ("B3", (0, 1)), ("D4", (0, 1, 2)),
])
def test_semidirect_split(name, I):
    report = semidirect_split(named_system(name), I)
    assert report["passed"]


def _code_built(p):
    """p handed over as its letter codes, as presentation_DI hands its own."""
    return Presentation(p.system, p.I, p.generators, p.codes, p.partial, codes=True)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)", "Atilde2"])
def test_certificate_and_abelianization_agree_between_the_two_builds(name):
    rng = random.Random(f"two-builds-{name}")
    for p in _presentations_of(name):
        q = _random_relations(p, rng, 30)
        r = _code_built(q)
        assert r.codes == q.codes and r.relations == q.relations
        assert soundness_report(r) == soundness_report(q) == _expanded_report(q)
        assert abelianization(r) == abelianization(q)


def _split_failures(p):
    """The failures semidirect_split reports on p, read over words of
    symbols: the retraction keeps the lift letters, freely reduced, and two
    images agree when equal or when they are the sides of a braid relation."""
    system = p.system

    def h(word):
        return free_reduce((sym, e) for sym, e in word if sym[0] == "s")

    def alternating(a, b, m):
        return tuple((("s", x), 1) for x in _alt(a, b, m))

    failures = []
    for u, v in p.relations:
        hu, hv = h(u), h(v)
        if hu and len(hu) == len(hv):
            a, b = hu[0][0][1], hv[0][0][1]
            m = system.m(a, b)
            if m == len(hu) and (hu, hv) == (alternating(a, b, m), alternating(b, a, m)):
                continue
        if hu != hv:
            failures.append((word_str(system, u), word_str(system, v)))
    return failures


@pytest.mark.parametrize("name,I", [
    ("A3", (0, 1)), ("B3", (0, 1)), ("H3", (1, 2)), ("D4", (0, 1, 2)),
])
def test_semidirect_split_agrees_between_the_two_builds(name, I, monkeypatch):
    # seeded relations over the generators of D_I: relations of D_I, braid
    # relations of I with pure letters put in (both hold after the
    # retraction), the same with one lift inverted, and random words
    system = named_system(name)
    rng = random.Random(f"split-{name}")
    p = presentation_DI(system, I)
    pure = p.pure_generators()

    def sprinkle(word):
        out = []
        for letter in word:
            out += [(rng.choice(pure), rng.choice((1, -1))) for _ in range(rng.randrange(2))]
            out.append(letter)
        return tuple(out)

    pairs = rng.sample(p.relations, min(10, len(p.relations)))
    for _ in range(30):
        s, t = rng.sample(I, 2)
        m = system.m(s, t)
        u, v = (tuple((("s", x), 1) for x in _alt(a, b, m)) for a, b in ((s, t), (t, s)))
        kind = rng.choice(("braid", "inverted", "random"))
        if kind == "inverted":
            v = ((v[0][0], -1),) + v[1:]
        elif kind == "random":
            u, v = (tuple((rng.choice(p.generators), rng.choice((1, -1)))
                          for _ in range(rng.randrange(4))) for _ in "uv")
        pairs.append((sprinkle(u), sprinkle(v)))
    q = Presentation(system, I, p.generators, pairs)
    expected = _split_failures(q)
    assert 0 < len(expected) < len(pairs)
    reports = []
    for built in (q, _code_built(q)):
        monkeypatch.setattr(schreier, "presentation_DI", lambda *args, **kw: built)
        reports.append(semidirect_split(system, I))
    assert reports[0] == reports[1] and reports[0]["failures"] == expected


def test_abelianization_of_pure_presentations():
    # the abelianization of P_W is Z^|T|
    for name, rank in (("A2", 3), ("B2", 4), ("I2(5)", 5), ("A3", 6),
                       ("A4", 10), ("B3", 9), ("H3", 15), ("D4", 12),
                       ("B4", 16)):
        p = presentation_pure(named_system(name))
        result = abelianization(p)
        assert result == {"free_rank": rank, "torsion": []}


def test_abelianization_empty_relations():
    system = named_system("A2")
    p = Presentation(system, (), [("a", (), 0)], [])
    assert abelianization(p) == {"free_rank": 1, "torsion": []}


def _matrix_presentation(matrix, ncols):
    """A presentation whose relation matrix is `matrix`: row k reads
    g_0^{x_0} ... g_{n-1}^{x_{n-1}} = 1."""
    gens = [("a", (), k) for k in range(ncols)]
    rels = [(tuple((gens[k], 1 if x > 0 else -1)
                   for k, x in enumerate(row) for _ in range(abs(x))), ())
            for row in matrix]
    return Presentation(named_system("A2"), (), gens, rels)


@pytest.mark.parametrize("matrix,ncols,expected", [
    ([[2]], 1, {"free_rank": 0, "torsion": [2]}),             # <a | a^2>
    ([[2, 4], [-2, 2]], 2, {"free_rank": 0, "torsion": [2, 6]}),
    ([[0, 0], [1, -1]], 2, {"free_rank": 1, "torsion": []}),  # u = u
    ([], 3, {"free_rank": 3, "torsion": []}),
    # no +-1 entry: Euclid (4, 6) and the divisibility fix-up diag(2, 3)
    ([[4, 6, 0]], 3, {"free_rank": 2, "torsion": [2]}),
    ([[2, 0], [0, 3]], 2, {"free_rank": 0, "torsion": [6]}),
    # a unit pivot first, then a remainder without units
    ([[1, 2, 3], [0, 4, 6], [0, 6, 4]], 3, {"free_rank": 0, "torsion": [2, 10]}),
], ids=["a^2", "2-6", "zero-row", "no-relations", "euclid", "fix-up", "mixed"])
def test_abelianization_small_matrices(matrix, ncols, expected):
    assert abelianization(_matrix_presentation(matrix, ncols)) == expected


def _sympy_abelianization(p):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    index = {g: k for k, g in enumerate(p.generators)}
    rows = []
    for u, v in p.relations:
        row = [0] * len(p.generators)
        for sym, e in u:
            row[index[sym]] += e
        for sym, e in v:
            row[index[sym]] -= e
        rows.append(row)
    if not rows:
        return {"free_rank": len(p.generators), "torsion": []}
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols))]
    nonzero = [d for d in diag if d]
    return {"free_rank": len(p.generators) - len(nonzero),
            "torsion": [d for d in nonzero if d != 1]}


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "H3", "D4",
                                  "I2(5)", "I2(6)"])
def test_abelianization_matches_sympy_on_presentations(name):
    pytest.importorskip("sympy")
    system = named_system(name)
    presentations = [presentation_pure(system)] + [
        presentation_DI(system, I)
        for I in [()] + [(s,) for s in range(system.rank)]]
    for p in presentations:
        assert abelianization(p) == _sympy_abelianization(p)


def test_abelianization_matches_sympy_on_random_matrices():
    pytest.importorskip("sympy")
    rng = random.Random(7)
    # small matrices; then up to 8 x 8 with no +-1 entry, so that Euclidean
    # rounds come before any split; then a few +-1 entries among larger
    # ones, so that unit pivots leave remainders without a unit
    batches = [(300, 5, (0, 0, 1, -1, 2, -2, 3, 4, -6, 9), 30),
               (100, 8, (0, 0, 0, 2, -2, 3, -4, 6, 9, -10, 15, 25, -36), 30),
               (100, 8, (0, 0, 0, 0, 1, -1, 2, -3, 4, 6, -9, 10, -15), 20)]
    for count, size, entries, least_with_torsion in batches:
        with_torsion = 0
        for _ in range(count):
            nrows, ncols = rng.randint(1, size), rng.randint(1, size)
            matrix = [[rng.choice(entries) for _ in range(ncols)]
                      for _ in range(nrows)]
            p = _matrix_presentation(matrix, ncols)
            expected = _sympy_abelianization(p)
            assert abelianization(p) == expected
            with_torsion += bool(expected["torsion"])
        assert with_torsion >= least_with_torsion


def test_invariant_factors_match_sympy_without_unit_entries():
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(43)
    # no +-1 entry, so every pivot comes from the Euclidean rounds, which
    # go on from the remainders each round leaves in its pivot's row and
    # column; then all-even entries, so that no invariant factor is 1
    batches = [(120, 12, (0, 0, 2, -2, 3, -4, 6, 9, -10, 15, 25, -36)),
               (60, 10, (0, 2, -2, 4, -6, 8, 12, -18, 30))]
    for count, size, entries in batches:
        for _ in range(count):
            nrows, ncols = rng.randint(1, size), rng.randint(1, size)
            matrix = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
            expected = [abs(int(d)) for d in invariant_factors(Matrix(matrix), domain=ZZ)
                        if d]
            rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
            assert schreier._invariant_factors(rows) == expected, matrix


def test_abelianization_merges_one_letter_relations_as_sympy_does():
    pytest.importorskip("sympy")
    rng = random.Random(19)
    system = named_system("A2")
    seen = set()
    for _ in range(300):
        gens = [("a", (), k) for k in range(rng.randint(1, 8))]

        def letter(k):
            return gens[k], rng.choice((1, -1))

        rels = []
        # chains x_0 = x_1 = ..., some closed into cycles, of random signs
        for _ in range(rng.randint(0, 2)):
            chain = rng.sample(range(len(gens)), rng.randint(1, len(gens)))
            if rng.random() < 0.5:
                chain.append(chain[0])
            rels += [((letter(a),), (letter(b),)) for a, b in zip(chain, chain[1:])]
        # x = x^-1 (torsion 2), x = x (no relation) and longer words
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(len(gens))
            rels.append(((letter(k),), ((gens[k], rng.choice((1, -1))),)))
        for _ in range(rng.randint(0, 3)):
            rels.append(tuple(tuple(letter(rng.randrange(len(gens)))
                                    for _ in range(rng.randint(0, 3))) for _ in "uv"))
        rng.shuffle(rels)
        p = Presentation(system, (), gens, rels)
        expected = _sympy_abelianization(p)
        assert abelianization(p) == expected, rels
        seen.add((expected["free_rank"] > 0, tuple(expected["torsion"])))
    assert {(True, ()), (False, ()), (True, (2,)), (False, (2,))} <= seen


def test_abelianization_and_cli_run_without_sympy():
    # sys.modules[name] = None makes every import of sympy raise ImportError
    script = textwrap.dedent("""
        import sys
        sys.modules["sympy"] = None
        from purebraid import cli
        from purebraid.coxeter import named_system
        from purebraid.schreier import abelianization, presentation_pure
        ab = abelianization(presentation_pure(named_system("D4")))
        assert ab == {"free_rank": 12, "torsion": []}, ab
        sys.exit(cli.main(["pure-present", "--type", "A3"]))
    """)
    src = str(Path(purebraid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert '"generators"' in done.stdout


# -- devissage -----------------------------------------------------------


def test_devissage_standard_chains():
    for name, counts in (("A3", [1, 2, 3]), ("B3", [1, 3, 5]),
                         ("D4", [0, 2, 4, 6])):
        system = named_system(name)
        chain = devissage(system, standard_chain(system))
        assert [lvl["count"] for lvl in chain.levels] == counts
        assert chain.total_pure == sum(counts)
        doc = chain.to_json()
        assert doc["total_pure_generators"] == sum(counts)


@pytest.mark.parametrize("name, reflection_count", [
    ("H4", 60), ("F4", 24), ("E6", 36), ("D5", 20), ("A6", 21), ("B5", 25),
])
def test_devissage_totals_the_reflections(name, reflection_count):
    system = named_system(name)
    chain = devissage(system, standard_chain(system))
    assert chain.total_pure == sum(lvl["count"] for lvl in chain.levels) \
        == reflection_count


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "D4", "I2(5)", "I2(7)",
                                  "Atilde2", "triangle 5-5-5"])
def test_schreier_rewriting_never_runs_the_closure(name, monkeypatch):
    # every step of the rewriting and of the certificates is read off coset
    # vectors and roots: with the products, normal forms and descent sets of
    # elements switched off, each run passes on a fresh system
    def kernel(self, *args):
        raise AssertionError("an element product or descent set was computed")

    monkeypatch.setattr(CoxeterSystem, "_shortlex", kernel)
    monkeypatch.setattr(CoxElem, "descents", kernel)
    cap = {"Atilde2": 6, "triangle 5-5-5": 12}.get(name)

    def fresh():
        return system_from_json(TRIANGLE_555) if name.startswith("triangle") \
            else named_system(name)

    def certified(p):
        assert soundness_report(p)["passed"]
        assert abelianization(p)["free_rank"] > 0

    runs = [lambda s: certified(presentation_pure(s, max_length=cap))]
    if cap is None:
        runs.append(lambda s: devissage(s, standard_chain(s)))
    # the capped diagrams are triangles with equal bonds: s1 stands for all
    for i in range(fresh().rank if cap is None else 1):
        runs += [lambda s, i=i: certified(presentation_DI(s, (i,), max_length=cap)),
                 lambda s, i=i: crosscheck_closed_vs_raw(s, (i,), max_length=cap),
                 lambda s, i=i: semidirect_split(s, (i,), max_length=cap)]
    for run in runs:
        run(fresh())


def test_devissage_rejects_bad_chains():
    system = named_system("A3")
    with pytest.raises(CoxeterError):
        devissage(system, [(0,), (0, 1)])  # does not end with S
    with pytest.raises(CoxeterError):
        devissage(system, [(0, 1), (0,), (0, 1, 2)])  # not increasing
    with pytest.raises(CoxeterError):
        devissage(system, [(0,), (0,), (0, 1, 2)])  # repeated nonempty


# -- b^I and the dihedral criterion ---------------------------------------


def test_max_I_reduced_words():
    a3 = named_system("A3")
    assert max_I_reduced(a3, (0, 1)) == a3.normal_form((2, 1, 0))
    b3 = named_system("B3")
    assert max_I_reduced(b3, (0, 1)) == b3.normal_form((2, 1, 0, 1, 2))
    d4 = named_system("D4")
    bI = max_I_reduced(d4, (0, 1, 2))
    assert bI == d4.normal_form((3, 2, 0, 1, 2, 3))


def test_unique_writing():
    a3 = named_system("A3")
    assert len(max_I_reduced(a3, (0, 1)).reduced_words()) == 1
    b3 = named_system("B3")
    assert len(max_I_reduced(b3, (0, 1)).reduced_words()) == 1
    d4 = named_system("D4")
    assert len(max_I_reduced(d4, (0, 1, 2)).reduced_words()) == 2


@pytest.mark.parametrize("system, max_length", [
    (named_system("A3"), None), (named_system("B3"), None), (named_system("H3"), None),
    (named_system("I2(5)"), None), (named_system("Atilde2"), 5),
    (CoxeterSystem([[1, None, 2], [None, 1, 4], [2, 4, 1]]), 5),
], ids=["A3", "B3", "H3", "I2(5)", "Atilde2", "infinite_bond"])
def test_decompose_alternating(system, max_length):
    table = CosetTable(system, (), max_length)
    for j, b in enumerate(table.reps):
        for s in range(system.rank):
            for t in range(system.rank):
                if s == t:
                    continue
                b0, x, y, i = decompose_alternating(table, j, s, t)
                assert {x, y} == {s, t}
                tail = system.normal_form(tuple(x if k % 2 == 0 else y for k in range(i)))
                assert b0 * tail == b and len(b0) + len(tail) == len(b) == len(b0) + i
                assert not b0.descents("right") & {s, t}
                if i in (0, system.m(s, t)):
                    assert x == min(s, t)


def test_dihedral_conjugation_criterion():
    system = named_system("A3")
    I = (0, 1)
    # b = s3 decomposes as b0 = e with tail s3; s2 e = e s2 gives t = s2
    assert dihedral_conjugation_test(system.gen(2), 1, I) == 1
    # b = e: s' e = e t gives t = s'
    assert dihedral_conjugation_test(system.identity, 1, I) == 1
    with pytest.raises(CoxeterError):
        dihedral_conjugation_test(system.gen(2), 2, I)  # s' not in I


# -- serialization ---------------------------------------------------------


def test_presentation_json_roundtrip():
    system = named_system("B3")
    p = presentation_DI(system, (0, 1))
    doc = p.to_json()
    q = Presentation.from_json(system, doc)
    assert q.generators == p.generators
    assert q.relations == p.relations
    assert not doc["partial"]


def _presentation_doc(**changes):
    doc = presentation_pure(named_system("A2")).to_json()
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    _presentation_doc(relations=[[[["a[e;s1]", 2]], []]]),  # read as a[e;s1]^1
    _presentation_doc(relations=[[[["a[e;s1]", True]], []]]),
    _presentation_doc(relations=[[[["a[s9;s1]", 1]], []]]),  # undeclared name
    {k: v for k, v in _presentation_doc().items() if k != "relations"},
    _presentation_doc(generators=[{"tag": "cox", "gen": "s9"}], relations=[]),
    _presentation_doc(generators=[{"tag": "braid", "gen": "s1"}], relations=[]),
    _presentation_doc(generators=[{"tag": "pure", "base": "", "gen": "s1"},
                                  {"tag": "pure", "base": "s2 s2", "gen": "s1"}], relations=[]),
    _presentation_doc(I=["s9"]),
    _presentation_doc(partial="no"),
    '{"generators": [',
    "[]",
], ids=["exponent 2", "exponent true", "undeclared name", "no relations",
        "unknown generator label", "unknown tag", "declared twice", "unknown label in I",
        "partial not a bool", "bad text", "not an object"])
def test_presentation_from_json_rejects_malformed_documents(doc):
    with pytest.raises(CoxeterError):
        Presentation.from_json(named_system("A2"), doc)


def test_presentation_from_json_reads_text_and_inverse_letters():
    system = named_system("A2")
    p = presentation_pure(system)
    doc = p.to_json()
    doc["relations"] = [[u, v[::-1]] for u, v in doc["relations"]]
    for rel in doc["relations"]:
        for letter in rel[1]:
            letter[1] = -letter[1]
    q = Presentation.from_json(system, json.dumps(doc))
    assert q.generators == p.generators
    assert q.codes == tuple((u, tuple(c ^ 1 for c in reversed(v))) for u, v in p.codes)


def test_presentation_text_contains_generators():
    system = named_system("A3")
    p = presentation_DI(system, (0, 1))
    text = p.to_text()
    assert text.startswith("< ") and " | " in text
    assert "a[s3 s2;s1]" in text


def test_writers_stream_the_relations_in_chunks():
    # F4's pure presentation has more relations than one chunk: no write may
    # carry more than a chunk of them, and the writes join to the document
    p = presentation_pure(named_system("F4"))
    assert len(p.relations) > schreier._CHUNK
    writes = []
    p.write_json(writes.append)
    assert "".join(writes) == json.dumps(p.to_json(), sort_keys=True, indent=2) + "\n"
    # a relation, and nothing else, opens with a line "    ["
    per_write = [w.count("\n    [") for w in writes]
    assert max(per_write) <= schreier._CHUNK and sum(per_write) == len(p.relations)
    writes = []
    p.write_text(writes.append)
    assert "".join(writes) == p.to_text() + "\n"
    per_write = [w.count(" = ") for w in writes]
    assert max(per_write) <= schreier._CHUNK and sum(per_write) == len(p.relations)


def test_presentation_rejects_undeclared_symbols():
    system = named_system("A2")
    sym = ("a", (), 0)
    with pytest.raises(CoxeterError):
        Presentation(system, (), [], [(((sym, 1),), ())])


def test_presentation_rejects_codes_outside_its_generators():
    # codes index the generator list, so the range check is the whole
    # undeclared-symbol check of a presentation handed over as codes
    system = named_system("A2")
    gens = [("a", (), 0), ("a", (), 1)]
    p = Presentation(system, (), gens, [((0, 3), (2,))], codes=True)
    assert p.relations == ((((gens[0], 1), (gens[1], -1)), ((gens[1], 1),)),)
    for code in (4, -1):
        with pytest.raises(CoxeterError, match="outside"):
            Presentation(system, (), gens, [((0,), ()), ((), (code,))], codes=True)


def test_traced_benchmark_counts_the_relations_of_every_presentation():
    # the benchmark's tracer adds len(p.relations) of each Presentation made
    # in a traced round; on seed 1 that is the 4 798 relations the round
    # built when presentations held words of symbols
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"),
                           "--workload", "presentations", "--seed", "1", "--seconds", "1",
                           "--trace-rounds", "--trace"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["layers"]["schreier.relations"] == 4798


def test_partial_presentation_flagged_for_affine():
    system = named_system("Atilde2")
    p = presentation_DI(system, (0, 1), max_length=4)
    assert p.partial
    assert soundness_report(p)["passed"]
