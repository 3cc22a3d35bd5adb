import random

import pytest

from paper_claims import monoid_monotonicity_check
from purebraid.braid import BraidWord, lift
from purebraid.coxeter import CoxElem, CoxeterError, is_reflection, named_system, reflections
from purebraid.nmap import (
    ZTVector,
    cocycle,
    equal_mod_derived,
    eval_N,
    eval_Np,
    in_image_of_N,
    is_admissible,
    nbar,
    splitting_parity_witness,
)


def random_braid(system, rng, max_len=8):
    k = rng.randrange(1, max_len + 1)
    return BraidWord(system, [(rng.randrange(system.rank), rng.choice((1, -1)))
                              for _ in range(k)])


def test_eval_N_on_letters():
    system = named_system("A2")
    s1 = BraidWord.parse(system, "s1")
    assert eval_N(s1).coeffs == {system.gen(0): 1}
    assert eval_N(s1.inv()).coeffs == {system.gen(0): -1}
    assert eval_N(BraidWord.parse(system, "s1 s1")).coeffs == {system.gen(0): 2}
    # s1 s2: contributions s1 and s1 s2 s1
    both = eval_N(BraidWord.parse(system, "s1 s2"))
    assert both.coeffs == {system.gen(0): 1, system.normal_form((0, 1, 0)): 1}


def test_eval_Np_multiplicative_sampled():
    rng = random.Random(0)
    for name in ("A3", "B2", "I2(5)"):
        system = named_system(name)
        for _ in range(60):
            u, v = random_braid(system, rng), random_braid(system, rng)
            assert eval_Np(u * v) == eval_Np(u) * eval_Np(v)
            assert eval_Np(u.inv()) == eval_Np(u).inv()


def test_eval_N_vanishes_on_braid_relations():
    for name in ("A3", "B3", "I2(6)"):
        system = named_system(name)
        for s in range(system.rank):
            for t in range(s + 1, system.rank):
                m = system.m(s, t)
                lhs = BraidWord.from_positive(
                    system, [s if k % 2 == 0 else t for k in range(m)])
                rhs = BraidWord.from_positive(
                    system, [t if k % 2 == 0 else s for k in range(m)])
                assert equal_mod_derived(lhs, rhs)
                assert (eval_N(lhs) - eval_N(rhs)).is_zero()


def test_nbar_is_the_inversion_set():
    system = named_system("A3")
    for w in system.elements():
        inv = nbar(w)
        assert len(inv) == len(w)
        # t is an inversion of w iff l(t w) < l(w) ... checked via witness peel
        for t in inv:
            assert is_reflection(t)
    # injectivity
    assert len({nbar(w) for w in system.elements()}) == 24


def test_nbar_rejects_a_word_that_is_not_reduced():
    # a raise, not an assert, so the check holds under python -O too
    system = named_system("A3")
    for word in ((0, 0), (0, 1, 0, 1, 0, 1), (2, 1, 0, 1, 1)):
        with pytest.raises(CoxeterError):
            nbar(CoxElem(system, word))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "E8", "Atilde2"])
def test_cocycle_and_nbar_build_no_braid_word(name, monkeypatch):
    # both are read off the roots of w's letters: with BraidWord switched
    # off, they still agree with the values computed through braid words
    system, rng = named_system(name), random.Random(26)
    elements = [system.normal_form([rng.randrange(system.rank) for _ in range(8)])
                for _ in range(12)]
    pairs = list(zip(elements, reversed(elements)))
    expected = [eval_N(lift(v) * lift(w) * lift(v * w).inv()) for v, w in pairs]
    inversions = [eval_N(lift(v)).odd_support() for v in elements]

    def braid_word(self, *args):
        raise AssertionError("a braid word was built")

    monkeypatch.setattr(BraidWord, "__init__", braid_word)
    assert [cocycle(v, w) for v, w in pairs] == expected
    assert [nbar(v) for v in elements] == inversions


def test_admissibility_roundtrip_A2():
    system = named_system("A2")
    refl = [r.element for r in reflections(system)]
    admissible = 0
    for mask in range(2 ** len(refl)):
        subset = {refl[i] for i in range(len(refl)) if mask >> i & 1}
        w = is_admissible(system, subset)
        if w is not None:
            admissible += 1
            assert nbar(w) == frozenset(subset)
    assert admissible == 6  # one inversion set per element of W


def test_admissibility_rejects_non_reflection():
    system = named_system("A2")
    with pytest.raises(CoxeterError):
        is_admissible(system, [system.normal_form((0, 1))])


def test_in_image_of_N_roundtrip():
    rng = random.Random(3)
    system = named_system("B2")
    for _ in range(40):
        x = eval_N(random_braid(system, rng))
        b = in_image_of_N(x)
        assert b is not None and eval_N(b) == x
    # odd coefficient at a non-simple reflection alone is not admissible
    t = system.normal_form((0, 1, 0))
    assert in_image_of_N(ZTVector(system, {t: 1})) is None
    assert in_image_of_N(ZTVector(system, {t: 2})) is not None


def test_cocycle_values():
    system = named_system("A2")
    for s in range(system.rank):
        g = system.gen(s)
        assert cocycle(g, g).coeffs == {g: 2}
    rng = random.Random(5)
    elems = named_system("B2").elements()
    for _ in range(60):
        u, v, w = (rng.choice(elems) for _ in range(3))
        total = (cocycle(v, w).acted_by(u) - cocycle(u * v, w)
                 + cocycle(u, v * w) - cocycle(u, v))
        assert total.is_zero()
        assert cocycle(u, v).all_even()


def test_splitting_parity_witness():
    for name in ("A2", "B3", "Atilde2"):
        report = splitting_parity_witness(named_system(name))
        assert report["all_odd"]
        assert set(report["coefficients"].values()) == {1}


def test_monotonicity_on_positive_words():
    system = named_system("A3")
    rng = random.Random(7)
    words = [BraidWord.from_positive(system,
                                     [rng.randrange(3) for _ in range(6)])
             for _ in range(20)]
    assert monoid_monotonicity_check(words)["passed"]
    with pytest.raises(CoxeterError):
        monoid_monotonicity_check([BraidWord.parse(system, "s1^-1")])


def test_ztvector_arithmetic_and_json():
    system = named_system("A2")
    x = eval_N(BraidWord.parse(system, "s1 s2 s1^-1"))
    y = eval_N(BraidWord.parse(system, "s2"))
    assert (x + y) - y == x
    assert x.scale(0).is_zero()
    assert (-x) + x == ZTVector(system)
    assert ZTVector.from_json(system, x.to_json()) == x
    with pytest.raises(CoxeterError):
        ZTVector.from_json(system, {"s1 s2": 1})


@pytest.mark.parametrize("doc", [{"s1": 2.7}, {"s1": "3"}, {"s1": True}, {"s9": 1}, [["s1", 1]]],
                         ids=["float", "string", "bool", "unknown label", "not an object"])
def test_ztvector_from_json_rejects_malformed_documents(doc):
    with pytest.raises(CoxeterError):
        ZTVector.from_json(named_system("A2"), doc)


def test_ztvector_action_is_by_conjugation():
    system = named_system("B2")
    x = eval_N(BraidWord.parse(system, "s1"))
    w = system.normal_form((1, 0))
    acted = x.acted_by(w)
    assert acted.coeffs == {w.conj(system.gen(0)): 1}
