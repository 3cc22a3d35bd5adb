"""N, nbar and the cocycle against the root-lowering oracle `nmap_oracle`,
and the (N, p) fold against the package's N."""

import json
import random

import pytest

import nmap_oracle
from purebraid.braid import BraidWord, lift
from purebraid.coxeter import named_system, system_from_json
from purebraid.nmap import _letter_images, cocycle, equal_mod_derived, eval_N, eval_Np, nbar

# I2(5), H3 and H4 compute over Z[2cos(pi/5)]; Atilde2 and the triangle with
# the infinite bond m(s2, s3) are infinite
SYSTEMS = {name: named_system(name)
           for name in ("A3", "B3", "H3", "H4", "I2(5)", "F4", "E6", "E8", "Atilde2")}
SYSTEMS["7-3-inf"] = system_from_json(json.dumps(
    {"rank": 3, "m": [[1, 7, 3], [7, 1, None], [3, None, 1]]}))


def _braids(system, rng, count=30, max_len=10):
    yield BraidWord(system)
    for _ in range(count):
        yield BraidWord(system, [(rng.randrange(system.rank), rng.choice((1, -1)))
                                 for _ in range(rng.randrange(1, max_len + 1))])


@pytest.mark.parametrize("name", SYSTEMS)
def test_eval_N_and_cocycle_match_the_oracle(name):
    system, rng = SYSTEMS[name], random.Random(14)
    for b in _braids(system, rng):
        assert eval_N(b) == nmap_oracle.eval_N(b)
        b2 = b * BraidWord(system, [(rng.randrange(system.rank), 1)])
        # the fold is checked against the package's N, read off prefix
        # palindromes, so that it is never its own oracle
        for other in (b2, b2 * b2.inv() * b, b.inv().inv()):
            assert equal_mod_derived(b, other) == (eval_Np(b) == eval_Np(other))
    # the oracle's cocycle is three N's of lifts, each read off the fold's
    # roots, so it checks the cocycle's palindromes by another route; random
    # words have up to 10 letters, and up to 5 in the infinite systems
    e, cap = system.identity, 10 if system.is_finite() else 5
    for _ in range(40):
        v, w = (system.normal_form([rng.randrange(system.rank)
                                    for _ in range(rng.randrange(cap + 1))]) for _ in "vw")
        for pair in ((v, w), (e, w), (v, e), (v, v.inv())):
            assert cocycle(*pair) == nmap_oracle.cocycle(*pair)
        N_v = nmap_oracle.eval_N(lift(v))
        assert cocycle(v, v.inv()) == N_v.scale(2)
        assert nbar(v) == nmap_oracle.nbar(v) == N_v.odd_support()
    assert cocycle(e, e).is_zero()


@pytest.mark.parametrize("name, letters", [("E8", 200), ("H4", 100)])
def test_long_words_match_the_oracle(name, letters):
    # prefixes that go up and come down many times: the prefix is peeled
    # again at each descent, and w0 caps its length (120 in E8, 60 in H4)
    system, rng = SYSTEMS[name], random.Random(28)
    for _ in range(4):
        b = BraidWord(system, [(rng.randrange(system.rank), rng.choice((1, -1)))
                               for _ in range(letters)])
        assert eval_N(b) == nmap_oracle.eval_N(b)
        v, w = (system.normal_form([rng.randrange(system.rank) for _ in range(letters)])
                for _ in "vw")
        assert cocycle(v, w) == nmap_oracle.cocycle(v, w)
        assert nbar(v) == nmap_oracle.nbar(v)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "I2(5)", "Atilde2", "7-3-inf"])
def test_the_W_part_of_the_fold_is_the_coset_vector(name):
    # the coset vector at I = () determines w, the height functional lying
    # inside the fundamental chamber: over all of W, or to length 4 when W
    # is infinite, the fold's W-part of lift(w) is _vector(w.word), of
    # lift(w) lift(v) that of w v, and no two elements share one
    system = SYSTEMS[name] if name in SYSTEMS else named_system(name)
    fold, rng = system._fold_Np, random.Random(25)
    elements = list(system.enumerate_elements(max_length=None if system.is_finite() else 4))
    seen = set()
    for w in elements:
        _, vector = fold(_letter_images(lift(w)))
        assert vector == system._vector(w.word)
        v = rng.choice(elements)
        assert fold(_letter_images(lift(w) * lift(v)))[1] == system._vector((w * v).word)
        seen.add(repr(vector))
    assert len(seen) == len(elements)
