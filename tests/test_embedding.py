import random

import pytest

from purebraid.braid import BraidWord
from purebraid.coxeter import CoxeterError
from purebraid.embedding import (
    EmbeddingInstance,
    embedding_report,
    equivariance_check,
    index2_roundtrip_check,
    phi_relation_check,
)
from purebraid.freeword import free_reduce, letter, parse_free_word, word_mul


def test_instance_validation():
    with pytest.raises(CoxeterError):
        EmbeddingInstance(1)


def test_phi_doubles_the_first_generator():
    inst = EmbeddingInstance(3)
    b = BraidWord.parse(inst.source_system, "s1 s2 s1^-1")
    img = inst.phi(b)
    assert img.letters == ((0, 1), (0, 1), (1, 1), (0, -1), (0, -1))
    with pytest.raises(CoxeterError):
        inst.phi(BraidWord.parse(inst.target_system, "s1"))


def test_psi_images():
    inst = EmbeddingInstance(2)
    assert inst.psi(letter("a1")) == parse_free_word("a1 a1")
    assert inst.psi(letter("a2")) == letter("a2")
    assert inst.psi(letter("b2")) == parse_free_word("a1 a2 a1^-1")
    assert inst.psi(letter("b3")) == parse_free_word("a1 a2 a3 a2^-1 a1^-1")
    # homomorphism
    u = parse_free_word("b2 a1^-1")
    v = parse_free_word("a2 b3")
    assert inst.psi(word_mul(u, v)) == word_mul(inst.psi(u), inst.psi(v))


def test_x_basis_roundtrip():
    inst = EmbeddingInstance(3)
    rng = random.Random(0)
    for _ in range(50):
        w = free_reduce([(rng.choice(inst.f_basis), rng.choice((1, -1)))
                         for _ in range(rng.randrange(0, 9))])
        assert inst.from_x_basis(inst.to_x_basis(w)) == w


def test_parity_is_multiplicative():
    inst = EmbeddingInstance(2)
    rng = random.Random(1)
    for _ in range(40):
        w = free_reduce([(rng.choice(inst.f_basis), rng.choice((1, -1)))
                         for _ in range(rng.randrange(0, 7))])
        v = free_reduce([(rng.choice(inst.f_basis), rng.choice((1, -1)))
                         for _ in range(rng.randrange(0, 7))])
        same = inst.parity(w) == inst.parity(v)
        assert (inst.parity(word_mul(w, v)) == "even") == same


def test_membership_accepts_even_rejects_odd():
    inst = EmbeddingInstance(2)
    even = parse_free_word("a2 a1 a1 a2^-1")
    pre = inst.membership_psi_image(even)
    assert pre is not None and inst.psi(pre) == even
    assert inst.membership_psi_image(letter("a1")) is None
    # psi images of the source basis are all in the image, trivially
    for x in inst.fprime_basis:
        img = inst.psi(letter(x))
        assert inst.membership_psi_image(img) is not None


def test_equivariance_small():
    report = equivariance_check(2, samples=50, seed=0)
    assert report["passed"] and report["checked"] >= 50


@pytest.mark.parametrize("n", [2, 3])
def test_phi_respects_relations(n):
    report = phi_relation_check(n)
    assert report["passed"] and report["checked"] == n * (n - 1) // 2


def test_index2_roundtrips():
    report = index2_roundtrip_check(2, samples=60, seed=0)
    assert report["passed"]
    assert report["even_roundtrips"] == 60
    assert report["odd_rejected"] > 0


def test_embedding_report():
    rep = embedding_report(2, samples=40, seed=0)
    assert rep["passed"]
    assert rep["status"] == "certified modulo faithfulness of the free actions"
