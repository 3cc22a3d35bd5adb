import random

import pytest

from purebraid.coxeter import CoxeterError, named_system
from purebraid.oracles import GoldenInt, MatrixOracle, PermutationOracle, compose


def test_permutation_oracle_is_homomorphism_exhaustive_A3():
    oracle = PermutationOracle.type_A(3)
    elems = oracle.system.elements()
    for v in elems:
        for w in elems:
            assert oracle.image(v * w) == compose(oracle.image(v), oracle.image(w))


def test_permutation_oracle_faithful():
    for name in ("A3", "B3", "D4"):
        oracle = PermutationOracle.for_system(name)
        images = {oracle.image(w) for w in oracle.system.elements()}
        assert len(images) == len(oracle.system.elements())


def test_oracle_length_agrees_with_word_length():
    for name in ("A3", "B3", "D4"):
        oracle = PermutationOracle.for_system(name)
        for w in oracle.system.elements():
            assert oracle.length(oracle.image(w)) == len(w)


def test_oracle_descents_agree():
    for name in ("A3", "B2", "D4"):
        oracle = PermutationOracle.for_system(name)
        rng = random.Random(0)
        elems = oracle.system.elements()
        for w in rng.sample(elems, min(40, len(elems))):
            img = oracle.image(w)
            assert oracle.descents(img, "right") == w.descents("right")
            assert oracle.descents(img, "left") == w.descents("left")


def test_for_system_rejects_unknown():
    for bad in ("I2(5)", "Atilde2", "H3", "Dx"):
        with pytest.raises(CoxeterError):
            PermutationOracle.for_system(bad)


def test_matrix_oracle_faithful_small():
    for name in ("A3", "B2", "I2(4)"):
        system = named_system(name)
        oracle = MatrixOracle(system)
        images = {oracle.image(w) for w in system.elements()}
        assert len(images) == len(system.elements())


def test_matrix_oracle_affine():
    system = named_system("Atilde2")
    oracle = MatrixOracle(system)
    elems = list(system.enumerate_elements(max_length=4))
    images = {oracle.image(w) for w in elems}
    assert len(images) == len(elems)
    rng = random.Random(1)
    for _ in range(100):
        v, w = rng.choice(elems), rng.choice(elems)
        prod = oracle._matmul(oracle.image(v), oracle.image(w))
        assert prod == oracle.image_of_word(v.word + w.word)


def test_matrix_oracle_rejects_noncrystallographic():
    for name in ("I2(7)", "I2(8)", "I2(12)"):
        with pytest.raises(CoxeterError, match=r"\{2,3,4,5,6\}"):
            MatrixOracle(named_system(name))


def test_golden_integers():
    phi = GoldenInt(0, 1)
    assert phi * phi == phi + 1
    assert (2 - phi) * (1 + phi) == 1 and 3 - phi == GoldenInt(3, -1)
    assert GoldenInt(4) == 4 and hash(GoldenInt(4)) == hash(4) and phi != 1
    assert len({GoldenInt(1, 2), GoldenInt(1, 2), GoldenInt(2, 1)}) == 2


def test_matrix_oracle_bond_5():
    for name in ("H3", "I2(5)"):
        system = named_system(name)
        oracle = MatrixOracle(system)
        assert all(isinstance(x, GoldenInt) for g in oracle.gen_mats for r in g for x in r)
        images = {oracle.image(w) for w in system.elements()}
        assert len(images) == len(system.elements())
    # the image of s1 s2 in H3 has order exactly 5
    oracle = MatrixOracle(named_system("H3"))
    x = oracle.image_of_word((0, 1))
    powers = [x]
    for _ in range(4):
        powers.append(oracle._matmul(powers[-1], x))
    assert [p == oracle.identity for p in powers] == [False] * 4 + [True]


def test_matrix_oracle_crystallographic_entries_stay_int():
    for name in ("F4", "E6", "Atilde2"):
        oracle = MatrixOracle(named_system(name))
        assert all(type(x) is int for g in oracle.gen_mats for r in g for x in r)


def test_signed_models_respect_orders():
    b2 = PermutationOracle.type_B(2)
    s1, s2 = b2.gen_images
    x = compose(s1, s2)
    power = x
    order = 1
    while power != b2.identity:
        power = compose(power, x)
        order += 1
    assert order == 4  # m(s1, s2) in B2
