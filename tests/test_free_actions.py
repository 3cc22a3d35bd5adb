import random

import pytest

from paper_claims import (
    change_of_basis_check,
    conj_tower_check,
    d_commutation_regression,
    is_automorphism,
)
from purebraid.braid import BraidWord
from purebraid.coxeter import CoxeterError
from purebraid.free_actions import (
    FreeAut,
    abelianized_action,
    act,
    action_model,
    aut_invert,
    composite_aut,
    corrupted_model,
    equal_modulo_commutations,
    generic_braid_pair,
    nontriviality_sample,
    verify_braid_relations,
)
from purebraid.freeword import (
    free_reduce,
    free_word_str,
    letter,
    parse_free_word,
    word_inv,
    word_mul,
)


# -- free words -----------------------------------------------------------


def test_free_word_basics():
    w = parse_free_word("a b^-1 b a^-1 c")
    assert w == (("c", 1),)
    assert free_word_str(w) == "c"
    assert free_word_str(()) == "1"
    u = parse_free_word("a b")
    assert word_mul(u, word_inv(u)) == ()
    with pytest.raises(CoxeterError):
        free_reduce([("a", 2)])


# -- automorphisms ---------------------------------------------------------


def test_aut_apply_and_compose():
    basis = ["x", "y"]
    f = FreeAut(basis, {"x": parse_free_word("x y")})
    g = FreeAut(basis, {"y": parse_free_word("y^-1")})
    assert f.apply(parse_free_word("x^-1")) == parse_free_word("y^-1 x^-1")
    assert (f * g).apply(letter("y")) == parse_free_word("y^-1")
    assert (f * g).apply(letter("x")) == parse_free_word("x y")
    assert FreeAut.identity(basis).is_identity()


def test_aut_invert_roundtrip():
    basis = ["x", "y", "z"]
    f = FreeAut(basis, {"x": parse_free_word("x y"),
                        "y": parse_free_word("y z")})
    g = aut_invert(f)
    assert (f * g).is_identity() and (g * f).is_identity()


def test_aut_invert_rejects_non_automorphisms():
    basis = ["x", "y"]
    assert not is_automorphism(FreeAut(basis, {"y": letter("x")}))
    assert not is_automorphism(FreeAut(basis, {"x": parse_free_word("x x")}))
    with pytest.raises(CoxeterError):
        aut_invert(FreeAut(basis, {"x": letter("y"), "y": letter("y")}))
    # abelianized determinant 2; x -> 1 on the abelianization; an empty image
    for image in ("x y x", "x y x^-1 y^-1", ""):
        with pytest.raises(CoxeterError):
            aut_invert(FreeAut(basis, {"x": parse_free_word(image)}))


def test_aut_invert_random_automorphisms():
    # random products of Nielsen generators must invert
    rng = random.Random(2)
    basis = ["x", "y", "z"]
    nielsen = [FreeAut(basis, {"x": parse_free_word("x y")}),
               FreeAut(basis, {"x": letter("y"), "y": letter("x")}),
               FreeAut(basis, {"z": parse_free_word("z^-1")})]
    for _ in range(25):
        f = FreeAut.identity(basis)
        for _ in range(rng.randrange(1, 7)):
            f = f * rng.choice(nielsen)
        g = aut_invert(f)
        assert (f * g).is_identity()


def test_aut_invert_random_automorphisms_of_rank_6():
    rng = random.Random(29)
    basis = [f"x{i}" for i in range(1, 7)]
    for _ in range(200):
        f = FreeAut.identity(basis)
        for _ in range(rng.randrange(1, 13)):
            x, y = rng.sample(basis, 2)
            move = rng.randrange(4)
            if move == 0:
                images = {x: letter(x) + letter(y, rng.choice((1, -1)))}
            elif move == 1:
                images = {x: letter(y, rng.choice((1, -1))) + letter(x)}
            elif move == 2:
                images = {x: letter(y), y: letter(x)}
            else:
                images = {x: letter(x, -1)}
            f = f * FreeAut(basis, images)
        g = aut_invert(f)
        assert (f * g).is_identity() and (g * f).is_identity(), f


def test_aut_invert_past_a_length_plateau():
    # no image is shortened by another's power +-1, yet
    # (y y z^-1)(z x)(y x)^-1 = y: each neighbour cancels half of z x
    f = FreeAut(["x", "y", "z"], {"x": parse_free_word("y y z^-1"),
                                  "y": parse_free_word("y x"),
                                  "z": parse_free_word("z x")})
    g = aut_invert(f)
    assert (f * g).is_identity() and (g * f).is_identity()


def test_free_aut_rejects_unknown_symbols():
    with pytest.raises(CoxeterError, match="unknown symbol q"):
        FreeAut(["x"], {"x": letter("q")})
    with pytest.raises(CoxeterError, match="unknown symbol q"):
        FreeAut(["x", "y"], {"y": parse_free_word("y q x")})


def test_free_aut_products_match_the_validating_constructor():
    # a product trusts the reduced images `substitute` gives it
    rng = random.Random(71)
    for kind, n in (("A", 4), ("B", 3), ("B_ab", 3), ("I2", 5), ("D", 4)):
        model = action_model(kind, n)
        for _ in range(10):
            f, g = (composite_aut(model, [(rng.choice(model.acting), rng.choice((1, -1)))
                                          for _ in range(rng.randrange(1, 5))])
                    for _ in range(2))
            product = f * g
            rebuilt = FreeAut(model.basis, {x: f.apply(w) for x, w in g.images.items()})
            assert product == rebuilt and repr(product) == repr(rebuilt)
            assert list(product.images) == list(model.basis)


# -- the models ------------------------------------------------------------


@pytest.mark.parametrize("kind,sizes", [
    ("A", (2, 3, 4, 5)), ("B", (2, 3, 4)), ("B_ab", (2, 3, 4)),
    ("I2", (3, 4, 5, 6, 7, 8)), ("D", (3, 4, 5)),
])
def test_braid_relations(kind, sizes):
    for size in sizes:
        report = verify_braid_relations(action_model(kind, size))
        assert report["passed"], report["failures"]


def test_d_model_commutation_mode():
    report = verify_braid_relations(action_model("D", 4))
    modes = {tuple(c["pair"]): c["mode"] for c in report["checks"]}
    assert modes[("s2", "s2'")] == "modulo_commutations"
    assert all(mode == "free" for pair, mode in modes.items()
               if pair != ("s2", "s2'"))


def test_corrupted_model_fails():
    for kind, size in (("A", 3), ("B_ab", 3), ("D", 4)):
        bad = corrupted_model(action_model(kind, size))
        assert not verify_braid_relations(bad)["passed"]


def test_generic_braid_pair():
    assert generic_braid_pair()["passed"]


def test_equal_modulo_commutations():
    pairs = [(letter("a"), letter("b"))]
    w1 = parse_free_word("a b c")
    w2 = parse_free_word("b a c")
    assert equal_modulo_commutations(w1, w2, pairs)
    assert not equal_modulo_commutations(w1, parse_free_word("a c b"), pairs)


def test_abelianized_actions_are_signed_permutations():
    # conjugation-table bases only; the x/y basis of type B abelianizes to a
    # non-monomial integral representation
    for kind, size in (("A", 4), ("B_ab", 3), ("I2", 6), ("D", 4)):
        model = action_model(kind, size)
        for lab in model.acting:
            rep = abelianized_action(model, lab)
            assert rep["permutation"], (kind, lab, rep)
            images = [sym for sym, _ in rep["map"].values()]
            assert sorted(images) == sorted(model.basis)
            assert all(sign in (1, -1) for _, sign in rep["map"].values())


def test_abelianized_action_type_A_values():
    model = action_model("A", 3)
    rep = abelianized_action(model, "s1")
    assert rep["map"]["a1"] == ("a2", 1)
    assert rep["map"]["a2"] == ("a1", 1)
    assert rep["map"]["a3"] == ("a3", 1)


def test_act_is_an_action():
    model = action_model("B_ab", 3)
    rng = random.Random(4)
    labels = model.acting
    for _ in range(25):
        v = [(rng.choice(labels), rng.choice((1, -1)))
             for _ in range(rng.randrange(1, 5))]
        w = [(rng.choice(labels), rng.choice((1, -1)))
             for _ in range(rng.randrange(1, 5))]
        u = letter(rng.choice(model.basis))
        assert act(model, v + w, u) == act(model, v, act(model, w, u))


def test_act_accepts_braid_words():
    model = action_model("A", 2)
    b = BraidWord.parse(model.system, "s1 s2^-1")
    as_letters = [("s1", 1), ("s2", -1)]
    for x in model.basis:
        assert act(model, b, letter(x)) == act(model, as_letters, letter(x))


def test_composite_aut_matches_act():
    model = action_model("B", 3)
    word = [("s1", 1), ("s2", 1), ("s1", 1), ("s2", 1)]
    f = composite_aut(model, word)
    for x in model.basis:
        assert f.apply(letter(x)) == act(model, word, letter(x))
    # the closed form of (s1 s2)^2 on the x/y basis of B_3
    assert f.apply(letter("x1")) == parse_free_word("y1^-1 x3")
    assert f.apply(letter("x2")) == parse_free_word("y2^-1 x3")
    assert f.apply(letter("y1")) == parse_free_word("x1^-1 x3")
    assert f.apply(letter("y2")) == parse_free_word("x2^-1 x3")


def test_model_validation():
    with pytest.raises(CoxeterError):
        action_model("Z", 3)
    with pytest.raises(CoxeterError):
        action_model("I2", 2)
    model = action_model("A", 2)
    with pytest.raises(CoxeterError):
        model.aut("s9")


# -- towers and regressions -------------------------------------------------


def test_conj_towers():
    assert conj_tower_check("A", 4)["passed"]
    assert conj_tower_check("B", 3)["passed"]
    with pytest.raises(CoxeterError):
        conj_tower_check("D", 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_change_of_basis(n):
    report = change_of_basis_check(n)
    assert report["passed"], report["failures"]


def test_d_commutation_regression():
    report = d_commutation_regression(4)
    assert report["passed"]
    assert report["base_commutation"] and report["extra_commutation"]


def test_nontriviality_sampling():
    for kind, size in (("A", 3), ("B_ab", 3), ("I2", 5), ("D", 4)):
        report = nontriviality_sample(action_model(kind, size),
                                      samples=50, seed=0)
        assert report["passed"] and report["tested"] == 50
