"""`aut_invert` against the closed-form inverses of every action table and
of products of them, its rejections, and the products it builds."""

import random

import pytest

from inverse_oracle import closed_form_inverse
from purebraid import free_actions
from purebraid.coxeter import CoxeterError
from purebraid.free_actions import FreeAut, action_model, aut_invert
from purebraid.freeword import parse_free_word

SIZES = {"A": range(1, 9), "B": range(2, 9), "B_ab": range(2, 9),
         "I2": range(3, 9), "D": range(3, 9)}
LARGE = {"A": 40, "B": 40, "B_ab": 40, "I2": 12, "D": 40}


def _generators(kinds=tuple(SIZES), sizes=SIZES):
    """((kind, n, label), table) for every acting generator of the models."""
    return [((kind, n, label), model.table[label])
            for kind in kinds for n in sizes[kind]
            for model in [action_model(kind, n)] for label in model.acting]


@pytest.mark.parametrize("kind", sorted(SIZES))
def test_aut_invert_matches_closed_forms(kind):
    sizes = {kind: [*SIZES[kind], LARGE[kind]]}
    for (_, n, label), f in _generators([kind], sizes):
        assert aut_invert(f) == closed_form_inverse(kind, n, label), (n, label)


@pytest.mark.parametrize("kind", sorted(SIZES))
def test_aut_invert_matches_closed_forms_of_products(kind):
    # f = f_1 ... f_k over the tables and their closed-form inverses
    # inverts to f_k^-1 ... f_1^-1
    rng = random.Random(31)
    for n in range(3, 8):
        model = action_model(kind, n)
        pairs = {label: (model.table[label], closed_form_inverse(kind, n, label))
                 for label in model.acting}
        for _ in range(8):
            f = g = FreeAut.identity(model.basis)
            for _ in range(rng.randrange(1, 7)):
                factor, inverse = pairs[rng.choice(model.acting)]
                if rng.random() < 0.5:
                    factor, inverse = inverse, factor
                f, g = f * factor, inverse * g
            assert aut_invert(f) == g, (n, f)


@pytest.mark.parametrize("images,message", [
    ({"x": "y", "y": "y"}, "image collapses"),
    ({"x": ""}, "image collapses"),
    ({"x": "x y x"}, "is not a basis letter"),
    ({"x": "x y x^-1 y^-1"}, "is not a basis letter"),
])
def test_aut_invert_rejections_keep_their_messages(images, message):
    f = FreeAut(["x", "y"], {x: parse_free_word(w) for x, w in images.items()})
    with pytest.raises(CoxeterError, match=message):
        aut_invert(f)


def test_closed_forms_invert_the_tables():
    # the oracle itself, checked by composition alone
    generators = _generators()
    assert len(generators) == 125
    for (kind, n, label), f in generators:
        g = closed_form_inverse(kind, n, label)
        assert (f * g).is_identity() and (g * f).is_identity(), (kind, n, label)


def test_aut_invert_multiplies_few_words(monkeypatch):
    # products are built only where half of the factor cancels at the
    # junction, and a formal twin only for a move made; building every
    # product and twin took 185 696 calls over these 125 inversions
    tables = [f for _, f in _generators()]
    calls = []
    word_mul = free_actions.word_mul
    monkeypatch.setattr(free_actions, "word_mul",
                        lambda *parts: calls.append(1) or word_mul(*parts))
    for f in tables:
        aut_invert(f)
    assert 0 < len(calls) <= 5000
