"""`aut_invert` against the closed-form inverses of every action table, and
the products it builds."""

import pytest

from inverse_oracle import closed_form_inverse
from purebraid import free_actions
from purebraid.free_actions import action_model, aut_invert

SIZES = {"A": range(1, 9), "B": range(2, 9), "B_ab": range(2, 9),
         "I2": range(3, 9), "D": range(3, 9)}


def _generators(kinds=tuple(SIZES)):
    """((kind, n, label), table) for every acting generator of the models."""
    return [((kind, n, label), model.table[label])
            for kind in kinds for n in SIZES[kind]
            for model in [action_model(kind, n)] for label in model.acting]


@pytest.mark.parametrize("kind", sorted(SIZES))
def test_aut_invert_matches_closed_forms(kind):
    for (_, n, label), f in _generators([kind]):
        assert aut_invert(f) == closed_form_inverse(kind, n, label), (n, label)


def test_closed_forms_invert_the_tables():
    # the oracle itself, checked by composition alone
    generators = _generators()
    assert len(generators) == 125
    for (kind, n, label), f in generators:
        g = closed_form_inverse(kind, n, label)
        assert (f * g).is_identity() and (g * f).is_identity(), (kind, n, label)


def test_aut_invert_multiplies_few_words(monkeypatch):
    # products are built only where letters cancel at the junction, and a
    # formal twin only for a move made; building every product and twin
    # took 185 696 calls over these 125 inversions
    tables = [f for _, f in _generators()]
    calls = []
    word_mul = free_actions.word_mul
    monkeypatch.setattr(free_actions, "word_mul",
                        lambda *parts: calls.append(1) or word_mul(*parts))
    for f in tables:
        aut_invert(f)
    assert 0 < len(calls) <= 5000
