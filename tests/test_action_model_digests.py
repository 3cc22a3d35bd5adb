"""The action tables of `action_model`, pinned by sha256 digests.

`tests/data/action_model_digests.json` pins, for A 1-8, B 2-8, B_ab 2-8,
I2 3-8 and D 3-8, the free basis, the acting labels, the image of every
basis symbol under every acting generator, and the commuting pairs of the
type D model.  `tests/data/action_inverse_digests.json` pins the inverse
`aut_invert` gives for each of those 125 acting generators.

Regenerate the digests (only when a table is meant to change) with

    PYTHONPATH=src python tests/test_action_model_digests.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from purebraid.free_actions import action_model, aut_invert

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "action_model_digests.json"
INVERSE_DIGESTS = DATA / "action_inverse_digests.json"
SIZES = {"A": range(1, 9), "B": range(2, 9), "B_ab": range(2, 9),
         "I2": range(3, 9), "D": range(3, 9)}


def _doc(model) -> dict:
    return {
        "basis": list(model.basis),
        "acting": list(model.acting),
        "table": {label: {x: [list(l) for l in model.table[label].images[x]]
                          for x in model.basis}
                  for label in model.acting},
        "commutations": [[[list(l) for l in w] for w in pair]
                         for pair in model.commutations],
    }


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def compute(kind) -> dict:
    return {str(n): _digest(_doc(action_model(kind, n))) for n in SIZES[kind]}


def compute_inverses(kind) -> dict:
    out = {}
    for n in SIZES[kind]:
        model = action_model(kind, n)
        out[str(n)] = {label: _digest({x: [list(l) for l in g.images[x]]
                                       for x in model.basis})
                       for label in model.acting
                       for g in [aut_invert(model.table[label])]}
    return out


@pytest.mark.parametrize("kind", sorted(SIZES))
def test_action_models_match_pinned_digests(kind):
    assert compute(kind) == json.loads(DIGESTS.read_text())[kind]


@pytest.mark.parametrize("kind", sorted(SIZES))
def test_inverses_match_pinned_digests(kind):
    assert compute_inverses(kind) == json.loads(INVERSE_DIGESTS.read_text())[kind]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_action_model_digests.py --write")
    for path, fn in ((DIGESTS, compute), (INVERSE_DIGESTS, compute_inverses)):
        doc = {kind: fn(kind) for kind in sorted(SIZES)}
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
