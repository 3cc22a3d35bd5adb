"""The action tables of `action_model`, pinned by sha256 digests.

`tests/data/action_model_digests.json` pins, for A 1-8, B 2-8, B_ab 2-8,
I2 3-8 and D 3-8, the free basis, the acting labels, the image of every
basis symbol under every acting generator, and the commuting pairs of the
type D model.

Regenerate the digests (only when a table is meant to change) with

    PYTHONPATH=src python tests/test_action_model_digests.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from purebraid.free_actions import action_model

DIGESTS = pathlib.Path(__file__).parent / "data" / "action_model_digests.json"
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


def compute(kind) -> dict:
    return {str(n): hashlib.sha256(json.dumps(_doc(action_model(kind, n)),
                                              sort_keys=True).encode()).hexdigest()
            for n in SIZES[kind]}


@pytest.mark.parametrize("kind", sorted(SIZES))
def test_action_models_match_pinned_digests(kind):
    assert compute(kind) == json.loads(DIGESTS.read_text())[kind]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_action_model_digests.py --write")
    doc = {kind: compute(kind) for kind in sorted(SIZES)}
    DIGESTS.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
