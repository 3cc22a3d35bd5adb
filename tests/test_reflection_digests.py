"""The reflections and their palindromic witnesses, pinned by sha256 digests.

`tests/data/reflection_digests.json` pins, for A4, B4, D5, F4, H3 and I2(7),
and for Atilde2 and four hyperbolic triangle groups at every max_length
0..9, the list `reflections()` returns as (element, witness_u, witness_s)
words, and `palindromize` of each of its reflections.  Regenerate it (only
when an output is meant to change) with

    PYTHONPATH=src python tests/test_reflection_digests.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from purebraid.coxeter import named_system, palindromize, reflections, system_from_json

DIGESTS = pathlib.Path(__file__).parent / "data" / "reflection_digests.json"
FINITE = ("A4", "B4", "D5", "F4", "H3", "I2(7)")
# the bonds of the triangle groups, as in test_walk_matches_the_closure_walk
TRIANGLES = ((7, None, 2), (7, 3, None), (4, 4, 3), (5, 5, 5))
INFINITE = ("Atilde2",) + tuple("triangle " + "-".join(str(m or "inf") for m in t)
                                for t in TRIANGLES)


def _system(name):
    if name.startswith("triangle "):
        a, b, c = TRIANGLES[INFINITE.index(name) - 1]
        return system_from_json(json.dumps({"rank": 3, "m": [[1, a, b], [a, 1, c], [b, c, 1]]}))
    return named_system(name)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _outputs(system, max_length=None) -> dict:
    refls = reflections(system, max_length)
    witnesses = [palindromize(r.element) for r in refls]
    return {
        "reflections": _digest([[r.element.word, r.witness_u.word, r.witness_s]
                                for r in refls]),
        "palindromize": _digest([[u.word, s] for u, s in witnesses]),
    }


def compute(name) -> dict:
    system = _system(name)
    if name in FINITE:
        return _outputs(system)
    return {f"max_length={k} {key}": value for k in range(10)
            for key, value in _outputs(system, k).items()}


@pytest.mark.parametrize("name", FINITE + INFINITE)
def test_reflections_match_pinned_digests(name):
    assert compute(name) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_reflection_digests.py --write")
    doc = {name: compute(name) for name in FINITE + INFINITE}
    DIGESTS.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
