"""The relation instances of the Schreier presentations, pinned by sha256 digests.

`tests/data/schreier_instance_digests.json` pins the JSON of
  - `presentation_DI` for every I with |I| >= 2 (I = S included) of A3, B3,
    H3, D4 and I2(5), with family1_top True and False;
  - `presentation_pure` of A3 at max_length 3..6, B3 at 8 and I2(5) at 4: a
    truncated walk, whose presentation is complete (`partial` false) except
    for A3 at 3 and 4;
  - for four hyperbolic triangle groups at every max_length 0..6,
    `presentation_DI` and `crosscheck_closed_vs_raw` for every I with
    |I| <= 2.
The same cases, with a few edge presentations, check that
`Presentation.write_json` writes the bytes of the indented `to_json` and
`write_text` those of the "< generators | relations >" line.

Regenerate the digests (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_schreier_instance_digests.py --write
"""

import hashlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from purebraid.coxeter import named_system, system_from_json
from purebraid.schreier import (
    Presentation,
    crosscheck_closed_vs_raw,
    presentation_DI,
    presentation_pure,
    symbol_key,
    symbol_str,
    word_key,
    word_str,
)

DIGESTS = pathlib.Path(__file__).parent / "data" / "schreier_instance_digests.json"
FINITE = ("A3", "B3", "H3", "D4", "I2(5)")
TRUNCATED_PURE = (("A3", 3), ("A3", 4), ("A3", 5), ("A3", 6), ("B3", 8), ("I2(5)", 4))
# the bonds of the triangle groups, as in test_reflection_digests
TRIANGLES = ((7, None, 2), (4, 4, 3), (7, 3, None), (5, 5, 5))
INFINITE = tuple("triangle " + "-".join(str(m or "inf") for m in t) for t in TRIANGLES)


def _system(name):
    if name.startswith("triangle "):
        a, b, c = TRIANGLES[INFINITE.index(name)]
        return system_from_json(json.dumps({"rank": 3, "m": [[1, a, b], [a, 1, c], [b, c, 1]]}))
    return named_system(name)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _tag(system, I) -> str:
    return "(" + ",".join(system.labels[i] for i in I) + ")"


def _cases(name):
    """(key, thunk giving a Presentation or a JSON-able report) for one
    system."""
    system = _system(name)
    out = []
    if name in FINITE:
        for k in range(2, system.rank + 1):
            for I in itertools.combinations(range(system.rank), k):
                for top in (True, False):
                    out.append((f"presentation_DI {_tag(system, I)} family1_top={top}",
                                lambda I=I, top=top: presentation_DI(
                                    system, I, family1_top=top)))
        out += [(f"presentation_pure max_length={n}",
                 lambda n=n: presentation_pure(system, max_length=n))
                for other, n in TRUNCATED_PURE if other == name]
        return out
    for n in range(7):
        for k in range(3):
            for I in itertools.combinations(range(system.rank), k):
                tag = f"{_tag(system, I)} max_length={n}"
                out.append((f"presentation_DI {tag}", lambda I=I, n=n: presentation_DI(
                    system, I, max_length=n)))
                out.append((f"crosscheck_closed_vs_raw {tag}",
                            lambda I=I, n=n: crosscheck_closed_vs_raw(system, I, max_length=n)))
    return out


def compute(name) -> dict:
    out = {key: thunk() for key, thunk in _cases(name)}
    return {key: _digest(x.to_json() if isinstance(x, Presentation) else x)
            for key, x in out.items()}


@pytest.mark.parametrize("name", FINITE + INFINITE)
def test_relation_instances_match_pinned_digests(name):
    assert compute(name) == json.loads(DIGESTS.read_text())[name]


@pytest.mark.parametrize("name", FINITE + INFINITE)
def test_presentations_come_in_symbol_order(name):
    # the presentation is built and sorted on letter codes: their order must
    # be the order of the symbols, by symbol_key and word_key
    for key, thunk in _cases(name):
        if key.startswith("crosscheck"):
            continue
        p = thunk()
        pure = p.generators[len(p.I):]
        assert list(pure) == sorted(pure, key=symbol_key), key
        keys = [(word_key(u), word_key(v)) for u, v in p.relations]
        assert keys == sorted(set(keys)), key


def _written(writer) -> str:
    out = io.StringIO()
    writer(out.write)
    return out.getvalue()


def _check_writers(p, key):
    assert _written(p.write_json) == json.dumps(p.to_json(), sort_keys=True, indent=2) + "\n", key
    gens = ", ".join(symbol_str(p.system, g) for g in p.generators)
    rels = ", ".join(f"{word_str(p.system, u)} = {word_str(p.system, v)}" for u, v in p.relations)
    assert _written(p.write_text) == f"< {gens} | {rels} >\n", key


@pytest.mark.parametrize("name", FINITE + INFINITE)
def test_writers_give_the_indented_json_and_the_text_line(name):
    for key, thunk in _cases(name):
        if not key.startswith("crosscheck"):
            _check_writers(thunk(), key)


@pytest.mark.parametrize("name", FINITE + INFINITE)
def test_presentations_rebuilt_from_symbol_words_are_the_same(name):
    # presentation_DI hands its letter codes over as they are; the same
    # presentation encoded from its words of symbols must carry the same
    # codes and write the same bytes
    for key, thunk in _cases(name):
        if key.startswith("crosscheck"):
            continue
        p = thunk()
        q = Presentation(p.system, p.I, p.generators, p.relations, p.partial)
        assert q.codes == p.codes and q.relations == p.relations, key
        assert q.to_json() == p.to_json(), key
        assert _written(q.write_json) == _written(p.write_json), key
        assert _written(q.write_text) == _written(p.write_text), key


def test_writers_on_edge_presentations():
    # I = S of the finite types is among the cases above
    a1, affine = named_system("A1"), named_system("Atilde2")
    cases = {
        "A1 pure (no relation)": presentation_pure(a1),
        "A1 I=S": presentation_DI(a1, (0,)),
        "Atilde2 pure max_length=3 (partial)": presentation_pure(affine, max_length=3),
    }
    assert not cases["A1 pure (no relation)"].relations
    assert cases["Atilde2 pure max_length=3 (partial)"].partial
    for key, p in cases.items():
        _check_writers(p, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_schreier_instance_digests.py --write")
    doc = {name: compute(name) for name in FINITE + INFINITE}
    DIGESTS.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
