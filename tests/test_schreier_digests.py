"""Byte-identity of the Schreier outputs: sha256 digests of their JSON.

`tests/data/schreier_digests.json` pins, for A3, B3, H3, A4, D4, I2(5) and
Atilde2 (truncated), the JSON of the presentations, the closed-vs-raw
crosschecks, the semidirect splittings and the devissage.  Regenerate it
(only when an output is meant to change) with

    PYTHONPATH=src python tests/test_schreier_digests.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from purebraid.coxeter import named_system
from purebraid.schreier import (
    crosscheck_closed_vs_raw,
    devissage,
    presentation_DI,
    presentation_pure,
    semidirect_split,
    standard_chain,
)

DIGESTS = pathlib.Path(__file__).parent / "data" / "schreier_digests.json"
FINITE = ("A3", "B3", "H3", "A4", "D4", "I2(5)")


def _cases(name):
    """(key, thunk giving a JSON-able output) for one system."""
    system = named_system(name)
    if name == "Atilde2":
        return [
            ("presentation_DI (s1,s2) max_length=5",
             lambda: presentation_DI(system, (0, 1), max_length=5).to_json()),
            ("presentation_pure max_length=5",
             lambda: presentation_pure(system, max_length=5).to_json()),
            ("presentation_DI (s1) max_length=4",
             lambda: presentation_DI(system, (0,), max_length=4).to_json()),
        ]
    out = [("presentation_pure", lambda: presentation_pure(system).to_json()),
           ("devissage", lambda: devissage(system, standard_chain(system)).to_json())]
    for I in [()] + [(i,) for i in range(system.rank)]:
        tag = "(" + ",".join(system.labels[i] for i in I) + ")"
        if I:
            out.append((f"presentation_DI {tag}",
                        lambda I=I: presentation_DI(system, I).to_json()))
        out.append((f"crosscheck_closed_vs_raw {tag}",
                    lambda I=I: crosscheck_closed_vs_raw(system, I)))
        out.append((f"semidirect_split {tag}",
                    lambda I=I: semidirect_split(system, I)))
    return out


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def compute(name) -> dict:
    return {key: _digest(thunk()) for key, thunk in _cases(name)}


@pytest.mark.parametrize("name", FINITE + ("Atilde2",))
def test_outputs_match_pinned_digests(name):
    pinned = json.loads(DIGESTS.read_text())[name]
    assert compute(name) == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_schreier_digests.py --write")
    doc = {name: compute(name) for name in FINITE + ("Atilde2",)}
    DIGESTS.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
