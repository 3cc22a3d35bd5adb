"""`purebraid cocycle` outputs pinned byte for byte.

`tests/data/cocycle_outputs.json` maps each argument list of `RUNS`, joined
by spaces, to what the CLI printed for it: c(v, w) for pairs (v, w) in B3,
H3, E8 and Atilde2, among them v = e, w = v^-1 and v = w = w0, and the
sampled verification of B3.  The file was written with the cocycle computed
as the fold N(lift(v) lift(w) lift(vw)^-1), so it pins the intersection
2 (N(v) & v N(w) v^-1) against that route.  Regenerate it (only when an
output is meant to change) with

    PYTHONPATH=src python tests/test_cocycle_pins.py --write
"""

import json
import pathlib
import sys

import pytest

from purebraid.cli import main

PINS = pathlib.Path(__file__).parent / "data" / "cocycle_outputs.json"
B3_W0 = "s1 s2 s1 s2 s3 s2 s1 s2 s3"
H3_W0 = "s1 s2 s1 s2 s1 s3 s2 s1 s2 s1 s3 s2 s1 s2 s3"
E8_U = "s1 s2 s1 s4 s5 s4 s6 s5 s4 s3 s7 s6 s5 s8 s3 s2 s1 s4 s3 s2 s8 s3 s4 s5"
E8_V = ("s1 s4 s3 s5 s4 s3 s6 s7 s6 s5 s8 s3 s2 s1 s4 s3 s2 s5 s4 s3 s6 s5 s7 "
        "s6 s8 s3 s2 s1 s4 s3")
E8_W = "s2 s1 s3 s2 s1 s4 s5 s4 s3 s6 s5 s7 s6 s5 s8 s3 s2 s4"
PAIRS = (
    ("B3", "s1 s2 s3 s2 s1", "s1 s2 s3 s2 s1"),
    ("B3", "s2", "s2 s3 s2"),
    ("B3", B3_W0, "s3 s2 s1"),
    ("B3", B3_W0, B3_W0),
    ("B3", "", "s1 s2"),
    ("H3", "s3 s2 s1 s2 s3", "s2 s1 s3"),
    ("H3", "s1 s3 s2 s1 s2 s1 s3", "s3 s2 s1 s2 s1"),
    ("H3", H3_W0, H3_W0),
    ("H3", "s1 s2 s3", ""),
    ("E8", E8_U, E8_V),
    ("E8", E8_V, E8_W),
    ("E8", E8_W, "s2 s1 s6 s5 s7 s6 s5 s4"),
    ("E8", E8_U, " ".join(reversed(E8_U.split()))),
    ("Atilde2", "s t r s r t r s r", "r s t r"),
    ("Atilde2", "r t r s", "s t"),
    ("Atilde2", "r s r t s r", "s t r s r t r s r"),
)
RUNS = [("cocycle", "--type", name, "--v", v, "--w", w) for name, v, w in PAIRS]
RUNS.append(("cocycle", "--type", "B3", "--samples", "50"))


def _output(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_cocycle_output_is_pinned(capsys, argv):
    assert _output(capsys, argv) == json.loads(PINS.read_text())[" ".join(argv)]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import contextlib
    import io

    outputs = {}
    for argv in RUNS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(list(argv)) == 0
        outputs[" ".join(argv)] = buffer.getvalue()
    PINS.write_text(json.dumps(outputs, indent=1) + "\n")
