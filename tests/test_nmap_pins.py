"""`purebraid nmap` and `admissible` outputs pinned byte for byte.

`tests/data/nmap_outputs.json` maps each argument list of `RUNS`, joined by
spaces, to what the CLI printed for it: N of braid words over B4, F4, H4,
E8 and Atilde2 (signed letters and powers, a longest element and a longest
element followed by its reverse, whose prefixes go up and then come down),
in JSON and text; the inversion-set test of `admissible`, which reads
nbar; and the sampled cocycle identity on Atilde2 under `--max-length`.
The file was written with N read off positive roots, each lowered back to
its reflection, so it pins the prefix palindromes against that route.
Regenerate it (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_nmap_pins.py --write
"""

import json
import pathlib
import sys

import pytest

from purebraid.cli import main

PINS = pathlib.Path(__file__).parent / "data" / "nmap_outputs.json"
F4_W0 = ("s1 s2 s1 s3 s2 s1 s3 s2 s3 s4 s3 s2 s1 s3 s2 s3 s4 s3 s2 s1 s3 s2 s3 "
         "s4")
H4_W0 = ("s1 s2 s1 s2 s1 s3 s2 s1 s2 s1 s3 s2 s1 s2 s3 s4 s3 s2 s1 s2 s1 s3 s2 "
         "s1 s2 s3 s4 s3 s2 s1 s2 s1 s3 s2 s1 s2 s3 s4 s3 s2 s1 s2 s1 s3 s2 s1 "
         "s2 s3 s4 s3 s2 s1 s2 s1 s3 s2 s1 s2 s3 s4")
E8_WORD = ("s5^2 s3^-2 s1^2 s6^-1 s2 s7 s2^-2 s3 s5^-2 s8 s3 s3^-2 s2^2 s6^-2 "
           "s8^2 s7^2 s2^-1 s4^-2 s6^-2 s6^-2 s2^-1 s2^2 s5^2 s8 s2^2 s4 s3^-1 "
           "s8 s1 s8 s8 s4 s2^2 s1 s5^2 s6^-1 s7^-1 s4 s6^-2 s4")
E8_REDUCED = ("s1 s2 s1 s4 s5 s4 s6 s5 s4 s3 s7 s6 s5 s8 s3 s2 s1 s4 s3 s2 s8 s3 "
              "s4 s5")
WORDS = (
    ("B4", "s1 s2 s2^2 s4 s2 s4 s2^-2 s2 s1^2 s2 s1^2 s3"),
    ("B4", "s1 s2 s1 s2 s3 s2 s1 s2 s3 s4 s3 s2 s1 s2 s3 s4"),
    ("F4", "s2^-2 s3^-2 s2^2 s2 s1^-1 s3 s3 s4 s2^-1 s1 s4^2 s3"),
    ("F4", F4_W0 + " " + " ".join(reversed(F4_W0.split()))),
    ("H4", "s4^-1 s4^-2 s2 s2^-1 s2^-2 s4 s2 s1^-1 s3^2 s1^2 s2^2 s2^-2 s4^-2 "
           "s4 s4 s4^-1 s4 s2 s1^2 s4^-2"),
    ("H4", H4_W0),
    ("E8", E8_WORD),
    ("E8", E8_REDUCED + " " + " ".join(reversed(E8_REDUCED.split()))),
    ("Atilde2", "s^-2 r s r^-2 r^-2 r^-2 s^2 s^2 t^-2 r s^2 t^-1 r^2 r^-1 s^-2"),
    ("Atilde2", "r s t r s t r s t^-1 s^-1 r^-1"),
)
SETS = (
    ("B4", "s1, s1 s2 s1, s1 s2 s3 s2 s1"),
    ("B4", "s2, s1 s2 s1"),
    ("H4", "s1, s1 s2 s1, s1 s2 s1 s2 s1"),
    ("E8", "s1, s1 s2 s1, s1 s2 s3 s2 s1"),
    ("Atilde2", "r, r s r, r s t s r"),
)
RUNS = [("nmap", "--type", name, "--word", word) for name, word in WORDS]
RUNS += [("nmap", "--type", name, "--word", word, "--format", "text")
         for name, word in WORDS[::3]]
RUNS += [("admissible", "--type", name, "--set", items) for name, items in SETS]
RUNS.append(("cocycle", "--type", "Atilde2", "--samples", "20", "--max-length", "4"))


def _output(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_nmap_output_is_pinned(capsys, argv):
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
