import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from purebraid import cli, free_actions
from purebraid.cli import _sampler, main
from purebraid.coxeter import named_system, subsystem

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nmap_json(capsys):
    code, out, _ = run(capsys, "nmap", "--type", "A2", "--word", "s1 s2^-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "s1 s2^-1"
    assert doc["vector"] == {"s1": 1, "s1 s2 s1": -1}


def test_admissible_positive_and_negative(capsys):
    code, out, _ = run(capsys, "admissible", "--type", "A2",
                       "--set", "s1, s1 s2 s1")
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] and doc["witness"] == "s1 s2"
    code, out, _ = run(capsys, "admissible", "--type", "A2",
                       "--set", "s1 s2 s1")
    assert code == 0 and not json.loads(out)["admissible"]
    # the set {s1}, named twice, is reported once
    code, out, _ = run(capsys, "admissible", "--type", "A2", "--set", "s1, s1")
    assert code == 0
    assert json.loads(out) == {"admissible": True, "witness": "s1", "set": ["s1"]}


def test_admissible_exits_1_on_a_wrong_witness(capsys, monkeypatch):
    # the witness check holds under python -O, where asserts are stripped
    monkeypatch.setattr(cli, "nbar", lambda w: set())
    code, out, err = run(capsys, "admissible", "--type", "A2", "--set", "s1, s1 s2 s1")
    assert (code, out) == (1, "")
    assert "the witness s1 s2 does not have the set as its inversion set" in err


def test_admissible_empty_set_is_the_inversion_set_of_e(capsys):
    for text in ("", " "):
        code, out, _ = run(capsys, "admissible", "--type", "A3", "--set", text)
        assert code == 0
        assert json.loads(out) == {"admissible": True, "witness": "e", "set": []}


@pytest.mark.parametrize("text,item", [("s1,,s2", 2), ("s1, ", 2), (",s1", 1)])
def test_admissible_names_the_empty_item(capsys, text, item):
    code, out, err = run(capsys, "admissible", "--type", "A3", "--set", text)
    assert (code, out) == (2, "")
    assert f"item {item} of --set {text!r} is empty" in err


def test_present_json_and_text(capsys):
    code, out, _ = run(capsys, "present", "--type", "A3", "--I", "s1,s2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 5 and len(doc["relations"]) == 7
    code, out, _ = run(capsys, "present", "--type", "A3", "--I", "s1,s2",
                       "--format", "text")
    assert code == 0 and out.startswith("< ")


def test_pure_present_matches_golden(capsys):
    code, out, _ = run(capsys, "pure-present", "--type", "A2")
    assert code == 0
    golden = (DATA / "a2_pure_presentation.json").read_text()
    assert out == golden
    # byte stability
    code, out2, _ = run(capsys, "pure-present", "--type", "A2")
    assert out2 == out


def _run_cli_into(stdout, unbuffered, *argv):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    return subprocess.run([sys.executable, "-m", "purebraid.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=120)


# B3's pure presentation fails in the middle of the writes, A2's in the flush
# that ends main; buffered, what is left in the buffer must not fail again at
# shutdown
_WRITE_FAILURES = [(unbuffered, argv) for unbuffered in (False, True) for argv in (
    ("pure-present", "--type", "B3"),
    ("present", "--type", "A2", "--I", "s1", "--format", "text"))]


@pytest.mark.parametrize("unbuffered,argv", _WRITE_FAILURES)
def test_closed_output_pipe_is_one_error_line(unbuffered, argv):
    # as in `purebraid pure-present --type F4 | head -1`: the reader is gone
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_cli_into(write, unbuffered, *argv)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered,argv", _WRITE_FAILURES)
def test_full_output_device_is_one_error_line(unbuffered, argv):
    with open("/dev/full", "w") as full:
        done = _run_cli_into(full, unbuffered, *argv)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


def test_devissage(capsys):
    code, out, _ = run(capsys, "devissage", "--type", "B3")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_pure_generators"] == 9


def test_devissage_text_marks_each_level(capsys):
    # each level is one "- " item; the empty I of the first level reads []
    code, out, _ = run(capsys, "devissage", "--type", "A3", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    levels = lines[lines.index("levels:") + 1:lines.index("total_pure_generators: 6")]
    assert [line for line in levels if not line.startswith("    ")] \
        == ["  - I: []", "  - I:", "  - I:"]


def test_verify_actions(capsys):
    code, out, _ = run(capsys, "verify-actions", "--kind", "A", "--n", "3",
                       "--samples", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["controls"]["corrupted_fails"]


@pytest.mark.parametrize("kind, n", [("I2", "5"), ("B", "2"), ("A", "1")])
def test_verify_actions_single_acting_generator(capsys, kind, n):
    # no braid relation, so the corrupted-model control is not run
    code, out, _ = run(capsys, "verify-actions", "--kind", kind, "--n", n,
                       "--samples", "10")
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert doc["braid_relations"]["checks"] == []
    assert doc["controls"]["corrupted_fails"] is None


@pytest.mark.parametrize("kind, n, inversions", [("B_ab", "7", 12), ("A", "7", 14)])
def test_verify_actions_inverts_each_generator_once_per_model(capsys, monkeypatch,
                                                              kind, n, inversions):
    # the model and its corrupted copy each invert every acting generator
    # once: the braid check and the nontriviality sample share the inverse
    calls = []
    invert = free_actions.aut_invert
    monkeypatch.setattr(free_actions, "aut_invert",
                        lambda f: calls.append(1) or invert(f))
    code, out, _ = run(capsys, "verify-actions", "--kind", kind, "--n", n)
    assert code == 0 and json.loads(out)["passed"]
    assert len(calls) == inversions


def test_verify_actions_text(capsys):
    code, out, _ = run(capsys, "verify-actions", "--kind", "D", "--n", "4",
                       "--samples", "10", "--format", "text")
    assert code == 0
    assert "passed: True" in out
    assert "modulo_commutations" in out


def test_verify_embedding(capsys):
    code, out, _ = run(capsys, "verify-embedding", "--n", "2",
                       "--samples", "30")
    assert code == 0
    assert json.loads(out)["passed"]


def test_cocycle_direct(capsys):
    code, out, _ = run(capsys, "cocycle", "--type", "A2",
                       "--v", "s1", "--w", "s1")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"s1": 2} and doc["all_even"]


def test_cocycle_verification(capsys):
    code, out, _ = run(capsys, "cocycle", "--type", "B2", "--samples", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["diagonal_is_2s"]


def test_oracle_check_permutation_and_matrix(capsys):
    code, out, _ = run(capsys, "oracle-check", "--type", "A3",
                       "--samples", "100")
    assert code == 0
    assert json.loads(out)["oracle"] == "permutation"
    code, out, _ = run(capsys, "oracle-check", "--type", "Atilde2",
                       "--samples", "50", "--max-length", "4")
    assert code == 0
    assert json.loads(out)["oracle"] == "matrix"


@pytest.mark.parametrize("argv", [
    ["--type", "H3"], ["--type", "I2(5)"], ["--type", "H4", "--max-length", "6"],
], ids=" ".join)
def test_oracle_check_bond_5(capsys, argv):
    code, out, _ = run(capsys, "oracle-check", "--samples", "50", *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"] == "matrix" and doc["passed"]


def test_oracle_check_fails_on_a_corrupted_generator_matrix(capsys, monkeypatch):
    class Corrupted(cli.MatrixOracle):
        def __init__(self, system):
            super().__init__(system)
            # a_12 = -2 instead of -1: s1 s2 no longer has order 5
            mat = [list(r) for r in self.gen_mats[0]]
            mat[0][1] = mat[0][1] + 1
            self.gen_mats[0] = tuple(map(tuple, mat))

    monkeypatch.setattr(cli, "MatrixOracle", Corrupted)
    code, out, _ = run(capsys, "oracle-check", "--type", "H3", "--samples", "50")
    assert code == 1 and json.loads(out)["failures"]


@pytest.mark.parametrize("argv", [
    ["--type", "D5", "--samples", "200"], ["--type", "E6", "--samples", "20"],
], ids=" ".join)
def test_oracle_check_reaches_uniform_elements_of_D5_and_E6(capsys, argv):
    # uniform elements of length up to 20 (D5) and 36 (E6), with no cap
    code, out, _ = run(capsys, "oracle-check", *argv)
    assert code == 0 and json.loads(out)["passed"]


def test_oracle_check_and_cocycle_without_listing_W(capsys):
    for argv in (["oracle-check", "--type", "F4", "--samples", "3"],
                 ["cocycle", "--type", "B3", "--samples", "5"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["passed"], argv


class _Scripted:
    """A stand-in for random.Random whose choices follow a given list."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def choice(self, seq):
        return seq[next(self.picks)]


@pytest.mark.parametrize("name", ["B3", "D4", "H3", "I2(5)"])
def test_sampler_is_uniform_over_W(name):
    # every combination of one choice per level gives a different element
    system = named_system(name)
    orders = [1] + [len(subsystem(system, range(k)).elements())
                    for k in range(1, system.rank + 1)]
    sizes = [b // a for a, b in zip(orders, orders[1:])]
    picks = [i for choice in itertools.product(*map(range, sizes)) for i in choice]
    draw = _sampler(system, None, _Scripted(picks))
    assert sorted(draw() for _ in range(orders[-1])) == system.elements()


def test_sampler_with_max_length_draws_from_the_capped_pool():
    system = named_system("Atilde2")
    pool = list(system.enumerate_elements(max_length=4))
    draw = _sampler(system, 4, random.Random(3))
    rng = random.Random(3)
    assert [draw() for _ in range(20)] == [pool[rng.randrange(len(pool))] for _ in range(20)]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nmap", "--type", "Z9", "--word", "s1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "present", "--type", "Atilde2")
    assert code == 2  # infinite system without --max-length
    code, _, err = run(capsys, "present", "--type", "A2", "--I", "s9")
    assert code == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "pure-present", "--type", "Atilde2",
                       "--format", "text", "--max-length", "3")
    assert code == 0 and out.startswith("< ")
    # the same subcommand without the flags gets their defaults back:
    # JSON, and no cap, which a finite system accepts
    code, out, _ = run(capsys, "pure-present", "--type", "A3")
    assert code == 0 and not json.loads(out)["partial"]
    code, out, err = run(capsys, "pure-present", "--type", "A3", "--no-such-flag")
    assert (code, out) == (2, "") and "error" in err


@pytest.mark.parametrize("argv", [
    ["nmap", "--type", "A3", "--word", "s1^x"],
    ["nmap", "--type", "A3", "--word", "s1^"],
    ["nmap", "--type", "A3", "--word", "s9"],
    ["nmap", "--type", "A3", "--word", "s1^99999999999"],
    ["nmap", "--type", "Z9", "--word", "s1"],
    ["cocycle", "--type", "A3", "--v", "s1"],
    ["cocycle", "--type", "A3", "--w", "s1"],
    ["cocycle", "--type", "A3", "--v", "s9", "--w", "s1"],
    ["admissible", "--type", "A3", "--set", "s9"],
    ["present", "--type", "A2", "--I", "s9"],
    ["present", "--type", "Atilde2"],
    ["present", "--type", "A3", "--max-length", "-1"],
    ["devissage", "--type", "Atilde2"],
    ["devissage", "--type", "A3", "--max-length", "4"],
    ["cocycle", "--type", "B2", "--samples", "-5"],
    ["oracle-check", "--type", "A3", "--samples", "-1"],
    ["oracle-check", "--type", "I2(7)", "--samples", "5"],
    ["verify-actions", "--kind", "A", "--n", "2", "--samples", "-3"],
    ["nmap", "--type", "A3", "--word", "s1", "--max-length", "3"],
    ["admissible", "--type", "A3", "--set", "s1", "--max-length", "3"],
    ["verify-actions", "--kind", "A", "--n", "2", "--max-length", "3"],
    ["verify-embedding", "--n", "3", "--samples", "5", "--max-length", "2"],
    ["nmap", "--type", "A2", "--word", "s1", "--seed", "5"],
    ["admissible", "--type", "A3", "--set", "s1", "--seed", "5"],
    ["present", "--type", "A3", "--seed", "5"],
    ["pure-present", "--type", "A3", "--seed", "5"],
    ["devissage", "--type", "A3", "--seed", "5"],
    ["admissible", "--type", "A3", "--set", "s1,,s2"],
    ["admissible", "--type", "A3", "--set", "s1, "],
    ["no-such-command"],
], ids=" ".join)
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error" in err
