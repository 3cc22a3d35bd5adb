"""`presentations`: Reidemeister-Schreier presentations of small finite groups.

One job per Coxeter type, on a freshly built system, so every job pays the
cold class cache as a CLI call does.  A job runs the CLI subcommands
`pure-present`, `present --I J` and `devissage` through `purebraid.cli.main`
(stdout captured, parsed outside the timed region) and the library calls
`crosscheck_closed_vs_raw`, `presentation_pure`, `soundness_report`,
`semidirect_split` and `abelianization`.  The seed picks the one-generator
parabolic J of each job and the order of the jobs in a round.  B4 is left
out: its abelianization alone takes about 28 s and 2.7 GB.
"""

from __future__ import annotations

import contextlib
import io
import json
from types import SimpleNamespace

from common import Job, Op, job_rng, require

TYPES = ("A3", "B3", "H3", "A4", "D4", "I2(5)")
ORDER = {"A3": 24, "B3": 48, "H3": 120, "A4": 120, "D4": 192, "I2(5)": 10}
REFLECTIONS = {"A3": 6, "B3": 9, "H3": 15, "A4": 10, "D4": 12, "I2(5)": 5}
# relation counts of the pure presentation, and (generators, relations) of
# `present --I J` for any one-generator J, as the package gives them; the
# pure generators number |W| * rank / 2 (one per up-edge of the Cayley graph)
PURE_RELATIONS = {"A3": 44, "B3": 92, "H3": 236, "A4": 420, "D4": 672, "I2(5)": 8}
PRESENT_ONE = {"A3": (16, 26), "B3": (33, 55), "H3": (85, 143), "A4": (109, 267),
               "D4": (177, 432), "I2(5)": (5, 4)}


def run_cli(argv):
    from purebraid import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_cli(answer) -> dict:
    code, text = answer
    require(code == 0, f"exit code {code}")
    return json.loads(text)


def _corrupt_cli(answer):
    code, text = answer
    doc = json.loads(text)
    if "generators" in doc:
        doc["generators"] = doc["generators"][:-1]
    else:
        doc["total_pure_generators"] += 1
    return code, json.dumps(doc)


def _corrupt_report(report):
    return dict(report, passed=not report["passed"])


def _corrupt_presentation(p):
    return SimpleNamespace(generators=tuple(p.generators)[:-1], relations=p.relations)


def _corrupt_abelianization(ab):
    return dict(ab, free_rank=ab["free_rank"] + 1)


def job_ops(name: str, system, label: str) -> list:
    from purebraid import schreier

    I = (system.labels.index(label),)
    rank = system.rank
    n_pure = ORDER[name] * rank // 2
    state = {}

    def check_pure_doc(answer):
        doc = parse_cli(answer)
        require(len(doc["generators"]) == n_pure, "wrong generator count")
        require(len(doc["relations"]) == PURE_RELATIONS[name], "wrong relation count")

    def check_present_doc(answer):
        doc = parse_cli(answer)
        require((len(doc["generators"]), len(doc["relations"])) == PRESENT_ONE[name],
                "wrong presentation size")
        require({"tag": "cox", "gen": label} in doc["generators"], "J is not a generator")

    def check_devissage(answer):
        doc = parse_cli(answer)
        require(doc["total_pure_generators"] == REFLECTIONS[name], "total is not |T|")
        require(sum(level["count"] for level in doc["levels"])
                == doc["total_pure_generators"], "levels do not add up")

    def check_crosscheck(rep):
        require(rep["passed"] and rep["checked"] > 0, "closed forms disagree with rewriting")

    def presentation_pure():
        state["p"] = schreier.presentation_pure(system)
        return state["p"]

    def check_presentation(p):
        require(len(p.generators) == n_pure and len(p.relations) == PURE_RELATIONS[name],
                "wrong presentation size")

    def check_soundness(rep):
        require(rep["passed"] and rep["checked"] == PURE_RELATIONS[name],
                "relation fails the (N, p) certificate")

    def check_split(rep):
        require(rep["passed"], "semidirect splitting fails")
        require(len(rep["normal_generators"]) == PRESENT_ONE[name][0] - 1,
                "wrong number of normal generators")

    def check_abelianization(ab):
        require(ab["free_rank"] == REFLECTIONS[name] and not ab["torsion"],
                "abelianization is not free of rank |T|")

    return [
        Op("cli.pure-present", name, lambda: run_cli(["pure-present", "--type", name]),
           check_pure_doc, _corrupt_cli),
        Op("cli.present", name,
           lambda: run_cli(["present", "--type", name, "--I", label]),
           check_present_doc, _corrupt_cli),
        Op("cli.devissage", name, lambda: run_cli(["devissage", "--type", name]),
           check_devissage, _corrupt_cli),
        Op("crosscheck_closed_vs_raw", name,
           lambda: schreier.crosscheck_closed_vs_raw(system, I),
           check_crosscheck, _corrupt_report),
        Op("presentation_pure", name, presentation_pure, check_presentation,
           _corrupt_presentation),
        Op("soundness_report", name, lambda: schreier.soundness_report(state["p"]),
           check_soundness, _corrupt_report),
        Op("semidirect_split", name, lambda: schreier.semidirect_split(system, I),
           check_split, _corrupt_report),
        Op("abelianization", name, lambda: schreier.abelianization(state["p"]),
           check_abelianization, _corrupt_abelianization),
    ]


class Workload:
    name = "presentations"
    trace_rounds = 1  # rounds of a --trace 1 run

    def warmup(self) -> None:
        """Every operation once on A2; this also makes the lazy imports
        (sympy) that the operations trigger."""
        from purebraid import schreier
        from purebraid.coxeter import named_system

        for argv in (["pure-present"], ["present", "--I", "s1"], ["devissage"]):
            run_cli(argv[:1] + ["--type", "A2"] + argv[1:])
        system = named_system("A2")
        schreier.crosscheck_closed_vs_raw(system, (0,))
        schreier.semidirect_split(system, (0,))
        p = schreier.presentation_pure(system)
        schreier.soundness_report(p)
        schreier.abelianization(p)

    def jobs(self, seed: int):
        """One job per type; the jobs of a round share `round`."""
        from purebraid.coxeter import named_system

        round_no = 0
        while True:
            rng = job_rng(seed, round_no)
            order = list(TYPES)
            rng.shuffle(order)
            for name in order:
                system = named_system(name)
                label = system.labels[rng.randrange(system.rank)]
                yield Job(job_ops(name, system, label), round_no, [system])
            round_no += 1
