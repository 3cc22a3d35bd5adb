"""Batch command-line front end.

Every subcommand prints a deterministic report (JSON or text) and exits with
0 on success/pass, 1 when a verification report contains a failure, and 2 on
usage errors.  Randomized checks take an explicit --seed.  `present` and
`pure-present` stream their output in pieces (`Presentation.write_json`,
`write_text`).  When the output cannot be written (a closed pipe, as under
`| head -1`, or a full disk), the command prints one line
"error: cannot write output: ..." on stderr, no traceback, and exits with 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Optional

from .braid import BraidWord
from .coxeter import CoxeterError, CoxeterSystem, named_system, subsystem
from .free_actions import (
    abelianized_action,
    action_model,
    corrupted_model,
    generic_braid_pair,
    nontriviality_sample,
    verify_braid_relations,
)
from .embedding import embedding_report
from .nmap import (
    cocycle,
    eval_N,
    is_admissible,
    nbar,
    splitting_parity_witness,
)
from .oracles import MatrixOracle, PermutationOracle
from .schreier import devissage, presentation_DI, presentation_pure, standard_chain


def _system(name: str) -> CoxeterSystem:
    try:
        return named_system(name)
    except CoxeterError as exc:
        raise UsageError(str(exc))


class UsageError(Exception):
    pass


def _count(text: str) -> int:
    """argparse type of --samples and --max-length: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _parse_I(system: CoxeterSystem, text: Optional[str]) -> tuple:
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in system.labels:
            raise UsageError(f"unknown generator {tok!r} for {system.name}")
        out.append(system.labels.index(tok))
    return tuple(sorted(set(out)))


def _need_cap(system: CoxeterSystem, max_length: Optional[int]):
    if max_length is None and not system.is_finite():
        raise UsageError(f"{system.name} is infinite; --max-length is required")


def _sampler(system: CoxeterSystem, max_length: Optional[int], rng: random.Random):
    """A function drawing uniform random elements: of length <= max_length
    if given, else of all of W (finite), as v_1 ... v_n with v_k uniform
    among the minimal coset representatives of W_{k-1} = <s_1..s_{k-1}> in
    W_k, which never lists W itself."""
    if max_length is not None:
        pool = list(system.enumerate_elements(max_length=max_length))
        return lambda: rng.choice(pool)
    levels = [list(subsystem(system, range(k)).enumerate_elements(I=range(k - 1)))
              for k in range(1, system.rank + 1)]
    # the first k labels of W_k are those of W, so words carry over as they are
    return lambda: system.normal_form(
        tuple(s for level in levels for s in rng.choice(level).word))


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(_default_text(doc))


def _emit_presentation(p, fmt: str) -> int:
    (p.write_text if fmt == "text" else p.write_json)(sys.stdout.write)
    return 0


def _default_text(doc) -> str:
    lines = []

    def walk(node, indent):
        if isinstance(node, dict):
            for k in sorted(node):
                v = node[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(" " * indent + f"{k}:")
                    walk(v, indent + 2)
                else:
                    lines.append(" " * indent + f"{k}: {v}")
        elif isinstance(node, list):
            for v in node:
                if isinstance(v, dict) and v:
                    # the item's first key takes the "- " marker
                    start = len(lines)
                    walk(v, indent + 2)
                    lines[start] = " " * indent + "- " + lines[start][indent + 2:]
                elif isinstance(v, list):
                    lines.append(" " * indent + "- [" +
                                 ", ".join(str(x) for x in v) + "]")
                else:
                    lines.append(" " * indent + f"- {v}")

    walk(doc, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands (each returns the exit code)


def cmd_nmap(args) -> int:
    system = _system(args.type)
    b = BraidWord.parse(system, args.word)
    vec = eval_N(b)
    doc = {"word": str(b), "vector": vec.to_json(), "projection": str(b.project())}
    _emit(doc, args.format)
    return 0


def cmd_admissible(args) -> int:
    system = _system(args.type)
    # an empty --set is the empty set, the inversion set of e
    parts = [part.strip() for part in args.set.split(",")] if args.set.strip() else []
    if "" in parts:
        raise UsageError(f"item {parts.index('') + 1} of --set {args.set!r} is empty")
    elems = {system.normal_form(system.parse_word(part)) for part in parts}
    witness = is_admissible(system, elems)
    doc = {"admissible": witness is not None, "set": sorted(str(t) for t in elems)}
    if witness is not None:
        # a check, not an assert: python -O strips asserts
        if nbar(witness) != elems:
            print(f"error: the witness {witness} does not have the set as its "
                  "inversion set", file=sys.stderr)
            return 1
        doc["witness"] = str(witness)
    _emit(doc, args.format)
    return 0


def cmd_present(args) -> int:
    system = _system(args.type)
    _need_cap(system, args.max_length)
    I = _parse_I(system, args.I)
    return _emit_presentation(presentation_DI(system, I, max_length=args.max_length),
                              args.format)


def cmd_pure_present(args) -> int:
    system = _system(args.type)
    _need_cap(system, args.max_length)
    return _emit_presentation(presentation_pure(system, max_length=args.max_length),
                              args.format)


def cmd_devissage(args) -> int:
    system = _system(args.type)
    if not system.is_finite():
        raise UsageError(f"devissage needs a finite Coxeter group; {system.name} is infinite")
    chain = standard_chain(system)
    doc = devissage(system, chain).to_json()
    _emit(doc, args.format)
    return 0


def cmd_verify_actions(args) -> int:
    model = action_model(args.kind, args.n)
    braids = verify_braid_relations(model)
    abel = {}
    for lab in model.acting:
        rep = abelianized_action(model, lab)
        abel[lab] = {"permutation": rep["permutation"],
                     "map": {k: f"{v[0]}^{v[1]}" for k, v in rep["map"].items()}}
    # a corrupted table is caught only by a braid relation, so the control
    # runs only when some pair of acting generators has a finite bond
    corrupted_fails = None
    if braids["checks"]:
        corrupted_fails = not verify_braid_relations(corrupted_model(model))["passed"]
    controls = {"generic_pair": generic_braid_pair()["passed"],
                "corrupted_fails": corrupted_fails}
    sample = nontriviality_sample(model, samples=args.samples, seed=args.seed)
    passed = braids["passed"] and controls["generic_pair"] \
        and corrupted_fails is not False and sample["passed"]
    doc = {"kind": args.kind, "n": args.n,
           "braid_relations": braids, "abelianized": abel,
           "controls": controls,
           "nontriviality": {"tested": sample["tested"],
                             "passed": sample["passed"]},
           "passed": passed}
    _emit(doc, args.format)
    return 0 if passed else 1


def cmd_verify_embedding(args) -> int:
    rep = embedding_report(args.n, samples=args.samples, seed=args.seed)
    _emit({k: v for k, v in rep.items() if k != "details"}, args.format)
    return 0 if rep["passed"] else 1


def cmd_cocycle(args) -> int:
    system = _system(args.type)
    if (args.v is None) != (args.w is None):
        raise UsageError("give both --v and --w, or neither")
    if args.v is not None:
        v = system.normal_form(system.parse_word(args.v))
        w = system.normal_form(system.parse_word(args.w))
        value = cocycle(v, w)
        doc = {"v": str(v), "w": str(w), "value": value.to_json(),
               "all_even": value.all_even()}
        _emit(doc, args.format)
        return 0
    _need_cap(system, args.max_length)
    draw = _sampler(system, args.max_length, random.Random(args.seed))
    failures = []
    for _ in range(args.samples):
        u, v, w = draw(), draw(), draw()
        # 2-cocycle identity: u.c(v,w) - c(uv,w) + c(u,vw) - c(u,v) = 0
        total = (cocycle(v, w).acted_by(u) - cocycle(u * v, w)
                 + cocycle(u, v * w) - cocycle(u, v))
        if not total.is_zero():
            failures.append([str(u), str(v), str(w)])
    diag = all(cocycle(system.gen(s), system.gen(s)).coeffs
               == {system.gen(s): 2} for s in range(system.rank))
    parity = splitting_parity_witness(system)
    passed = not failures and diag and parity["all_odd"]
    doc = {"type": args.type, "samples": args.samples,
           "cocycle_identity_failures": failures,
           "diagonal_is_2s": diag,
           "parity_witness": parity, "passed": passed}
    _emit(doc, args.format)
    return 0 if passed else 1


def cmd_oracle_check(args) -> int:
    system = _system(args.type)
    _need_cap(system, args.max_length)
    try:
        oracle = PermutationOracle.for_system(args.type)
    except CoxeterError:
        oracle = MatrixOracle(system)
    draw = _sampler(system, args.max_length, random.Random(args.seed))
    failures = []
    for _ in range(args.samples):
        v, w = draw(), draw()
        if oracle.image(v * w) != oracle.image_of_word(v.word + w.word) or (
                hasattr(oracle, "length") and oracle.length(oracle.image(v)) != len(v)):
            failures.append([str(v), str(w)])
    doc = {"type": args.type, "checked": args.samples,
           "oracle": "matrix" if isinstance(oracle, MatrixOracle) else "permutation",
           "failures": failures, "passed": not failures}
    _emit(doc, args.format)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` makes a fresh
    namespace on each call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="purebraid",
        description="Coxeter/braid computations: the N-map, subgroup "
                    "presentations, free actions and the B-to-A embedding.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_type=True, max_length=False, seed=False):
        if needs_type:
            p.add_argument("--type", required=True,
                           help="named system, e.g. A3, B2, I2(5), D4, Atilde2")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if max_length:
            p.add_argument("--max-length", type=_count, default=None)

    p = sub.add_parser("nmap", help="evaluate N on a braid word")
    common(p)
    p.add_argument("--word", required=True, help='braid word, e.g. "s1 s2^-1"')
    p.set_defaults(fn=cmd_nmap)

    p = sub.add_parser("admissible", help="decide whether a reflection set is an inversion set")
    common(p)
    p.add_argument("--set", required=True, help='comma-separated reflections, e.g. "s1, s1 s2 s1"')
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("present", help="presentation of D_I")
    common(p, max_length=True)
    p.add_argument("--I", default="", help='comma-separated generator labels, e.g. "s1,s2"')
    p.set_defaults(fn=cmd_present)

    p = sub.add_parser("pure-present", help="presentation of the pure braid group")
    common(p, max_length=True)
    p.set_defaults(fn=cmd_pure_present)

    p = sub.add_parser("devissage", help="per-level generators along the standard chain")
    common(p)
    p.set_defaults(fn=cmd_devissage)

    p = sub.add_parser("verify-actions", help="braid relations of an action model")
    common(p, needs_type=False, seed=True)
    p.add_argument("--kind", required=True, choices=("A", "B", "B_ab", "I2", "D"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", type=_count, default=100)
    p.set_defaults(fn=cmd_verify_actions)

    p = sub.add_parser("verify-embedding", help="equivariance/index-2/round-trip certificates")
    common(p, needs_type=False, seed=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", type=_count, default=200)
    p.set_defaults(fn=cmd_verify_embedding)

    p = sub.add_parser("cocycle", help="extension cocycle: evaluate or verify")
    common(p, max_length=True, seed=True)
    p.add_argument("--v", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--samples", type=_count, default=200)
    p.set_defaults(fn=cmd_cocycle)

    p = sub.add_parser("oracle-check", help="cross-check element arithmetic against an oracle")
    common(p, max_length=True, seed=True)
    p.add_argument("--samples", type=_count, default=1000)
    p.set_defaults(fn=cmd_oracle_check)

    return parser


def _discard_stdout() -> None:
    """Point the file descriptor of stdout, if it has one, at devnull."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoxeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the commands read no file: this is a write to stdout that failed (a
        # closed pipe, a full disk).  Point stdout at devnull, so that the
        # flush at shutdown does not fail on what is left in its buffer.
        _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
