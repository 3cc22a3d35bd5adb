"""(N, p) letter by letter, an oracle for the fold of `purebraid.coxeter`.

N(b) is read off its definition: letter i of b contributes e_i times the
reflection p_i s_i p_i^-1, p_i the element spelled by the letters before it,
and both p_i and the reflection are `CoxElem` normal forms.  No root or frame
is read, so this checks `CoxeterSystem._fold_Np`, and with it `eval_N` and
`soundness_report`, and the roots `cocycle` reads, by another route.  Each
letter costs a normal form of its prefix: this is for short words.
"""

from __future__ import annotations

from typing import Dict

from purebraid.braid import BraidWord, lift
from purebraid.coxeter import CoxElem
from purebraid.nmap import SemidirectElem, ZTVector


def eval_N(b: BraidWord) -> ZTVector:
    """N(b) = sum_i e_i * (s1...s_{i-1} s_i s_{i-1}...s1)."""
    system = b.system
    coeffs: Dict[CoxElem, int] = {}
    prefix = system.identity
    for s, e in b.letters:
        t = prefix.conj(system.gen(s))
        coeffs[t] = coeffs.get(t, 0) + e
        prefix = prefix * system.gen(s)
    return ZTVector(system, coeffs)


def eval_Np(b: BraidWord) -> SemidirectElem:
    return SemidirectElem(eval_N(b), b.project())


def cocycle(v: CoxElem, w: CoxElem) -> ZTVector:
    """c(v, w) = N(v) + v.N(w) - N(lift of vw)."""
    return eval_N(lift(v)) + eval_N(lift(w)).acted_by(v) - eval_N(lift(v * w))
