"""N, nbar and the cocycle by way of positive roots, an oracle for `nmap`.

The package reads the reflection of each letter off its prefix palindrome
(`CoxeterSystem._palindromes`).  This oracle takes the other route: it
turns each letter into a positive root, the roots of the fold's
reflection ids (`CoxeterSystem._fold_Np`) for N and the roots x(a_s) of
the prefixes x for nbar, lowers each root to its least witness (u, s) by
simple reflections (`witness`), and takes the normal form of the witness
palindrome u s u^-1 (`reflection`).  The cocycle is its definition
N(v) + v.N(w) - N(lift of vw), three of those N's.  No prefix palindrome is
read, so this checks `eval_N`, `nbar` and `cocycle` by another route.  The
fold costs O(n^2) lookups over n letters: this is for words of a few
hundred letters at most.
"""

from __future__ import annotations

from typing import Tuple

from purebraid.braid import BraidWord, lift
from purebraid.coxeter import CoxElem, CoxeterError, CoxeterSystem
from purebraid.nmap import SemidirectElem, ZTVector, _letter_images


def witness(system: CoxeterSystem, root: tuple) -> Tuple[tuple, int]:
    """The least (u, s), by length of u, then ShortLex, with root = u(a_s)
    and us longer than u, read off by lowering the root to a simple one.  A
    simple reflection moves the depth of a positive root by at most one, and
    a root of depth d > 1 has a t that lowers it to depth d - 1, keeping it
    positive (Björner-Brenti, GTM 231, 4.6); the least such t at each step
    spells the ShortLex word of u.  s_t changes only the coordinate at t, so
    each candidate t costs that coordinate alone.  A vector that is not a
    positive root (a negative coordinate, no t that lowers it to a
    nonnegative one, or an end at c a_s with c != 1) raises CoxeterError."""
    ring, rows = system._cartan_rows()
    unit, u, v = ring.const(ring.one), [], list(root)
    while sum(x != ring.zero for x in v) > 1:
        for t, row in enumerate(rows):
            y = ring.neg(v[t])
            for j, a in row:
                y = ring.submul(y, a, v[j])
            if ring.sign(ring.submul(v[t], unit, y)) > 0 <= ring.sign(y):
                break
        else:
            break
        v[t] = y
        u.append(t)
    if tuple(v) not in system._frame():
        raise CoxeterError(f"{root} is not a positive root")
    return tuple(u), system._frame().index(tuple(v))


def reflection(system: CoxeterSystem, root: tuple) -> CoxElem:
    """The reflection u s u^-1 of a positive root u(a_s) (`witness`)."""
    u, s = witness(system, root)
    return system.normal_form(u + (s,) + u[::-1])


def eval_N(b: BraidWord) -> ZTVector:
    """N(b) from the fold's {root id: coefficient}."""
    system = b.system
    ids, _ = system._fold_Np(_letter_images(b))
    roots = system._id_table()[1]
    return ZTVector(system, {reflection(system, roots[i]): c for i, c in ids.items()})


def eval_Np(b: BraidWord) -> SemidirectElem:
    return SemidirectElem(eval_N(b), b.project())


def nbar(w: CoxElem) -> frozenset:
    """The reflections of the roots w_1...w_{i-1}(a_{w_i}), each positive as
    w's word is reduced."""
    system, inv = w.system, set()
    for i, s in enumerate(w.word):
        root = system._root(w.word[:i], s)
        if root != system._positive(root):
            raise CoxeterError(f"{w.word} is not a reduced word")
        inv.add(reflection(system, root))
    return frozenset(inv)


def cocycle(v: CoxElem, w: CoxElem) -> ZTVector:
    """c(v, w) = N(v) + v.N(w) - N(lift of vw)."""
    return eval_N(lift(v)) + eval_N(lift(w)).acted_by(v) - eval_N(lift(v * w))
