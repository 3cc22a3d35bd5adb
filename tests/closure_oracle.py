"""The braid-move closure (Tits), a small-rank oracle for the element kernel.

Two reduced words spell the same element of W iff braid moves connect them,
and a word that is not reduced has, inside its braid-move closure, a word
with two adjacent equal letters (Tits, 1969).  So the class of a reduced
word is the set of reduced words of its element, and multiplying by s
either drops a last letter s from some word of the class or appends s.
The classes are exponential in the length: this is for short words at
small rank only.  Nothing here reads the reflection representation of
`purebraid.coxeter`, so it checks the kernel independently.
"""

from __future__ import annotations

from typing import Sequence

from purebraid.coxeter import CoxeterSystem, _alt

_CLASSES: dict = {}  # Coxeter matrix -> {reduced word: its braid-move class}


def braid_class(system: CoxeterSystem, word: Sequence[int]) -> frozenset:
    """Every word reachable from `word` by braid moves, none cancelling."""
    word = tuple(word)
    classes = _CLASSES.setdefault(system.matrix, {})
    if word in classes:
        return classes[word]
    seen, stack = {word}, [word]
    while stack:
        w = stack.pop()
        for i, s in enumerate(w):
            for t in range(system.rank):
                m = system.matrix[s][t]
                if t == s or m is None or i + m > len(w):
                    continue
                if w[i:i + m] == _alt(s, t, m):
                    moved = w[:i] + _alt(t, s, m) + w[i + m:]
                    if moved not in seen:
                        seen.add(moved)
                        stack.append(moved)
    cls = frozenset(seen)
    for w in cls:
        classes[w] = cls
    return cls


def mult_gen(system: CoxeterSystem, word: Sequence[int], s: int) -> tuple:
    """The ShortLex word of w s, for w given by a reduced word."""
    word = tuple(word)
    for w in braid_class(system, word):
        if w and w[-1] == s:
            return min(braid_class(system, w[:-1]))
    return min(braid_class(system, word + (s,)))


def normal_form(system: CoxeterSystem, word: Sequence[int]) -> tuple:
    """The ShortLex word of the element spelled by `word`, reduced or not."""
    nf = ()
    for s in word:
        nf = mult_gen(system, nf, s)
    return nf


def descents(system: CoxeterSystem, word: Sequence[int], side: str = "right") -> frozenset:
    """The last (right) or first (left) letters of the reduced words of the
    element with reduced word `word`."""
    end = -1 if side == "right" else 0
    return frozenset(w[end] for w in braid_class(system, word) if w)
