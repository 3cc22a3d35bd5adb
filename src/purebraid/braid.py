"""Syntactic braid-group words and the reduced-lift calculus.

A BraidWord is a plain signed letter sequence; no general braid-word equality
is offered (the word problem for arbitrary Artin groups is out of scope).
Equality is available (a) syntactically, (b) between reduced lifts through
their Coxeter images, and (c) modulo the derived subgroup of the pure braid
group via the N-map (see purebraid.nmap).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .coxeter import CoxElem, CoxeterError, CoxeterSystem, _alt
from .freeword import free_reduce

# longest word, in letters after expanding the exponents, that parse accepts
MAX_PARSED_LETTERS = 10 ** 6


class BraidWord:
    """A word over the braid generators and their inverses."""

    __slots__ = ("system", "letters")

    def __init__(self, system: CoxeterSystem, letters: Iterable[Tuple[int, int]] = ()):
        letters = tuple((int(s), int(e)) for s, e in letters)
        for s, e in letters:
            if not 0 <= s < system.rank:
                raise CoxeterError(f"generator index {s} out of range")
            if e not in (1, -1):
                raise CoxeterError(f"exponent {e} must be +1 or -1")
        self.system = system
        self.letters = letters

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_positive(cls, system: CoxeterSystem, word: Iterable[int]) -> "BraidWord":
        return cls(system, [(s, 1) for s in word])

    @classmethod
    def parse(cls, system: CoxeterSystem, text: str) -> "BraidWord":
        """Tokens like "s1", "s2^-1"; positive letters omit the exponent."""
        letters = []
        for tok in text.split():
            if "^" in tok:
                base, exp = tok.split("^", 1)
                try:
                    e = int(exp)
                except ValueError:
                    raise CoxeterError(f"bad exponent in {tok!r}") from None
            else:
                base, e = tok, 1
            if base not in system.labels:
                raise CoxeterError(f"unknown generator label {base!r}")
            s = system.labels.index(base)
            if e == 0:
                continue
            if len(letters) + abs(e) > MAX_PARSED_LETTERS:
                raise CoxeterError(f"word longer than {MAX_PARSED_LETTERS} letters")
            sign = 1 if e > 0 else -1
            letters.extend([(s, sign)] * abs(e))
        return cls(system, letters)

    # -- basics ------------------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, BraidWord) and self.system == other.system
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.system.matrix, self.letters))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.system != other.system:
            raise CoxeterError("braid words over different systems")
        return BraidWord(self.system, self.letters + other.letters)

    def inv(self) -> "BraidWord":
        return BraidWord(self.system, [(s, -e) for s, e in reversed(self.letters)])

    def __pow__(self, n: int) -> "BraidWord":
        base = self if n >= 0 else self.inv()
        out = BraidWord(self.system)
        for _ in range(abs(n)):
            out = out * base
        return out

    def free_reduce(self) -> "BraidWord":
        return BraidWord(self.system, free_reduce(self.letters))

    def __str__(self):
        if not self.letters:
            return "e"
        return " ".join(self.system.labels[s] + ("" if e == 1 else "^-1")
                        for s, e in self.letters)

    def __repr__(self):
        return f"BraidWord({self})"

    def is_positive(self) -> bool:
        return all(e == 1 for _, e in self.letters)

    # -- projection and lifts ----------------------------------------------

    def project(self) -> CoxElem:
        """Image under the canonical morphism p: B_W -> W (signs forgotten)."""
        return self.system.normal_form([s for s, _ in self.letters])

    def reverse(self) -> "BraidWord":
        """Letters reversed, exponents kept (well-defined on B_W)."""
        return BraidWord(self.system, self.letters[::-1])


def lift(w: CoxElem) -> BraidWord:
    """The canonical positive lift of w along any reduced expression."""
    return BraidWord.from_positive(w.system, w.word)


def is_reduced_lift(b: BraidWord) -> bool:
    """True iff b is positive and l(p(b)) equals its letter count."""
    if not b.is_positive():
        raise CoxeterError("reduced lifts are positive words")
    return len(b.project()) == len(b)


def alternating_word(system: CoxeterSystem, s: int, t: int, i: int) -> BraidWord:
    """i alternating letters s t s t ..., starting with s."""
    m = system.m(s, t)
    if i < 0 or (m is not None and i > m):
        raise CoxeterError(f"alternating length {i} out of range (m={m})")
    if s == t and i > 1:
        raise CoxeterError("alternating word needs distinct generators")
    return BraidWord.from_positive(system, _alt(s, t, i))


def left_divides(u: BraidWord, v: BraidWord) -> bool:
    """Left divisibility inside reduced lifts: l(p(u)^-1 p(v)) = |v| - |u|."""
    if u.system != v.system:
        raise CoxeterError("braid words over different systems")
    if not (is_reduced_lift(u) and is_reduced_lift(v)):
        raise CoxeterError("left_divides is defined on reduced lifts")
    return len(u.project().inv() * v.project()) == len(v) - len(u)
