"""The reflection-counting homomorphism N: B_W -> ZT and its companions.

N sends a signed word s1^e1 ... sk^ek to sum_i e_i * (s1...s_{i-1} s_i
s_{i-1}...s1), and (N, p) is a group homomorphism into ZT x| W.  Its kernel is
the derived subgroup of the pure braid group, which gives a decidable equality
of braid words modulo D(P_W).  `eval_N`, `nbar` and `cocycle` read each
letter's reflection as its prefix palindrome, as N is defined, and whether
the letter is a right descent of its prefix (`CoxeterSystem._palindromes`);
`equal_mod_derived` compares (N, p) folded over reflection ids by
`CoxeterSystem._fold_Np`, as `schreier.soundness_report` does.  The mod-2
reduction of N on W is the inversion set; admissibility of a reflection
subset is decided by inversion-set peeling rather than by root-coordinate
closure (the two are equivalent, and peeling needs no algebraic-number
arithmetic).  c(v, w) = 2 (nbar(v) & v nbar(w) v^-1) (see `cocycle`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .braid import BraidWord, lift
from .coxeter import CoxElem, CoxeterError, CoxeterSystem, is_reflection, palindromize


class ZTVector:
    """Finite-support integer combination of reflections (keys: CoxElem)."""

    __slots__ = ("system", "coeffs")

    def __init__(self, system: CoxeterSystem, coeffs: Optional[Dict[CoxElem, int]] = None):
        self.system = system
        self.coeffs = {t: c for t, c in (coeffs or {}).items() if c != 0}

    def __eq__(self, other):
        return (isinstance(other, ZTVector) and self.system == other.system
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.system.matrix, frozenset(self.coeffs.items())))

    def __add__(self, other: "ZTVector") -> "ZTVector":
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0) + c
        return ZTVector(self.system, out)

    def __sub__(self, other: "ZTVector") -> "ZTVector":
        return self + other.scale(-1)

    def scale(self, k: int) -> "ZTVector":
        return ZTVector(self.system, {t: k * c for t, c in self.coeffs.items()})

    def __neg__(self):
        return self.scale(-1)

    def acted_by(self, w: CoxElem) -> "ZTVector":
        """w . x: permute reflections by conjugation."""
        if w.is_identity():
            return self
        return ZTVector(self.system, {w.conj(t): c for t, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def all_even(self) -> bool:
        return all(c % 2 == 0 for c in self.coeffs.values())

    def all_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def odd_support(self) -> frozenset:
        return frozenset(t for t, c in self.coeffs.items() if c % 2 == 1)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs):
            c = self.coeffs[t]
            parts.append(f"{c}*({t})")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self) -> dict:
        return {str(t): c for t, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, system: CoxeterSystem, doc: dict) -> "ZTVector":
        """{reflection word: int}; anything else raises CoxeterError."""
        if not isinstance(doc, dict):
            raise CoxeterError("expected an object {reflection word: coefficient}")
        coeffs = {}
        for key, c in doc.items():
            if type(c) is not int:
                raise CoxeterError(f"coefficient {c!r} of {key!r} is not an integer")
            t = system.normal_form(system.parse_word(key)) if key not in ("", "e") \
                else system.identity
            if not is_reflection(t):
                raise CoxeterError(f"{key!r} is not a reflection")
            coeffs[t] = coeffs.get(t, 0) + c
        return cls(system, coeffs)


class SemidirectElem:
    """Element (x, w) of ZT x| W with (x, v)(y, w) = (x + v.y, v w)."""

    __slots__ = ("vector", "element")

    def __init__(self, vector: ZTVector, element: CoxElem):
        self.vector = vector
        self.element = element

    def __eq__(self, other):
        return (isinstance(other, SemidirectElem) and self.vector == other.vector
                and self.element == other.element)

    def __hash__(self):
        return hash((self.vector, self.element))

    def __mul__(self, other: "SemidirectElem") -> "SemidirectElem":
        return SemidirectElem(self.vector + other.vector.acted_by(self.element),
                              self.element * other.element)

    def inv(self) -> "SemidirectElem":
        w_inv = self.element.inv()
        return SemidirectElem(self.vector.acted_by(w_inv).scale(-1), w_inv)

    def __repr__(self):
        return f"({self.vector}, {self.element})"


def _letter_images(b: BraidWord):
    """The images (((s, e),), (s,)) of the letters s^e of b, for
    `_fold_Np`: s is the id of the simple root a_s."""
    return ((((s, e),), (s,)) for s, e in b.letters)


def eval_N(b: BraidWord) -> ZTVector:
    """N(b) = sum_i e_i * (s1...s_{i-1} s_i s_{i-1}...s1)."""
    system, coeffs = b.system, {}
    palindromes = system._palindromes((), (s for s, _ in b.letters))
    for (_, t), (_, e) in zip(palindromes, b.letters):
        coeffs[t] = coeffs.get(t, 0) + e
    return ZTVector(system, coeffs)


def eval_Np(b: BraidWord) -> SemidirectElem:
    return SemidirectElem(eval_N(b), b.project())


def nbar(w: CoxElem) -> frozenset:
    """Inversion set of w, the t_i = w_1...w_i...w_1 of its reduced word."""
    palindromes = list(w.system._palindromes((), w.word))
    if any(sign < 0 for sign, _ in palindromes):
        raise CoxeterError(f"{w.word} is not a reduced word")
    return frozenset(t for _, t in palindromes)


def equal_mod_derived(b: BraidWord, b2: BraidWord) -> bool:
    """N(b) = N(b') and p(b) = p(b'), i.e. b^-1 b' lies in D(P_W)."""
    if b.system != b2.system:
        raise CoxeterError("braid words over different systems")
    fold = b.system._fold_Np
    return fold(_letter_images(b)) == fold(_letter_images(b2))


# ---------------------------------------------------------------------------
# admissibility by inversion-set peeling


def is_admissible(system: CoxeterSystem, A: Iterable[CoxElem]) -> Optional[CoxElem]:
    """Witness w with nbar(w) = A, or None when A is not an inversion set.

    Peeling: A is admissible iff it is empty or contains some simple generator
    s with s.(A - {s}).s admissible; simples in an inversion set are exactly
    the left descents of its witness, so any peel order succeeds.
    """
    A = set(A)
    for t in A:
        if not is_reflection(t):
            raise CoxeterError(f"{t} is not a reflection")
    word = []
    while A:
        simple = next((t for t in sorted(A) if len(t) == 1), None)
        if simple is None:
            return None
        s = simple.word[0]
        word.append(s)
        gen = system.gen(s)
        A = {gen.conj(t) for t in A if t != simple}
    return system.normal_form(word)


def in_image_of_N(x: ZTVector) -> Optional[BraidWord]:
    """A braid word b with N(b) = x, or None when x mod 2 is not admissible.

    The witness is p * lift(w): w realizes the odd support as an inversion
    set, and each residual even coefficient 2k at a reflection t contributes
    (u s^2 u^-1)^k through t's ShortLex-least palindromic witness t = u s u~.
    """
    system = x.system
    w = is_admissible(system, x.odd_support())
    if w is None:
        return None
    base = lift(w)
    remainder = x - eval_N(base)
    if not remainder.all_even():
        raise CoxeterError("x - N(lift(w)) has an odd coefficient")
    pure = BraidWord(system)
    for t in sorted(remainder.coeffs):
        k = remainder.coeffs[t] // 2
        u, s = palindromize(t)
        conj = lift(u)
        square = BraidWord(system, [(s, 1 if k > 0 else -1)] * 2)
        for _ in range(abs(k)):
            pure = pure * conj * square * conj.inv()
    return pure * base


# ---------------------------------------------------------------------------
# the extension cocycle (section on B_W / D(P_W))


def cocycle(v: CoxElem, w: CoxElem) -> ZTVector:
    """c(v, w) = N(v) + v.N(w) - N(lift of vw) = 2 (nbar(v) & v nbar(w) v^-1), as
    nbar(vw) = nbar(v) ^ v nbar(w) v^-1 (Björner-Brenti, GTM 231, ch. 1): 2 at
    each v t_i v^-1 = x w_i x^-1, t_i of w's word and x = v w_1...w_{i-1},
    where w_i is a right descent of x (the root v(b_i) is negative)."""
    if v.system != w.system:
        raise CoxeterError("elements of different Coxeter systems")
    return ZTVector(v.system, {t: 2 for sign, t in v.system._palindromes(v.word, w.word)
                               if sign < 0})


def splitting_parity_witness(system: CoxeterSystem) -> dict:
    """For each generator s, the coefficient of N(s) at s (always 1, odd).

    This odd coefficient is the computable ingredient of the proof that the
    extension of W by 2ZT does not split: a trivializing cochain would need
    even coefficients everywhere.
    """
    report = {}
    for s in range(system.rank):
        vec = eval_N(BraidWord(system, [(s, 1)]))
        coeff = vec.coeffs.get(system.gen(s), 0)
        report[system.labels[s]] = coeff
    return {"coefficients": report,
            "all_odd": all(c % 2 == 1 for c in report.values())}
