"""Free groups, automorphisms given by generator tables, and the conjugation
action models for the pure-braid levels of types A, B, I2(m) and D.

Free words and their substitutions come from purebraid.freeword.  An
ActionModel packs a free basis, an acting braid group (one automorphism per
Artin generator) and the bond orders needed to verify the braid relations.
The acting system is the named A_n, or B_n or D_n less its last node; only
I2(m), whose single acting generator is s, gets a rank-1 system of its own.
The type A, B and I2 models are free actions; the type D table is a
conjugation table only (the underlying group is not free), so its s2/s2'
commutation is verified modulo the known centralizing pairs rather than as a
free-word identity.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from typing import Dict, Optional, Sequence, Tuple

from .braid import BraidWord, lift
from .coxeter import CoxeterError, CoxeterSystem, named_system, subsystem
from .freeword import (
    FreeWord,
    free_reduce,
    free_word_str,
    letter,
    parse_free_word,
    substitute,
    word_inv,
    word_mul,
)
from .nmap import equal_mod_derived

# ---------------------------------------------------------------------------
# automorphisms


class FreeAut:
    """Endomorphism of a free group given by images of the basis symbols."""

    __slots__ = ("basis", "images")

    def __init__(self, basis: Sequence[str], images: Dict[str, FreeWord]):
        self.basis = tuple(basis)
        self.images = {x: free_reduce(images.get(x, letter(x))) for x in self.basis}
        for x, w in self.images.items():
            for sym, _ in w:
                if sym not in self.basis:
                    raise CoxeterError(f"image of {x} uses unknown symbol {sym}")

    @classmethod
    def _trusted(cls, basis: Tuple[str, ...], images: Dict[str, FreeWord]) -> "FreeAut":
        """The FreeAut of `images`, freely reduced words over `basis` keyed
        in basis order, taken as they are."""
        out = cls.__new__(cls)
        out.basis, out.images = basis, images
        return out

    @classmethod
    def identity(cls, basis: Sequence[str]) -> "FreeAut":
        return cls(basis, {})

    def apply(self, w: FreeWord) -> FreeWord:
        return substitute(self.images, w)

    def __mul__(self, other: "FreeAut") -> "FreeAut":
        """Composition (self after other)."""
        if self.basis != other.basis:
            raise CoxeterError("automorphisms of different free groups")
        images = self.images
        return FreeAut._trusted(self.basis, {x: substitute(images, w)
                                             for x, w in other.images.items()})

    def __eq__(self, other):
        return (isinstance(other, FreeAut) and self.basis == other.basis
                and self.images == other.images)

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self.images.items()))))

    def is_identity(self) -> bool:
        return all(self.images[x] == letter(x) for x in self.basis)

    def __repr__(self):
        parts = [f"{x} -> {free_word_str(w)}" for x, w in self.images.items()
                 if w != letter(x)]
        return "FreeAut(" + ("; ".join(parts) or "id") + ")"


def _reduction_key(w: FreeWord) -> tuple:
    """|w|, then the lesser and the greater of the left halves (the first
    ceil(|w|/2) letters) of w and w^-1."""
    h = (len(w) + 1) // 2
    return (len(w), *sorted((w[:h], word_inv(w[len(w) - h:]))))


def aut_invert(f: FreeAut) -> FreeAut:
    """Inverse via Nielsen reduction of the image tuple.

    An image w_i and its formal twin move to w_i·v or v·w_i, v = w_j^±1,
    when that lowers `_reduction_key(w_i)`: the product is shorter, or as
    long with a lesser pair of left halves.  Either needs at least half of
    v to cancel where w_i and v meet, so an index of the images by their
    first and by their last letter gives the only j worth a look: v·w_i
    needs w_j to end with w_i[0]^-1 or to start with w_i[0], and w_i·v to
    start with w_i[-1]^-1 or to end with w_i[-1].  A pass reads four index
    entries per image, not every pair; a candidate whose half does not
    cancel is dropped by one slice comparison, a product is built only for
    one that does, and a twin only for a move made, which re-files the one
    image it changes.  No move lengthens the tuple, and one that keeps its
    length lowers a key, so the moves end, at a permuted inverted basis
    exactly when f is an automorphism (Lyndon and Schupp, Combinatorial
    Group Theory, ch. I, §2).  The inverse is unique, so it does not depend
    on the order of the moves.
    """
    basis = f.basis
    words = [f.images[x] for x in basis]
    inverses = [word_inv(w) for w in words]
    formal = [letter(x) for x in basis]
    starts: Dict[Tuple[str, int], set] = defaultdict(set)
    ends: Dict[Tuple[str, int], set] = defaultdict(set)
    for i, w in enumerate(words):
        if not w:
            raise CoxeterError("table is not injective (image collapses)")
        starts[w[0]].add(i)
        ends[w[-1]].add(i)
    changed = True
    while changed:
        changed = False
        for i in range(len(words)):
            w, key, moved = words[i], None, True
            while moved:
                moved = False
                (s, k), (t, l) = w[0], w[-1]
                # the move to v^e·w (left) or w·v^e, v = w_j for j in group
                for left, e, group in ((1, 1, ends.get((s, -k), ())),
                                       (1, -1, starts[s, k]),
                                       (0, 1, starts.get((t, -l), ())),
                                       (0, -1, ends[t, l])):
                    for j in group:
                        if j == i:
                            continue
                        ve, ve_inv = (words[j], inverses[j]) if e == 1 else \
                            (inverses[j], words[j])
                        # half of v^e cancels iff w starts (ends) as v^-e does
                        h = (len(ve) + 1) // 2
                        if (w[:h] != ve_inv[:h]) if left else (w[-h:] != ve_inv[-h:]):
                            continue
                        cand = word_mul(ve, w) if left else word_mul(w, ve)
                        if not cand:
                            raise CoxeterError("table is not injective (image collapses)")
                        cand_key = _reduction_key(cand)
                        if key is None:
                            key = _reduction_key(w)
                        if cand_key >= key:
                            continue
                        fe = formal[j] if e == 1 else word_inv(formal[j])
                        formal[i] = word_mul(fe, formal[i]) if left else \
                            word_mul(formal[i], fe)
                        starts[w[0]].discard(i)
                        ends[w[-1]].discard(i)
                        w, key = cand, cand_key
                        words[i], inverses[i] = w, word_inv(w)
                        starts[w[0]].add(i)
                        ends[w[-1]].add(i)
                        moved = changed = True
                        break
                    if moved:
                        break
    images: Dict[str, FreeWord] = {}
    for w, u in zip(words, formal):
        if len(w) != 1:
            raise CoxeterError("table is not an automorphism (Nielsen-reduced "
                               f"image {free_word_str(w)} is not a basis letter)")
        sym, e = w[0]
        images[sym] = u if e == 1 else word_inv(u)
    if set(images) != set(basis):
        raise CoxeterError("table is not an automorphism (images miss a symbol)")
    images = {x: images[x] for x in basis}
    if any(substitute(f.images, images[x]) != letter(x) for x in basis) or \
            any(substitute(images, f.images[x]) != letter(x) for x in basis):
        raise CoxeterError("inversion check failed")
    return FreeAut._trusted(basis, images)


# ---------------------------------------------------------------------------
# action models


def _conj(c: FreeWord, w: FreeWord) -> FreeWord:
    """c^{-1} w c."""
    return word_mul(word_inv(c), w, c)


def _twist(x: str, y: str) -> Dict[str, FreeWord]:
    """The half-twist of the basis letters x, y: x -> y, y -> y^-1 x y."""
    return {x: letter(y), y: _conj(letter(y), letter(x))}


class ActionModel:
    """Acting Artin generators mapped to automorphisms of a free basis.

    `system` is the Coxeter system of the acting generators (used for bond
    orders and for sampling pure words); `acting[i]` is the label of its i-th
    generator.  `commutations` lists pairs of free words known to commute in
    the modeled group; they are used only by the type D relation check.
    """

    def __init__(self, kind: str, size: int, basis: Sequence[str],
                 system: CoxeterSystem, table: Dict[str, FreeAut],
                 commutations: Sequence[Tuple[FreeWord, FreeWord]] = ()):
        self.kind = kind
        self.size = size
        self.basis = tuple(basis)
        self.system = system
        self.acting = system.labels
        self.table = dict(table)
        self.commutations = tuple(commutations)
        self._inverses: Dict[str, FreeAut] = {}

    def aut(self, label: str, exponent: int = 1) -> FreeAut:
        if label not in self.table:
            raise CoxeterError(f"unknown acting generator {label!r}")
        if exponent == 1:
            return self.table[label]
        if label not in self._inverses:
            self._inverses[label] = aut_invert(self.table[label])
        return self._inverses[label]

    def order(self, a: str, b: str) -> Optional[int]:
        return self.system.m(self.acting.index(a), self.acting.index(b))


def action_model(kind: str, size: int) -> ActionModel:
    """Conjugation action tables.

    - "A", n: Artin generators s1..sn acting on the free group a1..a_{n+1};
      s_i is the half-twist of a_i, a_{i+1} (`_twist`).
    - "B", n: s1..s_{n-1} on the x/y basis x1..xn, y1..y_{n-1} (y_n = 1).
    - "B_ab", n: the same acting group on the a/b basis a1..an, b2..bn;
      s_i, i >= 2, is the twist of a_i, a_{i+1} with that of b_{i+1}, b_i.
    - "I2", m: the single generator s on a1..a_{m-1}.
    - "D", n: s2, s2', s3..s_{n-1} on a2, a2', a3..an, b3..bn (table only;
      the modeled group is not free); s2 twists a2, a3 and b3, a2', s2'
      twists a2', a3 and b3, a2, and s_i is as in B_ab.
    """
    if kind == "A":
        if size < 1:
            raise CoxeterError("type A model needs size >= 1")
        system = named_system(f"A{size}")
        basis = [f"a{i}" for i in range(1, size + 2)]
        table = {f"s{i}": FreeAut(basis, _twist(f"a{i}", f"a{i+1}"))
                 for i in range(1, size + 1)}
        return ActionModel(kind, size, basis, system, table)
    if kind == "B":
        if size < 2:
            raise CoxeterError("type B model needs size >= 2")
        n = size
        system = subsystem(named_system(f"B{n}"), range(n - 1))
        basis = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n)]
        empty: FreeWord = ()

        def y(i):  # y_n is the empty product
            return empty if i == n else letter(f"y{i}")

        table = {"s1": FreeAut(basis, {
            "x1": word_mul(y(2), word_inv(y(1)), letter("x2")),
            "y1": word_mul(y(2), letter("x1", -1), letter("x2")),
        })}
        for i in range(2, n):
            table[f"s{i}"] = FreeAut(basis, {
                f"x{i}": word_mul(letter(f"x{i-1}"), letter(f"x{i}", -1),
                                  letter(f"x{i+1}")),
                f"y{i}": word_mul(y(i + 1), letter(f"y{i}", -1), y(i - 1)),
            })
        return ActionModel(kind, size, basis, system, table)
    if kind == "B_ab":
        if size < 2:
            raise CoxeterError("type B model needs size >= 2")
        n = size
        system = subsystem(named_system(f"B{n}"), range(n - 1))
        basis = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(2, n + 1)]
        table = {"s1": FreeAut(basis, {
            "b2": letter("a2"),
            "a1": _conj(letter("a2"), letter("a1")),
            "a2": _conj(word_mul(letter("a1"), letter("a2")), letter("b2")),
        })}
        for i in range(2, n):
            table[f"s{i}"] = FreeAut(basis, {**_twist(f"a{i}", f"a{i+1}"),
                                             **_twist(f"b{i+1}", f"b{i}")})
        return ActionModel(kind, size, basis, system, table)
    if kind == "I2":
        m = size
        if m < 3:
            raise CoxeterError("I2 model needs size >= 3")
        system = CoxeterSystem([[1]], labels=("s",))
        basis = [f"a{i}" for i in range(1, m)]
        images = {}
        for j in range(1, m):
            conjugator = word_mul(*[letter(f"a{k}") for k in range(m - j - 1, 0, -1)])
            images[f"a{j}"] = _conj(conjugator, letter(f"a{m-j}"))
        table = {"s": FreeAut(basis, images)}
        return ActionModel(kind, size, basis, system, table)
    if kind == "D":
        n = size
        if n < 3:
            raise CoxeterError("type D model needs size >= 3")
        system = subsystem(named_system(f"D{n}"), range(n - 1))
        basis = ["a2", "a2'"] + [f"a{i}" for i in range(3, n + 1)] \
            + [f"b{i}" for i in range(3, n + 1)]
        table = {
            "s2": FreeAut(basis, {**_twist("a2", "a3"), **_twist("b3", "a2'")}),
            "s2'": FreeAut(basis, {**_twist("a2'", "a3"), **_twist("b3", "a2")}),
        }
        for i in range(3, n):
            table[f"s{i}"] = FreeAut(basis, {**_twist(f"a{i}", f"a{i+1}"),
                                             **_twist(f"b{i+1}", f"b{i}")})
        commutations = (
            (letter("a2"), letter("a2'")),
            (_conj(letter("a2'"), letter("b3")), letter("a3")),
            (_conj(letter("a2"), letter("b3")), letter("a3")),
        )
        return ActionModel(kind, size, basis, system, table, commutations)
    raise CoxeterError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# applying braid words


def act(model: ActionModel, braid, w: FreeWord) -> FreeWord:
    """Apply a braid word over the acting generators; act(vw,u)=act(v,act(w,u)).

    `braid` is a BraidWord over model.system or a sequence of (label, +-1).
    """
    if isinstance(braid, BraidWord):
        if braid.system != model.system:
            raise CoxeterError("braid word is over a different acting system")
        letters = [(model.acting[s], e) for s, e in braid.letters]
    else:
        letters = list(braid)
    for label, e in reversed(letters):
        w = model.aut(label, e).apply(w)
    return w


def composite_aut(model: ActionModel, letters: Sequence[Tuple[str, int]]) -> FreeAut:
    out = FreeAut.identity(model.basis)
    for label, e in letters:
        out = out * model.aut(label, e)
    return out


# ---------------------------------------------------------------------------
# relation verification


def equal_modulo_commutations(w1: FreeWord, w2: FreeWord,
                              pairs: Sequence[Tuple[FreeWord, FreeWord]]) -> bool:
    """Whether w1 = w2 using only the given commutation moves (bounded BFS).

    A move replaces a subword p q by q p (or back) for a commuting pair
    {p, q}, with p and q taken with either sign.
    """
    moves = []
    for p, q in pairs:
        for a in (p, word_inv(p)):
            for b in (q, word_inv(q)):
                moves.append((word_mul(a, b), word_mul(b, a)))
                moves.append((word_mul(b, a), word_mul(a, b)))

    def neighbors(w: FreeWord):
        for src, dst in moves:
            k = len(src)
            for i in range(len(w) - k + 1):
                if w[i:i + k] == src:
                    yield free_reduce(w[:i] + dst + w[i + k:])

    if w1 == w2:
        return True
    # bidirectional search: a swap followed by free reduction need not be
    # reversible by forward moves, so grow both frontiers
    seen = {w1: 0, w2: 1}
    queue = deque([w1, w2])
    while queue and len(seen) < 50000:
        cur = queue.popleft()
        side = seen[cur]
        for nxt in neighbors(cur):
            if nxt in seen:
                if seen[nxt] != side:
                    return True
                continue
            seen[nxt] = side
            queue.append(nxt)
    return False


def verify_braid_relations(model: ActionModel) -> dict:
    """Alternating compositions of length m agree on every basis symbol.

    Pairs are compared as free words; a pair that fails freely is retried
    modulo the model's known commutations (type D) and reported as such.
    """
    checks = []
    failures = []
    for i in range(len(model.acting)):
        try:
            model.aut(model.acting[i], -1)
        except CoxeterError as exc:
            failures.append({"generator": model.acting[i], "error": str(exc)})
        for j in range(i + 1, len(model.acting)):
            a, b = model.acting[i], model.acting[j]
            m = model.order(a, b)
            if m is None:
                continue
            alt_ab = [(a, 1) if k % 2 == 0 else (b, 1) for k in range(m)]
            alt_ba = [(b, 1) if k % 2 == 0 else (a, 1) for k in range(m)]
            mode = "free"
            for x in model.basis:
                lhs = act(model, alt_ab, letter(x))
                rhs = act(model, alt_ba, letter(x))
                if lhs == rhs:
                    continue
                if model.commutations and equal_modulo_commutations(
                        lhs, rhs, model.commutations):
                    mode = "modulo_commutations"
                    continue
                failures.append({"pair": (a, b), "symbol": x,
                                 "lhs": free_word_str(lhs),
                                 "rhs": free_word_str(rhs)})
            checks.append({"pair": (a, b), "m": m, "mode": mode})
    return {"checks": checks, "failures": failures, "passed": not failures}


def corrupted_model(model: ActionModel) -> ActionModel:
    """Negative control: invert the first image the first generator moves."""
    label = model.acting[0]
    base = model.table[label]
    symbol = next(x for x in model.basis if base.images[x] != letter(x))
    images = dict(base.images)
    images[symbol] = word_inv(images[symbol])
    table = dict(model.table)
    table[label] = FreeAut(model.basis, images)
    return ActionModel(model.kind, model.size, model.basis, model.system,
                       table, model.commutations)


def generic_braid_pair() -> dict:
    """Rank-4 mechanism check: on F(w,x,y,z), s: y -> x y^-1 z and
    t: x -> w x^-1 y (all other letters fixed) satisfy sts = tst."""
    basis = ["w", "x", "y", "z"]
    s = FreeAut(basis, {"y": parse_free_word("x y^-1 z")})
    t = FreeAut(basis, {"x": parse_free_word("w x^-1 y")})
    lhs, rhs = s * t * s, t * s * t
    return {"passed": lhs == rhs,
            "images": {x: free_word_str(lhs.images[x]) for x in basis}}


# ---------------------------------------------------------------------------
# abelianized action


def abelianized_action(model: ActionModel, label: str) -> dict:
    """Induced map on the abelianization, as a signed map of basis classes.

    Returns {"permutation": bool, "map": {symbol: (symbol, sign)}} when every
    image has a single-class exponent vector, else lists the offending rows.
    """
    f = model.aut(label)
    mapping = {}
    bad = {}
    for x in model.basis:
        sums: Dict[str, int] = {}
        for sym, e in f.images[x]:
            sums[sym] = sums.get(sym, 0) + e
        sums = {k: v for k, v in sums.items() if v}
        if len(sums) == 1:
            (sym, c), = sums.items()
            if c in (1, -1):
                mapping[x] = (sym, c)
                continue
        bad[x] = sums
    if bad:
        return {"permutation": False, "map": mapping, "non_permutation_rows": bad}
    return {"permutation": True, "map": mapping}


# ---------------------------------------------------------------------------
# sampling


def random_pure_word(system: CoxeterSystem, rng: random.Random,
                     max_len: int) -> BraidWord:
    """A random word in the kernel of p, built as w * lift(p(w))^{-1}."""
    k = rng.randrange(1, max_len + 1)
    letters = [(rng.randrange(system.rank), rng.choice((1, -1))) for _ in range(k)]
    b = BraidWord(system, letters)
    return b * lift(b.project()).inv()


def nontriviality_sample(model: ActionModel, samples: int = 500, seed: int = 0) -> dict:
    """Sampled one-sided faithfulness evidence: random pure words outside
    D(P_W) must move some basis element.  Passes corroborate, failures falsify."""
    rng = random.Random(seed)
    tested = 0
    fixed = []
    while tested < samples:
        b = random_pure_word(model.system, rng, 8)
        if equal_mod_derived(b, BraidWord(model.system)):
            continue
        tested += 1
        if all(act(model, b, letter(x)) == letter(x) for x in model.basis):
            fixed.append(str(b))
    return {"tested": tested, "trivial_actions": fixed, "passed": not fixed}
