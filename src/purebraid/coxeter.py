"""Exact arithmetic in arbitrary Coxeter groups.

Elements are stored as ShortLex-minimal reduced words.  Equality of words is
decided by the classical braid-move closure (Tits): two reduced words
represent the same element iff they are connected by braid moves, and a
non-reduced word always admits, inside its braid-move closure, a word with two
adjacent equal letters.  This is correct for every Coxeter system, including
infinite bonds and non-crystallographic types, at the price of an exponential
worst case that is acceptable at the scale handled here; braid-move classes
are memoized per system.

Finiteness is decided exactly from the Coxeter graph by the classification
of the finite Coxeter groups (Coxeter 1935; Humphreys, Reflection Groups and
Coxeter Groups, 2.7): W is finite iff every connected component of its graph
is of type A_n, B_n, D_n, E_6..E_8, F_4, H_3, H_4 or I_2(m).
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence


class CoxeterError(ValueError):
    pass


def _alt(s: int, t: int, length: int) -> tuple:
    """Alternating word s t s t ... with `length` letters, starting with s."""
    return tuple(s if i % 2 == 0 else t for i in range(length))


def _by_length(level: list, up, max_length: Optional[int]) -> Iterator[list]:
    """Breadth-first walk: `level` (of one length), then the sorted set of
    up(w) over it, and so on while lengths stay <= max_length.  `up` must
    lengthen every element by the same amount, so no level is seen twice."""
    while level and (max_length is None or len(level[0]) <= max_length):
        yield level
        if len(level[0]) == max_length:
            return
        level = sorted({v for w in level for v in up(w)})


class CoxeterSystem:
    """A Coxeter system: rank, symmetric order matrix, generator labels.

    Matrix entries are the orders m(s,t) with 1 on the diagonal and values in
    {2, 3, ...} or None (infinite bond) off the diagonal.
    """

    def __init__(self, matrix, labels=None, name=None):
        matrix = tuple(tuple(row) for row in matrix)
        n = len(matrix)
        if n == 0:
            raise CoxeterError("empty Coxeter matrix")
        for i, row in enumerate(matrix):
            if len(row) != n:
                raise CoxeterError("Coxeter matrix is not square")
            for j, m in enumerate(row):
                if m is not None and (not isinstance(m, int) or isinstance(m, bool)):
                    raise CoxeterError(f"entry m[{i}][{j}]={m!r} is not an integer or None")
                if i == j and m != 1:
                    raise CoxeterError(f"diagonal entry m[{i}][{i}]={m!r} must be 1")
                if i != j and m is not None and m < 2:
                    raise CoxeterError(f"off-diagonal entry m[{i}][{j}]={m!r} must be >= 2 or None")
                if matrix[j][i] != m:
                    raise CoxeterError(f"Coxeter matrix is asymmetric at ({i},{j})")
        self.rank = n
        self.matrix = matrix
        self.labels = tuple(labels) if labels else tuple(f"s{i+1}" for i in range(n))
        if len(self.labels) != n:
            raise CoxeterError("wrong number of labels")
        self.name = name
        self._class_cache: dict = {}
        self._identity = CoxElem(self, ())

    def m(self, s: int, t: int) -> Optional[int]:
        return self.matrix[s][t]

    def __eq__(self, other):
        return isinstance(other, CoxeterSystem) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        if self.name:
            return f"CoxeterSystem({self.name})"
        return f"CoxeterSystem(rank={self.rank})"

    # -- word parsing / display ------------------------------------------

    def gen(self, i: int) -> "CoxElem":
        if not 0 <= i < self.rank:
            raise CoxeterError(f"generator index {i} out of range")
        return CoxElem(self, (i,))

    def parse_word(self, text: str) -> tuple:
        """Whitespace-separated generator labels -> tuple of indices."""
        out = []
        for tok in text.split():
            if tok not in self.labels:
                raise CoxeterError(f"unknown generator label {tok!r}")
            out.append(self.labels.index(tok))
        return tuple(out)

    def word_str(self, word: Sequence[int]) -> str:
        return " ".join(self.labels[i] for i in word)

    # -- braid-move closure ----------------------------------------------

    def braid_class(self, word: Sequence[int]) -> frozenset:
        """All words reachable from `word` by braid moves (no cancellation).

        Cached; the cache is only ever fed reduced words, for which the class
        is exactly the set of reduced expressions of the element.
        """
        word = tuple(word)
        cached = self._class_cache.get(word)
        if cached is not None:
            return cached
        seen = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for i in range(len(w)):
                s = w[i]
                for t in range(self.rank):
                    if t == s:
                        continue
                    m = self.matrix[s][t]
                    if m is None or i + m > len(w):
                        continue
                    if w[i:i + m] == _alt(s, t, m):
                        w2 = w[:i] + _alt(t, s, m) + w[i + m:]
                        if w2 not in seen:
                            seen.add(w2)
                            stack.append(w2)
        cls = frozenset(seen)
        for w in cls:
            self._class_cache[w] = cls
        return cls

    def _canonical(self, reduced_word: Sequence[int]) -> tuple:
        return min(self.braid_class(reduced_word))

    def _mult_gen(self, word: tuple, s: int) -> tuple:
        """Normal form of (reduced canonical word) * s."""
        for w in self.braid_class(word):
            if w and w[-1] == s:
                return self._canonical(w[:-1])
        return self._canonical(word + (s,))

    def normal_form(self, word: Sequence[int]) -> "CoxElem":
        """ShortLex-minimal reduced word of the element spelled by `word`."""
        nf = ()
        for s in word:
            if not 0 <= s < self.rank:
                raise CoxeterError(f"generator index {s} out of range")
            nf = self._mult_gen(nf, s)
        return CoxElem(self, nf)

    def is_reduced(self, word: Sequence[int]) -> bool:
        return len(self.normal_form(word)) == len(tuple(word))

    # -- element enumeration ---------------------------------------------

    @property
    def identity(self) -> "CoxElem":
        return self._identity

    def enumerate_elements(self, max_length=None, max_elements=None,
                           I: Iterable[int] = ()) -> Iterator["CoxElem"]:
        """The I-reduced elements w (no s in I with l(sw) < l(w)), each once,
        by increasing length, ShortLex within a length; I empty walks all of W.

        The I-reduced elements are closed under prefixes (Björner-Brenti,
        GTM 231, ch. 2), so each length is reached from the one below by the
        right multiplications that lengthen and stay I-reduced: the walk
        never visits the rest of W.  An infinite W needs max_length or
        max_elements.
        """
        if max_length is None and max_elements is None and not self.is_finite():
            raise CoxeterError("max_length required for an infinite system")
        I = frozenset(I)

        def up(w):
            for s in range(self.rank):
                ws = self._mult_gen(w, s)
                if len(ws) > len(w) and (
                        not I or I.isdisjoint(CoxElem(self, ws).descents("left"))):
                    yield ws

        words = chain.from_iterable(_by_length([()], up, max_length))
        return (CoxElem(self, w) for w in islice(words, max_elements))

    def elements(self) -> list:
        """All elements of a finite system."""
        if not self.is_finite():
            raise CoxeterError("system is not finite")
        return list(self.enumerate_elements())

    def is_finite(self) -> bool:
        """Exact, read off the Coxeter graph (see the module docstring)."""
        return _graph_is_finite(self.matrix, range(self.rank))


def _graph_is_finite(matrix, nodes: Iterable[int]) -> bool:
    """Whether the Coxeter graph of `matrix` restricted to `nodes` has only
    components of finite type (see the module docstring)."""
    nodes = set(nodes)
    adj = {v: {w: matrix[v][w] for w in nodes if w != v and matrix[v][w] != 2}
           for v in nodes}
    if any(m is None for bonds in adj.values() for m in bonds.values()):
        return False
    while nodes:
        component = [nodes.pop()]
        for v in component:
            new = adj[v].keys() & nodes
            nodes -= new
            component.extend(new)
        if not _component_is_finite(component, adj):
            return False
    return True


def _component_is_finite(component: list, adj: dict) -> bool:
    n = len(component)
    if n <= 2:
        return True
    degree = {v: len(adj[v]) for v in component}
    if sum(degree.values()) != 2 * (n - 1) or max(degree.values()) > 3:
        return False  # a cycle or a node of degree >= 4
    branches = [v for v in component if degree[v] == 3]
    if not branches:
        # a path: read its bonds from one end to the other
        v = next(v for v in component if degree[v] == 1)
        bonds, prev = [], None
        while len(bonds) < n - 1:
            w = next(w for w in adj[v] if w != prev)
            bonds.append(adj[v][w])
            prev, v = v, w
        special = [(i, m) for i, m in enumerate(bonds) if m != 3]
        if not special:
            return True  # A_n
        if len(special) > 1:
            return False
        (i, m), = special
        at_end = i in (0, n - 2)
        return (m == 4 and (at_end or n == 4)   # B_n, F_4
                or m == 5 and at_end and n <= 4)  # H_3, H_4
    if len(branches) > 1 or any(m != 3 for w in component for m in adj[w].values()):
        return False
    # one branch node with arms of p, q, r nodes (D_n, E_6, E_7, E_8):
    # finite iff 1/(p+1) + 1/(q+1) + 1/(r+1) > 1
    center = branches[0]
    arms = []
    for v in adj[center]:
        prev, nodes_in_arm = center, 1
        while degree[v] == 2:
            prev, v = v, next(w for w in adj[v] if w != prev)
            nodes_in_arm += 1
        arms.append(nodes_in_arm + 1)
    a, b, c = arms
    return b * c + a * c + a * b > a * b * c


class CoxElem:
    """An element of W, stored as its ShortLex-minimal reduced word."""

    __slots__ = ("system", "word", "_hash")

    def __init__(self, system: CoxeterSystem, word: tuple):
        self.system = system
        self.word = tuple(word)
        self._hash = hash((system.matrix, self.word))

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return (isinstance(other, CoxElem) and self.word == other.word
                and self.system == other.system)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __repr__(self):
        return f"<{self.system.word_str(self.word) or 'e'}>"

    def __str__(self):
        return self.system.word_str(self.word) or "e"

    def __mul__(self, other: "CoxElem") -> "CoxElem":
        if self.system != other.system:
            raise CoxeterError("elements of different Coxeter systems")
        nf = self.word
        for s in other.word:
            nf = self.system._mult_gen(nf, s)
        return CoxElem(self.system, nf)

    def inv(self) -> "CoxElem":
        # the reversal of a reduced word is reduced
        return CoxElem(self.system, self.system._canonical(self.word[::-1]))

    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def conj(self, other: "CoxElem") -> "CoxElem":
        """self * other * self^-1."""
        return self * other * self.inv()

    def reduced_words(self) -> frozenset:
        return self.system.braid_class(self.word)

    def descents(self, side: str = "right") -> frozenset:
        """Generators s with l(ws) < l(w) (right) or l(sw) < l(w) (left)."""
        if side == "right":
            return frozenset(w[-1] for w in self.reduced_words() if w)
        if side == "left":
            return frozenset(w[0] for w in self.reduced_words() if w)
        raise CoxeterError(f"side must be 'left' or 'right', got {side!r}")


# ---------------------------------------------------------------------------
# reflections


class Reflection:
    """A reflection t = u s u~ together with its palindromic witness (u, s)."""

    __slots__ = ("element", "witness_u", "witness_s")

    def __init__(self, element: CoxElem, witness_u: CoxElem, witness_s: int):
        expected = witness_u.word + (witness_s,) + witness_u.word[::-1]
        if len(element) != len(expected) or element.system.normal_form(expected) != element:
            raise CoxeterError("witness does not recompose to the reflection")
        self.element = element
        self.witness_u = witness_u
        self.witness_s = witness_s

    def __eq__(self, other):
        return isinstance(other, Reflection) and self.element == other.element

    def __hash__(self):
        return hash(self.element)

    def __repr__(self):
        return f"Reflection({self.element})"


def palindromize(el: CoxElem) -> tuple:
    """Witness (u, s) with el = u s u~, found in the braid-move class.

    By Dyer's palindromization every reduced word of a reflection is braid-move
    connected to a palindrome; a non-reflection of odd length has none.
    """
    if len(el) % 2 == 0:
        raise CoxeterError(f"{el} has even length, not a reflection")
    pal = [w for w in el.reduced_words() if w == w[::-1]]
    if not pal:
        raise CoxeterError(f"{el} is not a reflection")
    w = min(pal)
    n = len(w) // 2
    u = el.system.normal_form(w[:n])
    return u, w[n]


def is_reflection(el: CoxElem) -> bool:
    if len(el) % 2 == 0:
        return False
    return any(w == w[::-1] for w in el.reduced_words())


def make_reflection(el: CoxElem) -> Reflection:
    u, s = palindromize(el)
    return Reflection(el, u, s)


def reflections(system: CoxeterSystem, max_length: Optional[int] = None) -> list:
    """All reflections of length <= max_length (all of them, W finite, if
    None), by length, ShortLex within a length, each with the witness of
    `make_reflection`.

    The orbit of S is grown by the steps t -> s t s that add 2 to the length.
    They reach every reflection: for a reflection t other than s with
    l(st) < l(t), t(a_s) is a negative root other than -a_s, so s t s is a
    reflection of length l(t) - 2 (Björner-Brenti, GTM 231, ch. 4).
    """
    if max_length is None and not system.is_finite():
        raise CoxeterError("max_length required for an infinite system")
    gens = [system.gen(s) for s in range(system.rank)]

    def up(t):
        for s in gens:
            sts = (t * s).inv() * s  # (t s)^-1 = s t, t being an involution
            if len(sts) > len(t):
                yield sts

    return [make_reflection(t) for level in _by_length(gens, up, max_length)
            for t in level]


def conjugate_reflection(w: CoxElem, r: Reflection) -> Reflection:
    """w r w^-1 with a recomputed palindromic witness."""
    if w.system != r.element.system:
        raise CoxeterError("elements of different Coxeter systems")
    return make_reflection(w.conj(r.element))


# ---------------------------------------------------------------------------
# exchange lemma certificate


def exchange_witness(b: CoxElem, s: int, t: int) -> CoxElem:
    """Verify the exchange identity s b = b t and return the common element.

    Preconditions: s b and b t are reduced but s b t is not.
    """
    sys_ = b.system
    sb = sys_.gen(s) * b
    bt = b * sys_.gen(t)
    if len(sb) != len(b) + 1:
        raise CoxeterError("precondition violated: s b is not reduced")
    if len(bt) != len(b) + 1:
        raise CoxeterError("precondition violated: b t is not reduced")
    sbt = sb * sys_.gen(t)
    if len(sbt) == len(b) + 2:
        raise CoxeterError("precondition violated: s b t is reduced")
    if sb != bt:
        raise CoxeterError("exchange identity failed")  # unreachable if preconditions hold
    return sb


# ---------------------------------------------------------------------------
# parabolic machinery


def is_I_reduced(w: CoxElem, I: Iterable[int]) -> bool:
    """No s in I has l(sw) < l(w)."""
    I = frozenset(I)
    return not (w.descents("left") & I)


def coset_rep(w: CoxElem, I: Iterable[int]) -> CoxElem:
    """Minimal representative of W_I w, by peeling left I-descents."""
    I = frozenset(I)
    while True:
        d = w.descents("left") & I
        if not d:
            return w
        w = w.system.gen(min(d)) * w


def subsystem(system: CoxeterSystem, I: Sequence[int]) -> CoxeterSystem:
    """The Coxeter system on the sub-diagram I (fresh indexing)."""
    I = list(I)
    matrix = [[system.matrix[a][b] for b in I] for a in I]
    labels = [system.labels[a] for a in I]
    return CoxeterSystem(matrix, labels=labels)


def is_spherical(system: CoxeterSystem, I: Iterable[int]) -> bool:
    return _graph_is_finite(system.matrix, I)


def parabolic_elements(system: CoxeterSystem, I: Iterable[int]) -> list:
    """All elements of W_I, as elements of W (requires W_I finite), by
    length, ShortLex within a length: the elements of the subsystem on I,
    whose ShortLex words map letter by letter to those of W as I is sorted."""
    I = sorted(set(I))
    if not I:
        return [system.identity]
    return [CoxElem(system, tuple(I[a] for a in w.word))
            for w in subsystem(system, I).elements()]


def longest_element(system: CoxeterSystem, I: Optional[Iterable[int]] = None) -> CoxElem:
    """w_I, the longest element of the parabolic W_I (W itself if I is None):
    the element of W_I with every s in I as a right descent, reached from e
    by multiplying by an s in I that is not one yet."""
    I = frozenset(range(system.rank) if I is None else I)
    if not is_spherical(system, I):
        raise CoxeterError(f"parabolic on {sorted(I)} is not spherical")
    w = system.identity
    while missing := I - w.descents("right"):
        w = w * system.gen(min(missing))
    return w


def in_parabolic(w: CoxElem, I: Iterable[int]) -> bool:
    """Membership in W_I, by peeling left I-descents down to the identity."""
    return coset_rep(w, I).is_identity()


# ---------------------------------------------------------------------------
# named systems and JSON input

_NAMED = re.compile(r"^(A|B|D|H|F|E)(\d+)$|^I2\((\d+)\)$|^Atilde2$")


def _bond_chain(n: int, bonds: dict) -> list:
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    for (i, j), v in bonds.items():
        m[i][j] = m[j][i] = v
    return m


def named_system(name: str) -> CoxeterSystem:
    """Build a system from a name: A3, B3, D4, I2(5), H3, F4, E6-8, Atilde2."""
    name = name.strip()
    match = _NAMED.match(name)
    if not match:
        raise CoxeterError(f"unknown system name {name!r}")
    if name == "Atilde2":
        m = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
        return CoxeterSystem(m, labels=("r", "s", "t"), name=name)
    if name.startswith("I2("):
        order = int(match.group(3))
        if order < 2:
            raise CoxeterError("I2(m) needs m >= 2")
        return CoxeterSystem([[1, order], [order, 1]], labels=("s", "t"),
                             name=name)
    family, n = match.group(1), int(match.group(2))
    chain = {(i, i + 1): 3 for i in range(n - 1)}
    if family == "A":
        if n < 1:
            raise CoxeterError("A_n needs n >= 1")
        return CoxeterSystem(_bond_chain(n, chain), name=name)
    if family == "B":
        if n < 2:
            raise CoxeterError("B_n needs n >= 2")
        chain[(0, 1)] = 4
        return CoxeterSystem(_bond_chain(n, chain), name=name)
    if family == "H":
        if n not in (3, 4):
            raise CoxeterError("H_n needs n in {3, 4}")
        chain[(0, 1)] = 5
        return CoxeterSystem(_bond_chain(n, chain), name=name)
    if family == "F":
        if n != 4:
            raise CoxeterError("only F4 exists")
        chain[(1, 2)] = 4
        return CoxeterSystem(_bond_chain(n, chain), name=name)
    if family == "D":
        # labels s2, s2', s3, ..., sn; both s2 and s2' bond to s3
        if n < 3:
            raise CoxeterError("D_n needs n >= 3")
        labels = ["s2", "s2'"] + [f"s{i}" for i in range(3, n + 1)]
        bonds = {(0, 2): 3, (1, 2): 3}
        bonds.update({(i, i + 1): 3 for i in range(2, n - 1)})
        return CoxeterSystem(_bond_chain(n, bonds), labels=labels, name=name)
    if family == "E":
        if n not in (6, 7, 8):
            raise CoxeterError("E_n needs n in {6, 7, 8}")
        # chain s1..s(n-1) with the branch node s_n attached to the third node
        bonds = {(i, i + 1): 3 for i in range(n - 2)}
        bonds[(2, n - 1)] = 3
        return CoxeterSystem(_bond_chain(n, bonds), name=name)
    raise CoxeterError(f"unknown system name {name!r}")


def system_from_json(doc) -> CoxeterSystem:
    """{"rank": n, "m": [[...]], "labels": [...]}; null/0/"inf" mean infinity."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    rank = doc["rank"]
    raw = doc["m"]
    if len(raw) != rank:
        raise CoxeterError("rank does not match matrix size")

    def entry(v):
        if v is None or v == 0 or v == "inf":
            return None
        return int(v)

    matrix = [[entry(v) for v in row] for row in raw]
    return CoxeterSystem(matrix, labels=doc.get("labels"))


def load_system(spec: str) -> CoxeterSystem:
    """A named type ("B3", "I2(5)", ...) or a JSON document."""
    spec = spec.strip()
    if spec.startswith("{"):
        return system_from_json(spec)
    return named_system(spec)
