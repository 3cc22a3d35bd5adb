"""Independent models used to cross-check the word-based Coxeter arithmetic.

These are test oracles only; the primary element representation everywhere
else in the package is the reduced word.  Types A, B and D get permutation
models, and systems with bond orders in {2, 3, 4, 5, 6} get the reflection
representation over Z, or over Z[phi] when a bond is 5 (H3, H4, I2(5)); the
affine example uses it too.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .coxeter import CoxElem, CoxeterError, CoxeterSystem, named_system


# -- permutation models ------------------------------------------------------
#
# A permutation oracle is a list of generator images; an element image is the
# composition of the letter images of any reduced word.  Signed permutations
# are tuples over {+-1..+-n} mapping position i (0-based) to a signed value.


def compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """(p then q) on signed tuples: apply q after p."""
    out = []
    for v in p:
        w = q[abs(v) - 1]
        out.append(w if v > 0 else -w)
    return tuple(out)


def _transposition(n: int, i: int, j: int, flip: bool = False) -> Tuple[int, ...]:
    img = list(range(1, n + 1))
    img[i], img[j] = img[j], img[i]
    if flip:
        img[i], img[j] = -img[i], -img[j]
    return tuple(img)


def _sign_flip(n: int, i: int) -> Tuple[int, ...]:
    img = list(range(1, n + 1))
    img[i] = -img[i]
    return tuple(img)


class PermutationOracle:
    """Generator images in a (signed) permutation group."""

    def __init__(self, system: CoxeterSystem, degree: int, gen_images):
        self.system = system
        self.degree = degree
        self.gen_images = list(gen_images)
        self.identity = tuple(range(1, degree + 1))

    @classmethod
    def type_A(cls, n: int) -> "PermutationOracle":
        """A_n as permutations of n+1 points; s_i = (i, i+1)."""
        system = named_system(f"A{n}")
        deg = n + 1
        return cls(system, deg, [_transposition(deg, i, i + 1) for i in range(n)])

    @classmethod
    def type_B(cls, n: int) -> "PermutationOracle":
        """B_n as signed permutations; s_1 flips the first coordinate."""
        system = named_system(f"B{n}")
        gens = [_sign_flip(n, 0)]
        gens += [_transposition(n, i - 1, i) for i in range(1, n)]
        return cls(system, n, gens)

    @classmethod
    def type_D(cls, n: int) -> "PermutationOracle":
        """D_n as even-signed permutations, generator order s2, s2', s3..sn."""
        system = named_system(f"D{n}")
        gens = [_transposition(n, 0, 1),
                _transposition(n, 0, 1, flip=True)]
        gens += [_transposition(n, i - 1, i) for i in range(2, n)]
        return cls(system, n, gens)

    @classmethod
    def for_system(cls, name: str) -> "PermutationOracle":
        kind, rank = name[:1], name[1:]
        if kind in ("A", "B", "D") and rank.isdigit():
            return getattr(cls, f"type_{kind}")(int(rank))
        raise CoxeterError(f"no permutation oracle for {name!r}")

    def image_of_word(self, word: Sequence[int]) -> Tuple[int, ...]:
        img = self.identity
        for s in word:
            img = compose(img, self.gen_images[s])
        return img

    def image(self, el: CoxElem) -> Tuple[int, ...]:
        return self.image_of_word(el.word)

    def descents(self, perm: Tuple[int, ...], side: str = "right") -> frozenset:
        """Descents read off the permutation image (independent of words)."""
        out = set()
        for s, g in enumerate(self.gen_images):
            probe = compose(g, perm) if side == "left" else compose(perm, g)
            # l(ws) < l(w) iff multiplying shortens; decide by oracle length
            if self.length(probe) < self.length(perm):
                out.add(s)
        return frozenset(out)

    def length(self, perm: Tuple[int, ...]) -> int:
        """Coxeter length from the combinatorial inversion statistics."""
        n = self.degree
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        if all(v > 0 for v in perm) and len(self.gen_images) == n - 1:
            return inv  # type A
        neg = sum(1 for v in perm if v < 0)
        nsp = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] + perm[j] < 0)
        if len(self.gen_images) == n and self.system.matrix[0][1] == 4:
            return inv + neg + nsp  # type B
        return inv + nsp  # type D


# -- integer matrix representation -------------------------------------------


class GoldenInt:
    """a + b phi in Z[phi], phi = (1 + sqrt 5) / 2, so phi^2 = phi + 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        self.a = a
        self.b = b

    @staticmethod
    def _of(x) -> "GoldenInt":
        return x if isinstance(x, GoldenInt) else GoldenInt(x)

    def __add__(self, other):
        other = self._of(other)
        return GoldenInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return GoldenInt(-self.a, -self.b)

    def __sub__(self, other):
        return self + -self._of(other)

    def __rsub__(self, other):
        return self._of(other) - self

    def __mul__(self, other):
        other = self._of(other)
        bd = self.b * other.b
        return GoldenInt(self.a * other.a + bd, self.a * other.b + self.b * other.a + bd)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (GoldenInt, int)):
            return NotImplemented
        other = self._of(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a}{self.b:+}phi)"


# a_ij * a_ji = 4 cos^2(pi/m); for m = 5 that is phi^2
_CARTAN_PRODUCT = {2: 0, 3: 1, 4: 2, 5: GoldenInt(1, 1), 6: 3}


class MatrixOracle:
    """Exact reflection representation over Z, or over Z[phi] for bond 5.

    Uses a generalized Cartan matrix: a_ii = 2 and, for i != j,
    a_ij a_ji = 4 cos^2(pi/m_ij), which is an integer exactly for the
    crystallographic orders m in {2, 3, 4, 6} and is phi^2 for m = 5 (the
    split 1 * k puts the larger entry below the diagonal).  The entries are
    ints when no bond is 5, else all of them are GoldenInt.  The generator
    s_i acts on the root basis by alpha_j -> alpha_j - a_ij alpha_i; this
    representation is faithful, so matrix images give an independent
    equality test.
    """

    def __init__(self, system: CoxeterSystem):
        n = system.rank
        bonds = {system.matrix[i][j] for i in range(n) for j in range(n) if i != j}
        for m in bonds:
            if m not in _CARTAN_PRODUCT:
                raise CoxeterError(f"matrix oracle needs bond orders in {{2,3,4,5,6}}, got {m}")
        ring = GoldenInt._of if 5 in bonds else int  # _of keeps a GoldenInt flat
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                prod = _CARTAN_PRODUCT[system.matrix[i][j]] if i != j else 0
                if prod != 0:
                    cartan[i][j] = -1 if i < j else -prod
        self.system = system
        self.gen_mats = []
        for i in range(n):
            # column-action matrix M with (s_i x)_a = sum_b M[a][b] x_b on
            # root coordinates: alpha_j -> alpha_j - a_ij alpha_i
            mat = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            for j in range(n):
                mat[i][j] -= cartan[i][j]
            self.gen_mats.append(tuple(tuple(ring(x) for x in r) for r in mat))
        self.identity = tuple(tuple(ring(1 if a == b else 0) for b in range(n))
                              for a in range(n))

    def _matmul(self, A, B):
        n = self.system.rank
        return tuple(tuple(sum(A[a][k] * B[k][b] for k in range(n)) for b in range(n))
                     for a in range(n))

    def image_of_word(self, word: Sequence[int]):
        img = self.identity
        for s in word:
            img = self._matmul(img, self.gen_mats[s])
        return img

    def image(self, el: CoxElem):
        return self.image_of_word(el.word)
