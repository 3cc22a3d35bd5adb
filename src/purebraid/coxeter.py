"""Exact arithmetic in arbitrary Coxeter groups.

Elements are stored as ShortLex-minimal reduced words, and everything about
them is read off the action of W on one vector of the reflection
representation (Bjorner-Brenti, GTM 231, ch. 4; Casselman, "Computation in
Coxeter groups I", Electron. J. Combin. 9, 2002).  For w in W^I the coset
vector of W_I w is r_j = x_I(w a_j), where x_I is the linear form that is 0
on the simple roots a_i, i in I, and 1 on the others; it depends on the coset
only and determines it.  Right multiplication by s sends r to r - A[s] r_s,
and the sign of r_s says how s acts: r_s > 0, ws is longer and I-reduced;
r_s < 0, ws is shorter; r_s = 0, ws = tw for the t in I with w(a_s) = a_t
(Deodhar).  The Cartan matrix A is integral when every bond lies in
{2, 3, 4, 6, inf}; otherwise it is the symmetric matrix of -2cos(pi/m) over
the exact ring Z[2cos(pi/M)], with signs certified in integers: Horner's rule
on integer intervals over brackets of 2cos(pi/M), each one Newton step on its
minimal polynomial from the last.

At I = () the vector of w is the heights of the roots w(a_j), and s is a
right descent of w iff r_s < 0.  `CoxElem` products, inverses, normal forms
and descent sets all act on this vector in place, in one call of the ring
each: `walk` applies the letters of a word to one copy of the identity's
vector, and `peel` takes the least left descent off the vector of w^-1 until
none is left, which spells the ShortLex word of w (`CoxeterSystem._shortlex`,
one walk and one peel).  This holds for every Coxeter system, infinite bonds
and non-crystallographic types included.  The walk of the I-reduced elements
W^I (`enumerate_elements`) is also the coset table of `schreier`, for any I:
asked to, it records each step it takes (`_levels`); it keys its levels by
the vectors r s, so it takes them one letter at a time, each a new tuple
(`step`).  The positive roots, and with them the reflections
(`reflections`), are raised one depth at a time from the simple roots, each
with its least witness read off the root below it; only the walk of W^I for
I nonempty reads them off the frames w(a_j) of its elements.  N reads the
reflection of a letter s after a prefix x as the palindrome x s x^-1, one
peel each (`CoxeterSystem._palindromes`).  (N, p): B_W -> ZT x| W is folded
over reflection ids and coset vectors alone (`CoxeterSystem._fold_Np`) to
compare images in `nmap` and `schreier`: the vector at I = () determines w.
A positive root gets an integer id the first time it is met, and a table
keeps the simple reflections acting on the ids, filled one `_act` per (root,
s) pair ever met, so a truncated infinite type needs no list of its roots;
w(a_s) is then len(w) lookups (`_root_id`), and the fold sums coefficients
keyed by id.

Finiteness is decided exactly from the Coxeter graph by the classification
of the finite Coxeter groups (Coxeter 1935; Humphreys, Reflection Groups and
Coxeter Groups, 2.7): W is finite iff every connected component of its graph
is of type A_n, B_n, D_n, E_6..E_8, F_4, H_3, H_4 or I_2(m).
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from math import cos, lcm, pi
from typing import Iterable, Iterator, Optional, Sequence, Tuple


class CoxeterError(ValueError):
    pass


def _alt(s: int, t: int, length: int) -> tuple:
    """Alternating word s t s t ... with `length` letters, starting with s."""
    return ((s, t) * (length // 2 + 1))[:length]


# ---------------------------------------------------------------------------
# exact rings of the reflection representation


class _Integers:
    """Z, the ring of a system whose bonds all lie in {2, 3, 4, 6, inf}."""

    zero, one = 0, 1

    @staticmethod
    def neg(x):
        return -x

    @staticmethod
    def submul(y, a, x):
        """y - a x, a being a Cartan entry."""
        return y - a * x

    @staticmethod
    def sign(x):
        return (x > 0) - (x < 0)

    @staticmethod
    def const(x):
        """x as the factor a of `submul`."""
        return x

    @staticmethod
    def step(r, s, row):
        """(sign of r_s, the coset vector r s), row being rows[s] of
        `CoxeterSystem._cartan_rows` (see the module docstring)."""
        x = r[s]
        if not x:
            return 0, r
        out = list(r)
        out[s] = -x
        for t, a in row:
            out[t] -= a * x
        return (1 if x > 0 else -1), tuple(out)

    @staticmethod
    def walk(r, word, rows):
        """The coset vector r w as a list, w spelled by `word`: one copy of
        r, then each letter s applied to it in place (r_s = 0 leaves it
        unchanged)."""
        r = list(r)
        for s in word:
            x = r[s]
            r[s] = -x
            for t, a in rows[s]:
                r[t] -= a * x
        return r

    @staticmethod
    def peel(r, rows, most):
        """The letters peeled off the list r in place, the least s with r_s < 0
        first, until no entry is negative (see the module docstring); more
        than `most`, the length of the walked word, is a fault of the walk."""
        letters = []
        for _ in range(most + 1):
            for s, x in enumerate(r):
                if x < 0:
                    break
            else:
                return letters
            letters.append(s)
            r[s] = -x
            for t, a in rows[s]:
                r[t] -= a * x
        raise RuntimeError(f"peeled more than {most} letters off a walked vector")


# (A[s][t], A[t][s]) for s < t: the integral Cartan split of a bond
_INTEGRAL_SPLIT = {3: (-1, -1), 4: (-1, -2), 6: (-1, -3), None: (-2, -2)}


class _RealCyclotomic:
    """Z[theta], theta = 2cos(pi/M) for M >= 4, as integer vectors over the
    power basis 1, theta, ..., theta^(d-1) (d = phi(2M)/2): equality is
    equality of vectors.  A Cartan entry is kept as the nonzero entries
    (row, column, entry) of the integer matrix of multiplication by it:
    multiplication by theta has about 2d of them.

    The sign is exact.  theta >= 1, so a vector with no negative (no
    positive) coordinate is positive (negative).  Otherwise, for g = 64,
    112, 208, ... (g <- 2g - 16) and lo < theta 2^g < hi = lo + 1, Horner's
    rule runs on integer intervals: a = b = the leading coordinate, then
    for k = 1, 2, ... [a, b] <- [a lo + min(a, 0), b lo + max(b, 0)]
    + c 2^(g k), c the next coordinate (the least and greatest of a lo,
    a hi, b lo, b hi, as lo > 0), so the value so far lies in
    [a, b] / 2^(g k).  Nothing is rounded, and a > 0 or b < 0 for some g,
    the element being nonzero.  The bracket is certified by the signs of
    the minimal polynomial psi, evaluated exactly by Horner's rule.
    L = floor((2 - (22/7M)^2) 2^g) lies below theta 2^g (cos x >= 1 - x^2/2
    and pi < 22/7) and, for g >= 32, above 2cos(3 pi/M) 2^g, hence above
    every other root 2cos(k pi/M) of psi; so psi < 0 between L and theta
    and psi > 0 above theta, and an lo >= L with psi(lo) < 0 < psi(lo + 1)
    (scaled by 2^-g) certifies the bracket, theta being irrational.  lo is
    one Newton step on psi, clamped at L, from a float if g <= 64, else
    from the bracket of h = g//2 + 8 >= 40 bits, then steps by 1 until the
    two signs certify it.  So each bracket of `sign` is one Newton step from
    the last, and one made from nothing takes O(log g) evaluations of psi.
    """

    def __init__(self, M: int):
        self.M = M
        self.poly = _min_poly_2cos(M)  # monic, lowest coefficient first
        d = self.d = len(self.poly) - 1
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        self._brackets = {}  # {g: lo}

    def _reduce(self, coeffs: list) -> tuple:
        coeffs = list(coeffs) + [0] * (self.d - len(coeffs))
        for k in range(len(coeffs) - 1, self.d - 1, -1):
            c = coeffs[k]
            if c:
                for i, p in enumerate(self.poly[:-1]):
                    coeffs[k - self.d + i] -= c * p
        return tuple(coeffs[:self.d])

    def two_cos(self, j: int) -> tuple:
        """2cos(j pi/M): C_j(theta) with C_0 = 2, C_1 = theta and
        C_{k+1} = theta C_k - C_{k-1}."""
        prev, cur = [2], [0, 1]
        for _ in range(j):
            prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0, 0])]
        return self._reduce(prev)

    def const(self, x: tuple) -> tuple:
        """The nonzero entries of the matrix of multiplication by x."""
        return tuple((i, k, v) for k in range(self.d)
                     for i, v in enumerate(self._reduce([0] * k + list(x))) if v)

    @staticmethod
    def neg(x):
        return tuple(-c for c in x)

    @staticmethod
    def submul(y, a, x):
        out = list(y)
        for i, k, v in a:
            out[i] -= v * x[k]
        return tuple(out)

    def step(self, r, s, row):
        """`_Integers.step` over Z[theta]."""
        x = r[s]
        sign = self.sign(x)
        if not sign:
            return 0, r
        out = list(r)
        out[s] = tuple(-c for c in x)
        for t, a in row:
            y = list(out[t])
            for i, k, v in a:
                y[i] -= v * x[k]
            out[t] = tuple(y)
        return sign, tuple(out)

    @staticmethod
    def walk(r, word, rows):
        """`_Integers.walk` over Z[theta], each entry a list of its
        coordinates."""
        r = [list(x) for x in r]
        for s in word:
            x = r[s]
            r[s] = [-c for c in x]
            for t, a in rows[s]:
                y = r[t]
                for i, k, v in a:
                    y[i] -= v * x[k]
        return r

    def peel(self, r, rows, most):
        """`_Integers.peel` over Z[theta]: the sign of an entry is taken
        again only when a letter changes it."""
        sign = self.sign
        signs = [sign(x) for x in r]
        letters = []
        for _ in range(most + 1):
            if -1 not in signs:
                return letters
            s = signs.index(-1)
            letters.append(s)
            x = r[s]
            r[s], signs[s] = [-c for c in x], 1
            for t, a in rows[s]:
                y = r[t]
                for i, k, v in a:
                    y[i] -= v * x[k]
                signs[t] = sign(y)
        raise RuntimeError(f"peeled more than {most} letters off a walked vector")

    def sign(self, x) -> int:
        if min(x) >= 0:
            return 1 if any(x) else 0
        if max(x) <= 0:
            return -1
        g = 64
        while True:
            lo, _ = self._theta_bracket(g)
            a = b = x[-1]
            for k, c in enumerate(reversed(x[:-1]), 1):
                c <<= g * k
                a, b = a * lo + min(a, 0) + c, b * lo + max(b, 0) + c
            if a > 0:
                return 1
            if b < 0:
                return -1
            g = 2 * g - 16

    def _psi(self, k: int, g: int, derivative: bool = False) -> int:
        """psi(k / 2^g) 2^(g d), or psi'(k / 2^g) 2^(g (d - 1)), by Horner's
        rule on integers."""
        poly = self.poly
        if derivative:
            poly = [i * c for i, c in enumerate(poly)][1:]
        value = 0
        for i, c in enumerate(reversed(poly)):
            value = value * k + (c << g * i)
        return value

    def _theta_bracket(self, g: int) -> Tuple[int, int]:
        """Integers lo < theta 2^g < hi = lo + 1 (see the class docstring)."""
        if g not in self._brackets:
            if g <= 64:
                x = round(2 * cos(pi / self.M) * 2.0 ** g)
            else:
                h = g // 2 + 8
                x = self._theta_bracket(h)[0] << (g - h)
            L = ((98 * self.M ** 2 - 484) << g) // (49 * self.M ** 2)
            lo = max(L, x - self._psi(x, g) // self._psi(x, g, derivative=True))
            while self._psi(lo, g) > 0:
                lo -= 1
            while self._psi(lo + 1, g) < 0:
                lo += 1
            self._brackets[g] = lo
        return self._brackets[g], self._brackets[g] + 1


def _min_poly_2cos(M: int) -> list:
    """The minimal polynomial of 2cos(pi/M), lowest coefficient first: the
    cyclotomic polynomial Phi_2M(x) is x^d psi(x + 1/x)."""
    def divide(num, den):  # exact division of integer polynomials, den monic
        num, out = list(num), [0] * (len(num) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            out[k] = c = num[k + len(den) - 1]
            for i, p in enumerate(den):
                num[k + i] -= c * p
        return out

    n = 2 * M
    cyclo = {}
    for e in range(1, n + 1):
        if n % e == 0:
            f = [-1] + [0] * (e - 1) + [1]
            for g in cyclo:
                if e % g == 0:
                    f = divide(f, cyclo[g])
            cyclo[e] = f
    laurent = cyclo[n]  # palindromic, degree 2d: coefficient of x^(k-d) at k
    d = (len(laurent) - 1) // 2
    psi = [0] * (d + 1)
    for k in range(d, 0, -1):
        # take c (x + 1/x)^k off the terms of degree -k..k
        c = psi[k] = laurent[d + k]
        binom = 1
        for i in range(k + 1):
            laurent[d + k - 2 * i] -= c * binom
            binom = binom * (k - i) // (i + 1)
    psi[0] = laurent[d]
    return psi


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
        for label in self.labels:
            # a label is one token of parse_word, and "e" prints the identity
            if not isinstance(label, str) or not label or label == "e" \
                    or any(c.isspace() for c in label):
                raise CoxeterError(f"label {label!r} must be a non-empty string "
                                   "with no whitespace, other than 'e'")
        if len(set(self.labels)) != n:
            raise CoxeterError(f"labels {list(self.labels)} are not distinct")
        self.name = name
        self._cartan = self._simple_frame = self._identity_vector = None
        self._ids = None  # the reflection ids of `_id_table`
        self._identity_walk = None  # the vector `_fold_Np` gives an empty W-part

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

    # -- element arithmetic --------------------------------------------------

    def normal_form(self, word: Sequence[int]) -> "CoxElem":
        """ShortLex-minimal reduced word of the element spelled by `word`."""
        word = tuple(word)
        for s in word:
            if not 0 <= s < self.rank:
                raise CoxeterError(f"generator index {s} out of range")
        return self._shortlex(word)

    def is_reduced(self, word: Sequence[int]) -> bool:
        return len(self.normal_form(word)) == len(tuple(word))

    # -- the action of W on one vector ------------------------------------

    def _cartan_rows(self):
        """(ring, rows): rows[s] lists the (t, A[s][t]) with t != s and
        A[s][t] != 0, for the Cartan matrix A with s(a_t) = a_t - A[s][t] a_s
        (see the module docstring)."""
        if self._cartan is None:
            bonds = {m for row in self.matrix for m in row} - {1, 2}
            if bonds <= _INTEGRAL_SPLIT.keys():
                ring = _Integers()

                def entry(s, t, m):
                    return _INTEGRAL_SPLIT[m][s > t]
            else:
                M = lcm(*(m for m in bonds if m not in (3, None)))
                ring = _RealCyclotomic(M)

                def entry(s, t, m):  # -2cos(pi/m): -1 for m = 3, -2 for m = inf
                    two_cos = ring.one if m == 3 else ring.two_cos(0 if m is None else M // m)
                    return ring.const(ring.neg(two_cos))
            rows = tuple(tuple((t, entry(s, t, m)) for t, m in enumerate(row)
                               if t != s and m != 2)
                         for s, row in enumerate(self.matrix))
            self._cartan = ring, rows
        return self._cartan

    def _coset_vector(self, I: Iterable[int]) -> tuple:
        """The coset vector of W_I itself; that of the identity (I empty)
        is made once per system."""
        if I:
            ring, _ = self._cartan_rows()
            return tuple(ring.zero if j in I else ring.one for j in range(self.rank))
        if self._identity_vector is None:
            ring, _ = self._cartan_rows()
            self._identity_vector = (ring.one,) * self.rank
        return self._identity_vector

    def _vector(self, word: Iterable[int]) -> list:
        """The coset vector at I = () of the element w spelled by `word`, as
        a list, walked in one ring call: r_j is the height of w(a_j), so s
        is a right descent of w iff r_s < 0."""
        ring, rows = self._cartan_rows()
        return ring.walk(self._coset_vector(()), word, rows)

    def _shortlex(self, word: Sequence[int]) -> "CoxElem":
        """The element spelled by `word`, with its ShortLex word, in one
        walk and one peel: the least left descent s of w, the least s with
        r_s < 0 on the vector r of w^-1, then the ShortLex word of s w,
        whose inverse has the vector r s."""
        ring, rows = self._cartan_rows()
        r = ring.walk(self._coset_vector(()), reversed(word), rows)
        return CoxElem(self, tuple(ring.peel(r, rows, len(word))))

    def _act(self, word: Sequence[int], v: Sequence) -> tuple:
        """w(v), w spelled by `word` and v over the simple roots: one simple
        reflection at a time, s(v) = v - (sum_t A[s][t] v_t) a_s."""
        ring, rows = self._cartan_rows()
        v = list(v)
        for i in reversed(word):
            x = ring.neg(v[i])
            for t, a in rows[i]:
                x = ring.submul(x, a, v[t])
            v[i] = x
        return tuple(v)

    def _root(self, word: Sequence[int], s: int) -> tuple:
        """w(a_s), w spelled by `word`, over the simple roots: the positive
        root of the reflection w s w^-1 when ws is longer than w."""
        return self._act(word, self._frame()[s])

    def _frame(self) -> tuple:
        """The frame of the identity: the simple roots a_j, over themselves;
        made once per system."""
        if self._simple_frame is None:
            ring, _ = self._cartan_rows()
            zero = (ring.zero,) * self.rank
            self._simple_frame = tuple(zero[:j] + (ring.one,) + zero[j + 1:]
                                       for j in range(self.rank))
        return self._simple_frame

    def _frame_step(self, frame: tuple, s: int) -> tuple:
        """The frame (ws)(a_j) of ws from the frame w(a_j) of w: (ws)(a_j) =
        w(a_j) - A[s][j] w(a_s).  A frame determines its element, the
        reflection representation being faithful."""
        ring, rows = self._cartan_rows()
        ws = frame[s]
        out = list(frame)
        out[s] = tuple(ring.neg(x) for x in ws)
        for j, a in rows[s]:
            out[j] = tuple(ring.submul(y, a, x) for y, x in zip(frame[j], ws))
        return tuple(out)

    def _frames(self, words: Iterable[tuple]) -> dict:
        """{word: its frame} over `words` and their prefixes, each frame one
        step from that of its longest proper prefix."""
        frames = {(): self._frame()}
        for word in words:
            k = len(word)
            while word[:k] not in frames:
                k -= 1
            for j in range(k, len(word)):
                frames[word[:j + 1]] = self._frame_step(frames[word[:j]], word[j])
        return frames

    def _positive(self, root: tuple) -> tuple:
        """The positive one of the roots +-root: a root has all its
        coordinates of one sign, so the first nonzero one decides."""
        ring, _ = self._cartan_rows()
        x = next(x for x in root if x != ring.zero)
        return root if ring.sign(x) > 0 else tuple(ring.neg(y) for y in root)

    def _palindromes(self, prefix: Sequence[int], word: Iterable[int]) -> Iterator[tuple]:
        """Per letter s of `word` read after `prefix`, (the sign of r_s, the
        reflection x s x^-1 as a CoxElem), x spelled by `prefix` and the
        letters before s, r its coset vector: the sign is -1 iff s is a right
        descent of x.  r is stepped one letter at a time.  x s x^-1 = y s y^-1
        for y the shorter of x and x s, and a palindrome is its own inverse,
        so its ShortLex word is the peel of the vector of y walked on by s
        and y^-1.  The word y is kept reduced: x s when s raises x, else the
        reverse of the peel of the vector of x s.  A letter then costs
        O(l(x)) steps however long the word read so far."""
        ring, rows = self._cartan_rows()
        x, r = tuple(prefix), self._vector(prefix)
        for s in word:
            sign, rs = ring.sign(r[s]), ring.walk(r, (s,), rows)
            if sign > 0:  # y = x, of vector r
                y, x = x, x + (s,)
            else:  # y = x s, of vector rs
                r = rs
                x = y = tuple(ring.peel(ring.walk(r, (), rows), rows, len(x)))[::-1]
            t = ring.peel(ring.walk(r, (s,) + y[::-1], rows), rows, 2 * len(y) + 1)
            r = rs
            yield sign, CoxElem(self, t)

    def _id_table(self) -> tuple:
        """({positive root: id}, [the root of each id], reflected): the
        simple root a_s has the id s, and every other positive root gets the
        next id the first time it is met.  reflected[rank i + t] is the id
        of the positive one of +-s_t(root i), None until `_reflected_id`
        first reads it; made once per system."""
        if self._ids is None:
            frame = self._frame()
            self._ids = ({root: s for s, root in enumerate(frame)}, list(frame),
                         [None] * self.rank ** 2)
        return self._ids

    def _reflected_id(self, i: int, t: int) -> int:
        """The id of the positive one of +-s_t(root i), by one `_act` the
        first time the pair (i, t) is met; s_t being an involution, the pair
        (that id, t) is filled in too."""
        ids, roots, reflected = self._id_table()
        root = self._positive(self._act((t,), roots[i]))
        j = ids.setdefault(root, len(roots))
        if j == len(roots):
            roots.append(root)
            reflected += [None] * self.rank
        reflected[self.rank * i + t] = j
        reflected[self.rank * j + t] = i
        return j

    def _root_id(self, word: Sequence[int], s: int) -> int:
        """The id of the positive one of +-w(a_s), w spelled by `word`: one
        lookup in the table per letter, the last letter first."""
        rank, reflected = self.rank, (self._ids or self._id_table())[2]
        for t in reversed(word):
            j = reflected[rank * s + t]
            s = self._reflected_id(s, t) if j is None else j
        return s

    def _fold_Np(self, images: Iterable[tuple]) -> tuple:
        """(N, p) of a product of images (pairs (root id, coefficient), a
        word of the W-part) in ZT x| W, a reflection being read as the id
        of its positive root (`_id_table`): from (0, 1), (x, w)(y, v) =
        (x + w.y, w v), w acting on the ids of y by `_root_id`, and only
        once the W-part is nonempty.  Returns ({root id: nonzero
        coefficient}, the coset vector of the W-part): equal for two
        products iff they are, the vector at I = () determining its element
        (module docstring).  The vector is one walk of the W-part's word; an
        empty W-part is not walked but gets `_vector(())`, one list made
        once per system, which the caller must not change."""
        x, word = {}, []
        for roots, v in images:
            for i, c in roots:
                if word:
                    i = self._root_id(word, i)
                x[i] = x.get(i, 0) + c
            word += v
        x = {i: c for i, c in x.items() if c}
        if word:
            return x, self._vector(word)
        if self._identity_walk is None:
            self._identity_walk = self._vector(())
        return x, self._identity_walk

    # -- element enumeration ---------------------------------------------

    @property
    def identity(self) -> "CoxElem":
        return CoxElem(self, ())

    def enumerate_elements(self, max_length=None, max_elements=None,
                           I: Iterable[int] = ()) -> Iterator["CoxElem"]:
        """The I-reduced elements w (no s in I with l(sw) < l(w)), each once,
        by increasing length, ShortLex within a length; I empty walks all of W.

        The I-reduced elements are closed under prefixes (Björner-Brenti,
        GTM 231, ch. 2), so each length is reached from the one below by the
        right multiplications that lengthen and stay I-reduced, read off the
        coset vectors (module docstring): the walk never visits the rest of
        W.  ShortLex words are closed under prefixes too, so the word of an
        element is the least word(u) + (s,) over the u below it with us = w;
        reading the level below in order, it is the first one found.  An
        infinite W needs max_length or max_elements.
        """
        if max_length is None and max_elements is None and not self.is_finite():
            raise CoxeterError("max_length required for an infinite system")
        levels = self._levels(frozenset(I), max_length)
        words = chain.from_iterable(level.values() for level in levels)
        return (CoxElem(self, w) for w in islice(words, max_elements))

    def _levels(self, I: frozenset, max_length: Optional[int],
                moves: Optional[list] = None) -> Iterator[dict]:
        """The walk of `enumerate_elements`, one length at a time up to
        max_length: {coset vector: ShortLex word}, in ShortLex order.

        Given a list `moves`, the walk records in it each step it takes, and
        steps the level at max_length too: for the element r of index k in
        the walk (the coset W_I itself has index 0) and s, moves[rank k + s]
        is (sign of r_s, j) with r s the element of index j, None past
        max_length; j is k when r_s = 0."""
        ring, rows = self._cartan_rows()
        step = ring.step
        level, length = {self._coset_vector(I): ()}, 0
        # the index of level's first element; {coset vector: index} on level
        # and on the level below
        start, ids, below = 0, {self._coset_vector(I): 0}, {}
        while level and (max_length is None or length <= max_length):
            yield level
            last = length == max_length
            if last and moves is None:
                return
            length += 1
            up, words = {}, []  # {r s: its index}, the words of the next level
            top = start + len(level)
            for k, (r, word) in enumerate(level.items(), start):
                for s, row in enumerate(rows):
                    sign, rs = step(r, s, row)
                    if sign > 0:
                        if last:
                            j = None
                        else:
                            j = up.setdefault(rs, top + len(words))
                            if j == top + len(words):
                                words.append(word + (s,))
                    elif moves is not None:
                        j = below[rs] if sign else k
                    if moves is not None:
                        moves.append((sign, j))
            start, below, ids, level = top, ids, up, dict(zip(up, words))

    def _root_walk(self, I: Iterable[int], max_length: Optional[int]) -> dict:
        """{b(a_s): (b, s)}: per positive root b(a_s) with b in W^I of length
        <= max_length and b s longer and I-reduced (r_s > 0 on the coset
        vector r of b), the least (b, s) by length of b, then ShortLex, then
        s, in that order; b is a CoxElem.

        With I empty these are the roots of depth <= max_length + 1, raised
        one depth at a time from the simple roots: s_t moves the depth of a
        positive root by at most one, raising it iff it raises its coordinate
        at t (Björner-Brenti, GTM 231, 4.6).  So the least (b, s) of a root is
        its least lowering t, the first t that raises a root below to it,
        followed by the least (b, s) of that root.  With I nonempty the least
        witness in W^I is not a lowering path, so the walk of W^I reads
        b(a_s) off the frame of each b (`_frames`)."""
        if max_length is None and not self.is_finite():
            raise CoxeterError("max_length required for an infinite system")
        ring, _ = self._cartan_rows()
        I = frozenset(I)
        if not I:
            unit, found, length = ring.const(ring.one), {}, 0
            level = {root: ((), s) for s, root in enumerate(self._frame())}
            while level and (max_length is None or length <= max_length):
                found.update(sorted(level.items(), key=lambda item: item[1]))
                up = {}
                for t in range(self.rank):
                    for root, (u, s) in level.items():
                        raised = self._act((t,), root)
                        if ring.sign(ring.submul(raised[t], unit, root[t])) > 0:
                            up.setdefault(raised, ((t,) + u, s))
                level, length = up, length + 1
            return {root: (CoxElem(self, u), s) for root, (u, s) in found.items()}
        walk = [item for level in self._levels(I, max_length) for item in level.items()]
        frames, best = self._frames(b for _, b in walk), {}
        for r, b in walk:
            for s in range(self.rank):
                if ring.sign(r[s]) > 0:
                    best.setdefault(frames[b][s], (CoxElem(self, b), s))
        return best

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
        self._hash = None  # made on first use: most elements are never hashed

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return (isinstance(other, CoxElem) and self.word == other.word
                and self.system == other.system)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.system.matrix, self.word))
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
        return self.system._shortlex(self.word + other.word)

    def inv(self) -> "CoxElem":
        return self.system._shortlex(self.word[::-1])

    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def conj(self, other: "CoxElem") -> "CoxElem":
        """self * other * self^-1."""
        if self.system != other.system:
            raise CoxeterError("elements of different Coxeter systems")
        return self.system._shortlex(self.word + other.word + self.word[::-1])

    def reduced_words(self) -> frozenset:
        """Every reduced word of w: those of w s followed by s, over the right
        descents s of w, one length at a time as {x: the words of x^-1 w}."""
        level = {self: {()}}
        for _ in self.word:
            below = {}
            for x, tails in level.items():
                for s in x.descents():
                    below.setdefault(x * self.system.gen(s), set()).update(
                        (s,) + t for t in tails)
            level = below
        return frozenset(level[self.system.identity])

    def descents(self, side: str = "right") -> frozenset:
        """Generators s with l(ws) < l(w) (right) or l(sw) < l(w) (left): the
        negative entries of the vector of w, or of w^-1 on the left."""
        if side not in ("left", "right"):
            raise CoxeterError(f"side must be 'left' or 'right', got {side!r}")
        ring, _ = self.system._cartan_rows()
        r = self.system._vector(self.word if side == "right" else self.word[::-1])
        return frozenset(s for s, x in enumerate(r) if ring.sign(x) < 0)


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
    """Witness (u, s) with el = u s u~, from the ShortLex-least palindromic
    reduced word of el.

    A reflection has palindromic reduced words (Dyer), and for a left
    descent s of a reflection t other than s, s t s is a reflection of
    length l(t) - 2 (Björner-Brenti, GTM 231, ch. 4).  So the least
    palindrome of t is s p s for its least left descent s and the least
    palindrome p of s t s; its half is a ShortLex word."""
    if len(el) % 2 == 0:
        raise CoxeterError(f"{el} has even length, not a reflection")
    half, t = [], el
    while len(t) > 1:
        s = el.system.gen(min(t.descents("left")))
        sts = s * t * s
        if len(sts) != len(t) - 2:
            raise CoxeterError(f"{el} is not a reflection")
        half += s.word
        t = sts
    return CoxElem(el.system, tuple(half)), t.word[0]


def is_reflection(el: CoxElem) -> bool:
    try:
        palindromize(el)
    except CoxeterError:
        return False
    return True


def reflections(system: CoxeterSystem, max_length: Optional[int] = None) -> list:
    """All reflections of length <= max_length (all of them, W finite, if
    None), by length, ShortLex within a length, each with the witness (u, s)
    that `palindromize` gives.

    A reflection t = b s b^-1 is read off its positive root b(a_s): every
    b with this root has l(t) <= 2 l(b) + 1, with equality at the u of a
    palindromic reduced word u s u~ of t (Dyer).  So the least (b, s) per
    root, which `CoxeterSystem._root_walk` reads off the roots of depth
    <= (max_length - 1) // 2 + 1, is the half of the ShortLex-least
    palindrome.
    """
    half = None if max_length is None else (max_length - 1) // 2
    refls = [Reflection(system.normal_form(b.word + (s,) + b.word[::-1]), b, s)
             for b, s in system._root_walk((), half).values()]
    return sorted(refls, key=lambda r: r.element)


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
        v = w * system.gen(min(missing))
        if len(v) <= len(w):
            raise RuntimeError(f"{w} {system.gen(min(missing))} is not longer than {w}")
        w = v
    return w


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
    """{"rank": n, "m": [[...]], "labels": [...]}; null/0/"inf" mean infinity.

    Every malformed document raises CoxeterError: an entry must be an
    integer (not 3.7, not true) or one of the three infinities."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise CoxeterError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "rank" not in doc or "m" not in doc:
        raise CoxeterError('expected an object {"rank": n, "m": [[...]], "labels": [...]}')
    rank, raw = doc["rank"], doc["m"]
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise CoxeterError('"m" must be a list of rows')
    if len(raw) != rank:
        raise CoxeterError("rank does not match matrix size")

    def entry(v):
        if v is None or v == "inf" or (type(v) is int and v == 0):
            return None
        if type(v) is not int:
            raise CoxeterError(f'matrix entry {v!r} is not an integer, null, 0 or "inf"')
        return v

    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise CoxeterError('"labels" must be a list')
    return CoxeterSystem([[entry(v) for v in row] for row in raw], labels=labels)


def load_system(spec: str) -> CoxeterSystem:
    """A named type ("B3", "I2(5)", ...) or a JSON document."""
    spec = spec.strip()
    if spec.startswith("{"):
        return system_from_json(spec)
    return named_system(spec)
