"""Reidemeister-Schreier machinery for D_I = p^{-1}(W_I) inside B_W.

Coset representatives of D_I\\B_W are the I-reduced reduced lifts; rewriting a
braid word letter by letter against this transversal (`CosetTable`) yields the
generators a_{b,s} = b s^2 b^{-1} (plus I itself) and, applied to the braid
relations at every representative, a complete set of relations.  Each
representative is b0 w with w in W_{s,t} and neither s nor t a right descent
of b0, so the braid relation of s, t is rewritten at the instances
(b0, s, t, i) of one square (b0, s < t).  The closed forms of the relation
families (1) and (2) give all of them as slices of at most two climbs from
b0, of (s t s ...) and of (t s t ...): `_relation_instances` does the
bookkeeping of a square once and hands over the relations of each climb
together.  `presentation_DI` keeps these closed forms, and
`crosscheck_closed_vs_raw` compares each with the raw rewriting at the
instance's representative, which reads the letters of the two sides of the
braid relation straight off the transitions (`rewrite_braid_relation`).

The transversal is one walk of the I-reduced elements, which records each
transition rep.s as it takes the coset step: the module makes no product of
elements (`Presentation.from_json` alone puts the bases it reads in normal
form).  On a truncated walk, an instance is kept only when the lengths of its
representative and of its bases fit the cap.

A generator is its symbol: ("s", i) for a Coxeter lift, ("a", base_word, i)
for a pure generator a_{b,s}.  Words are read and written as tuples of
(symbol, +-1), but carried as tuples of integer letter codes over a list of
generators: x^e has code 2 (index of x) + (e == -1), so code ^ 1 is the
inverse letter.  `CosetTable` numbers the generators of D_I densely in
symbol order, and the rewriting, the closed forms, their deduplication and
their order run on its codes.  A `Presentation` keeps its relations as codes
over its own generators: the certificate, the abelianization, the splitting
and the writers read them through lists and memos made once per generator or
distinct letter, and words of symbols are spelled only when `relations` is
read.  The certificate reads the reflection of a pure generator a_{b,s} as
the integer id of its positive root b(a_s), len(b) lookups in a table of
the simple reflections acting on the ids (`CoxeterSystem._root_id`).
"""

from __future__ import annotations

import heapq
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .coxeter import (
    CoxElem,
    CoxeterError,
    CoxeterSystem,
    _alt,
    subsystem,
)
from .freeword import free_reduce, word_inv

Symbol = tuple
Word = Tuple[Tuple[Symbol, int], ...]
Codes = Tuple[int, ...]  # a word of letter codes: 2 (generator index) + (e == -1)


# ---------------------------------------------------------------------------
# symbols and words


class _Memo(dict):
    """{key: fn(key)}, each value computed once, on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def cox_symbol(s: int) -> Symbol:
    return ("s", s)


def pure_symbol(base: CoxElem, gen: int) -> Symbol:
    return ("a", base.word, gen)


def symbol_str(system: CoxeterSystem, sym: Symbol) -> str:
    if sym[0] == "s":
        return system.labels[sym[1]]
    base = system.word_str(sym[1]) or "e"
    return f"a[{base};{system.labels[sym[2]]}]"


def symbol_key(sym: Symbol):
    if sym[0] == "s":
        return (0, sym[1])
    return (1, len(sym[1]), sym[1], sym[2])


def word_key(word: Word):
    return (len(word), tuple((symbol_key(s), 0 if e == 1 else 1) for s, e in word))


def word_str(system: CoxeterSystem, word: Word) -> str:
    if not word:
        return "1"
    return " ".join(symbol_str(system, s) + ("" if e == 1 else "^-1") for s, e in word)


def canonical_relator(u: Word, v: Word) -> Word:
    """Cyclically reduced u v^-1, minimized over rotations and inversion.

    Two relations are consequences of each other by conjugation/inversion
    alone iff their canonical relators coincide; used for golden comparisons.
    """
    r = list(free_reduce(tuple(u) + word_inv(tuple(v))))
    while len(r) >= 2 and r[0] == (r[-1][0], -r[-1][1]):
        r = r[1:-1]
    r = tuple(r)
    if not r:
        return ()
    candidates = []
    for w in (r, word_inv(r)):
        for k in range(len(w)):
            candidates.append(w[k:] + w[:k])
    return min(candidates, key=word_key)


# ---------------------------------------------------------------------------
# the rewriting process


UP, DOWN, CONJ = 1, -1, 0  # the sign of entry s of the coset vector of rep k


class CosetTable:
    """The action of S on the cosets W_I\\W, on the I-reduced
    representatives of a walk.

    The walk `enumerate_elements(max_length, I=I)` is the table: its
    representatives get the ids 0, 1, ... in their order, and no other
    representative is ever made.  An infinite W needs max_length.  The
    transition of rep k by s is
      (UP, j)    when rep_k s is longer and I-reduced, rep_j = rep_k s;
      (DOWN, j)  when s is a right descent of rep_k, rep_j = rep_k s;
      (CONJ, t)  when rep_k s is longer but not I-reduced: rep_k s = t rep_k
                 with t the single left descent of rep_k s in I (Deodhar).
    The walk records each transition, at index rank k + s of `transitions`,
    as it takes the coset step (`CoxeterSystem._levels`): one step per
    (rep, s) and no product of elements.  A CONJ transition gets its t from
    the root rep_k(a_s) = a_t.  An UP step past a truncated walk keeps its
    kind and has j None: `climb` and `rewrite` raise CoxeterError there.

    The generators of D_I have dense ids in symbol_key order: the lifts of
    I (sorted) first, then one pure generator a_{b,s} per UP step b s, in
    the order of the steps (rank k + s, the walk being in ShortLex order).
    The letter x^e has code 2 id(x) + (e == -1), so the codes are in
    (symbol_key, e) order, a word w of codes has word_key order (len(w), w),
    and code ^ 1 is the inverse letter.  Each transition ends with the code
    of the generator it stands for: a_{b,s} for an UP step b s and for the
    DOWN step back from b s, the lift t for (CONJ, t).  An UP step makes its
    code, and the DOWN step shares that int, so a word of closed forms holds
    no int of its own.
    """

    def __init__(self, system: CoxeterSystem, I, max_length: Optional[int] = None):
        if max_length is None and not system.is_finite():
            raise CoxeterError("max_length required for an infinite system")
        self.system = system
        self.rank = rank = system.rank
        self.I = frozenset(I)
        moves = []
        self.reps = [CoxElem(system, w) for level in system._levels(self.I, max_length, moves)
                     for w in level.values()]
        lifts = {t: 2 * n for n, t in enumerate(sorted(self.I))}
        simple_roots = {system._root((), t): t for t in self.I}
        code = 2 * len(lifts)
        for n, (kind, j) in enumerate(moves):
            if kind == UP:
                moves[n] = UP, j, code
                code += 2
            elif kind == DOWN:  # j < k: the step up from rep_j is already coded
                moves[n] = DOWN, j, moves[rank * j + n % rank][2]
            else:
                t = simple_roots[system._root(self.reps[n // rank].word, n % rank)]
                moves[n] = CONJ, t, lifts[t]
        self.transitions = moves

    def step(self, k: int, s: int) -> Tuple[int, Optional[int]]:
        return self.transitions[k * self.rank + s][:2]

    def _past_walk(self, k: int, s: int) -> CoxeterError:
        return CoxeterError(f"{self.reps[k]} times {self.system.labels[s]} "
                            "leaves the walk")

    def climb(self, k: int, word: Sequence[int]) -> int:
        """The id of rep_k * word, raising CoxeterError unless every letter
        is an UP step inside the walk."""
        rank, transitions = self.rank, self.transitions
        for s in word:
            kind, j, _ = transitions[k * rank + s]
            if kind != UP:
                raise CoxeterError(
                    f"{self.reps[k]} times {self.system.labels[s]} is not "
                    + ("reduced" if kind == DOWN else "I-reduced"))
            if j is None:
                raise self._past_walk(k, s)
            k = j
        return k

    def _rewrite_codes(self, k: int, letters) -> Tuple[List[int], int]:
        """`rewrite`, emitting letter codes."""
        rank, transitions, out = self.rank, self.transitions, []
        for s, e in letters:
            kind, j, c = transitions[k * rank + s]
            if kind == CONJ:
                out.append(c + (e == -1))
                continue
            if j is None:
                raise self._past_walk(k, s)
            if (kind == DOWN) == (e == 1):
                out.append(c + (e == -1))
            k = j
        return out, k

    def rewrite(self, k: int, letters) -> Tuple[List[Tuple[Symbol, int]], int]:
        """Schreier rewriting of the signed letters read from rep k: the
        emitted word over the generators of D_I and the id reached.  A CONJ
        letter emits t; an UP step read backwards, or a DOWN step read
        forwards, emits a_{b,s} with b the shorter of its two ends.  Raises
        CoxeterError when a letter leaves the walk."""
        codes, k = self._rewrite_codes(k, letters)
        gens = [cox_symbol(t) for t in sorted(self.I)] + self.generators()
        return [(gens[c >> 1], -1 if c & 1 else 1) for c in codes], k

    def generators(self) -> List[Symbol]:
        """The a_{b,s} with b walked and b s an UP step, in id order, which
        is symbol_key order; b s need not be in the walk."""
        rank, reps = self.rank, self.reps
        return [pure_symbol(reps[n // rank], n % rank)
                for n, (kind, *_) in enumerate(self.transitions) if kind == UP]


# ---------------------------------------------------------------------------
# generators


def minimal_generating_set(system: CoxeterSystem, I,
                           max_length: Optional[int] = None) -> List[Symbol]:
    """One a_{b,s} per reflection b s b^{-1} outside W_I, with the shortest
    (then ShortLex-least) base; these already generate D_I together with I.

    b s is I-reduced, so the reflection lies outside W_I; it is keyed by its
    positive root b(a_s) (`CoxeterSystem._root_walk`: for I empty the root
    poset, each root with its lowering witness; else the walk of W^I),
    which keeps the generators in symbol_key order."""
    return [pure_symbol(b, s) for b, s in system._root_walk(I, max_length).values()]


# ---------------------------------------------------------------------------
# closed-form relations (families of Prop. "presentation de D_I")


def _free_reduce_codes(word: Sequence[int]) -> Codes:
    out = []
    for c in word:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _ordered(u: Codes, v: Codes) -> Optional[Tuple[Codes, Codes]]:
    """The relation u = v of two freely reduced words, with the ShortLex-
    smaller side first; None when u and v are equal."""
    if u == v:
        return None
    return (u, v) if (len(u), u) <= (len(v), v) else (v, u)


def _a_super(table: CosetTable, b0: int, s: int, t: int, n: int) -> Codes:
    """The word a^{(n-1)} ... a^{(1)} a^{(0)} in letter codes, with
    a^{(j)} = a^{(j)}_{b0,s,t} = a_{b0 . (s t s ...)_j, r}, r = s for even j
    and t for odd: the steps of the climb of (s t s ...)_n from b0, each an
    UP step, read backwards.  The last step climbed may leave the walk."""
    rank, transitions, codes, k = table.rank, table.transitions, [], b0
    for j in range(n):
        if k is None:  # the step x before left the walk
            raise table._past_walk(*divmod(x, rank))
        x = k * rank + (t if j & 1 else s)
        kind, k, c = transitions[x]
        if kind != UP:
            raise CoxeterError(f"{table.reps[x // rank]} times "
                               f"{table.system.labels[x % rank]} is not an UP step")
        codes.append(c)
    codes.reverse()
    return tuple(codes)


def rewrite_braid_relation(table: CosetTable, rep: int, s: int,
                           t: int) -> Optional[Tuple[Codes, Codes]]:
    """Raw Schreier rewriting of rep (sts..)_m = rep (tst..)_m, read from
    rep, over the letter codes of `table`: the letters of each side are
    read straight off the transitions.  Every letter is read forwards, so
    an UP step emits nothing, a DOWN step its a_{b,s} and a CONJ step its
    lift, each a positive letter: the sides are positive words, so freely
    reduced.  The word of rep, all UP steps read forwards, would emit no
    letter."""
    m = table.system.m(s, t)
    if m is None:
        raise CoxeterError("the bond order m(s,t) must be finite")
    rank, transitions, sides, ends = table.rank, table.transitions, [], []
    for x in ((s, t), (t, s)):
        k, out = rep, []
        for n in range(m):
            kind, j, c = transitions[k * rank + x[n & 1]]
            if kind == CONJ:
                out.append(c)
                continue
            if j is None:
                raise table._past_walk(k, x[n & 1])
            if kind == DOWN:
                out.append(c)
            k = j
        sides.append(tuple(out))
        ends.append(k)
    assert ends[0] == ends[1]
    return _ordered(*sides)


def _relation_instances(table: CosetTable, levels):
    """The closed forms of the braid relations rewritten at the
    representatives of `table`, one square (b0, s < t) at a time, over the
    letter codes of `table`.  For each climb (x y x ...) from b0 that states
    instances, the square gives (b0, x, y, first, relations): relations[k]
    is the instance stated at the representative b0 (x y x ...)_i,
    i = first + k, None when its two sides agree, else its two sides with
    the lesser first.  Both sides are positive words, so freely reduced,
    and of one length.

    A square is a walked b0 and s < t with m = m(s, t) finite and neither
    b0 s nor b0 t a DOWN step; each representative b0 w, w in W_{s,t}, that
    is I-reduced is reached once per couple s < t.  Its instances are
      - i = 0, trivial unless b0 s = s' b0 and b0 t = t' b0 are both CONJ
        steps, when it is the braid relation of s', t';
      - family (1), b0 s and b0 t both UP steps: the climbs A of
        (s t s ...)_m and B of (t s t ...)_m from b0 (`_a_super`) give
        A[:i] = B[m-i:] at b0 (t s t ...)_i and B[:i] = A[m-i:] at
        b0 (s t s ...)_i for i = 1..m-1, and A = B at i = m;
      - family (2), b0 x an UP step and b0 y = y' b0: the climb a of
        (x y x ...)_{m-1} gives y' a[:i] = a[m-1-i:] y' at b0 (x y x ...)_i
        for i = 1..m-1.
    The instance i = 0 comes first on the climb of (s t s ...), and family
    (1) states those of i >= 1 on both climbs.  The two sides of an
    instance of level i >= 1 never agree: A and B share no letter, since the
    dihedral elements below the top have one reduced word each, and a lift
    y' is no UP step.  levels(b0, m, n) is the highest level kept at a
    square of b0 whose closed form climbs n letters (m, m - 1, or 0 for two
    CONJ steps), or less than 0 for none.  The climbs are made once per
    square, and only when a level i >= 1 is kept.
    """
    matrix, rank, transitions = table.system.matrix, table.rank, table.transitions
    for b0 in range(len(table.reps)):
        steps = transitions[b0 * rank:(b0 + 1) * rank]
        for s, (s_kind, _, sc) in enumerate(steps):
            if s_kind == DOWN:
                continue
            for t in range(s + 1, rank):
                m = matrix[s][t]
                t_kind, _, tc = steps[t]
                if m is None or t_kind == DOWN:
                    continue
                if s_kind == t_kind == CONJ:
                    if levels(b0, m, 0) >= 0:
                        yield b0, s, t, 0, [_ordered(_alt(sc, tc, m), _alt(tc, sc, m))]
                    continue
                n = levels(b0, m, m if s_kind == t_kind else m - 1)
                if n < 0:
                    continue
                up = [None]  # the instances on (s t s ...), or on (x y x ...)
                if not n:
                    yield b0, s, t, 0, up
                elif s_kind == t_kind:
                    A, B = _a_super(table, b0, s, t, m), _a_super(table, b0, t, s, m)
                    down = []  # on (t s t ...), from i = 1
                    for i in range(1, n + 1):
                        u, v = A[:i], B[m - i:]
                        down.append((u, v) if u < v else (v, u))
                        if i < m:
                            u, v = B[:i], A[m - i:]
                            up.append((u, v) if u < v else (v, u))
                    yield b0, s, t, 0, up
                    yield b0, t, s, 1, down
                else:
                    x, y, c = (s, t, tc) if s_kind == UP else (t, s, sc)
                    a = _a_super(table, b0, x, y, m - 1)
                    for i in range(1, n + 1):
                        u, v = (c,) + a[:i], a[m - 1 - i:] + (c,)
                        up.append((u, v) if u < v else (v, u))
                    yield b0, x, y, 0, up


# ---------------------------------------------------------------------------
# presentations


_CHUNK = 4096  # generators or relations per call of `write` in Presentation


def _write_joined(write, items, encode, sep: str) -> None:
    """Write sep.join(map(encode, items)), one call per `_CHUNK` items."""
    for k in range(0, len(items), _CHUNK):
        if k:
            write(sep)
        write(sep.join(map(encode, items[k:k + _CHUNK])))


def _write_list(write, items, encode) -> None:
    """Write the items as a list of json.dumps(..., indent=2) one level down:
    `encode` gives each item with its newline and indent."""
    if not items:
        write("[]")
        return
    write("[")
    _write_joined(write, items, encode, ",")
    write("\n  ]")


class _Names:
    """The spelling of the letters of a presentation: each distinct base
    word, generator and letter code spelled once, on first use."""

    def __init__(self, p: "Presentation"):
        system, gens = p.system, p.generators
        self.base = _Memo(system.word_str)  # "" for the identity

        def name(x):
            sym = gens[x]
            if sym[0] == "s":
                return system.labels[sym[1]]
            return f"a[{self.base[sym[1]] or 'e'};{system.labels[sym[2]]}]"

        self.name = _Memo(name)
        self.letter = _Memo(lambda c: self.name[c >> 1] + "^-1" if c & 1 else self.name[c >> 1])

    def word(self, w: Codes) -> str:
        return " ".join(map(self.letter.__getitem__, w)) if w else "1"


class Presentation:
    """Generators (Coxeter lifts of I plus pure generators) and relations.

    The relations are kept as `codes`: pairs of words of letter codes over
    `generators`, x^e having code 2 (index of x) + (e == -1).  The
    constructor encodes words of (symbol, +-1), raising CoxeterError on an
    undeclared symbol; with codes=True it takes code pairs as they are,
    raising CoxeterError on a code outside 0 .. 2 len(generators) - 1.
    `relations` spells the codes back as words of (symbol, +-1) on first
    use and keeps them.
    """

    def __init__(self, system: CoxeterSystem, I, generators: Sequence[Symbol],
                 relations: Sequence[Tuple[Word, Word]], partial: bool = False,
                 *, codes: bool = False):
        self.system = system
        self.I = tuple(sorted(set(I)))
        self.generators = tuple(generators)
        self.partial = partial
        self._relations = None
        if codes:
            self.codes = tuple(relations)
            bound = 2 * len(self.generators)
            if min(self._letters(), default=0) < 0 or max(self._letters(), default=0) >= bound:
                raise CoxeterError(f"a letter code lies outside 0 .. {bound - 1}")
            return
        index = {g: 2 * k for k, g in enumerate(self.generators)}

        def encode(word):
            try:
                return tuple(index[sym] + (e == -1) for sym, e in word)
            except KeyError as exc:
                raise CoxeterError(f"undeclared symbol {exc.args[0]}") from None

        self.codes = tuple((encode(u), encode(v)) for u, v in relations)

    def _letters(self):
        return chain.from_iterable(chain.from_iterable(self.codes))

    @property
    def relations(self) -> Tuple[Tuple[Word, Word], ...]:
        if self._relations is None:
            letter = [(g, e) for g in self.generators for e in (1, -1)].__getitem__
            self._relations = tuple((tuple(map(letter, u)), tuple(map(letter, v)))
                                    for u, v in self.codes)
        return self._relations

    def pure_generators(self):
        return [g for g in self.generators if g[0] == "a"]

    def write_text(self, write) -> None:
        """Write "< generators | relations >" and a newline through `write`,
        one call per `_CHUNK` generators or relations."""
        names = _Names(self)
        write("< ")
        _write_joined(write, range(len(self.generators)), names.name.__getitem__, ", ")
        write(" | ")
        _write_joined(write, self.codes,
                      lambda rel: f"{names.word(rel[0])} = {names.word(rel[1])}", ", ")
        write(" >\n")

    def to_text(self) -> str:
        """The line `write_text` writes, without its newline."""
        parts = []
        self.write_text(parts.append)
        return "".join(parts)[:-1]

    def write_json(self, write) -> None:
        """Write json.dumps(self.to_json(), sort_keys=True, indent=2) + "\\n"
        through `write`, one call per `_CHUNK` generators or relations, so no
        string holds the whole document.

        The document is put together from fixed templates.  Strings go
        through `encode_basestring_ascii`, the encoder json.dumps uses for
        them, and each distinct base and letter is spelled once.
        """
        system, enc = self.system, encode_basestring_ascii
        label = [enc(x) for x in system.labels]
        names = _Names(self)
        base = _Memo(lambda w: enc(names.base[w]))
        block = _Memo(lambda c: "\n        [\n          %s,\n          %d\n        ]"
                      % (enc(names.name[c >> 1]), -1 if c & 1 else 1)).__getitem__

        def generator(sym):
            if sym[0] == "s":
                return '\n    {\n      "gen": %s,\n      "tag": "cox"\n    }' % label[sym[1]]
            return ('\n    {\n      "base": %s,\n      "gen": %s,\n      "tag": "pure"\n    }'
                    % (base[sym[1]], label[sym[2]]))

        def word(w):
            return "[" + ",".join(map(block, w)) + "\n      ]" if w else "[]"

        def relation(rel):
            return f"\n    [\n      {word(rel[0])},\n      {word(rel[1])}\n    ]"

        write('{\n  "I": ')
        _write_list(write, self.I, lambda i: "\n    " + label[i])
        write(',\n  "generators": ')
        _write_list(write, self.generators, generator)
        write(',\n  "partial": %s,\n  "relations": ' % json.dumps(self.partial))
        _write_list(write, self.codes, relation)
        write(',\n  "system": %s\n}\n' % enc(system.name or f"rank{system.rank}"))

    def to_json(self) -> dict:
        names = _Names(self)

        def enc_sym(sym):
            if sym[0] == "s":
                return {"tag": "cox", "gen": self.system.labels[sym[1]]}
            return {"tag": "pure", "base": names.base[sym[1]],
                    "gen": self.system.labels[sym[2]]}

        def enc_word(word):
            return [[names.name[c >> 1], -1 if c & 1 else 1] for c in word]

        return {
            "system": self.system.name or f"rank{self.system.rank}",
            "I": [self.system.labels[i] for i in self.I],
            "generators": [enc_sym(g) for g in self.generators],
            "relations": [[enc_word(u), enc_word(v)] for u, v in self.codes],
            "partial": self.partial,
        }

    @classmethod
    def from_json(cls, system: CoxeterSystem, doc) -> "Presentation":
        """The presentation of a `to_json` document, or of its text, over
        `system`.  Every malformed document raises CoxeterError: an exponent
        must be the integer 1 or -1, and every name declared, once."""
        def word(w):
            if any(type(e) is not int or e not in (1, -1) for _, e in w):
                raise ValueError(f"an exponent in {w} is not 1 or -1")
            return tuple((name_to_sym[n], e) for n, e in w)

        try:
            if isinstance(doc, str):
                doc = json.loads(doc)
            gens = []
            for g in doc["generators"]:
                tag, gen = g["tag"], system.labels.index(g["gen"])
                if tag not in ("cox", "pure"):
                    raise ValueError(f"unknown tag {tag!r}")
                gens.append(cox_symbol(gen) if tag == "cox" else pure_symbol(
                    system.normal_form(system.parse_word(g["base"])), gen))
            name_to_sym = {symbol_str(system, sym): sym for sym in gens}
            if len(name_to_sym) < len(gens):
                raise ValueError("a generator is declared twice")
            rels = [(word(u), word(v)) for u, v in doc["relations"]]
            I = tuple(system.labels.index(x) for x in doc["I"])
            partial = doc.get("partial", False)
            if type(partial) is not bool:
                raise ValueError(f'"partial" is {partial!r}')
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CoxeterError(f"malformed presentation document: {exc!r}") from None
        return cls(system, I, gens, rels, partial=partial)


def presentation_DI(system: CoxeterSystem, I, max_length: Optional[int] = None,
                    family1_top: bool = True) -> Presentation:
    """The full presentation of D_I (Prop. "presentation de D_I").

    family1_top=False drops the i = m instances of family (1), which is the
    pure-braid-group convention; with I nonempty they can be genuine relations
    (type D_n produces the commutation a_2 a_2' = a_2' a_2 that way).
    """
    I = tuple(sorted(set(I)))
    partial = max_length is not None and not system.is_finite()
    table = CosetTable(system, I, max_length)

    def levels(b0, m, n):
        # an instance of level i >= 1 is stated at a representative of length
        # len(b0) + i, and the bases of its generators reach len(b0) + n - 1
        nonlocal partial
        top = m - 1 if n == m and not family1_top else n
        if max_length is None:
            return top
        room = max_length - len(table.reps[b0])
        kept = min(top, room) if room >= n - 1 else 0
        partial = partial or kept < top
        return kept

    # the table's codes are over the generators below, in symbol order, so
    # word_key order is (len(u), u, len(v), v): by the lengths, then as
    # pairs.  The relations are kept in the order they are made, which is
    # close to that order already and walks memory in order.
    relations = dict.fromkeys(chain.from_iterable(
        square[4] for square in _relation_instances(table, levels)))
    relations.pop(None, None)  # the instances whose two sides agree
    by_lengths = {}
    for rel in relations:
        by_lengths.setdefault((len(rel[0]), len(rel[1])), []).append(rel)
    codes = []
    for lengths in sorted(by_lengths):
        codes += sorted(by_lengths.pop(lengths))
    gens = [cox_symbol(i) for i in I] + table.generators()
    return Presentation(system, I, gens, codes, partial=partial, codes=True)


def presentation_pure(system: CoxeterSystem,
                      max_length: Optional[int] = None) -> Presentation:
    """Presentation of the pure braid group P_W (I empty, family (1) with
    i = 1..m-1 only)."""
    return presentation_DI(system, (), max_length=max_length, family1_top=False)


def crosscheck_closed_vs_raw(system: CoxeterSystem, I,
                             max_length: Optional[int] = None) -> dict:
    """Raw rewriting of every representative relation vs the closed forms:
    each instance of `_relation_instances` against rewrite_braid_relation at
    the representative the instance is stated at.  Raises CoxeterError
    unless the walk climbs from e along the word of each representative to
    that representative."""
    I = tuple(sorted(set(I)))
    table = CosetTable(system, I, max_length)
    for k, rep in enumerate(table.reps):
        if table.climb(0, rep.word) != k:
            raise CoxeterError(f"the walk does not reach {rep} along its word")

    def levels(b0, m, n):
        # the braid relation at the representative of level i climbs m
        # letters from a representative of length len(b0) + i
        return n if max_length is None else min(n, max_length - len(table.reps[b0]) - m)

    checked = 0
    failures = []
    for b0, x, y, first, relations in _relation_instances(table, levels):
        for i, rel in enumerate(relations, first):
            rep = table.climb(b0, _alt(x, y, i))
            checked += 1
            if rewrite_braid_relation(table, rep, x, y) != rel:
                failures.append((str(table.reps[rep]), system.labels[min(x, y)],
                                 system.labels[max(x, y)]))
    return {"checked": checked, "failures": failures, "passed": not failures}


def soundness_report(p: Presentation) -> dict:
    """The (N, p) certificate: both sides of every relation agree in ZT x| W.

    The relator u v^-1 of each relation u = v is folded by
    `CoxeterSystem._fold_Np` from closed-form images of its letters, and
    must give (0, 1): s^e is ({a_s: e}, s), and a_{b,s}^e is
    ({+-b(a_s): 2e}, 1), since N(b s^2 b^-1) = N(b) + b N(s^2) + b N(b^-1) =
    2 [b(a_s)] by s^2 = 1 in W and N(b) + b N(b^-1) = N(1) = 0.  As (N, p)
    is a homomorphism, this is the fold of the relator expanded into braid
    letters, without expanding it.  A root is read as its reflection id: a_s
    has the id s, and b(a_s) the id `CoxeterSystem._root_id` reads off the
    letters of b, one lookup each.  One image is made per letter code, and a
    relator with no Coxeter letter (every relator of `presentation_pure`)
    only sums coefficients.

    The kernel of (N, p) is the derived subgroup D(P_W), so a pass shows
    that each relation holds in B_W / D(P_W), not that it holds in B_W; the
    result says so under "certificate".
    """
    system, images = p.system, []
    for sym in p.generators:
        if sym[0] == "s":
            images += (((sym[1], 1),), sym[1:]), (((sym[1], -1),), sym[1:])
        else:
            i = system._root_id(sym[1], sym[2])
            images += (((i, 2),), ()), (((i, -2),), ())
    inverse = [images[c ^ 1] for c in range(len(images))]
    fold, unit, names = system._fold_Np, ({}, system._vector(())), _Names(p)
    failures = [(names.word(u), names.word(v)) for u, v in p.codes
                if fold(chain(map(images.__getitem__, u),
                              map(inverse.__getitem__, reversed(v)))) != unit]
    return {"checked": len(p.codes), "failures": failures,
            "passed": not failures, "certificate": "mod D(P_W)"}


# ---------------------------------------------------------------------------
# abelianization


def abelianization(p: Presentation) -> dict:
    """Free rank and torsion of the abelianized group, from the Smith normal
    form of the relation matrix (one row per relation, u - v).

    First a signed union-find merges the generators along the relations
    x^e = y^f of one letter a side, each the Tietze move x = e f y that
    eliminates a generator: every generator is +-1 times the root of its
    class.  A relation whose letters already share a root r leaves the row
    2 r when their signs disagree (x = x^-1 gives Z/2), and no row when they
    agree.  Every other relation is a row on the root columns; a row equal
    to another or to its negative is dropped.

    Then one sparse integer elimination (Havas-Holt-Rees) on exact integers.
    The pivot is a +-1 entry, taken from a lazy heap, of least Markowitz
    cost (row nonzeros - 1) * (column nonzeros - 1).  Row operations reduce
    its column, then column operations its row, modulo the pivot; a pivot
    left alone is a diagonal entry.  With no +-1 entry left, a round that
    left remainders goes on with the least entry, then least cost, of its
    pivot's row and column other than the pivot: that is where the
    remainders lie, each less than the pivot.  After a split it takes an
    entry of least absolute value in the matrix, then of least cost.  The
    entries other than 1 become a divisibility chain by gcd and lcm of each
    pair.  The free rank counts the roots that no diagonal entry takes.
    The columns are the generator indices of the letter codes.
    """
    root, sign = list(range(len(p.generators))), [1] * len(p.generators)

    def find(k):
        # (root r, sign e) with k = e r, every step of the path pointed at r
        path = []
        while root[k] != k:
            path.append(k)
            k = root[k]
        e = 1
        for j in reversed(path):
            e *= sign[j]
            root[j], sign[j] = k, e
        return k, e

    doubled = set()  # the r with 2 r = 0, r a root when it was found
    for u, v in p.codes:
        if len(u) == len(v) == 1:
            (rx, ex), (ry, ey) = find(u[0] >> 1), find(v[0] >> 1)
            # x^e = y^f reads e ex rx = f ey ry
            ex, ey = -ex if u[0] & 1 else ex, -ey if v[0] & 1 else ey
            if rx != ry:
                root[rx], sign[rx] = ry, ex * ey
            elif ex != ey:
                doubled.add(rx)
    column = []  # at code c of x^e: the root r of x and e er, x^e = e er r
    for k in range(len(root)):
        r, er = find(k)
        column += (r, er), (r, -er)
    rows = {((column[2 * r][0], 2),) for r in doubled}
    for u, v in p.codes:
        if len(u) == len(v) == 1:
            continue
        row = {}
        for c in u:
            r, x = column[c]
            row[r] = row.get(r, 0) + x
        for c in v:
            r, x = column[c]
            row[r] = row.get(r, 0) - x
        row = sorted((r, x) for r, x in row.items() if x)
        if row and row[0][1] < 0:
            row = [(r, -x) for r, x in row]
        rows.add(tuple(row))
    rows = [dict(row) for row in rows]
    factors = _invariant_factors(rows)
    return {"free_rank": sum(k == r for k, r in enumerate(root)) - len(factors),
            "torsion": [d for d in factors if d != 1]}


def _invariant_factors(rows: List[dict]) -> List[int]:
    """Nonzero invariant factors, in divisibility order, of the integer
    matrix whose rows are {column: nonzero entry} dicts."""
    rows = {r: row for r, row in enumerate(rows) if row}
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)

    def cost(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    def push_units(r):
        for c, x in rows[r].items():
            if x in (1, -1):
                heapq.heappush(heap, (cost(r, c), r, c))

    def choose_pivot():
        while heap:
            stale_cost, r, c = heapq.heappop(heap)
            if r not in rows or rows[r].get(c) not in (1, -1):
                continue
            # a popped cost is a lower bound unless the entry's row or column
            # grew since it was pushed; then it goes back with its current cost
            if cost(r, c) > stale_cost:
                heapq.heappush(heap, (cost(r, c), r, c))
                continue
            return r, c
        # no unit entry left: after a round that did not split, the least
        # entry of its pivot's row and column, where its remainders lie;
        # else the least absolute value in the matrix; then the least cost
        if last:
            r, c = last
            return min([(abs(rows[i][c]), cost(i, c), i, c) for i in cols[c] if i != r]
                       + [(abs(x), cost(r, j), r, j)
                          for j, x in rows[r].items() if j != c])[2:]
        least = min(min(map(abs, row.values())) for row in rows.values())
        return min((cost(r, c), r, c) for r, row in rows.items()
                   for c, x in row.items() if abs(x) == least)[1:]

    heap, last = [], None  # last: the pivot of a round that did not split
    for r in rows:
        push_units(r)
    diagonal = []
    while rows:
        r, c = choose_pivot()
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in cols[c] - {r}:
            row, units = rows[i], []
            q = row[c] // p
            for j, x in pivot_row.items():
                y = row.get(j, 0) - q * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                    if y == 1 or y == -1:
                        units.append(j)
                else:
                    del row[j]
                    cols[j].discard(i)
            if row:
                # only the columns of the pivot row changed
                for j in units:
                    heapq.heappush(heap, (cost(i, j), i, j))
            else:
                del rows[i]
        last = r, c
        if len(cols[c]) > 1:
            continue
        # column c is now p alone, so column operations change row r only
        for j in [j for j in pivot_row if j != c]:
            pivot_row[j] %= p
            if not pivot_row[j]:
                del pivot_row[j]
                cols[j].discard(r)
        if len(pivot_row) > 1:
            push_units(r)
        else:
            del rows[r], cols[c]
            diagonal.append(abs(p))
            last = None
    chain = [d for d in diagonal if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return [1] * (len(diagonal) - len(chain)) + chain


# ---------------------------------------------------------------------------
# semidirect splitting D_I = U_I x| B_I


def _equal_I_words(system: CoxeterSystem, lift: list, u: Codes, v: Codes) -> bool:
    """Equality in B_{W_I} for freely reduced retraction images, lift[x]
    being the s of the lift generator x: syntactic equality or a defining
    braid relation (the only cases the relations produce)."""
    if u == v:
        return True
    if len(u) != len(v) or not u or any(c & 1 for c in u + v):
        return False
    a, b = lift[u[0] >> 1], lift[v[0] >> 1]
    m = system.m(a, b)
    return (m == len(u) and tuple(lift[c >> 1] for c in u) == _alt(a, b, m)
            and tuple(lift[c >> 1] for c in v) == _alt(b, a, m))


def semidirect_split(system: CoxeterSystem, I,
                     max_length: Optional[int] = None) -> dict:
    """Report for D_I = U_I x| B_I: h o j = id and relations survive h, the
    retraction h: D_I -> B_{W_I} that kills the pure generators and fixes
    the lifts of I."""
    I = tuple(sorted(set(I)))
    p = presentation_DI(system, I, max_length=max_length)
    lift = [g[1] if g[0] == "s" else None for g in p.generators]

    def h(word: Codes) -> Codes:
        return _free_reduce_codes([c for c in word if lift[c >> 1] is not None])

    names = _Names(p)
    failures = [(names.word(u), names.word(v)) for u, v in p.codes
                if not _equal_I_words(system, lift, h(u), h(v))]
    # h o j = identity: the lift of each i in I is a generator that h fixes
    hj_ok = all(lift[x] == i for x, i in enumerate(I))
    return {
        "I": [system.labels[i] for i in I],
        "normal_generators": [names.name[x] for x, g in enumerate(lift) if g is None],
        "retraction_ok": hj_ok,
        "relations_preserved": not failures,
        "failures": failures,
        "passed": hj_ok and not failures,
    }


# ---------------------------------------------------------------------------
# devissage


class DevissageChain:
    """Nested parabolic chain with per-level U_j generator lists."""

    def __init__(self, system: CoxeterSystem, chain, levels, total_pure: int):
        self.system = system
        self.chain = chain
        self.levels = levels
        self.total_pure = total_pure

    def to_json(self) -> dict:
        return {
            "chain": [[self.system.labels[i] for i in I] for I in self.chain],
            "levels": self.levels,
            "total_pure_generators": self.total_pure,
        }


def devissage(system: CoxeterSystem, chain) -> DevissageChain:
    """Per-level U_j generators along I_0 c I_1 c ... c I_n = S.

    Equal consecutive levels are allowed only when both are empty (the D_n
    convention I_1 = I_0 = empty).
    """
    chain = [tuple(sorted(set(I))) for I in chain]
    if not chain or chain[0] != ():
        chain = [()] + chain
    if chain[-1] != tuple(range(system.rank)):
        raise CoxeterError("the chain must end with the full generator set")
    for prev, cur in zip(chain, chain[1:]):
        if not set(prev) <= set(cur):
            raise CoxeterError("the chain must be increasing")
        if prev == cur and cur != ():
            raise CoxeterError("repeated nonempty level in the chain")
    levels = []
    total = 0
    for prev, cur in zip(chain, chain[1:]):
        if not cur:
            levels.append({"I": [], "ambient": [], "generators": [], "count": 0})
            continue
        ambient = subsystem(system, cur)
        local_I = [cur.index(i) for i in prev]
        names = [symbol_str(ambient, g) for g in minimal_generating_set(ambient, local_I)]
        levels.append({"I": [system.labels[i] for i in prev],
                       "ambient": [system.labels[i] for i in cur],
                       "generators": names, "count": len(names)})
        total += len(names)
    return DevissageChain(system, chain, levels, total)


def standard_chain(system: CoxeterSystem) -> list:
    """The section-4 chain: prefixes of S, with the D_n double-empty start."""
    n = system.rank
    name = system.name or ""
    if name.startswith("D"):
        return [(), ()] + [tuple(range(k)) for k in range(2, n + 1)]
    return [tuple(range(k)) for k in range(n + 1)]
