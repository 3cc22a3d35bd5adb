"""`word_arith`: a seeded stream of element operations in large Coxeter groups.

Each job builds fresh A5, B4, F4, E6 and E8 systems and runs REPEATS
operations of each kind on each, interleaved in a seeded order.  Every
operation starts from generated words, so the element arithmetic itself is
timed; the braid-move class cache of a system grows through its job.  LONGEST bounds,
per type, the length of every element an operation builds (an input word of
n letters gives elements of length at most n); it keeps the closure kernel's
exponential worst case out of reach, so every operation finishes.

Answers are checked against `purebraid.oracles`: permutation images (with
lengths) for A5 and B4, integer reflection matrices for F4, E6 and E8.
"""

from __future__ import annotations

from collections import namedtuple
from types import SimpleNamespace

from common import Job, Op, job_rng, require

TYPES = ("A5", "B4", "F4", "E6", "E8")
LONGEST = {"A5": 9, "B4": 12, "F4": 12, "E6": 7, "E8": 6}
REPEATS = 56  # operations of each kind on each type, per job
KINDS = ("normal_form", "mul", "inv", "descents", "conj", "eval_N", "cocycle")


class Oracle:
    """Images of words in an independent model of the group."""

    def __init__(self, name: str):
        from purebraid import oracles
        from purebraid.coxeter import named_system

        if name[0] in "ABD":
            self.model = oracles.PermutationOracle.for_system(name)
            self.has_length = True
        else:
            self.model = oracles.MatrixOracle(named_system(name))
            self.has_length = False
            # generator s differs from the identity only in row s
            self.rows = [[g[s][j] - (s == j) for j in range(len(g))]
                         for s, g in enumerate(self.model.gen_mats)]

    def image(self, word):
        if self.has_length:
            return self.model.image_of_word(tuple(word))
        # the product of the generator matrices, one row update per letter
        img = [list(row) for row in self.model.identity]
        for s in word:
            delta = self.rows[s]
            for row in img:
                c = row[s]
                if c:
                    for j, d in enumerate(delta):
                        row[j] += c * d
        return tuple(tuple(row) for row in img)

    def is_identity(self, word) -> bool:
        return self.image(word) == self.model.identity

    def length(self, word) -> int:
        return self.model.length(self.image(word))

    def descents(self, word) -> tuple:
        """(left, right) descent sets of the element spelled by `word`."""
        if self.has_length:
            img = self.image(word)
            return self.model.descents(img, "left"), self.model.descents(img, "right")
        # s is a right descent of w iff w(alpha_s) < 0: column s of the image
        return self._negative_columns(word[::-1]), self._negative_columns(word)

    def _negative_columns(self, word) -> frozenset:
        img = self.image(word)
        return frozenset(s for s in range(len(img)) if all(row[s] <= 0 for row in img))


def check_element(oracle: Oracle, elem, spelled, letters: int) -> None:
    """`elem` is a reduced word for the element spelled by `spelled`, built
    from `letters` input letters."""
    word = tuple(elem.word)
    require(oracle.image(word) == oracle.image(spelled), "wrong element")
    require(len(word) <= letters and (letters - len(word)) % 2 == 0,
            "length parity or bound violated")
    if oracle.has_length:
        require(oracle.length(word) == len(word), "word is not reduced")


def check_vector(oracle: Oracle, vec) -> dict:
    coeffs = dict(vec.coeffs)
    for t in coeffs:
        w = tuple(t.word)
        require(len(w) % 2 == 1 and oracle.is_identity(w + w), f"{w} is not a reflection")
    return coeffs


_Reflection = namedtuple("_Reflection", "word")


def _corrupt_elem(elem):
    return SimpleNamespace(word=tuple(elem.word) + (0,))


def _corrupt_vector(vec):
    coeffs = dict(vec.coeffs)
    t = next(iter(coeffs), _Reflection((0,)))
    coeffs[t] = coeffs.get(t, 0) + 1
    return SimpleNamespace(coeffs=coeffs)


def _corrupt_descents(pair):
    left, right = pair
    return frozenset(left) ^ {0}, right


def make_op(kind: str, name: str, system, oracle: Oracle, rng) -> Op:
    from purebraid import nmap
    from purebraid.braid import BraidWord

    n = LONGEST[name]

    def word(k):
        return tuple(rng.randrange(system.rank) for _ in range(k))

    if kind == "normal_form":
        w = word(n)
        return Op(kind, name, lambda: system.normal_form(w),
                  lambda e: check_element(oracle, e, w, len(w)), _corrupt_elem)
    if kind == "mul":
        u, v = word((n + 1) // 2), word(n // 2)
        return Op(kind, name, lambda: system.normal_form(u) * system.normal_form(v),
                  lambda e: check_element(oracle, e, u + v, len(u + v)), _corrupt_elem)
    if kind == "inv":
        w = word(n)

        def check_inv(e):
            require(oracle.is_identity(tuple(e.word) + w), "not the inverse")
            check_element(oracle, e, w[::-1], len(w))
        return Op(kind, name, lambda: system.normal_form(w).inv(), check_inv,
                  _corrupt_elem)
    if kind == "descents":
        w = word(n)

        def descents():
            e = system.normal_form(w)
            return e.descents("left"), e.descents("right")

        def check_descents(pair):
            left, right = oracle.descents(w)
            require(frozenset(pair[0]) == left and frozenset(pair[1]) == right,
                    "wrong descent sets")
        return Op(kind, name, descents, check_descents, _corrupt_descents)
    if kind == "conj":
        u, v = word(n // 4), word(n // 2)
        spelled = u + v + u[::-1]
        return Op(kind, name, lambda: system.normal_form(u).conj(system.normal_form(v)),
                  lambda e: check_element(oracle, e, spelled, len(spelled)),
                  _corrupt_elem)
    if kind == "eval_N":
        letters = tuple((s, rng.choice((1, -1))) for s in word((n + 1) // 2))

        def check_N(vec):
            coeffs = check_vector(oracle, vec)
            require(sum(coeffs.values()) == sum(e for _, e in letters),
                    "coefficient sum is not the exponent sum")
            odd = sum(1 for c in coeffs.values() if c % 2)
            require(odd % 2 == len(letters) % 2, "odd support has the wrong parity")
            if oracle.has_length:
                require(odd == oracle.length([s for s, _ in letters]),
                        "odd support is not the inversion set")
        return Op(kind, name, lambda: nmap.eval_N(BraidWord(system, letters)),
                  check_N, _corrupt_vector)
    if kind == "cocycle":
        u, v = word(n // 4), word(n // 4)

        def check_cocycle(vec):
            coeffs = check_vector(oracle, vec)
            require(all(c % 2 == 0 for c in coeffs.values()), "odd cocycle value")
            if oracle.has_length:
                expected = oracle.length(u) + oracle.length(v) - oracle.length(u + v)
                require(sum(coeffs.values()) == expected, "wrong coefficient sum")
        return Op(kind, name,
                  lambda: nmap.cocycle(system.normal_form(u), system.normal_form(v)),
                  check_cocycle, _corrupt_vector)
    raise ValueError(kind)


class Workload:
    name = "word_arith"
    trace_rounds = 6  # rounds of a --trace 1 run

    def __init__(self):
        self.oracles = {name: Oracle(name) for name in TYPES}

    def warmup(self) -> None:
        from purebraid import nmap
        from purebraid.coxeter import named_system

        system = named_system("A2")
        a, b = system.normal_form((0, 1)), system.normal_form((1,))
        (a * b).inv().conj(a).descents("left")
        nmap.cocycle(a, b)

    def jobs(self, seed: int):
        from purebraid.coxeter import named_system

        job = 0
        while True:
            rng = job_rng(seed, job)
            systems = {name: named_system(name) for name in TYPES}
            plan = [(kind, name) for name in TYPES
                    for kind in KINDS * REPEATS]
            rng.shuffle(plan)
            ops = [make_op(kind, name, systems[name], self.oracles[name], rng)
                   for kind, name in plan]
            yield Job(ops, job, list(systems.values()))
            job += 1
