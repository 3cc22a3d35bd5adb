"""`free_groups`: free-group automorphisms and the B-to-A embedding certificate.

Each round runs, for kinds A, B, B_ab, I2 and D at every size 3..7, one
`verify_braid_relations` and one `abelianized_action` (on a seeded acting
generator); for each embedding rank n in 3..6, `act`, `composite_aut`,
`EmbeddingInstance.psi` and `membership_psi_image` on generated braid
letters and free words; and one small `nontriviality_sample` on B_ab5.
Free-word rewriting is the hot path and the Coxeter kernel is nearly idle.
The action models are built outside the timed region.
"""

from __future__ import annotations

from types import SimpleNamespace

from common import Job, Op, job_rng, require

KINDS = ("A", "B", "B_ab", "I2", "D")
SIZES = range(3, 8)
EMBED_RANKS = range(3, 7)
MAX_BRAID = 5         # braid letters per act / composite_aut
MAX_WORD = 6          # free letters per act / psi input
MEMBER_WORD = 10      # free letters per membership query
NONTRIVIAL = ("B_ab", 5, 10)  # kind, size, samples


def reduce_word(letters) -> tuple:
    out: list = []
    for sym, e in letters:
        if out and out[-1] == (sym, -e):
            out.pop()
        else:
            out.append((sym, e))
    return tuple(out)


def random_word(rng, symbols, length: int) -> tuple:
    """A freely reduced word with exactly `length` letters."""
    out: list = []
    while len(out) < length:
        letter = (symbols[rng.randrange(len(symbols))], rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def phi(letters) -> list:
    """B(B_n) -> B(A_n): s1 -> s1^2, s_i -> s_i (labels agree)."""
    out = []
    for label, e in letters:
        out.extend([(label, e)] * (2 if label == "s1" else 1))
    return out


def a1_parity(word) -> int:
    """Parity of the x-basis length: a1 = x1 is odd, a_i = x_{i-1}^-1 x_i even."""
    return sum(1 for sym, _ in word if sym == "a1") % 2


def apply_images(images, word) -> tuple:
    out = []
    for sym, e in word:
        img = tuple(images[sym])
        out.extend(img if e == 1 else tuple((x, -f) for x, f in reversed(img)))
    return reduce_word(out)


def _append(word, sym):
    return reduce_word(tuple(word) + ((sym, 1),))


class Workload:
    name = "free_groups"
    trace_rounds = 40  # rounds of a --trace 1 run

    def __init__(self):
        self.controls_done = set()

    def warmup(self) -> None:
        from purebraid import embedding, free_actions as fa

        model = fa.action_model("A", 2)
        fa.verify_braid_relations(model)
        fa.abelianized_action(model, "s1")
        fa.nontriviality_sample(fa.action_model("B_ab", 3), samples=1, seed=0)
        inst = embedding.EmbeddingInstance(2)
        inst.membership_psi_image(inst.psi((("b2", 1),)))
        fa.composite_aut(inst.source_model, [("s1", 1)])

    def jobs(self, seed: int):
        round_no = 0
        while True:
            ops, systems = self._round(seed, round_no)
            yield Job(ops, round_no, systems)
            round_no += 1

    # -- one round ----------------------------------------------------------

    def _round(self, seed: int, round_no: int):
        from purebraid import embedding, free_actions as fa

        rng = job_rng(seed, round_no)
        ops = []
        systems = []
        for kind in KINDS:
            for size in SIZES:
                model = fa.action_model(kind, size)
                systems.append(model.system)
                ops.append(self._verify_op(kind, size, model))
                ops.append(self._abelian_op(kind, size, model,
                                            model.acting[rng.randrange(len(model.acting))]))
        for n in EMBED_RANKS:
            inst = embedding.EmbeddingInstance(n)
            systems += [inst.source_system, inst.target_system]
            ops += [self._act_op(inst, rng) for _ in range(4)]
            ops += [self._composite_op(inst, rng) for _ in range(2)]
            ops += [self._psi_op(inst, rng) for _ in range(4)]
            ops += [self._member_op(inst, rng, parity) for parity in (0, 0, 1, 1)]
        kind, size, samples = NONTRIVIAL
        model = fa.action_model(kind, size)
        systems.append(model.system)
        sample_seed = rng.randrange(2 ** 31)

        def check_sample(rep):
            require(rep["passed"] and rep["tested"] == samples, "a pure word acts trivially")
        ops.append(Op("nontriviality_sample", f"{kind}{size}",
                      lambda: fa.nontriviality_sample(model, samples=samples,
                                                      seed=sample_seed),
                      check_sample, lambda rep: dict(rep, passed=not rep["passed"])))
        rng.shuffle(ops)
        return ops, systems

    def _verify_op(self, kind, size, model) -> Op:
        from purebraid import free_actions as fa

        def check(rep):
            require(rep["passed"], "braid relation fails")
            # negative control, once per model per process: a corrupted table
            # must fail (I2 has one acting generator, hence no relation)
            if kind != "I2" and (kind, size) not in self.controls_done:
                require(not fa.verify_braid_relations(fa.corrupted_model(model))["passed"],
                        "corrupted model passes")
                self.controls_done.add((kind, size))
        return Op("verify_braid_relations", f"{kind}{size}",
                  lambda: fa.verify_braid_relations(model), check,
                  lambda rep: dict(rep, passed=not rep["passed"]))

    def _abelian_op(self, kind, size, model, label) -> Op:
        from purebraid import free_actions as fa

        images = model.table[label].images

        def check(rep):
            rows = {}
            for x in model.basis:
                sums = {}
                for sym, e in images[x]:
                    sums[sym] = sums.get(sym, 0) + e
                rows[x] = {k: v for k, v in sums.items() if v}
            signed = {x: next(iter(r.items())) for x, r in rows.items()
                      if len(r) == 1 and abs(next(iter(r.values()))) == 1}
            require(rep["permutation"] == (len(signed) == len(rows)), "wrong permutation flag")
            require(dict(rep["map"]) == signed, "wrong abelianized map")
        return Op("abelianized_action", f"{kind}{size}",
                  lambda: fa.abelianized_action(model, label), check,
                  lambda rep: dict(rep, permutation=not rep["permutation"]))

    def _equivariant(self, inst, letters, u, image) -> bool:
        """psi(g.u) = phi(g).psi(u), given image = g.u."""
        from purebraid import free_actions as fa

        return inst.psi(image) == fa.act(inst.target_model, phi(letters), inst.psi(u))

    def _letters(self, inst, rng) -> list:
        acting = inst.source_model.acting
        return [(acting[rng.randrange(len(acting))], rng.choice((1, -1)))
                for _ in range(rng.randrange(1, MAX_BRAID + 1))]

    def _act_op(self, inst, rng) -> Op:
        from purebraid import free_actions as fa

        letters = self._letters(inst, rng)
        u = random_word(rng, inst.fprime_basis, rng.randrange(1, MAX_WORD + 1))
        return Op("act", f"B{inst.n}", lambda: fa.act(inst.source_model, letters, u),
                  lambda r: require(self._equivariant(inst, letters, u, r),
                                    "not equivariant"),
                  lambda r: _append(r, inst.fprime_basis[0]))

    def _composite_op(self, inst, rng) -> Op:
        from purebraid import free_actions as fa

        letters = self._letters(inst, rng)
        basis = inst.fprime_basis

        def check(aut):
            for x in basis:
                image = apply_images(aut.images, ((x, 1),))
                require(self._equivariant(inst, letters, ((x, 1),), image),
                        f"image of {x} is not equivariant")

        def corrupt(aut):
            images = dict(aut.images)
            images[basis[0]] = _append(images[basis[0]], basis[-1])
            return SimpleNamespace(images=images)
        return Op("composite_aut", f"B{inst.n}",
                  lambda: fa.composite_aut(inst.source_model, letters), check, corrupt)

    def _psi_op(self, inst, rng) -> Op:
        u = random_word(rng, inst.fprime_basis, rng.randrange(1, MAX_WORD + 1))

        def check(w):
            require(a1_parity(w) == 0, "psi image is odd")
            require(inst.membership_psi_image(w) == u, "psi round trip fails")
        return Op("psi", f"B{inst.n}", lambda: inst.psi(u), check,
                  lambda w: _append(w, "a1"))

    def _member_op(self, inst, rng, parity: int) -> Op:
        w = random_word(rng, inst.f_basis, MEMBER_WORD)
        if a1_parity(w) != parity:
            w = _append(w, "a1")

        def check(pre):
            if parity:
                require(pre is None, "odd word accepted")
            else:
                require(pre is not None and inst.psi(pre) == w, "even word round trip fails")

        def corrupt(pre):
            return ((inst.fprime_basis[0], 1),) if pre is None else \
                _append(pre, inst.fprime_basis[0])
        return Op("membership_psi_image", f"A{inst.n}",
                  lambda: inst.membership_psi_image(w), check, corrupt)
