"""The braid homomorphism phi: B(B_n) -> B(A_n) and its free-group
certificate psi.

phi sends s'_1 to s_1^2 and s'_i to s_i.  psi maps the rank-(2n+1) free
group F' = <a'_1..a'_{n+1}, b_2..b_{n+1}> (the type-B pure level, a/b basis;
symbols written a1.., b2..) into F = <a_1..a_{n+1}> by a'_1 -> a_1^2,
a'_i -> a_i, b_i -> a_1..a_i a_{i-1}^-1..a_1^-1.  In the x-basis x_i =
a_1..a_i the image is exactly the even-length subgroup of index 2, which
makes psi injective with decidable membership (Schreier transversal {1, x1});
together with the equivariance psi(g.u) = phi(g).psi(u) this certifies every
finitely checkable ingredient of the injectivity of phi.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .braid import BraidWord
from .coxeter import CoxeterError
from .free_actions import ActionModel, act, action_model, composite_aut
from .freeword import (
    FreeWord,
    free_reduce,
    free_word_str,
    letter,
    substitute,
    word_inv,
    word_mul,
)
from .nmap import equal_mod_derived


class EmbeddingInstance:
    """Everything needed to check the B_n -> A_n embedding at rank n."""

    def __init__(self, n: int):
        if n < 2:
            raise CoxeterError("the embedding instance needs n >= 2")
        self.n = n
        # F' with the type-B action of B(B_n); F with the type-A action
        self.source_model: ActionModel = action_model("B_ab", n + 1)
        self.target_model: ActionModel = action_model("A", n)
        self.source_system = self.source_model.system
        self.target_system = self.target_model.system
        self.f_basis = self.target_model.basis  # a1..a_{n+1}
        self.fprime_basis = self.source_model.basis  # a1..a_{n+1}, b2..b_{n+1}
        # image tables of psi and of the changes of basis x_i <-> a_1..a_i
        self._psi_images = {"a1": letter("a1") * 2}
        self._to_x = {"a1": letter("x1")}
        self._from_x = {}
        for i in range(1, n + 2):
            self._from_x[f"x{i}"] = word_mul(*[letter(f"a{k}") for k in range(1, i + 1)])
            if i >= 2:
                self._psi_images[f"a{i}"] = letter(f"a{i}")
                self._psi_images[f"b{i}"] = word_mul(self._from_x[f"x{i}"],
                                                     word_inv(self._from_x[f"x{i-1}"]))
                self._to_x[f"a{i}"] = word_mul(letter(f"x{i-1}", -1), letter(f"x{i}"))
        # preimages under psi of the Schreier basis of the even-length
        # subgroup: u_i = x_i x_1^-1 = psi(b_i..b_2), v_i = x_1 x_i =
        # psi(a'_1 a'_2..a'_i)
        self._pullbacks = {
            f"x{i}": (word_mul(*[letter(f"b{k}") for k in range(i, 1, -1)]),
                      word_mul(*[letter(f"a{k}") for k in range(1, i + 1)]))
            for i in range(1, n + 2)}

    # -- phi ------------------------------------------------------------

    def phi_letters(self, letters) -> List[Tuple[int, int]]:
        out = []
        for s, e in letters:
            if s == 0:
                out.extend([(0, e), (0, e)])
            else:
                out.append((s, e))
        return out

    def phi(self, b: BraidWord) -> BraidWord:
        if b.system != self.source_system:
            raise CoxeterError("phi expects a braid word over the source system")
        return BraidWord(self.target_system, self.phi_letters(b.letters))

    # -- psi ------------------------------------------------------------

    def psi(self, u: FreeWord) -> FreeWord:
        return substitute(self._psi_images, u)

    # -- x-basis --------------------------------------------------------

    def to_x_basis(self, w: FreeWord) -> FreeWord:
        """Rewrite a word over a_i in the basis x_i = a_1..a_i."""
        return substitute(self._to_x, w)

    def from_x_basis(self, w: FreeWord) -> FreeWord:
        return substitute(self._from_x, w)

    def parity(self, w: FreeWord) -> str:
        return "even" if len(self.to_x_basis(w)) % 2 == 0 else "odd"

    # -- membership in psi(F') -------------------------------------------

    def membership_psi_image(self, w: FreeWord) -> Optional[FreeWord]:
        """A preimage of w under psi, or None when w has odd x-length.

        Schreier rewriting of the even-length subgroup of <x_1..x_{n+1}> with
        transversal {1, x1}: free basis u_i = x_i x_1^-1 (i >= 2) and
        v_i = x_1 x_i, pulled back through the table built in __init__.
        """
        xw = self.to_x_basis(w)
        if len(xw) % 2 == 1:
            return None
        out: List[Tuple[str, int]] = []
        state = 0  # 0 <-> rep 1, 1 <-> rep x1
        for sym, e in xw:
            u, v = self._pullbacks[sym]
            if e == 1:
                piece = u if state == 0 else v
                state = 1 - state
            else:
                state = 1 - state
                piece = word_inv(v if state == 1 else u)
            out.extend(piece)
        assert state == 0
        result = free_reduce(out)
        if self.psi(result) != w:
            raise CoxeterError("membership round-trip failed")
        return result


# ---------------------------------------------------------------------------
# reports


def equivariance_check(n: int, samples: int = 200, seed: int = 0) -> dict:
    """psi(g.u) = phi(g).psi(u), exhaustive on (generator, basis symbol) and
    on `samples` random pairs of up to 6 letters each."""
    inst = EmbeddingInstance(n)
    src, tgt = inst.source_model, inst.target_model
    failures = []
    checked = 0

    def both_sides(letters, u):
        lhs = inst.psi(act(src, letters, u))
        phi_letters = []
        for lab, e in letters:
            idx = src.acting.index(lab)
            for s, ee in inst.phi_letters([(idx, e)]):
                phi_letters.append((tgt.acting[s], ee))
        rhs = act(tgt, phi_letters, inst.psi(u))
        return lhs, rhs

    for lab in src.acting:
        for e in (1, -1):
            for x in src.basis:
                lhs, rhs = both_sides([(lab, e)], letter(x))
                checked += 1
                if lhs != rhs:
                    failures.append({"g": f"{lab}^{e}", "u": x,
                                     "lhs": free_word_str(lhs),
                                     "rhs": free_word_str(rhs)})
    rng = random.Random(seed)
    for _ in range(samples):
        letters = [(src.acting[rng.randrange(len(src.acting))], rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 7))]
        u = free_reduce([(src.basis[rng.randrange(len(src.basis))],
                          rng.choice((1, -1)))
                         for _ in range(rng.randrange(1, 7))])
        lhs, rhs = both_sides(letters, u)
        checked += 1
        if lhs != rhs:
            failures.append({"g": letters, "u": free_word_str(u)})
    return {"checked": checked, "failures": failures, "passed": not failures}


def index2_roundtrip_check(n: int, samples: int = 300, seed: int = 0) -> dict:
    """Parity is multiplicative; random even words round-trip through
    membership_psi_image; odd words are rejected."""
    inst = EmbeddingInstance(n)
    rng = random.Random(seed)
    basis = inst.f_basis
    failures = []
    even_roundtrips = 0
    odd_rejected = 0
    parity_checked = 0
    tried = 0
    while even_roundtrips < samples and tried < 50 * samples:
        tried += 1
        w = free_reduce([(basis[rng.randrange(len(basis))], rng.choice((1, -1)))
                         for _ in range(rng.randrange(0, 11))])
        v = free_reduce([(basis[rng.randrange(len(basis))], rng.choice((1, -1)))
                         for _ in range(rng.randrange(0, 11))])
        # parity is a homomorphism
        pw, pv = inst.parity(w), inst.parity(v)
        pwv = inst.parity(word_mul(w, v))
        parity_checked += 1
        if (pw == pv) != (pwv == "even"):
            failures.append({"parity": (free_word_str(w), free_word_str(v))})
        if inst.parity(w) == "odd":
            if inst.membership_psi_image(w) is not None:
                failures.append({"odd_accepted": free_word_str(w)})
            else:
                odd_rejected += 1
            continue
        try:
            pre = inst.membership_psi_image(w)
        except CoxeterError as exc:
            failures.append({"roundtrip_error": free_word_str(w), "err": str(exc)})
            continue
        if pre is None or inst.psi(pre) != w:
            failures.append({"roundtrip": free_word_str(w)})
        else:
            even_roundtrips += 1
    # the psi-images of the F' basis are even and rewrite to the Schreier basis
    images_even = all(inst.parity(inst.psi(letter(x))) == "even"
                      for x in inst.fprime_basis)
    if not images_even:
        failures.append({"image_parity": "some psi(basis) is odd"})
    return {"even_roundtrips": even_roundtrips, "odd_rejected": odd_rejected,
            "parity_checked": parity_checked, "failures": failures,
            "passed": not failures}


def phi_relation_check(n: int) -> dict:
    """phi respects the defining relations of B(B_n): both images agree under
    (N, p) (`equal_mod_derived`) and as automorphisms in the type-A action
    model."""
    inst = EmbeddingInstance(n)
    src, tgt = inst.source_system, inst.target_system
    failures = []
    checked = 0
    for i in range(src.rank):
        for j in range(i + 1, src.rank):
            m = src.m(i, j)
            lhs = [(i, 1) if k % 2 == 0 else (j, 1) for k in range(m)]
            rhs = [(j, 1) if k % 2 == 0 else (i, 1) for k in range(m)]
            bl = BraidWord(tgt, inst.phi_letters(lhs))
            br = BraidWord(tgt, inst.phi_letters(rhs))
            checked += 1
            if not equal_mod_derived(bl, br):
                failures.append({"pair": (i, j), "certificate": "eval_Np"})
            al = composite_aut(inst.target_model,
                               [(tgt.labels[s], e) for s, e in bl.letters])
            ar = composite_aut(inst.target_model,
                               [(tgt.labels[s], e) for s, e in br.letters])
            if al != ar:
                failures.append({"pair": (i, j), "certificate": "action"})
    return {"checked": checked, "failures": failures, "passed": not failures}


def embedding_report(n: int, samples: int = 200, seed: int = 0) -> dict:
    """Full certificate bundle; the theorem-level injectivity of phi follows
    from these checks modulo the faithfulness of the free actions (which is
    sampled, not proved, by nontriviality_sample)."""
    eq = equivariance_check(n, samples=samples, seed=seed)
    idx = index2_roundtrip_check(n, samples=max(300, samples), seed=seed)
    rel = phi_relation_check(n)
    return {
        "n": n,
        "equivariance": eq["passed"],
        "index2": idx["passed"],
        "roundtrip": idx["passed"],
        "relations": rel["passed"],
        "status": "certified modulo faithfulness of the free actions",
        "passed": eq["passed"] and idx["passed"] and rel["passed"],
        "details": {"equivariance": eq, "index2": idx, "relations": rel},
    }
