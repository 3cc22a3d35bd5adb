"""Property tests of the Coxeter word kernel against the independent oracles
of purebraid.oracles, and of the N-map and the extension cocycle built on it."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from purebraid.braid import BraidWord  # noqa: E402
from purebraid.coxeter import named_system  # noqa: E402
from purebraid.nmap import cocycle, eval_Np  # noqa: E402
from purebraid.oracles import MatrixOracle, PermutationOracle  # noqa: E402

deterministic = settings(derandomize=True, database=None, max_examples=60,
                         deadline=None)

PERMUTATION = {name: PermutationOracle.for_system(name) for name in ("A4", "B3", "D4")}
F4 = MatrixOracle(named_system("F4"))
SMALL = {name: named_system(name) for name in ("A3", "B3")}


def generators(system):
    return st.integers(0, system.rank - 1)


def braid_letters(system):
    return st.tuples(generators(system), st.sampled_from((1, -1)))


def cases(systems, n_words, max_size, letters=generators):
    """(name, word_1, ..., word_n), the words over the letters of systems[name]."""
    return st.sampled_from(sorted(systems)).flatmap(lambda name: st.tuples(
        st.just(name), *[st.lists(letters(systems[name]), max_size=max_size)
                         .map(tuple)] * n_words))


@deterministic
@given(cases({name: o.system for name, o in PERMUTATION.items()}, 1, 14))
def test_normal_form_matches_permutation_oracle(case):
    name, word = case
    oracle = PERMUTATION[name]
    el = oracle.system.normal_form(word)
    img = oracle.image_of_word(word)
    assert oracle.image(el) == img
    assert len(el) == oracle.length(img)
    assert el.descents("right") == oracle.descents(img, "right")
    assert el.descents("left") == oracle.descents(img, "left")


def root_descents(img):
    """s is a right descent of w iff w(alpha_s), column s of the image on
    root coordinates, is a negative root."""
    n = len(img)
    return frozenset(s for s in range(n) if any(img[a][s] < 0 for a in range(n)))


def root_length(img):
    """The number of right descents peeled off, one at a time, down to 1."""
    length = 0
    while d := root_descents(img):
        img = F4._matmul(img, F4.gen_mats[min(d)])
        length += 1
    return length


@deterministic
@given(cases({"F4": F4.system}, 1, 7))
def test_normal_form_matches_matrix_oracle_F4(case):
    _, word = case
    el = F4.system.normal_form(word)
    img = F4.image_of_word(word)
    inverse = F4.image_of_word(word[::-1])
    assert F4.image(el) == img
    assert len(el) == root_length(img)
    assert el.descents("right") == root_descents(img)
    assert el.descents("left") == root_descents(inverse)


@deterministic
@given(cases(SMALL, 2, 6, braid_letters))
def test_eval_Np_is_multiplicative(case):
    name, *words = case
    u, v = (BraidWord(SMALL[name], list(w)) for w in words)
    assert eval_Np(u * v) == eval_Np(u) * eval_Np(v)


@deterministic
@given(cases(SMALL, 3, 6))
def test_cocycle_identity(case):
    name, *words = case
    u, v, w = (SMALL[name].normal_form(x) for x in words)
    # u.c(v,w) - c(uv,w) + c(u,vw) - c(u,v) = 0
    total = (cocycle(v, w).acted_by(u) - cocycle(u * v, w)
             + cocycle(u, v * w) - cocycle(u, v))
    assert total.is_zero()
