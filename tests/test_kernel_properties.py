"""Property tests of the Coxeter word kernel against the independent oracles
of purebraid.oracles and the braid-move closure of closure_oracle, and of the
N-map and the extension cocycle built on it."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import closure_oracle  # noqa: E402
from purebraid.braid import BraidWord  # noqa: E402
from purebraid.coxeter import named_system, system_from_json  # noqa: E402
from purebraid.nmap import cocycle, eval_Np  # noqa: E402
from purebraid.oracles import MatrixOracle, PermutationOracle  # noqa: E402

deterministic = settings(derandomize=True, database=None, max_examples=60,
                         deadline=None)

PERMUTATION = {name: PermutationOracle.for_system(name) for name in ("A4", "B3", "D4")}
# over Z for F4 and E8, over Z[phi] (GoldenInt) for H4
MATRIX = {name: MatrixOracle(named_system(name)) for name in ("F4", "E8", "H4")}
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


def negative(x):
    """x < 0, for an int or for x = a + b phi in Z[phi]: 2x = p + q sqrt 5
    with p = 2a + b and q = b, compared by their squares where their signs
    differ."""
    if isinstance(x, int):
        return x < 0
    p, q = 2 * x.a + x.b, x.b
    if p >= 0 and q >= 0:
        return False
    if p <= 0 and q <= 0:
        return True
    return (p * p > 5 * q * q) == (p < 0)


def root_descents(img):
    """s is a right descent of w iff w(alpha_s), column s of the image on
    root coordinates, is a negative root."""
    n = len(img)
    return frozenset(s for s in range(n) if any(negative(img[a][s]) for a in range(n)))


def root_length(oracle, img):
    """The number of right descents peeled off, one at a time, down to 1."""
    length = 0
    while d := root_descents(img):
        img = oracle._matmul(img, oracle.gen_mats[min(d)])
        length += 1
    return length


@settings(deterministic, max_examples=180)
@given(cases({name: o.system for name, o in MATRIX.items()}, 1, 7))
def test_normal_form_matches_matrix_oracle_F4(case):
    # F4, and E8 and H4 too: H4 peels over Z[theta] against GoldenInt images
    name, word = case
    oracle = MATRIX[name]
    el = oracle.system.normal_form(word)
    img = oracle.image_of_word(word)
    inverse = oracle.image_of_word(word[::-1])
    assert oracle.image(el) == img
    assert len(el) == root_length(oracle, img)
    assert el.descents("right") == root_descents(img)
    assert el.descents("left") == root_descents(inverse)


# small ranks, where the closure is cheap; Atilde2 is infinite, so its words
# are short, and the triangle has the infinite bond m(s1, s2) and bonds 7, 2
CLOSURE = {name: named_system(name) for name in ("A3", "B3", "H3", "D4", "I2(5)")}
CLOSURE["Atilde2"] = named_system("Atilde2")
CLOSURE["7-inf-2"] = system_from_json('{"rank": 3, "m": [[1, 7, null], [7, 1, 2], [null, 2, 1]]}')


@settings(deterministic, max_examples=200)
@given(cases(CLOSURE, 2, 9))
def test_element_arithmetic_matches_the_braid_move_closure(case):
    name, u_word, v_word = case
    system = CLOSURE[name]
    u, v = system.normal_form(u_word), system.normal_form(v_word)
    assert u.word == closure_oracle.normal_form(system, u_word)
    assert (u * v).word == closure_oracle.normal_form(system, u.word + v.word)
    assert u.inv().word == closure_oracle.normal_form(system, u.word[::-1])
    assert u.conj(v).word == closure_oracle.normal_form(
        system, u.word + v.word + u.word[::-1])
    for side in ("right", "left"):
        assert u.descents(side) == closure_oracle.descents(system, u.word, side)
    assert u.reduced_words() == closure_oracle.braid_class(system, u.word)


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
