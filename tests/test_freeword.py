"""Property tests of purebraid.freeword against a naive reduction oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from purebraid.coxeter import CoxeterError  # noqa: E402
from purebraid.freeword import (  # noqa: E402
    free_reduce,
    free_word_str,
    letter,
    parse_free_word,
    substitute,
    word_inv,
    word_mul,
)

SYMBOLS = ("a", "b", "c")
letters = st.tuples(st.sampled_from(SYMBOLS), st.sampled_from((1, -1)))
raw_words = st.lists(letters, max_size=14).map(tuple)
words = raw_words.map(free_reduce)
# images of a, b, c over the same alphabet: an endomorphism of F(a, b, c)
tables = st.fixed_dictionaries({x: words for x in SYMBOLS})

deterministic = settings(derandomize=True, database=None, max_examples=300)


def naive_reduce(w):
    """Delete one adjacent inverse pair at a time until none is left."""
    w = list(w)
    i = 0
    while i < len(w) - 1:
        if w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]:
            del w[i:i + 2]
            i = 0
        else:
            i += 1
    return tuple(w)


@deterministic
@given(raw_words)
def test_free_reduce_matches_naive_oracle(w):
    assert free_reduce(w) == naive_reduce(w)
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@deterministic
@given(words)
def test_inverse(w):
    assert word_inv(word_inv(w)) == w
    assert word_mul(w, word_inv(w)) == ()
    assert word_mul(word_inv(w), w) == ()


@deterministic
@given(words, words, words)
def test_word_mul_is_associative(u, v, w):
    assert word_mul(word_mul(u, v), w) == word_mul(u, word_mul(v, w)) \
        == naive_reduce(u + v + w)


@deterministic
@given(tables, raw_words)
def test_substitute_matches_naive_oracle(images, w):
    expanded = []
    for sym, e in w:
        img = images[sym]
        expanded.extend(img if e == 1 else tuple((x, -f) for x, f in reversed(img)))
    assert substitute(images, w) == naive_reduce(expanded)


@deterministic
@given(tables, words, words)
def test_substitute_is_a_homomorphism(images, u, v):
    h = substitute
    assert h(images, word_mul(u, v)) == word_mul(h(images, u), h(images, v))
    assert h(images, word_inv(u)) == word_inv(h(images, u))
    assert h(images, ()) == ()


@deterministic
@given(words)
def test_identity_substitution_and_text_roundtrip(w):
    assert substitute({x: letter(x) for x in SYMBOLS}, w) == w
    if w:
        assert parse_free_word(free_word_str(w)) == w


def test_errors():
    with pytest.raises(CoxeterError):
        free_reduce([("a", 2)])
    with pytest.raises(CoxeterError):
        substitute({"a": letter("b")}, letter("c"))
