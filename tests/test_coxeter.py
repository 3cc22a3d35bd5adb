import gc
import itertools
import json
import math
import random
import weakref

import pytest

import closure_oracle
import nmap_oracle
from paper_claims import in_parabolic, make_reflection
from purebraid.coxeter import (
    CoxElem,
    CoxeterError,
    CoxeterSystem,
    _Integers,
    _RealCyclotomic,
    coset_rep,
    exchange_witness,
    is_I_reduced,
    is_reflection,
    load_system,
    longest_element,
    named_system,
    palindromize,
    parabolic_elements,
    reflections,
    subsystem,
    system_from_json,
)
from purebraid.schreier import minimal_generating_set, pure_symbol


def test_named_system_orders():
    assert len(named_system("A3").elements()) == 24
    assert len(named_system("B3").elements()) == 48
    assert len(named_system("I2(5)").elements()) == 10
    assert len(named_system("D4").elements()) == 192


def test_named_system_errors():
    for bad in ("Z3", "A0", "B1", "I2(1)", "F5", "H5", "E9"):
        with pytest.raises(CoxeterError):
            named_system(bad)


def test_infinite_detection():
    aff = named_system("Atilde2")
    assert not aff.is_finite()
    lengths = {}
    for w in aff.enumerate_elements(max_length=3):
        lengths[len(w)] = lengths.get(len(w), 0) + 1
    assert lengths[0] == 1 and lengths[1] == 3 and lengths[2] == 6


def test_is_finite_rank3_matches_enumeration():
    # H3 (order 120) is the largest finite rank-3 group, so W is finite iff
    # listing 121 elements runs out first
    bonds = [2, 3, 4, 5, 6, 7, None]
    finite = 0
    for a, b, c in itertools.product(bonds, repeat=3):
        system = CoxeterSystem([[1, a, b], [a, 1, c], [b, c, 1]])
        expected = len(list(system.enumerate_elements(max_elements=121))) <= 120
        assert system.is_finite() == expected, (a, b, c)
        finite += expected
    assert finite == 31


def _json_system(rank, edges):
    """A JSON Coxeter system from {(i, j): m} bonds, 2 elsewhere."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), bond in edges.items():
        m[i][j] = m[j][i] = bond
    return system_from_json(json.dumps({"rank": rank, "m": m}))


def _path(*bonds):
    return _json_system(len(bonds) + 1, {(i, i + 1): m for i, m in enumerate(bonds)})


def _branch(*arms, first_bond=3):
    """Node 0 with arms of the given numbers of nodes; every bond is 3 except
    the one from node 0 into the first arm."""
    edges, nxt = {}, 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            edges[(prev, nxt)] = 3
            prev, nxt = nxt, nxt + 1
    edges[(0, 1)] = first_bond
    return _json_system(nxt, edges)


@pytest.mark.parametrize("system, finite", [
    (_path(3, 4, 3), True),              # F4
    (_path(5, 3, 3), True),              # H4
    (_branch(1, 1, 2), True),            # D5
    (_branch(1, 2, 2), True),            # E6
    (_branch(1, 2, 3), True),            # E7
    (_branch(1, 2, 4), True),            # E8
    (_json_system(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}), False),  # Atilde3
    (_branch(1, 1, 1, first_bond=4), False),  # Btilde3
    (_path(4, 3, 4), False),             # Ctilde3
    (_branch(1, 1, 1, 1), False),        # Dtilde4
    (_json_system(6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}),
     False),                             # Dtilde5: two branch nodes
    (_path(3, 3, 4, 3), False),          # Ftilde4
    (_branch(2, 2, 2), False),           # Etilde6
    (_branch(1, 2, 5), False),           # Etilde8
    (_path(5, 3, 3, 3), False),
    (_branch(1, 2, 6), False),           # E10
    (_json_system(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}), False),  # Atilde2
    (_json_system(3, {(0, 1): None}), False),
], ids=["F4", "H4", "D5", "E6", "E7", "E8", "Atilde3", "Btilde3", "Ctilde3",
        "Dtilde4", "Dtilde5", "Ftilde4", "Etilde6", "Etilde8", "5333", "E10",
        "Atilde2", "infinite_bond"])
def test_is_finite_classification(system, finite):
    assert system.is_finite() is finite


def test_named_systems_are_finite():
    for name in ("A1", "A5", "B4", "D6", "E6", "E7", "E8", "F4", "H3", "H4", "I2(9)"):
        assert named_system(name).is_finite()
    assert not named_system("Atilde2").is_finite()


def test_normal_form_idempotent_and_reduced():
    system = named_system("B3")
    w = system.normal_form((0, 1, 0, 1, 0, 1, 2, 1, 0))
    assert system.normal_form(w.word) == w
    assert system.is_reduced(w.word)
    assert not system.is_reduced((0, 0))


def test_group_axioms_sampled():
    system = named_system("A3")
    elems = system.elements()
    e = system.identity
    for w in elems:
        assert w * w.inv() == e and w.inv() * w == e
    u, v, w = elems[5], elems[11], elems[17]
    assert (u * v) * w == u * (v * w)


def test_longest_element_lengths():
    assert len(longest_element(named_system("A3"))) == 6
    assert len(longest_element(named_system("B3"))) == 9
    assert len(longest_element(named_system("D4"))) == 12
    assert len(longest_element(named_system("I2(7)"))) == 7


def _skip_in_walk(monkeypatch, skip):
    """Both rings' walk with the negation of r_s or the update of its
    neighbours left out."""
    def int_walk(r, word, rows):
        r = list(r)
        for s in word:
            x = r[s]
            if skip != "negation":
                r[s] = -x
            for t, a in rows[s] if skip != "neighbours" else ():
                r[t] -= a * x
        return r

    def cyclotomic_walk(r, word, rows):
        r = [list(x) for x in r]
        for s in word:
            x = r[s]
            if skip != "negation":
                r[s] = [-c for c in x]
            for t, a in rows[s] if skip != "neighbours" else ():
                for i, k, v in a:
                    r[t][i] -= v * x[k]
        return r

    monkeypatch.setattr(_Integers, "walk", staticmethod(int_walk))
    monkeypatch.setattr(_RealCyclotomic, "walk", staticmethod(cyclotomic_walk))


@pytest.mark.parametrize("name", ["E6", "H3", "Atilde2"])
def test_a_faulty_walk_fails_instead_of_spinning(name, monkeypatch):
    system = named_system(name)
    # without the update of the neighbours the walk leaves a vector that no
    # element has: the peel takes more letters than the word has, and on
    # Atilde2 it would go on forever
    _skip_in_walk(monkeypatch, "neighbours")
    with pytest.raises(RuntimeError):
        system.normal_form((0, 1))
    # without the negation no entry ever turns negative, so every product
    # is e and the climb to the longest element would never end
    _skip_in_walk(monkeypatch, "negation")
    assert system.normal_form((0, 1)).is_identity()
    if system.is_finite():
        with pytest.raises(RuntimeError):
            longest_element(system)


def test_longest_element_descents():
    system = named_system("B3")
    w0 = longest_element(system)
    assert w0.descents("left") == frozenset(range(3))
    assert w0.descents("right") == frozenset(range(3))


def test_reflection_counts():
    assert len(reflections(named_system("A3"))) == 6
    assert len(reflections(named_system("B3"))) == 9
    assert len(reflections(named_system("D4"))) == 12
    assert len(reflections(named_system("I2(5)"))) == 5


def test_reflections_stop_at_max_length():
    system = named_system("E6")
    short = {r.element for r in reflections(system, max_length=3)}
    edges = [(s, t) for s in range(6) for t in range(s + 1, 6) if system.m(s, t) == 3]
    assert len(edges) == 5
    assert short == ({system.gen(s) for s in range(6)}
                     | {system.normal_form((s, t, s)) for s, t in edges})
    with pytest.raises(CoxeterError):
        reflections(named_system("Atilde2"))  # infinite: max_length required


def test_palindromize_witness():
    system = named_system("B3")
    for r in reflections(system):
        u, s = palindromize(r.element)
        word = u.word + (s,) + u.word[::-1]
        assert system.normal_form(word) == r.element
        assert len(word) == len(r.element)
    with pytest.raises(CoxeterError):
        palindromize(system.normal_form((0, 1)))  # even length
    w = system.normal_form((0, 1, 2))
    if not is_reflection(w):
        with pytest.raises(CoxeterError):
            palindromize(w)


def test_make_reflection_and_conjugation():
    system = named_system("A3")
    r = make_reflection(system.gen(0))
    w = system.normal_form((2, 1))
    conj = w.conj(r.element)
    assert is_reflection(conj)


def _palindrome_by_class_scan(el):
    """(u, s) from the ShortLex-least palindrome u s u~ among the reduced
    words of el, found by scanning its braid-move class; None if there is
    none, so that el is not a reflection."""
    if len(el) % 2 == 0:
        return None
    pal = [w for w in el.reduced_words() if w == w[::-1]]
    if not pal:
        return None
    w = min(pal)
    n = len(w) // 2
    return el.system.normal_form(w[:n]), w[n]


@pytest.mark.parametrize("name", ["B4", "H3"])
def test_palindromize_and_is_reflection_match_the_class_scan(name):
    for w in named_system(name).elements():
        expected = _palindrome_by_class_scan(w)
        assert is_reflection(w) == (expected is not None), w
        if expected is None:
            with pytest.raises(CoxeterError):
                palindromize(w)
        else:
            assert palindromize(w) == expected, w


def test_coset_decomposition():
    system = named_system("B3")
    I = (0, 1)
    for w in system.elements():
        rep = coset_rep(w, I)
        assert is_I_reduced(rep, I)
        left = w * rep.inv()
        assert in_parabolic(left, I)
        assert len(left) + len(rep) == len(w)


def test_parabolic_elements_and_subsystem():
    system = named_system("B3")
    I = (0, 1)
    inside = parabolic_elements(system, I)
    assert len(inside) == 8  # B2
    sub = subsystem(system, I)
    assert sub.labels == ("s1", "s2") and sub.m(0, 1) == 4


# -- walks against the definitions they replace ----------------------------

WALKED = ("A3", "B3", "H3", "D4", "I2(5)")


def _subsets(rank):
    return [I for k in range(rank + 1) for I in itertools.combinations(range(rank), k)]


@pytest.mark.parametrize("name, max_length", [(n, None) for n in WALKED] + [("Atilde2", 6)])
def test_walk_of_I_reduced_elements_is_the_filter_of_W(name, max_length):
    system = named_system(name)
    W = list(system.enumerate_elements(max_length=max_length))
    for I in _subsets(system.rank):
        walked = list(system.enumerate_elements(max_length=max_length, I=I))
        assert walked == [w for w in W if is_I_reduced(w, I)], I


def _closure_walk(system, I, max_length=None):
    """The walk of W^I by braid-move-closure products and descents
    (`closure_oracle`), as the walk was before it read coset vectors: the
    sorted set of the lengthening, still I-reduced right products of each
    level."""
    I = frozenset(I)

    def up(w):
        for s in range(system.rank):
            ws = closure_oracle.mult_gen(system, w, s)
            if len(ws) > len(w) and I.isdisjoint(closure_oracle.descents(system, ws, "left")):
                yield ws

    level, out = [()], []
    while level and (max_length is None or len(level[0]) <= max_length):
        out += level
        if len(level[0]) == max_length:
            break
        level = sorted({v for w in level for v in up(w)})
    return [CoxElem(system, w) for w in out]


def _triangle(a, b, c):
    return system_from_json(json.dumps({"rank": 3, "m": [[1, a, b], [a, 1, c], [b, c, 1]]}))


@pytest.mark.parametrize("system, max_length", [
    *((named_system(n), None) for n in WALKED + ("I2(7)", "I2(8)")),
    (named_system("Atilde2"), 6),
    (_triangle(7, None, 2), 7),
    (_triangle(7, 3, None), 6),
    (_triangle(4, 4, 3), 7),
    (_triangle(5, 5, 5), 6),
], ids=[*WALKED, "I2(7)", "I2(8)", "Atilde2", "7-inf-2", "7-3-inf", "4-4-3", "5-5-5"])
def test_walk_matches_the_closure_walk(system, max_length):
    for I in _subsets(system.rank):
        assert list(system.enumerate_elements(max_length, I=I)) \
            == _closure_walk(system, I, max_length), I


@pytest.mark.parametrize("M", [5, 7, 8, 12, 20, 35])
def test_ring_sign_and_equality_against_high_precision(M):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        _check_ring_against_high_precision(mpmath, M)


@pytest.mark.parametrize("M", [5, 7, 8, 12, 20, 35])
def test_theta_bracket_against_high_precision(M):
    # 2^1024 theta has 309 digits before the point; 400 digits leave
    # about 90 after it
    mpmath = pytest.importorskip("mpmath")
    ring = _RealCyclotomic(M)
    with mpmath.workdps(400):
        theta = 2 * mpmath.cos(mpmath.pi / M)
        for g in (64, 256, 1024):
            lo, hi = ring._theta_bracket(g)
            scaled = theta * mpmath.mpf(2) ** g
            assert mpmath.mpf(lo) < scaled < mpmath.mpf(hi), (M, g)


@pytest.mark.parametrize("M", [4, 5, 12, 35, 60])
def test_theta_bracket_takes_logarithmically_many_evaluations(M, monkeypatch):
    # a Newton step from the bracket of about half the precision, certified
    # by the signs of psi at lo and lo + 1, takes a few evaluations of psi
    # per doubling: O(log g) in all, where a bisection takes about g of them
    calls = []
    psi = _RealCyclotomic._psi
    monkeypatch.setattr(_RealCyclotomic, "_psi",
                        lambda self, *args, **kw: calls.append(args) or psi(self, *args, **kw))
    for g in (64, 256, 1024, 4096):
        ring = _RealCyclotomic(M)
        calls.clear()
        ring._theta_bracket(g)
        assert len(calls) <= 8 * math.log2(g), (g, len(calls))
        # the next precision of `sign` starts from the cached bracket: one
        # Newton step
        calls.clear()
        ring._theta_bracket(2 * g - 16)
        assert len(calls) <= 8, (g, len(calls))


@pytest.mark.parametrize("M", [5, 7, 8, 12, 20, 35])
def test_ring_sign_of_near_misses_of_every_degree(M):
    # theta^k (p - q theta) for the continued-fraction convergents p/q of
    # theta and every k < d: each is within about 1/q of 0, and the factor
    # theta^k spreads it over every coordinate
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        theta = 2 * mpmath.cos(mpmath.pi / M)
        ring = _RealCyclotomic(M)
        d = ring.d
        basis = [tuple(int(i == k) for i in range(d)) for k in range(d)]
        p0, q0, p1, q1, x = 1, 0, int(theta), 1, theta
        for _ in range(40):
            miss = (p1, -q1) + (0,) * (d - 2)
            for k in range(d):
                z = ring.submul(ring.zero, ring.const(basis[k]), miss)  # -theta^k miss
                v = sum(c * theta ** i for i, c in enumerate(z))
                assert abs(v) > mpmath.mpf(10) ** -100
                assert ring.sign(z) == (v > 0) - (v < 0), (k, z)
            x = 1 / (x - int(x))
            p0, q0, p1, q1 = p1, q1, int(x) * p1 + p0, int(x) * q1 + q0


def _check_ring_against_high_precision(mpmath, M):
    # a nonzero element with coefficients in [-5, 5] has a norm that is a
    # nonzero integer, and each of its d - 1 other conjugates is below
    # 5 * 2^d in size, so its size exceeds (5 * 2^d)^-(d-1) >= 1e-60 for
    # d <= 12: far above the margin of 1e-100, itself far above the error
    # of a 200-digit evaluation with coefficients below 1e80.  The near
    # misses below are checked against the margin directly.
    margin = mpmath.mpf(10) ** -100
    theta = 2 * mpmath.cos(mpmath.pi / M)
    ring = _RealCyclotomic(M)
    d = ring.d
    assert 2 * d == sum(1 for k in range(2 * M) if math.gcd(k, 2 * M) == 1)
    assert abs(mpmath.polyval(ring.poly[::-1], theta)) < margin

    def value(x):
        return sum(c * theta ** k for k, c in enumerate(x))

    rng = random.Random(M)
    samples = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(300)]
    samples += [ring.zero, ring.one, ring.neg(ring.one)]
    # near misses p - q theta, for the continued-fraction convergents p/q of
    # theta: far closer to 0 than a float can sign
    p0, q0, p1, q1, x = 1, 0, int(theta), 1, theta
    for _ in range(60):
        samples.append((p1, -q1) + (0,) * (d - 2))
        x = 1 / (x - int(x))
        p0, q0, p1, q1 = p1, q1, int(x) * p1 + p0, int(x) * q1 + q0
    assert max(abs(c) for x in samples for c in x) < 10 ** 80
    for x in samples:
        v = value(x)
        assert abs(v) > margin or not any(x)
        assert ring.sign(x) == (v > 0) - (v < 0), x
    assert max(ring._brackets) > 64  # some signs needed more than 64 bits
    for x, y in zip(samples, samples[1:]):
        assert (x == y) == (abs(value(x) - value(y)) < margin)
        for j in (1, M - 1):
            c = ring.two_cos(j)
            z = ring.submul(x, ring.const(c), y)
            assert abs(value(z) - (value(x) - value(c) * value(y))) < margin
    for j in range(2 * M + 1):
        assert abs(value(ring.two_cos(j)) - 2 * mpmath.cos(j * mpmath.pi / M)) < margin


def test_walk_guard_and_caps():
    affine = named_system("Atilde2")
    with pytest.raises(CoxeterError):
        affine.enumerate_elements(I=(0,))
    assert len(list(affine.enumerate_elements(max_elements=7, I=(0,)))) == 7
    assert [str(w) for w in affine.enumerate_elements(max_length=0, I=(0,))] == ["e"]


def _reflections_by_filter(system, max_length=None):
    """The former definition: the reflections among all elements of W."""
    return [make_reflection(w) for w in system.enumerate_elements(max_length=max_length)
            if is_reflection(w)]


def _with_witnesses(refls):
    return [(r.element, r.witness_u, r.witness_s) for r in refls]


@pytest.mark.parametrize("name", WALKED + ("I2(6)",))
def test_reflections_are_the_filter_of_W(name):
    system = named_system(name)
    assert _with_witnesses(reflections(system)) \
        == _with_witnesses(_reflections_by_filter(system))


def _root_walk_every_level(system, max_length=None):
    """`CoxeterSystem._root_walk((), max_length)` read off the walk of W:
    every level up to max_length walked, each frame stepped from its
    prefix's, the first (b, s) kept per root."""
    ring, _ = system._cartan_rows()
    levels = list(system._levels(frozenset(), max_length))
    frames = system._frames(b for level in levels for b in level.values())
    best = {}
    for level in levels:
        for r, b in level.items():
            for s in range(system.rank):
                if ring.sign(r[s]) > 0:
                    best.setdefault(frames[b][s], (CoxElem(system, b), s))
    return best


@pytest.mark.parametrize("system, lengths", [
    (named_system("H4"), [None]),
    (named_system("E6"), [None]),
    (named_system("E8"), range(-1, 6)),
    *((system, range(-1, 9)) for system in (
        named_system("Atilde2"), _triangle(7, None, 2), _triangle(7, 3, None),
        _triangle(4, 4, 3), _triangle(5, 5, 5))),
], ids=["H4", "E6", "E8", "Atilde2", "7-inf-2", "7-3-inf", "4-4-3", "5-5-5"])
def test_root_poset_gives_the_roots_of_the_walk_of_W(system, lengths, monkeypatch):
    # the reflection digests do not pin H4, E6 and E8; the roots raised from
    # the simple ones, each with its lowering witness, are those the walk of
    # W finds first, in the same order, and the poset walks no level of W
    expected = {h: list(_root_walk_every_level(system, h).items()) for h in lengths}

    def walk_of_W(*args):
        raise AssertionError("the root poset walked W")

    monkeypatch.setattr(CoxeterSystem, "_levels", walk_of_W)
    for h, items in expected.items():
        assert list(system._root_walk((), h).items()) == items, h
        assert minimal_generating_set(system, (), h) \
            == [pure_symbol(b, s) for _, (b, s) in items], h
    if None in expected:
        assert len(expected[None]) == {"H4": 60, "E6": 36}[system.name]


REFLECTION_COUNTS = {"A5": 15, "B4": 16, "D5": 20, "F4": 24, "E6": 36, "H3": 15,
                     "H4": 60, "I2(5)": 5, "I2(7)": 7, "E8": 120}


@pytest.mark.parametrize("name", list(REFLECTION_COUNTS))
def test_reflection_of_a_root_is_its_palindrome(name):
    # the oracle's `reflection` lowers the root one coordinate at a time; it
    # is the normal form of b s b^-1 for the witness (b, s) that the root
    # poset reads off each root's parent, and `palindromize`, which reads
    # each witness off the descents of its reflection, checks the witnesses
    # apart from the roots
    system = named_system(name)
    walk, refls = system._root_walk((), None), reflections(system)
    assert len(walk) == len(refls) == REFLECTION_COUNTS[name]
    for root, (b, s) in walk.items():
        assert nmap_oracle.witness(system, root) == (b.word, s)
        assert nmap_oracle.reflection(system, root) \
            == system.normal_form(b.word + (s,) + b.word[::-1])
    for r in refls:
        assert (r.witness_u, r.witness_s) == palindromize(r.element)


@pytest.mark.parametrize("vector", [(-1, -1), (1, -1), (2, 0), (2, 2)])
def test_reflection_rejects_a_vector_that_is_not_a_positive_root(vector):
    # a negative coordinate, no simple reflection that lowers it, or a
    # multiple of a simple root other than itself
    with pytest.raises(CoxeterError, match="not a positive root"):
        nmap_oracle.reflection(named_system("A2"), vector)


def test_reflections_of_affine_A2_at_every_max_length():
    system = named_system("Atilde2")
    assert reflections(system, max_length=0) == []
    for k in range(1, 10):
        assert _with_witnesses(reflections(system, max_length=k)) \
            == _with_witnesses(_reflections_by_filter(system, k)), k


@pytest.mark.parametrize("name", WALKED)
def test_parabolic_and_longest_elements(name):
    system = named_system(name)
    W = system.elements()
    for I in _subsets(system.rank):
        inside = parabolic_elements(system, I)
        assert inside == [w for w in W if set(w.word) <= set(I)], I
        assert longest_element(system, I) == max(inside, key=len), I
    with pytest.raises(CoxeterError):
        longest_element(named_system("Atilde2"), (0, 1, 2))


def test_exchange_witness():
    system = named_system("A3")
    # s1 * (s2 s1) = (s2 s1) * s2
    b = system.normal_form((1, 0))
    assert exchange_witness(b, 0, 1) == system.normal_form((0, 1, 0))
    with pytest.raises(CoxeterError):
        exchange_witness(system.gen(0), 0, 0)  # s b not reduced


def test_validate_system_errors():
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 3], [2, 1]])  # asymmetric
    with pytest.raises(CoxeterError):
        CoxeterSystem([[2, 3], [3, 1]])  # bad diagonal
    with pytest.raises(CoxeterError):
        CoxeterSystem([[1, 1], [1, 1]])  # off-diagonal < 2
    with pytest.raises(CoxeterError):
        CoxeterSystem([])


def test_system_from_json_and_load():
    doc = {"rank": 2, "m": [[1, None], [None, 1]], "labels": ["u", "v"]}
    system = system_from_json(json.dumps(doc))
    assert system.m(0, 1) is None
    assert load_system("B2").matrix == named_system("B2").matrix
    loaded = load_system(json.dumps(doc))
    assert loaded.labels == ("u", "v")


_RANK2 = {"rank": 2, "m": [[1, 3], [3, 1]]}


@pytest.mark.parametrize("doc", [
    '{"rank": 2, "m": [[1, 3.7], [3.7, 1]]}',  # not read as 3
    '{"rank": 2, "m": [[1, true], [true, 1]]}',
    '{"rank": 2, "m": [[1, "x"], ["x", 1]]}',
    '{"rank": 2}',
    '{"m": [[1]]}',
    '[1]',
    '{"rank": 2, "m": [1, 2]}',
    '{"rank": 3, "m": [[1, 3], [3, 1]]}',
    '{"rank": 2, "m": [[1, 3], [3',
    json.dumps(dict(_RANK2, labels=["a", "a"])),  # s2 could not be named
    json.dumps(dict(_RANK2, labels=["a b", "c"])),  # could not be parsed
    json.dumps(dict(_RANK2, labels=["e", "c"])),  # the printed identity
    json.dumps(dict(_RANK2, labels=["", "c"])),
    json.dumps(dict(_RANK2, labels=[1, "c"])),
    json.dumps(dict(_RANK2, labels="ab")),
    json.dumps(dict(_RANK2, labels=["a"])),
], ids=["float", "bool", "string-entry", "no-m", "no-rank", "list", "flat-m",
        "rank-mismatch", "truncated", "repeated-label", "label-with-space",
        "label-e", "empty-label", "int-label", "labels-string", "too-few-labels"])
def test_malformed_systems_raise_coxeter_error(doc):
    with pytest.raises(CoxeterError):
        system_from_json(doc)
    with pytest.raises(CoxeterError):
        load_system(doc)


def test_labels_are_checked_by_the_constructor():
    for labels in (["a", "a"], ["a\tb", "c"], ["e", "f"], ["", "f"]):
        with pytest.raises(CoxeterError):
            CoxeterSystem([[1, 3], [3, 1]], labels=labels)
    system = CoxeterSystem([[1, 3], [3, 1]], labels=["a", "b"])
    assert system.parse_word("b a") == (1, 0)


def test_parse_and_word_str_roundtrip():
    system = named_system("D4")
    word = system.parse_word("s2' s3 s2 s4")
    assert system.word_str(word) == "s2' s3 s2 s4"
    with pytest.raises(CoxeterError):
        system.parse_word("s9")


@pytest.mark.parametrize("name", ["A3", "H3"])
def test_a_dropped_system_is_freed_without_the_cycle_collector(name):
    # no element is stored on its own system: reference counting alone
    # frees a system and its Cartan data once nothing else holds it
    system = named_system(name)
    w = longest_element(system)
    assert len(w.inv() * w) == 0 and w.descents("left") and w.reduced_words()
    assert len(reflections(system)) and system.identity.is_identity()
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system, w
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["E6", "H4"])
def test_in_place_kernels_leave_the_shared_vectors_alone(name):
    # walk copies the identity vector once and peel works on that copy: the
    # memoized identity vector, the identity frame and the Cartan rows stay
    # what a fresh system builds, over Z (E6) and over Z[theta] (H4)
    system, fresh = named_system(name), named_system(name)
    vector, frame = system._coset_vector(()), system._frame()
    rng = random.Random(29)
    for _ in range(150):
        u, v = (system.normal_form([rng.randrange(system.rank)
                                    for _ in range(rng.randint(0, 12))]) for _ in "uv")
        assert (u * v).inv() == v.inv() * u.inv()
        assert u.conj(v) == u * v * u.inv()
        assert u.descents("left") == u.inv().descents("right")
    assert system._coset_vector(()) is vector and system._frame() is frame
    assert vector == fresh._coset_vector(()) and frame == fresh._frame()
    assert system._cartan_rows()[1] == fresh._cartan_rows()[1]
    assert system.normal_form(()).is_identity() and not system.identity.descents()


@pytest.mark.parametrize("name", ["E6", "H3"])
def test_element_arithmetic_takes_no_coset_step(name, monkeypatch):
    # _vector and _shortlex walk and peel in one ring call each: the ring's
    # one-letter step serves the walk of the elements (_levels) alone
    system = named_system(name)
    ring, _ = system._cartan_rows()
    calls = []
    step = ring.step
    monkeypatch.setattr(ring, "step",
                        lambda r, s, row: calls.append(s) or step(r, s, row))
    w = longest_element(system)
    u = system.normal_form((0, 1, 2) * 3)
    assert (u * w).inv() == w.inv() * u.inv() and u.conj(w) == u * w * u.inv()
    assert u.descents("left") and w.descents("right") and system._vector(w.word)
    assert calls == []
    list(system.enumerate_elements(max_length=1))
    assert calls


def test_descents_match_definition():
    system = named_system("A3")
    for w in system.elements():
        rights = {s for s in range(3) if len(w * system.gen(s)) < len(w)}
        lefts = {s for s in range(3) if len(system.gen(s) * w) < len(w)}
        assert w.descents("right") == frozenset(rights)
        assert w.descents("left") == frozenset(lefts)
