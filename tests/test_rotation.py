"""Rotation numbers: exact integer holonomy, and the turning oracle."""

import math

import pytest

from sclkit.chainexpr import parse_chain, parse_word
from sclkit.errors import (InvariantViolationError, NotBoundaryError,
                           RankMismatchError)
from sclkit.freegroup import (chain_of, concat, cyclic_core, invert,
                              make_word, word, word_exponents, word_power)
from sclkit.rational import QQ
from sclkit.rotation import (punctured_torus_rep, rot, rot_element,
                             turning_number, turning_number_chain)

from conftest import (COMMUTATOR_WORDS, chain, defect_probe, random_word,
                      seeded)


def rep():
    return punctured_torus_rep()


def product(r, w):
    """The exact SL(2, Z) matrix of a word, as (a, b, c, d)."""
    m = (1, 0, 0, 1)
    for letter in w.letters:
        a, b, c, d = m
        p, q, s, t = r.matrices[letter]
        m = (a * p + b * s, a * q + b * t, c * p + d * s, c * q + d * t)
    return m


def trace(r, w):
    m = product(r, w)
    return m[0] + m[3]


def test_holonomy_traces():
    r = rep()
    for letter, m in r.matrices.items():
        a, b, c, d = m
        assert a * d - b * c == 1, letter
        assert product(r, make_word((letter, -letter), 2)) == (1, 0, 0, 1)
    assert trace(r, word("a")) == 3
    assert trace(r, word("b", 2)) == 3
    assert trace(r, word("ab")) == 3
    # tr[A,B] = ta^2 + tb^2 + tab^2 - ta*tb*tab - 2 = -2: the boundary
    # class is parabolic, a cusp, and the Markov triple is (3, 3, 3)
    assert trace(r, word("abAB")) == -2
    assert trace(r, word("baBA")) == -2


def test_no_elliptic_words():
    # a faithful discrete free action has no elliptic elements
    r = rep()
    rng = seeded(11)
    for _ in range(300):
        w = random_word(rng, 2, 9)
        if len(w) == 0:
            continue
        assert abs(trace(r, w)) >= 2, str(w)


def test_rot_element_pins():
    r = rep()
    assert rot_element(r, word("abAB")) == 1
    assert rot_element(r, word("baBA")) == -1
    # single unbalanced words depend on the marking: the float Q(sqrt 5)
    # holonomy gave ab = 1, b = 1, aB = -1, and old - new is the exponent
    # sum of b, a homomorphism, so chains keep their values
    assert rot_element(r, word("ab")) == 0
    assert rot_element(r, word("a", 2)) == 0
    assert rot_element(r, word("b")) == 0
    assert rot_element(r, word("aB")) == 0
    assert rot_element(r, word("aA")) == 0


def test_rot_chain_pins():
    # rot(ab) = rot(a) + rot(b), so the thrice-punctured sphere chain
    # rotates by zero and cannot certify its scl of 1/2
    assert rot(parse_chain("ab - a - b").chain) == 0
    assert rot(parse_chain("2*abAB + ab - a - b").chain) == 2
    assert rot(parse_chain("2*abAB - ab + a + b").chain) == 2
    assert rot(parse_chain("abAB").chain) == 1
    assert rot(parse_chain("a + b + BA").chain) == 0
    assert rot(parse_chain("abABAbaB").chain) == 0
    assert rot(parse_chain("a + A").chain) == 0


def test_rot_requires_boundary():
    with pytest.raises(NotBoundaryError):
        rot(parse_chain("ab").chain)
    with pytest.raises(RankMismatchError):
        rot_element(rep(), word("abc"))


def test_rot_integrality_on_elements():
    r = rep()
    rng = seeded(23)
    for _ in range(100):
        w = random_word(rng, 2, 10)
        if len(w) == 0:
            continue
        assert isinstance(rot_element(r, w), int)


def test_rot_homogeneity():
    r = rep()
    for text in ("abAB", "ab", "a", "aabAB"):
        w = parse_word(text)
        base = rot_element(r, w)
        for n in range(1, 5):
            assert rot_element(r, word_power(w, n)) == n * base
            assert rot_element(r, word_power(invert(w), n)) == -n * base


def test_rot_conjugacy_invariance():
    r = rep()
    rng = seeded(37)
    for _ in range(60):
        w = random_word(rng, 2, 8)
        g = random_word(rng, 2, 4)
        if len(w) == 0:
            continue
        conj = concat(g, w, invert(g))
        assert rot_element(r, conj) == rot_element(r, w)


def test_defect_probe():
    assert defect_probe(samples=500) == 1


def test_rot_chain_is_rational_type():
    value = rot(parse_chain("1/2*abAB").chain)
    assert value == QQ(1, 2)


def test_area_coefficient():
    # the area a chain's rotation number certifies, in units of 2*pi
    assert 2 * rot(parse_chain("abAB").chain) == 2
    assert 2 * rot(parse_chain("2*abAB + ab - a - b").chain) == 4


def test_turning_number_pins():
    assert turning_number(word("abAB")) == 1
    assert turning_number(word("baBA")) == -1
    assert turning_number(word("aabbAABB")) == 1
    assert turning_number(word("abABabAB")) == 2
    assert turning_number(word("abABAbaB")) == 0
    assert turning_number(word("aA")) == 0


def test_turning_number_errors():
    with pytest.raises(NotBoundaryError):
        turning_number(word("ab"))
    with pytest.raises(RankMismatchError):
        turning_number(word("abc"))


def test_turning_number_error_messages():
    # the whole chain's boundary check comes before any per-term check
    with pytest.raises(NotBoundaryError,
                       match=r"not homologically trivial: "
                             r"exponent vector \(1, 1, 0\)"):
        turning_number_chain(parse_chain("abc - c").chain)
    with pytest.raises(NotBoundaryError,
                       match=r"closed path; exponents \(1, 0\)"):
        turning_number_chain(parse_chain("ab - a - b").chain)
    with pytest.raises(RankMismatchError, match="rank 2 only"):
        turning_number_chain(parse_chain("abABc - c").chain)
    # the exponents of a conjugated word are those of its cyclic core
    with pytest.raises(NotBoundaryError,
                       match=r"closed path; exponents \(0, 2\)"):
        turning_number(word("abbA"))
    assert turning_number_chain(parse_chain("abbA - bb").chain) == 0


def test_turning_number_chain():
    for expr in ("abAB + aabbAABB", "3*abAB - abABabAB", "2*abABAbaB"):
        c = parse_chain(expr).chain
        assert turning_number_chain(c) == rot(c), expr
    with pytest.raises(NotBoundaryError):
        # each term must close on its own to have a turning number
        turning_number_chain(parse_chain("ab - a - b").chain)


def test_turning_matches_dynamical_on_commutator_words():
    r = rep()
    for text in COMMUTATOR_WORDS:
        w = word(text)
        assert turning_number(w) == rot_element(r, w), text


def test_turning_matches_dynamical_on_random_balanced_words():
    r = rep()
    rng = seeded(404)
    found = 0
    while found < 60:
        w = random_word(rng, 2, 12)
        core = cyclic_core(w)
        if len(core) == 0 or any(word_exponents(core)):
            continue
        found += 1
        assert turning_number(core) == rot_element(r, core), str(core)


def test_rep_is_cached():
    assert punctured_torus_rep() is punctured_torus_rep()


def reduced_word(rng, n):
    """A random freely reduced rank-2 word of exactly n letters."""
    letters = [rng.choice((1, 2, -1, -2))]
    while len(letters) < n:
        letter = rng.choice((1, 2, -1, -2))
        if letter != -letters[-1]:
            letters.append(letter)
    return make_word(tuple(letters), 2)


def commutator(rng, letters):
    """[u, v] with |u| + |v| = letters / 2."""
    half = letters // 2
    n = rng.randint(1, half - 1)
    u, v = reduced_word(rng, n), reduced_word(rng, half - n)
    return concat(u, v, invert(u), invert(v))


def balanced_word(rng, letters):
    """A random word with zero exponent sums, reduced cyclically."""
    k = rng.randint(0, letters // 2)
    pool = [1, -1] * k + [2, -2] * (letters // 2 - k)
    rng.shuffle(pool)
    return cyclic_core(make_word(tuple(pool), 2))


def test_dynamical_matches_turning_on_long_commutators():
    # the exact holonomy has no length limit: commutators and sums of two
    # of 64-2048 letters (log-uniform) against the axis-direction oracle
    r = rep()
    rng = seeded(2048)
    for _ in range(48):
        letters = round(math.exp(rng.uniform(math.log(64), math.log(2048))))
        if rng.random() < 0.5:
            w = commutator(rng, letters)
            assert rot_element(r, w) == turning_number(w), str(w)
        else:
            c = chain_of([(1, commutator(rng, letters // 2)),
                          (rng.choice((1, -2)),
                           commutator(rng, letters - letters // 2))], 2)
            assert rot(c) == turning_number_chain(c)


def test_dynamical_matches_turning_on_balanced_words():
    r = rep()
    rng = seeded(909)
    for _ in range(120):
        w = balanced_word(rng, rng.randint(2, 1024))
        if len(w) == 0:
            continue
        assert not any(word_exponents(w))
        assert rot_element(r, w) == turning_number(w), str(w)


def test_rot_of_long_primitive_word():
    # 484 letters: far past where float64 holonomy products overflow
    c = parse_chain("aabbAABB" * 60 + "abAB").chain
    assert rot(c) == 61
    assert turning_number_chain(c) == 61
