"""Rotation numbers: hyperbolic holonomy, lifts, and the turning oracle."""

import math

import pytest

from sclkit.chainexpr import parse_chain, parse_word
from sclkit.errors import (InvariantViolationError, NotBoundaryError,
                           RankMismatchError)
from sclkit.freegroup import (concat, invert, single_chain, word, word_power)
from sclkit.rational import qq
from sclkit.rotation import (Mobius, PTRep, classify, defect_probe,
                             punctured_torus_rep, rot, rot_chain,
                             rot_element, turning_number,
                             turning_number_chain)

from conftest import COMMUTATOR_WORDS, chain, random_word, seeded


def rep():
    return punctured_torus_rep()


def test_mobius_validation():
    with pytest.raises(ValueError):
        Mobius(1.0, 1.0, 1.0, 1.0)  # det 0
    m = Mobius(2.0, 0.0, 0.0, 0.5)
    assert m.trace() == 2.5
    assert m.apply(1.0) == 4.0
    assert m.apply(-0.0) == 0.0


def test_mobius_compose_inverse():
    m = Mobius(2.0, 1.0, 1.0, 1.0)
    ident = m.compose(m.inverse())
    assert abs(ident.a - 1.0) < 1e-12 and abs(ident.d - 1.0) < 1e-12
    assert abs(ident.b) < 1e-12 and abs(ident.c) < 1e-12


def test_mobius_pole_maps_to_infinity():
    m = Mobius(2.0, 1.0, 1.0, 1.0)
    assert m.apply(-1.0) == math.inf


def test_classify():
    assert classify(Mobius(2.0, 0.0, 0.0, 0.5)) == "hyperbolic"
    assert classify(Mobius(1.0, 1.0, 0.0, 1.0)) == "parabolic"
    assert classify(Mobius(0.0, -1.0, 1.0, 0.0)) == "elliptic"


def test_holonomy_traces():
    r = rep()
    ta = r.matrices[1].trace()
    tb = r.matrices[2].trace()
    tab = r.matrix_of(word("ab")).trace()
    assert abs(ta - 3.0) < 1e-9
    assert abs(tb - 3.0) < 1e-9
    assert abs(tab - 4.0) < 1e-9
    # tr[A,B] = ta^2 + tb^2 + tab^2 - ta*tb*tab - 2 = -4: the boundary
    # class is hyperbolic, so every nontrivial element acts hyperbolically
    tcomm = r.matrix_of(word("abAB")).trace()
    assert abs(tcomm + 4.0) < 1e-8
    assert classify(r.matrix_of(word("a"))) == "hyperbolic"
    assert classify(r.matrix_of(word("ab"))) == "hyperbolic"
    assert classify(r.matrix_of(word("abAB"))) == "hyperbolic"


def test_no_elliptic_words():
    # a faithful discrete free action has no elliptic elements
    r = rep()
    rng = seeded(11)
    for _ in range(300):
        w = random_word(rng, 2, 9)
        if len(w) == 0:
            continue
        assert classify(r.matrix_of(w)) != "elliptic", str(w)


def test_rot_element_pins():
    r = rep()
    assert rot_element(r, word("abAB")) == 1
    assert rot_element(r, word("baBA")) == -1
    assert rot_element(r, word("ab")) == 1
    assert rot_element(r, word("a", 2)) == 0
    assert rot_element(r, word("b")) == 1
    assert rot_element(r, word("aB")) == -1
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
        w = parse_word(text, min_rank=2)
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


def test_rot_lift_choice_independence():
    # changing the integer lift of a generator shifts single letters but
    # cancels on homologically trivial chains
    r = rep()
    for extra in ({1: 1}, {2: -2}, {1: 3, 2: 5}):
        assert rot_element(r, word("a", 2), extra) \
            == rot_element(r, word("a", 2)) + extra.get(1, 0)
        for expr in ("abAB", "2*abAB + ab - a - b", "abABAbaB"):
            c = parse_chain(expr).chain
            assert rot_chain(r, c, extra) == rot_chain(r, c)


def test_defect_probe():
    assert defect_probe(samples=500) == 1


def test_rot_chain_is_rational_type():
    value = rot(parse_chain("1/2*abAB").chain)
    assert value == qq(1, 2)


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
    from sclkit.freegroup import cyclic_reduce, word_exponents
    rng = seeded(404)
    found = 0
    while found < 60:
        w = random_word(rng, 2, 12)
        core, _ = cyclic_reduce(w)
        if len(core) == 0 or any(word_exponents(core)):
            continue
        found += 1
        assert turning_number(core) == rot_element(r, core), str(core)


def test_rep_is_cached():
    assert punctured_torus_rep() is punctured_torus_rep()
