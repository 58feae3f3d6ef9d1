"""The equality scl = rot/2: pointwise test, stabilization, and scans."""

import pytest

from sclkit.chainexpr import parse_chain, parse_word
from sclkit.errors import (InvariantViolationError, NotBoundaryError,
                           RankMismatchError)
from sclkit.freegroup import (add_chains, chains_equal, invert_chain,
                              single_chain, word)
from sclkit.immersion import (BOUNDARY_CLASS, CriterionReport,
                              bounds_immersed, corollary_check,
                              minimal_stabilization, scan_conjecture)
from sclkit.rational import qq
from sclkit.sclenc import scl
from sclkit.rotation import rot

from conftest import RANK2_CORPUS, chain, seeded


def test_boundary_class():
    assert str(BOUNDARY_CLASS) == "abAB"


def test_criterion_true_examples():
    for expr in ("abAB", "2*abAB + ab - a - b", "2*abAB - ab + a + b"):
        rep = bounds_immersed(parse_chain(expr).chain)
        assert rep.bounds_immersed, expr
        assert 2 * rep.scl == rep.rot


def test_criterion_false_examples():
    for expr in ("a + b + BA", "abABAbaB", "abAB + ab - a - b"):
        rep = bounds_immersed(parse_chain(expr).chain)
        assert not rep.bounds_immersed, expr
        assert 2 * rep.scl > rep.rot


def test_criterion_zero_chain():
    rep = bounds_immersed(parse_chain("a + A").chain)
    assert rep.scl == 0 and rep.rot == 0
    assert rep.bounds_immersed


def test_criterion_requires_boundary_and_rank2():
    with pytest.raises(NotBoundaryError):
        bounds_immersed(parse_chain("ab").chain)
    with pytest.raises(RankMismatchError):
        bounds_immersed(parse_chain("[a,c]").chain)


def test_criterion_rank1_embeds():
    rep = bounds_immersed(parse_chain("a + A").chain)
    assert rep.chain.rank == 2


def test_criterion_is_signed():
    # the reversed orientation has rot = -1 and cannot satisfy equality
    c = parse_chain("abAB").chain
    plus, minus = bounds_immersed(c), bounds_immersed(invert_chain(c))
    assert plus.bounds_immersed or minus.bounds_immersed
    assert not (plus.bounds_immersed and minus.bounds_immersed)
    assert plus.scl == minus.scl == qq(1, 2)
    assert plus.rot == -minus.rot


def test_bavard_inequality_on_corpus():
    for expr, value in RANK2_CORPUS:
        rep = bounds_immersed(parse_chain(expr).chain)
        assert rep.scl == value
        assert 2 * rep.scl >= abs(rep.rot), expr


def test_stabilization_of_torus_chain():
    report = minimal_stabilization(parse_chain("ab - a - b").chain, 4)
    assert report.minimal_r == 2
    assert len(report.table) == 5
    scls = [entry.scl for entry in report.table]
    assert scls == [qq(1, 2), qq(2, 3), qq(1), qq(3, 2), qq(2)]
    flags = [entry.bounds_immersed for entry in report.table]
    assert flags == [False, False, True, True, True]
    assert chains_equal(report.boundary, parse_chain("abAB").chain)


def test_stabilization_immediate():
    report = minimal_stabilization(parse_chain("abAB").chain, 2)
    assert report.minimal_r == 0
    assert [e.scl for e in report.table] == [qq(1, 2), qq(1), qq(3, 2)]


def test_stabilization_zero_base():
    report = minimal_stabilization(parse_chain("a + A").chain, 1)
    assert report.minimal_r == 0


def test_stabilization_none_in_range():
    report = minimal_stabilization(parse_chain("ab - a - b").chain, 1)
    assert report.minimal_r is None
    assert len(report.table) == 2


def test_stabilization_rejects_negative_range():
    with pytest.raises(ValueError):
        minimal_stabilization(parse_chain("abAB").chain, -1)


def test_scan_families():
    report = scan_conjecture(word("abAB"), range(1, 5))
    assert report.first_equality == 1
    assert report.persistent
    scls = [entry.scl for _, entry in report.entries]
    # w (abAB)^n = (abAB)^(n+1) canonically, so scl = (n+1)/2 and rot too
    assert scls == [qq(1), qq(3, 2), qq(2), qq(5, 2)]
    assert all(entry.bounds_immersed for _, entry in report.entries)


def test_scan_records_single_point():
    # abABAbaB alone misses the equality (scl 1/2, rot 0) but one factor
    # of the boundary class already restores it
    report = scan_conjecture(word("abABAbaB"), [1])
    assert report.entries[0][1].scl == qq(1, 2)
    assert report.entries[0][1].rot == 1
    assert report.first_equality == 1
    assert report.persistent


def test_scan_no_equality():
    report = scan_conjecture(word("abABAbaB"), [0])
    assert report.first_equality is None
    assert not report.persistent


def test_scan_rejects_bad_words():
    with pytest.raises(ValueError):
        scan_conjecture(word("aA", 2), [1])
    with pytest.raises(NotBoundaryError):
        scan_conjecture(word("ab"), [1])
    with pytest.raises(RankMismatchError):
        scan_conjecture(word("abc"), [1])


def test_corollary_small_cases():
    lhs, rhs, equal = corollary_check(word("abAB"), 1)
    assert (lhs, rhs, equal) == (qq(3, 2), qq(3, 2), True)
    lhs, rhs, equal = corollary_check(word("abAB"), 2)
    assert (lhs, rhs, equal) == (qq(2), qq(2), True)


def test_corollary_matches_joined_word():
    # the insertion word computes scl of the formal sum of its two halves
    joined = word("abABcabABC")  # abAB * c abAB c^-1 in rank 3
    assert scl(single_chain(joined)) == corollary_check(word("abAB"), 1)[0]


def test_criterion_closed_under_addition():
    # chains satisfying the equality stay on the face when added
    true_chains = [parse_chain("abAB").chain,
                   parse_chain("2*abAB + ab - a - b").chain]
    total = add_chains(*true_chains)
    rep = bounds_immersed(total)
    assert rep.bounds_immersed
    assert rep.scl == qq(3, 2)
