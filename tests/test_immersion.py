"""The equality scl = rot/2: pointwise test, stabilization, and scans."""

import pytest

from sclkit import immersion
from sclkit.chainexpr import parse_chain, parse_word
from sclkit.errors import (InvariantViolationError, NotBoundaryError,
                           RankMismatchError, ResourceLimitError)
from sclkit.freegroup import (add_chains, canonicalize, prepare,
                              scale_chain, single_chain, word)
from sclkit.immersion import (BOUNDARY_CLASS, CriterionReport,
                              bounds_immersed, corollary_check,
                              minimal_stabilization, scan_conjecture)
from sclkit.rational import QQ
from sclkit.sclenc import scl
from sclkit.rotation import rot

from conftest import COMMUTATOR_WORDS, RANK2_CORPUS, chain, seeded


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


def test_criterion_boundary_check_precedes_letter_cap():
    # 30 prepared letters, over the default cap, and not a boundary
    with pytest.raises(NotBoundaryError):
        bounds_immersed(chain("ab + [aabab,bbaba] + [abb,aab]"))


def test_criterion_rank1_embeds():
    rep = bounds_immersed(parse_chain("a + A").chain)
    assert rep.chain.rank == 2


def test_criterion_is_signed():
    # the reversed orientation has rot = -1 and cannot satisfy equality
    c = parse_chain("abAB").chain
    plus, minus = bounds_immersed(c), bounds_immersed(scale_chain(c, -1))
    assert plus.bounds_immersed or minus.bounds_immersed
    assert not (plus.bounds_immersed and minus.bounds_immersed)
    assert plus.scl == minus.scl == QQ(1, 2)
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
    assert scls == [QQ(1, 2), QQ(2, 3), QQ(1), QQ(3, 2), QQ(2)]
    flags = [entry.bounds_immersed for entry in report.table]
    assert flags == [False, False, True, True, True]
    assert canonicalize(report.boundary) == parse_chain("abAB").chain


def test_stabilization_immediate():
    report = minimal_stabilization(parse_chain("abAB").chain, 2)
    assert report.minimal_r == 0
    assert [e.scl for e in report.table] == [QQ(1, 2), QQ(1), QQ(3, 2)]


def test_stabilization_zero_base():
    report = minimal_stabilization(parse_chain("a + A").chain, 1)
    assert report.minimal_r == 0


def test_stabilization_none_in_range():
    report = minimal_stabilization(parse_chain("ab - a - b").chain, 1)
    assert report.minimal_r is None
    assert len(report.table) == 2


def test_stabilization_persistence_guard(monkeypatch):
    # equality persists once it holds, so a true row followed by a false
    # row is an internal fault; fake one to reach the guard
    verdicts = iter([True, False])
    monkeypatch.setattr(
        immersion, "bounds_immersed",
        lambda chain, **limits: CriterionReport(chain, QQ(1, 2), QQ(1),
                                                next(verdicts)))
    with pytest.raises(InvariantViolationError,
                       match="equality at R = 0 did not persist at R = 1"):
        minimal_stabilization(parse_chain("abAB").chain, 3)


def test_stabilization_rejects_negative_range():
    with pytest.raises(ValueError):
        minimal_stabilization(parse_chain("abAB").chain, -1)


def test_scan_families():
    report = scan_conjecture(word("abAB"), range(1, 5))
    assert report.first_equality == 1
    assert report.persistent
    scls = [entry.scl for _, entry in report.entries]
    # w (abAB)^n = (abAB)^(n+1) canonically, so scl = (n+1)/2 and rot too
    assert scls == [QQ(1), QQ(3, 2), QQ(2), QQ(5, 2)]
    assert all(entry.bounds_immersed for _, entry in report.entries)


def test_scan_records_single_point():
    # abABAbaB alone misses the equality (scl 1/2, rot 0) but one factor
    # of the boundary class already restores it
    report = scan_conjecture(word("abABAbaB"), [1])
    assert report.entries[0][1].scl == QQ(1, 2)
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
    assert (lhs, rhs, equal) == (QQ(3, 2), QQ(3, 2), True)
    lhs, rhs, equal = corollary_check(word("abAB"), 2)
    assert (lhs, rhs, equal) == (QQ(2), QQ(2), True)


def test_corollary_matches_joined_word():
    # the insertion word computes scl of the formal sum of its two halves
    joined = word("abABcabABC")  # abAB * c abAB c^-1 in rank 3
    assert scl(single_chain(joined)) == corollary_check(word("abAB"), 1)[0]


def test_corollary_letter_cap_precedes_the_word(monkeypatch):
    # the cap is checked on 4|n| + |w| + 2 before (abAB)^n is built
    def no_power(w, n):
        raise AssertionError("word_power called")
    monkeypatch.setattr(immersion, "word_power", no_power)
    for w, n, limits, message in [
            ("abAB", 100000, {}, "chain has 400006 letters, cap is 24"),
            ("abAB", -100000, {}, "chain has 400006 letters, cap is 24"),
            ("babABB", 4, {"max_letters": 23, "max_pivots": 10},
             "chain has 24 letters, cap is 23")]:
        with pytest.raises(ResourceLimitError, match="^%s$" % message):
            corollary_check(word(w), n, **limits)
    # a word outside the commutator subgroup is still exit 3, not 4
    with pytest.raises(NotBoundaryError):
        corollary_check(word("ab"), 100000)


def test_corollary_letter_count_is_exact(monkeypatch):
    # for n != 0 the count is the prepared length of the word solved, so
    # the early check refuses exactly what build_lp would
    solved = []
    monkeypatch.setattr(immersion.sclenc, "scl",
                        lambda chain, **limits: solved.append(chain) or QQ(0))
    for text in COMMUTATOR_WORDS:
        w = word(text)
        for n in (-3, -1, 1, 2):
            count = 4 * abs(n) + len(w) + 2
            corollary_check(w, n, max_letters=count)
            prepared, _ = prepare(canonicalize(solved.pop()))
            assert sum(len(t.word) for t in prepared.terms) == count, (text, n)
            with pytest.raises(ResourceLimitError):
                corollary_check(w, n, max_letters=count - 1)


def test_criterion_closed_under_addition():
    # chains satisfying the equality stay on the face when added
    true_chains = [parse_chain("abAB").chain,
                   parse_chain("2*abAB + ab - a - b").chain]
    total = add_chains(*true_chains)
    rep = bounds_immersed(total)
    assert rep.bounds_immersed
    assert rep.scl == QQ(3, 2)
