"""Immersion criterion on the once-punctured torus: scl(C) = rot(C)/2.

A homologically trivial rank-2 chain rationally bounds a positive immersed
subsurface of the once-punctured torus exactly when its stable commutator
length equals half its rotation number.  Both sides are exact rationals,
so the test is exact equality, never a tolerance.  Besides the pointwise
test this module provides the stabilization search (add R copies of the
boundary class abAB until equality holds), a scanner for the one-parameter
family w (abAB)^n, and the rank-3 insertion check comparing
scl((abAB)^n c w c^-1) with (|n + rot(w)| + 1)/2.
"""

from collections import namedtuple

from . import rotation, sclenc
from .errors import InvariantViolationError, NotBoundaryError, RankMismatchError
from .freegroup import (Chain, ChainTerm, add_chains, canonicalize, concat,
                        invert, make_word, scale_chain, single_chain,
                        with_rank, word, word_exponents, word_power)
from .rational import qq

# boundary class of the once-punctured torus; all stabilization is by
# integer multiples of this chain
BOUNDARY_CLASS = word("abAB")


class CriterionReport(namedtuple("CriterionReport",
                                 "chain scl rot bounds_immersed")):
    """Exact scl and rot of one chain plus the equality verdict."""

    __slots__ = ()


class StabilizationReport(namedtuple("StabilizationReport",
                                     "base boundary table minimal_r")):
    """Criterion table for C + R * abAB over R = 0..rmax: table[R] is the
    CriterionReport at that R, and minimal_r the least R with equality,
    or None if none is in range."""

    __slots__ = ()


class ScanReport(namedtuple("ScanReport",
                            "w entries first_equality persistent")):
    """Criterion table for the family w (abAB)^n over a range of n:
    entries holds pairs (n, CriterionReport), first_equality is the least
    scanned n with equality, or None, and persistent says whether
    equality held at every scanned n past the first."""

    __slots__ = ()


def _as_rank2(chain):
    if chain.rank > 2:
        raise RankMismatchError(
            "the immersion criterion lives on the once-punctured torus: "
            "rank must be at most 2, got %d" % chain.rank)
    if chain.rank == 2:
        return chain
    terms = tuple(ChainTerm(t.coefficient, with_rank(t.word, 2))
                  for t in chain.terms)
    return Chain(terms, 2)


def _commutator_word(w):
    if w.rank > 2:
        raise RankMismatchError("w must be a rank-2 word, got rank %d" % w.rank)
    w = with_rank(w, 2)
    if len(w) == 0:
        raise ValueError("w must be a nontrivial element")
    if any(e != 0 for e in word_exponents(w)):
        raise NotBoundaryError("w must lie in the commutator subgroup")
    return w


def bounds_immersed(chain, **limits):
    """Exact test of scl(C) = rot(C)/2 for a homologically trivial chain.

    Signed equality: inverting every word negates rot and preserves scl,
    so a chain with rot < 0 fails here and its orientation reversal is
    the one to test.  The limits, max_letters and max_pivots, go to
    sclenc.scl, as in every function below.
    """
    canon = canonicalize(_as_rank2(chain))
    s = sclenc.scl(canon, **limits)
    r = qq(rotation.rot(canon))
    if 2 * s < abs(r):
        raise InvariantViolationError(
            "scl = %s below the rotation bound %s/2" % (s, r))
    return CriterionReport(canon, s, r, 2 * s == r)


def minimal_stabilization(chain, rmax, **limits):
    """Criterion table for C + R * abAB, R = 0..rmax, and the least good R.

    Once the equality holds at some R it must hold at every larger R
    (adding abAB adds 1/2 to scl and 1/2 to rot/2 of an equality chain),
    so a true row followed by a false row is a hard failure.
    """
    if rmax < 0:
        raise ValueError("rmax must be nonnegative, got %d" % rmax)
    base = canonicalize(_as_rank2(chain))
    boundary = single_chain(BOUNDARY_CLASS)
    table = []
    minimal = None
    for r in range(rmax + 1):
        stabilized = add_chains(base, scale_chain(boundary, r))
        report = bounds_immersed(stabilized, **limits)
        table.append(report)
        if report.bounds_immersed:
            if minimal is None:
                minimal = r
        elif minimal is not None:
            raise InvariantViolationError(
                "equality at R = %d did not persist at R = %d" % (minimal, r))
    return StabilizationReport(base, boundary, tuple(table), minimal)


def scan_conjecture(w, n_values, **limits):
    """Criterion table for the single-word family w (abAB)^n.

    w must be a nontrivial rank-2 word in the commutator subgroup.  The
    scan records where the equality starts and whether it persists; no
    outcome is asserted (unlike stabilization, persistence here is only
    conjectured).
    """
    w = _commutator_word(w)
    entries = []
    first = None
    persistent = True
    for n in n_values:
        wn = concat(w, word_power(BOUNDARY_CLASS, n))
        report = bounds_immersed(single_chain(wn), **limits)
        entries.append((n, report))
        if report.bounds_immersed:
            if first is None:
                first = n
        elif first is not None:
            persistent = False
    return ScanReport(w, tuple(entries), first,
                      persistent if first is not None else False)


def corollary_check(w, n, **limits):
    """Compare scl((abAB)^n c w c^-1) in rank 3 with (|n + rot(w)| + 1)/2.

    Returns (lhs, rhs, equal).  The identity is proved only for |n| large
    relative to w, so equality is informational, not an invariant.

    For n != 0 the inserted word holds exactly one c, so it is reduced,
    cyclically reduced and primitive, and its prepared length is
    4|n| + |w| + 2.  The letter cap is checked on that count before the
    word is built.
    """
    w = _commutator_word(w)
    if n != 0:
        sclenc.check_letters(4 * abs(n) + len(w) + 2, **limits)
    c = make_word((3,), 3)
    inserted = concat(with_rank(word_power(BOUNDARY_CLASS, n), 3),
                      c, with_rank(w, 3), invert(c))
    lhs = sclenc.scl(single_chain(inserted), **limits)
    r = rotation.rot(single_chain(w))
    rhs = qq(abs(n + r) + 1, 2)
    return lhs, rhs, lhs == rhs
