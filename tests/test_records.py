"""The record types: immutable namedtuples, and the five that validate
their fields still refuse a bad one through the constructor."""

import re

import pytest

from sclkit.chainexpr import parse_chain
from sclkit.errors import RankMismatchError
from sclkit.freegroup import Chain, ChainTerm, Word, word
from sclkit.immersion import (bounds_immersed, minimal_stabilization,
                              scan_conjecture)
from sclkit.ratlp import LinearProgram
from sclkit.rational import ONE
from sclkit.rotation import punctured_torus_rep
from sclkit.sclenc import solve_chain
from sclkit.surfcert import ArcSystem, Matching, search_matching


def records():
    """One instance of each record type, keyed by its name."""
    expr = parse_chain("abAB")
    enc, res = solve_chain(expr.chain)
    cert, m = search_matching(expr.chain)
    return {
        "Word": word("abAB"),
        "ChainTerm": expr.chain.terms[0],
        "Chain": expr.chain,
        "ChainExpression": expr,
        "LinearProgram": enc.lp,
        "LPResult": res,
        "Encoding": enc,
        "PTRep": punctured_torus_rep(),
        "ArcSystem": m.system,
        "Matching": m,
        "SurfaceCertificate": cert,
        "CriterionReport": bounds_immersed(expr.chain),
        "StabilizationReport": minimal_stabilization(expr.chain, 0),
        "ScanReport": scan_conjecture(word("abAB"), range(1)),
    }


FIELDS = {
    "Word": ("letters", "rank"),
    "ChainTerm": ("coefficient", "word"),
    "Chain": ("terms", "rank"),
    "ChainExpression": ("source", "chain"),
    "LinearProgram": ("num_vars", "rows", "rhs", "objective"),
    "LPResult": ("status", "value", "primal", "dual", "pivots"),
    "Encoding": ("chain", "scale", "rectangles", "pieces", "dummy_types",
                 "lp", "row_meta"),
    "PTRep": ("rank", "matrices"),
    "ArcSystem": ("cycles", "rank"),
    "Matching": ("system", "pairs"),
    "SurfaceCertificate": ("chi", "degree", "boundary"),
    "CriterionReport": ("chain", "scl", "rot", "bounds_immersed"),
    "StabilizationReport": ("base", "boundary", "table", "minimal_r"),
    "ScanReport": ("w", "entries", "first_equality", "persistent"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_is_immutable(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert record._fields == FIELDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # __slots__ = (): no attribute can be added either
    with pytest.raises(AttributeError):
        record.extra = None


def _system():
    return ArcSystem((word("abAB"),), 2)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: Word((1, 3), 2), ValueError,
                 "letter 3 out of range for rank 2", id="Word-letter"),
    pytest.param(lambda: Word((1, -1), 1), ValueError,
                 "word is not freely reduced: (1, -1)", id="Word-reduced"),
    pytest.param(lambda: Word((), -1), ValueError,
                 "rank must be nonnegative", id="Word-rank"),
    pytest.param(lambda: Chain((ChainTerm(ONE, word("ab")),), 3),
                 RankMismatchError,
                 "term Word('ab', rank=2) has rank 2, chain has rank 3",
                 id="Chain-rank"),
    pytest.param(lambda: LinearProgram(1, ((0, ONE),), (), (ONE,)),
                 ValueError, "rhs length does not match row count",
                 id="LinearProgram-rhs"),
    pytest.param(lambda: LinearProgram(1, (((1, ONE),),), (ONE,), (ONE,)),
                 ValueError, "column 1 out of range",
                 id="LinearProgram-column"),
    pytest.param(lambda: ArcSystem((word("ab"),), 3), ValueError,
                 "cycle rank mismatch", id="ArcSystem-rank"),
    pytest.param(lambda: ArcSystem((Word((), 2),), 2), ValueError,
                 "cycles must be nonempty words", id="ArcSystem-empty"),
    pytest.param(lambda: Matching(_system(), (((0, 0), (0, 1)),
                                              ((0, 2), (0, 3)))),
                 ValueError, "pair (0, 0), (0, 1) does not join inverse "
                 "letters", id="Matching-letters"),
    pytest.param(lambda: Matching(_system(), (((0, 0), (0, 2)),)),
                 ValueError, "matching must cover every arc",
                 id="Matching-cover"),
])
def test_validating_record_rejects_bad_field(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()
