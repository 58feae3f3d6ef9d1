"""The rectangle-and-polygon LP encoding and exact scl values."""

import importlib.util
import json
import math
import pathlib
from collections import OrderedDict

import pytest

from sclkit import sclenc, surfcert
from sclkit.chainexpr import parse_chain
from sclkit.errors import (InvariantViolationError, NotBoundaryError,
                           ResourceLimitError)
from sclkit.freegroup import (canonicalize, chain_of, invert, scale_chain,
                              single_chain, word)
from sclkit.rational import QQ
from sclkit.ratlp import LPResult, solve_min, verify
from sclkit.sclenc import (build_lp, decode_certificate, enumerate_pieces,
                           enumerate_rectangles, prepare, scl, solve_chain)

import encoding_oracle
from conftest import (SCL_CORPUS, chain, random_multi_term_chain,
                      random_trivial_chain, seeded)


def raw(expr):
    """Prepared (integerized, cyclic) chain, bypassing canonical collapse."""
    prepared, scale = prepare(parse_chain(expr).chain)
    return prepared


def test_prepare_scales_integral():
    prepared, scale = prepare(parse_chain("1/2*abAB - 1/3*baBA").chain)
    # baBA is the inverse class of abAB, so the terms merge to 5/6*abAB
    assert scale == 6
    assert [(t.coefficient, str(t.word)) for t in prepared.terms] == \
        [(5, "abAB")]


def test_prepare_orients_negative_terms():
    prepared, scale = prepare(parse_chain("2*abAB + ab - a - b").chain)
    assert scale == 1
    coeffs = {str(t.word): t.coefficient for t in prepared.terms}
    assert coeffs == {"abAB": 2, "ab": 1, "A": 1, "B": 1}
    assert all(c > 0 for c in coeffs.values())


def test_prepare_requires_boundary():
    with pytest.raises(NotBoundaryError):
        prepare(single_chain(word("ab")))


def test_rectangles_abAB():
    rects = enumerate_rectangles(raw("abAB"))
    assert len(rects) == 2
    assert {(r[0], r[1]) for r in rects} == {
        ((0, 0), (0, 2)),
        ((0, 1), (0, 3)),
    }


def test_rectangles_small_chains():
    aA = chain_of([(1, word("a")), (1, word("A"))], 1)
    prepared, _ = prepare(aA)
    assert len(enumerate_rectangles(prepared)) == 1
    assert len(enumerate_rectangles(raw("ab + A + B"))) == 2


def test_pieces_abAB_contains_split_square():
    pieces = enumerate_pieces(raw("abAB"))
    # the optimal surface uses two triangles closing a shared diagonal
    # real sides are (0, rect, which), dummy sides (1, start, end)
    want1 = frozenset({(0, 0, 1), (0, 1, 1), (1, (0, 2), (0, 0))})
    want2 = frozenset({(0, 0, 2), (0, 1, 2), (1, (0, 0), (0, 2))})
    side_sets = {frozenset(p) for p in pieces}
    assert want1 in side_sets
    assert want2 in side_sets
    assert all(any(s[0] == 0 for s in p) for p in pieces)
    assert all(len(p) in (2, 3) for p in pieces)


def test_pieces_annulus_bigon():
    aA = chain_of([(1, word("a")), (1, word("A"))], 1)
    prepared, _ = prepare(aA)
    pieces = enumerate_pieces(prepared)
    assert len(pieces) == 7
    bigons = [p for p in pieces if len(p) == 2]
    assert len(bigons) == 1
    assert {s[2] for s in bigons[0]} == {1, 2}


def test_pieces_empty_chain():
    empty, _ = prepare(parse_chain("a - a").chain)
    assert enumerate_pieces(empty) == ()


def test_build_lp_objective_and_rows():
    enc = build_lp(parse_chain("abAB").chain)
    nrect = len(enc.rectangles)
    assert enc.lp.num_vars == nrect + len(enc.pieces)
    # rectangle columns cost 1; a piece costs dummies/2 - 1
    assert enc.lp.objective[:nrect] == (QQ(1),) * nrect
    for k, p in enumerate(enc.pieces):
        dummies = sum(1 for s in p if s[0] == 1)
        assert enc.lp.objective[nrect + k] == QQ(dummies, 2) - 1
    kinds = [meta[0] for meta in enc.row_meta]
    assert kinds.count("cover") == 4
    assert kinds.count("side") == 2 * nrect


def test_build_lp_matches_oracle():
    # the whole Encoding, rows and pieces in order, equals the quadratic
    # dict-per-row assembly it replaced
    rng = seeded(4242)
    cases = [chain(expr) for expr, _ in SCL_CORPUS]
    cases += [random_trivial_chain(rng, rank=rng.choice((2, 3)),
                                   max_letters=12) for _ in range(120)]
    cases += [chain("aabbAABB + abABAbaB"),  # 16 letters
              chain("[aba,bbab] + abAB"),  # 18 letters
              chain("aabbAABBabAB + ab - a - b + abAB")]  # 20 letters
    cases += [random_multi_term_chain(rng, 3, 13, 16) for _ in range(8)]
    for c in cases:
        c = canonicalize(c)
        if c.is_empty():
            continue
        assert build_lp(c) == encoding_oracle.build_lp(c), c


def test_dummy_types_come_from_side_corners():
    # in a boundary the dummy sides that occur in pieces are exactly the
    # n * n ordered corner pairs, each with its reverse, and the dummy
    # rows are one per reverse pair, in tuple order
    rng = seeded(2718)
    cases = [chain(expr) for expr, _ in SCL_CORPUS]
    cases += [random_multi_term_chain(rng, rank, 4, 16)
              for rank in (2, 3) for _ in range(15)]
    for c in cases:
        c = canonicalize(c)
        if c.is_empty():
            continue
        enc = build_lp(c)
        corners = [(i, j) for i, t in enumerate(enc.chain.terms)
                   for j in range(len(t.word))]
        used = {s for p in enc.pieces for s in p if s[0]}
        types = sorted(used)
        assert types == [(1, c1, c2) for c1 in corners for c2 in corners], c
        assert all((1, d[2], d[1]) in used for d in used), c
        assert [m[1] for m in enc.row_meta if m[0] == "dummy"] == [
            d for d in types if d[1] < d[2]], c


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_build_lp_matches_pinned_digests():
    # every encode pin of the benchmark (made at 00087b9) keeps its LP,
    # checked against a digest rather than against the oracle
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    pins = json.loads((PERFBENCH / "pins.json").read_text())["encode"]
    assert len(pins) == 168
    for pin in pins:
        c = worker.chain_of_terms(pin["terms"], pin["rank"], canonical=True)
        lp = build_lp(c).lp
        assert worker.lp_counts(lp) == {
            "rows": pin["rows"], "cols": pin["cols"], "nnz": pin["nnz"]}
        assert worker.lp_digest(lp) == pin["digest"], pin["id"]


def test_lp_optimum_examples():
    enc, res = solve_chain(parse_chain("abAB").chain)
    assert res.value == 1
    enc, res = solve_chain(parse_chain("a + b + BA").chain)
    assert res.value == 1
    assert solve_chain(parse_chain("a + A").chain) == (None, None)


def test_scl_corpus():
    for expr, value in SCL_CORPUS:
        assert scl(parse_chain(expr).chain) == value, expr


def test_scl_rank_separability():
    assert scl(parse_chain("[a,b] + [c,d]").chain) == 1


def test_scl_stabilized_chain():
    assert scl(parse_chain("abAB + ab - a - b").chain) == QQ(2, 3)


def test_scl_respects_scale():
    c = parse_chain("1/2*[a,b]").chain
    assert scl(c) == QQ(1, 4)


def test_scl_invariances():
    base = parse_chain("2*abAB + ab - a - b").chain
    assert scl(base) == 1
    # conjugation-invariant, inversion-invariant
    conj = parse_chain("2*b[a,b]B + ab - a - b").chain
    assert scl(conj) == 1
    assert scl(scale_chain(base, -1)) == 1


def test_scl_not_boundary():
    with pytest.raises(NotBoundaryError):
        scl(parse_chain("ab").chain)


def test_boundary_check_precedes_letter_cap(empty_cache):
    # not a boundary, with 30 prepared letters, over the default cap: a cap
    # checked first would report the wrong fault; the boundary part has 28
    c = chain("ab + [aabab,bbaba] + [abb,aab]")
    for solve in (scl, solve_chain):
        with pytest.raises(NotBoundaryError):
            solve(c)
    with pytest.raises(ResourceLimitError, match="28 letters, cap is 24"):
        scl(chain("[aabab,bbaba] + [abb,aab]"))


def test_scl_letter_cap(empty_cache):
    with pytest.raises(ResourceLimitError):
        scl(parse_chain("[a,d] + [b,c]").chain, max_letters=4)


def test_scl_pivot_cap(empty_cache):
    with pytest.raises(ResourceLimitError):
        scl(parse_chain("[a,c]").chain, max_pivots=2)


def test_scl_cache_hits():
    c = parse_chain("abABAbaB").chain
    first = scl(c)
    second = scl(c)
    assert first == second == QQ(1, 2)


def test_scl_cache_keeps_caps(empty_cache):
    # a hit must raise exactly when a fresh solve under the caps would
    c = parse_chain("aabbAABB").chain
    pivots = solve_chain(c)[1].pivots
    for hit in (False, True):
        if hit:
            assert scl(c) == QQ(1, 2)
        else:
            empty_cache.clear()
        for caps in ({"max_pivots": 3}, {"max_letters": 4},
                     {"max_pivots": pivots - 1}):
            with pytest.raises(ResourceLimitError):
                scl(c, **caps)
        assert len(empty_cache) == hit
    assert scl(c, max_letters=8, max_pivots=pivots) == QQ(1, 2)


def ray(expr):
    """The cache key of a chain: its prepared chain over the gcd of its
    coefficients."""
    prepared, _ = prepare(canonicalize(chain(expr)))
    g = math.gcd(*(t.coefficient.numerator for t in prepared.terms))
    return scale_chain(prepared, QQ(1, g))


def test_scl_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(sclenc, "_scl_cache", OrderedDict())
    monkeypatch.setattr(sclenc, "_SCL_CACHE_SIZE", 2)
    for e in ("[a,b]", "a + b + BA", "2*[a,c]"):
        scl(chain(e))
    assert list(sclenc._scl_cache) == [ray("a + b + BA"), ray("[a,c]")]
    scl(chain("3*a + 3*b + 3*BA"))  # a hit makes its ray the most recent
    scl(chain("1/2*[b,c]"))
    assert list(sclenc._scl_cache) == [ray("a + b + BA"), ray("[b,c]")]
    assert ray("1/2*[b,c]") == ray("[b,c]") == canonicalize(chain("[b,c]"))


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty result cache for one test; the shared one is restored."""
    monkeypatch.setattr(sclenc, "_scl_cache", OrderedDict())
    return sclenc._scl_cache


def no_solve(monkeypatch):
    """From here on, a call to the solver or to verify fails the test."""
    def fail(*args, **kwargs):
        raise AssertionError("a cache hit solved or verified")
    monkeypatch.setattr(sclenc, "solve_min", fail)
    monkeypatch.setattr(sclenc, "verify", fail)


def _negated(lp, **kwargs):
    result = solve_min(lp, **kwargs)
    return result._replace(value=-result.value)


@pytest.mark.parametrize("solver, verifier, message", [
    (lambda lp, **kwargs: LPResult("infeasible", None, None, None, 0),
     verify, "scl encoding must be feasible and bounded, got infeasible"),
    (solve_min, lambda lp, result: False, "LP duality certificate failed"),
    (_negated, lambda lp, result: True,
     "scl encoding produced a negative optimum")])
def test_solve_chain_guards(empty_cache, monkeypatch, solver, verifier,
                            message):
    # no scl is reported, or cached, unless the solve is optimal, verify
    # accepts it and the optimum is nonnegative
    monkeypatch.setattr(sclenc, "solve_min", solver)
    monkeypatch.setattr(sclenc, "verify", verifier)
    with pytest.raises(InvariantViolationError, match=message):
        scl(chain("abAB"))
    assert empty_cache == {}


def test_decode_certificate_cross_checks(monkeypatch):
    # the decoded surface is recounted two ways and traced back to the
    # chain; each disagreement is a fault
    enc, res = solve_chain(chain("abAB"))
    with pytest.raises(InvariantViolationError,
                       match="chi does not match the LP optimum"):
        decode_certificate(enc, res._replace(value=2 * res.value))
    count = surfcert.euler_characteristic
    monkeypatch.setattr(surfcert, "euler_characteristic",
                        lambda m: count(m) + 1)
    with pytest.raises(InvariantViolationError,
                       match="band surface chi 0 disagrees with formula "
                             "chi -1"):
        decode_certificate(enc, res)
    monkeypatch.setattr(surfcert, "euler_characteristic", count)
    monkeypatch.setattr(surfcert, "boundary_chain",
                        lambda system: scale_chain(chain("abAB"), 2))
    with pytest.raises(InvariantViolationError,
                       match="decoded boundary does not match 1 times the "
                             "encoded chain"):
        decode_certificate(enc, res)


def test_ray_cache_hit_equals_fresh_solve(empty_cache):
    rng = seeded(4242)
    cases = [chain(expr) for expr, value in SCL_CORPUS if value]
    cases += [random_trivial_chain(rng, rank=rng.choice((2, 3)),
                                   max_letters=8) for _ in range(24)]
    for c in cases:
        for k in (QQ(2), QQ(3, 2), QQ(1, 3)):
            empty_cache.clear()
            _, fresh = solve_chain(scale_chain(c, k))
            empty_cache.clear()
            solve_chain(c)
            enc, hit = solve_chain(scale_chain(c, k))
            assert len(empty_cache) == 1
            assert hit == fresh, (c, k)
            assert verify(enc.lp, hit)
            cert = decode_certificate(enc, hit)
            assert QQ(-cert.chi, 2 * cert.degree) / enc.scale == \
                k * scl(c), (c, k)


def test_ray_cache_spellings_are_hits(empty_cache, monkeypatch):
    enc, result = solve_chain(chain("2*[a,b] + ab - a - b"))
    stored = dict(empty_cache)
    no_solve(monkeypatch)
    for spelling in ("2*bABa + ab - a - b",  # a rotation
                     "2*b[a,b]B + ab - a - b",  # a conjugate
                     "-2*baBA + ab - a - b",  # c*w as -c*w^-1
                     "abABabAB + ab - a - b",  # c/2*w^2 with c = 2
                     "4*[a,b] + 2*ab - 2*a - 2*b"):  # a multiple
        hit_enc, hit = solve_chain(chain(spelling))
        assert dict(empty_cache) == stored, spelling
        assert hit_enc.chain == scale_chain(enc.chain, hit.value
                                            / result.value)
        assert verify(hit_enc.lp, hit)


def test_scl_reads_the_ray_cache(empty_cache, monkeypatch):
    c = chain("2*[a,b] + ab - a - b")
    assert scl(c) == 1
    no_solve(monkeypatch)
    assert scl(scale_chain(c, 2)) == 2
    assert scl(scale_chain(c, QQ(1, 3))) == QQ(1, 3)
    assert len(empty_cache) == 1


def test_solve_chain_hit_keeps_caps(empty_cache):
    c = chain("aabbAABB")
    pivots = solve_chain(c)[1].pivots
    for k in (1, 2):
        ck = scale_chain(c, k)
        with pytest.raises(ResourceLimitError, match="pivot cap"):
            solve_chain(ck, max_pivots=pivots - 1)
        with pytest.raises(ResourceLimitError, match="8 letters, cap is 7"):
            solve_chain(ck, max_letters=7)
        assert solve_chain(ck, max_letters=8,
                           max_pivots=pivots)[1].pivots == pivots
    assert len(empty_cache) == 1


def test_decode_certificate_abAB():
    c = parse_chain("abAB").chain
    enc, res = solve_chain(c)
    cert = decode_certificate(enc, res)
    assert cert.chi == -1
    assert cert.degree == 1
    assert cert.boundary == canonicalize(c)


def test_decode_certificate_corpus_soundness():
    rng = seeded(1618)
    cases = [(parse_chain(expr).chain, value) for expr, value in SCL_CORPUS]
    cases += [(random_trivial_chain(rng, rank=rng.choice((2, 3)),
                                    max_letters=8), None)
              for _ in range(48)]
    for c, value in cases:
        enc, res = solve_chain(c)
        if enc is None:
            assert value == 0
            continue
        if value is None:
            value = res.value / (2 * enc.scale)
        cert = decode_certificate(enc, res)
        assert QQ(-cert.chi, 2 * cert.degree) / enc.scale == value, c
        prepared, _ = prepare(canonicalize(c))
        want = canonicalize(scale_chain(prepared, cert.degree))
        assert cert.boundary == want, c


def test_decode_certificate_rejects_tampered_result():
    enc, res = solve_chain(parse_chain("2*abAB + ab - a - b").chain)
    with pytest.raises(InvariantViolationError):
        decode_certificate(enc, res._replace(value=res.value + 1))
    with pytest.raises(InvariantViolationError):
        decode_certificate(enc, res._replace(value=res.value / 2))
    # one copy of a triangle whose only dummy side is a loop: no optimal
    # vertex uses a loop (see _glue), so decoding stops at it
    nrect = len(enc.rectangles)
    col = next(col for col, p in enumerate(enc.pieces, nrect)
               if [d[1] == d[2] for d in p if d[0]] == [True])
    primal = list(res.primal)
    primal[col] = QQ(1)
    with pytest.raises(InvariantViolationError, match="loop dummy"):
        decode_certificate(enc, res._replace(primal=tuple(primal)))
    # one more copy of a piece whose only dummy side is the greater of
    # its reverse pair, whose reverse no used piece has: that side is
    # left without a partner
    enc, res = solve_chain(parse_chain("abAB").chain)
    nrect = len(enc.rectangles)
    used = {s for w, p in zip(res.primal[nrect:], enc.pieces) if w
            for s in p}
    col = next(col for col, p in enumerate(enc.pieces, nrect)
               if sum(1 for s in p if s[0] == 1) == 1 and all(
                   (1, d[2], d[1]) < d and (1, d[2], d[1]) not in used
                   for d in p if d[0] == 1))
    primal = list(res.primal)
    primal[col] += 1
    with pytest.raises(InvariantViolationError, match="unbalanced"):
        decode_certificate(enc, res._replace(primal=tuple(primal)))


def test_decode_certificate_rejects_extra_rectangle():
    # one more copy of rectangle 0 leaves its sides short of instances;
    # the dummy checks pass, so decoding stops at the side count
    for expr in ("abAB", "2*abAB + ab - a - b"):
        enc, res = solve_chain(parse_chain(expr).chain)
        primal = list(res.primal)
        primal[0] += 1
        with pytest.raises(InvariantViolationError,
                           match="side usage does not match rectangle count"):
            decode_certificate(enc, res._replace(primal=tuple(primal)))


def test_homogeneity_random():
    rng = seeded(314)
    for _ in range(50):
        c = random_trivial_chain(rng, max_letters=12)
        base = scl(c)
        for k in (2, 3):
            assert scl(scale_chain(c, k)) == k * base


def test_subadditivity_random():
    rng = seeded(2718)
    from sclkit.freegroup import add_chains
    for _ in range(50):
        c1 = random_trivial_chain(rng, max_letters=6)
        c2 = random_trivial_chain(rng, max_letters=6)
        assert scl(add_chains(c1, c2)) <= scl(c1) + scl(c2)


def test_determinism():
    c = parse_chain("2*abAB + ab - a - b").chain
    enc1, res1 = solve_chain(c)
    sclenc._scl_cache.clear()  # two fresh solves, not a solve and its hit
    enc2, res2 = solve_chain(c)
    assert res1 == res2
    assert enc1.lp == enc2.lp
