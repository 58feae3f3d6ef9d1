"""Differential test: the exact revised simplex against the Fraction oracle.

sclkit.ratlp.solve_min keeps only the basis inverse and prices from the
rows of A, but with every column priced it must take the same pivots as
the Fraction-valued tableau (tests/fraction_simplex.py), so its LPResult
is equal (==) in status, value, vertex, duals and pivot count, and a
pivot cap raises ResourceLimitError under exactly the same caps.

Given a smaller set of columns to price first, it may take other pivots
and reach another optimal vertex, but the status and the optimum are the
oracle's, and verify accepts the vertex.  The integer verify gives the
Fraction verify's verdict on optima and on perturbed claims.
"""

from collections import Counter

import pytest

from sclkit import ratlp, sclenc
from sclkit.errors import ResourceLimitError
from sclkit.freegroup import canonicalize
from sclkit.rational import QQ
from sclkit.ratlp import LinearProgram, LPResult, solve_min

import fraction_simplex
from conftest import (SCL_CORPUS, chain, linear_program, random_trivial_chain,
                      seeded)

ENTRIES = (1, 1, 2, 3, -1, -1, -2, QQ(1, 2), QQ(-3, 2), QQ(2, 3), QQ(-5, 7))


def outcome(solver, lp, max_pivots):
    try:
        return solver(lp, max_pivots=max_pivots)
    except ResourceLimitError as err:
        return ("cap", str(err))


def random_lp(rng):
    """A small LP that may be infeasible, unbounded or optimal.

    Rows are sparse with rational entries; some rows repeat an earlier
    row, scaled, with the matching rhs (redundant) or another one (so
    possibly infeasible); rhs and costs take both signs.
    """
    n = rng.randint(1, 6)
    m = rng.randint(1, 5)
    rows, rhs = [], []
    for _ in range(m):
        if rows and rng.random() < 0.25:
            k = rng.choice((1, 1, 2, -1, QQ(1, 3)))
            j = rng.randrange(len(rows))
            rows.append([(c, k * v) for c, v in rows[j]])
            rhs.append(k * rhs[j] if rng.random() < 0.7
                       else rng.choice((0, 1, -2, QQ(5, 3))))
            continue
        row = [(c, rng.choice(ENTRIES)) for c in range(n)
               if rng.random() < 0.6]
        if not row:
            row = [(rng.randrange(n), rng.choice(ENTRIES))]
        rows.append(row)
        rhs.append(rng.choice((0, 0, 1, 2, 3, -1, -2, QQ(1, 2), QQ(-7, 3))))
    objective = [rng.choice((0, 1, 2, -1, QQ(1, 2), QQ(-1, 3)))
                 for _ in range(n)]
    return linear_program(n, rows, rhs, objective)


@pytest.mark.parametrize("stall_limit", [ratlp._STALL_LIMIT, 0])
def test_random_programs_match_oracle(monkeypatch, stall_limit):
    # a stall limit of 0 switches to Bland's rule after one degenerate
    # pivot, which small programs never reach under the default limit
    monkeypatch.setattr(ratlp, "_STALL_LIMIT", stall_limit)
    monkeypatch.setattr(fraction_simplex, "_STALL_LIMIT", stall_limit)
    rng = seeded(4242)
    kinds = Counter()
    for _ in range(2400):
        lp = random_lp(rng)
        cap = rng.choice((2, 4, 10 ** 6))
        got = outcome(solve_min, lp, cap)
        want = outcome(fraction_simplex.solve_min, lp, cap)
        assert got == want, lp
        kinds[want[0] if isinstance(want, tuple) else want.status] += 1
    # every kind of outcome is exercised many times
    assert min(kinds[k] for k in
               ("infeasible", "unbounded", "optimal", "cap")) >= 100, kinds


def encodings():
    chains = [chain(expr) for expr, _ in SCL_CORPUS]
    rng = seeded(8080)
    chains += [random_trivial_chain(rng, max_letters=6) for _ in range(120)]
    for c in chains:
        cc = canonicalize(c)
        if not cc.is_empty():
            yield sclenc.build_lp(cc).lp


def test_scl_encodings_match_oracle():
    seen = 0
    for lp in encodings():
        got = solve_min(lp)
        assert got == fraction_simplex.solve_min(lp)
        assert got.status == "optimal"
        # the cap trips at the same pivot: one fewer than the solve needs
        with pytest.raises(ResourceLimitError):
            solve_min(lp, max_pivots=got.pivots - 1)
        seen += 1
    assert seen >= 100


def test_longer_encodings_match_oracle():
    # eight distinct chains of 7-9 prepared letters, 57-228 pivots each:
    # long enough for the basis inverse to fill in
    rng = seeded(9595)
    seen = 0
    while seen < 8:
        enc = sclenc.build_lp(random_trivial_chain(rng, max_letters=9))
        if sum(len(t.word) for t in enc.chain.terms) < 7:
            continue
        got = solve_min(enc.lp)
        assert got == fraction_simplex.solve_min(enc.lp)
        with pytest.raises(ResourceLimitError):
            solve_min(enc.lp, max_pivots=got.pivots - 1)
        seen += 1


def test_duals_of_dropped_and_flipped_rows():
    # min 3x0 + x1 + x2  s.t.  x0 + x1 = 2,  2x0 + 2x1 = 4 (redundant),
    # -x1 - x2 = -1 (negative rhs): optimum 4 at (1, 1, 0)
    lp = linear_program(3, [[(0, 1), (1, 1)], [(0, 2), (1, 2)],
                            [(1, -1), (2, -1)]], [2, 4, -1], [3, 1, 1])
    got = solve_min(lp)
    assert got == fraction_simplex.solve_min(lp)
    assert got.value == 4 and got.primal == (1, 1, 0)
    # the redundant row is dropped after phase 1, so its dual is 0; the
    # flipped row's dual has the sign of the row as given, not as solved
    assert got.dual == (3, 0, 2)
    assert ratlp.verify(lp, got)


def restricted(lp, active):
    """The program over the active columns alone, renumbered in order."""
    new = {col: k for k, col in enumerate(active)}
    rows = tuple(tuple((new[c], v) for c, v in row if c in new)
                 for row in lp.rows)
    return LinearProgram(len(active), rows, lp.rhs,
                         tuple(lp.objective[c] for c in active))


@pytest.mark.parametrize("stall_limit", [ratlp._STALL_LIMIT, 0])
def test_restricted_pricing_matches_oracle(monkeypatch, stall_limit):
    # stall limit 0 runs the rounds under Bland's rule
    monkeypatch.setattr(ratlp, "_STALL_LIMIT", stall_limit)
    rng = seeded(5151)
    kinds = Counter()
    for _ in range(1500):
        lp = random_lp(rng)
        active = [j for j in range(lp.num_vars) if rng.random() < 0.4]
        want = fraction_simplex.solve_min(lp)
        got = solve_min(lp, active=active)
        assert (got.status, got.value) == (want.status, want.value), lp
        if got.status == "optimal":
            assert ratlp.verify(lp, got)
        # the pivot count covers every round: the cap trips one below it
        assert solve_min(lp, max_pivots=got.pivots, active=active) == got
        if got.pivots:
            with pytest.raises(ResourceLimitError):
                solve_min(lp, max_pivots=got.pivots - 1, active=active)
        if not active:
            kinds["empty"] += 1
        elif len(active) < lp.num_vars and want.status != "infeasible" and (
                solve_min(restricted(lp, active)).status == "infeasible"):
            kinds["phase 1 infeasible on the active columns"] += 1
        kinds[want.status] += 1
    assert min(kinds.values()) >= 100 and len(kinds) == 5, kinds


def test_restricted_pricing_of_scl_encodings():
    # the full-pricing solve is == to the oracle on these encodings
    # (test_scl_encodings_match_oracle)
    rng = seeded(7373)
    for lp in list(encodings())[:60]:
        want = solve_min(lp)
        for active in ([], [j for j in range(lp.num_vars)
                            if rng.random() < 0.3]):
            got = solve_min(lp, active=active)
            assert got.value == want.value
            assert ratlp.verify(lp, got)


def test_active_set_of_every_column_is_the_default():
    for lp in list(encodings())[:20]:
        assert solve_min(lp, active=range(lp.num_vars)) == solve_min(lp)
    with pytest.raises(ValueError):
        solve_min(lp, active=[lp.num_vars])


def test_solve_chain_optimum_and_certificate():
    # solve_chain prices a crash set first, so it may stop at another
    # optimal vertex than the oracle; the optimum and the decoded
    # certificate's -chi/(2*degree) must still be scl
    rng = seeded(6161)
    chains = [chain(expr) for expr, _ in SCL_CORPUS]
    chains += [random_trivial_chain(rng, max_letters=8) for _ in range(30)]
    longer = []  # 9-10 prepared letters
    while len(longer) < 6:
        c = random_trivial_chain(rng, max_letters=10)
        if sum(len(t.word) for t in c.terms) >= 9:
            longer.append(c)
    for c in chains + longer:
        # every solve here is fresh, not a result cache hit
        sclenc._scl_cache.clear()
        enc, got = sclenc.solve_chain(c)
        if enc is None:
            continue
        if c in longer:
            # the Fraction oracle takes seconds here; the full-pricing
            # solve is == to it (test_longer_encodings_match_oracle)
            want = solve_min(enc.lp)
        else:
            want = fraction_simplex.solve_min(enc.lp)
        assert got.value == want.value, c
        cert = sclenc.decode_certificate(enc, got)
        assert QQ(-cert.chi, 2 * cert.degree) == got.value / enc.scale / 2
        sclenc._scl_cache.clear()
        with pytest.raises(ResourceLimitError):
            sclenc.solve_chain(c, max_pivots=got.pivots - 1)


def perturbed_claims(rng, res):
    """The optimum itself, then claims with one entry moved by +-1/N."""
    yield res
    for _ in range(6):
        delta = rng.choice((1, -1)) * QQ(1, rng.choice((1, 2, 3, 7, 10 ** 9)))
        which = rng.randrange(3)
        x, y, value = list(res.primal), list(res.dual), res.value
        if which == 0:
            j = rng.randrange(len(x))
            x[j] += delta
        elif which == 1 and y:
            y[rng.randrange(len(y))] += delta
        else:
            value += delta
        yield LPResult("optimal", value, tuple(x), tuple(y), res.pivots)
    yield LPResult("optimal", None, res.primal, res.dual, res.pivots)
    yield LPResult("optimal", res.value, res.primal[:-1], res.dual, res.pivots)


def test_integer_verify_matches_fraction_verify():
    rng = seeded(6262)
    verdicts = Counter()
    for _ in range(1500):
        lp = random_lp(rng)
        res = solve_min(lp)
        if res.status != "optimal":
            assert not ratlp.verify(lp, res)
            continue
        for claim in perturbed_claims(rng, res):
            want = fraction_simplex.verify(lp, claim)
            assert ratlp.verify(lp, claim) == want, (lp, claim)
            verdicts[want] += 1
    assert min(verdicts[True], verdicts[False]) >= 300, verdicts
