"""Differential test: the exact revised simplex against the Fraction oracle.

sclkit.ratlp.solve_min keeps only the basis inverse and prices from the
rows of A, but must take the same pivots as the Fraction-valued tableau
(tests/fraction_simplex.py), so its LPResult is equal (==) in status,
value, vertex, duals and pivot count, and a pivot cap raises
ResourceLimitError under exactly the same caps.
"""

from collections import Counter

import pytest

from sclkit import ratlp, sclenc
from sclkit.errors import ResourceLimitError
from sclkit.freegroup import canonicalize
from sclkit.rational import qq
from sclkit.ratlp import linear_program, solve_min

import fraction_simplex
from conftest import SCL_CORPUS, chain, random_trivial_chain, seeded

ENTRIES = (1, 1, 2, 3, -1, -1, -2, qq(1, 2), qq(-3, 2), qq(2, 3), qq(-5, 7))


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
            k = rng.choice((1, 1, 2, -1, qq(1, 3)))
            j = rng.randrange(len(rows))
            rows.append([(c, k * v) for c, v in rows[j]])
            rhs.append(k * rhs[j] if rng.random() < 0.7
                       else rng.choice((0, 1, -2, qq(5, 3))))
            continue
        row = [(c, rng.choice(ENTRIES)) for c in range(n)
               if rng.random() < 0.6]
        if not row:
            row = [(rng.randrange(n), rng.choice(ENTRIES))]
        rows.append(row)
        rhs.append(rng.choice((0, 0, 1, 2, 3, -1, -2, qq(1, 2), qq(-7, 3))))
    objective = [rng.choice((0, 1, 2, -1, qq(1, 2), qq(-1, 3)))
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
