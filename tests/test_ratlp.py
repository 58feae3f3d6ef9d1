"""Exact simplex: worked examples, duality checks, and determinism."""

import pytest

from sclkit import ratlp
from sclkit.errors import ResourceLimitError
from sclkit.ratlp import LPResult, LinearProgram, solve_min, verify
from sclkit.rational import QQ

import fraction_simplex
from conftest import linear_program, seeded


def simplex_pair():
    # min x1 + x2  s.t.  x1 + x2 = 1
    return linear_program(2, [[(0, 1), (1, 1)]], [1], [1, 1])


def test_minimize_on_segment():
    res = solve_min(simplex_pair())
    assert res.status == "optimal"
    assert res.value == 1
    assert sum(res.primal) == 1
    assert verify(simplex_pair(), res)


def test_minimize_negative_coordinate():
    # min -x1  s.t.  x1 + x2 = 1  has optimum -1 at the vertex (1, 0)
    lp = linear_program(2, [[(0, 1), (1, 1)]], [1], [-1, 0])
    res = solve_min(lp)
    assert res.status == "optimal"
    assert res.value == -1
    assert res.primal == (QQ(1), QQ(0))
    assert verify(lp, res)


def test_infeasible_negative_rhs():
    # x1 = -1 with x1 >= 0 is infeasible
    lp = linear_program(1, [[(0, 1)]], [-1], [1])
    res = solve_min(lp)
    assert res.status == "infeasible"
    assert res.value is None and res.primal is None and res.dual is None
    assert not verify(lp, res)


def test_unbounded():
    # min -x1 with x1 - x2 = 0 lets both grow without bound
    lp = linear_program(2, [[(0, 1), (1, -1)]], [0], [-1, 0])
    res = solve_min(lp)
    assert res.status == "unbounded"


def test_rational_data():
    # min x1/3 + x2  s.t.  x1/2 + x2 = 3/4, answer at x1 = 3/2
    lp = linear_program(2, [[(0, QQ(1, 2)), (1, 1)]], [QQ(3, 4)],
                        [QQ(1, 3), 1])
    res = solve_min(lp)
    assert res.status == "optimal"
    assert res.value == QQ(1, 2)
    assert res.primal == (QQ(3, 2), QQ(0))
    assert verify(lp, res)


def test_redundant_row_handled():
    lp = linear_program(2, [[(0, 1), (1, 1)], [(0, 2), (1, 2)]], [1, 2],
                        [1, 2])
    res = solve_min(lp)
    assert res.status == "optimal"
    assert res.value == 1
    assert verify(lp, res)


def test_verify_rejects_perturbations():
    lp = simplex_pair()
    res = solve_min(lp)
    tweaked = LPResult(res.status, res.value + QQ(1, 7), res.primal,
                       res.dual, res.pivots)
    assert not verify(lp, tweaked)
    shifted = LPResult(res.status, res.value,
                       (res.primal[0] + 1,) + res.primal[1:], res.dual,
                       res.pivots)
    assert not verify(lp, shifted)
    bad_dual = LPResult(res.status, res.value, res.primal,
                        (res.dual[0] + 1,), res.pivots)
    assert not verify(lp, bad_dual)


def test_verify_rejects_dual_off_by_one_over_n():
    # min x1/3 + 2x2/5 + x3  s.t.  x1/2 + x2 = 3/4,  x2/3 + x3 = 1/7 has
    # the optimum 27/70 at (9/14, 3/7, 0) with duals (2/3, -4/5); no rhs
    # is zero, so moving either dual by 1/N moves b.y off the optimum
    lp = linear_program(3, [[(0, QQ(1, 2)), (1, 1)], [(1, QQ(1, 3)), (2, 1)]],
                        [QQ(3, 4), QQ(1, 7)], [QQ(1, 3), QQ(2, 5), 1])
    res = solve_min(lp)
    assert verify(lp, res)
    assert all(v.denominator > 1 for v in res.dual + (res.value,))
    for n in (1, 2, 3, 7, 10 ** 6, 10 ** 40):
        for i in range(lp.num_rows):
            for delta in (QQ(1, n), -QQ(1, n)):
                dual = list(res.dual)
                dual[i] += delta
                claim = LPResult(res.status, res.value, res.primal,
                                 tuple(dual), res.pivots)
                assert not verify(lp, claim), (n, i, delta)


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(2, ((((0, QQ(1)), (0, QQ(1))),)), (QQ(1),), (QQ(1), QQ(1)))
    with pytest.raises(ValueError):
        linear_program(1, [[(0, 1)]], [1, 2], [1])
    with pytest.raises(ValueError):
        linear_program(1, [[(1, 1)]], [1], [1])
    with pytest.raises(ValueError):
        linear_program(2, [[(0, 0)]], [1], [1, 1])
    with pytest.raises(ValueError, match="nonzero"):
        LinearProgram(2, (((0, 0),),), (QQ(1),), (QQ(1), QQ(1)))


def test_pivot_cap():
    lp = linear_program(2, [[(0, 1), (1, 1)]], [1], [-1, 0])
    with pytest.raises(ResourceLimitError):
        solve_min(lp, max_pivots=0)


def start_basis(lp):
    """The revised simplex state once the start basis is built."""
    t = ratlp._Revised(lp, 10 ** 6, list(range(lp.num_vars)))
    t.drive_out_artificials()
    return t


def test_start_pivots_count_toward_the_cap():
    # only the last row has rhs > 0, so the start pivots the artificials
    # of the three zero rows out, and phase 1 needs one pivot more (from
    # the basis of artificials alone it would take 6)
    lp = linear_program(5, [[(1, -2), (2, 2), (3, -1), (4, -1)],
                            [(1, -1), (2, 1), (3, 1)], [(0, -2), (4, 1)],
                            [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]],
                        [0, 0, 0, 3], [1, 2, 2, 3, 4])
    t = start_basis(lp)
    assert t.pivots == 3 and t.basis == [1, 3, 0, 8]
    res = solve_min(lp)
    assert res == fraction_simplex.solve_min(lp)
    assert res.value == 6 and res.pivots == 4
    for cap in (0, 2, 3):
        with pytest.raises(ResourceLimitError):
            solve_min(lp, max_pivots=cap)
    assert solve_min(lp, max_pivots=4) == res


def test_repeated_zero_row_keeps_its_artificial():
    # row 1 is twice row 0, both with rhs 0: once row 0's artificial is
    # out, row 1 has no original column left and stays 0 = 0
    lp = linear_program(3, [[(0, 1), (1, -1)], [(0, 2), (1, -2)],
                            [(0, 1), (1, 1), (2, 1)]], [0, 0, 2], [1, 1, 3])
    t = start_basis(lp)
    assert t.basis == [0, 4, 5]
    res = solve_min(lp)
    assert res == fraction_simplex.solve_min(lp)
    assert res.value == 2 and res.primal == (1, 1, 0)
    assert res.dual[1] == 0
    assert verify(lp, res)


def test_start_pivot_on_negative_entry():
    # row 0, -x0 + x1 = 0, has rhs 0 and its lowest original entry is -1:
    # the start pivots on it, negating the row, and stays feasible
    lp = linear_program(2, [[(0, -1), (1, 1)], [(0, 1), (1, 1)]], [0, 2],
                        [1, 2])
    t = start_basis(lp)
    assert t.basis == [0, 3]
    assert t.inv[0] == {0: -1} and t.rhs == [0, 2]
    res = solve_min(lp)
    assert res == fraction_simplex.solve_min(lp)
    assert res.value == 3 and res.primal == (1, 1)
    assert verify(lp, res)


def random_feasible_lp(rng, n=5, m=3):
    """Random equalities with a known nonnegative solution, so the program
    is feasible (possibly unbounded below is avoided by nonnegative cost)."""
    target = [QQ(rng.randint(0, 4)) for _ in range(n)]
    rows = []
    rhs = []
    for _ in range(m):
        row = [(j, QQ(rng.randint(-3, 3))) for j in range(n)]
        row = [(j, v) for j, v in row if v != 0]
        if not row:
            row = [(0, QQ(1))]
        rows.append(row)
        rhs.append(sum(v * target[j] for j, v in row))
    cost = [QQ(rng.randint(0, 5)) for _ in range(n)]
    return linear_program(n, rows, rhs, cost)


def test_random_programs_verify():
    rng = seeded(2026)
    optima = 0
    for _ in range(60):
        lp = random_feasible_lp(rng)
        res = solve_min(lp)
        assert res.status == "optimal"
        assert verify(lp, res)
        optima += 1
    assert optima == 60


def test_rhs_scaling():
    rng = seeded(99)
    for _ in range(20):
        lp = random_feasible_lp(rng)
        res = solve_min(lp)
        for k in (QQ(2), QQ(1, 3), QQ(7, 5)):
            scaled = LinearProgram(lp.num_vars, lp.rows,
                                   tuple(k * b for b in lp.rhs), lp.objective)
            sres = solve_min(scaled)
            assert sres.status == "optimal"
            assert sres.value == k * res.value
            assert verify(scaled, sres)


def test_determinism():
    rng = seeded(5)
    lps = [random_feasible_lp(rng) for _ in range(10)]
    first = [solve_min(lp) for lp in lps]
    second = [solve_min(lp) for lp in lps]
    assert first == second
