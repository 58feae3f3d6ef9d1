"""Exact rational linear programming.

Solves min c.x subject to A x = b, x >= 0 with every entry an exact
rational, via a two-phase simplex.  Pivoting is Dantzig's rule with a
fallback to Bland's least-index rule after a run of degenerate pivots,
which keeps the exact-arithmetic termination guarantee without Bland's
stalling.  The result carries a primal vertex and a dual vector.

The tableau does integer arithmetic only: each row, and the cost row, is
a dict of integer numerators over one shared positive denominator, kept
in the spirit of fraction-free elimination (Bareiss 1968).  A pivot row
is divided by its pivot entry and reduced by the gcd of its entries;
every other row r becomes (r * mul - k * pivot row) / (den * mul) with
mul = D / gcd(f, D) for the pivot row's denominator D and the row's own
entry f, so a row is rescaled and gcd-reduced only when mul > 1.  Ratio
tests compare by cross-multiplication.  Rationals (QQ) appear only at the
boundary: the input is read through .numerator / .denominator and the
vertex and duals are built as QQ.

verify() is independent of all this: it checks a claimed optimum by
strong duality in QQ arithmetic without trusting solver internals.
"""

import math
from dataclasses import dataclass

from .errors import ResourceLimitError
from .rational import QQ, ZERO, qq

# consecutive degenerate pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 60


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  rows . x = rhs,  x >= 0.

    rows is a tuple of sparse rows, each a tuple of (column, value) pairs
    with strictly increasing columns and nonzero values; objective is a
    dense tuple of length num_vars.
    """

    num_vars: int
    rows: tuple
    rhs: tuple
    objective: tuple

    def __post_init__(self):
        if len(self.rhs) != len(self.rows):
            raise ValueError("rhs length does not match row count")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        for row in self.rows:
            last = -1
            for col, value in row:
                if not 0 <= col < self.num_vars:
                    raise ValueError("column %d out of range" % col)
                if col <= last:
                    raise ValueError("row columns must be strictly increasing")
                if value == 0:
                    raise ValueError("sparse entries must be nonzero")
                last = col

    @property
    def num_rows(self):
        return len(self.rows)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal", "infeasible", or "unbounded"
    value: object  # exact rational when optimal, else None
    primal: tuple  # vertex when optimal, else None
    dual: tuple  # dual vector when optimal (one entry per row), else None
    pivots: int


def linear_program(num_vars, rows, rhs, objective):
    """Convenience constructor coercing entries to exact rationals."""
    rows_q = tuple(tuple((c, qq(v)) for c, v in row) for row in rows)
    return LinearProgram(num_vars, rows_q, tuple(qq(v) for v in rhs),
                         tuple(qq(v) for v in objective))


def _reduce(row, rhs, den):
    """Divide row, rhs and den by their gcd; returns the new (rhs, den)."""
    g = math.gcd(den, rhs, *row.values())
    if g > 1:
        for c in row:
            row[c] //= g
        rhs //= g
        den //= g
    return rhs, den


def _combine(row, rhs, den, mul, k, src, src_rhs):
    """(row, rhs) / den  <-  (row*mul - k*src, rhs*mul - k*src_rhs) / (den*mul).

    row is updated in place (zeros dropped); when mul > 1 the whole row
    is rescaled first and gcd-reduced after.  Returns the new (rhs, den).
    """
    if mul != 1:
        for c in row:
            row[c] *= mul
        rhs *= mul
        den *= mul
    for c, v in src.items():
        new = row.get(c, 0) - k * v
        if new:
            row[c] = new
        else:
            del row[c]
    rhs -= k * src_rhs
    if mul != 1:
        rhs, den = _reduce(row, rhs, den)
    return rhs, den


def _sub_rational(row, rhs, den, p, q, src, src_rhs, src_den):
    """row/den -= (p/q) * src/src_den for integers p and q > 0; see _combine."""
    e = q * src_den
    h = math.gcd(den * p, e)
    return _combine(row, rhs, den, e // h, den * p // h, src, src_rhs)


class _Tableau:
    """Integer-row simplex dictionary with artificial columns kept for duals.

    Row i holds the values rows[i][c] / den[i] and rhs[i] / den[i]; the
    cost row holds cost[c] / cost_den.  Every denominator is positive, so
    signs and comparisons within a row are those of the numerators.
    """

    def __init__(self, lp, max_pivots):
        self.lp = lp
        self.n = lp.num_vars
        self.m = lp.num_rows
        self.max_pivots = max_pivots
        self.pivots = 0
        self.signs = []
        self.rows = []  # list of dict col -> numerator (cols may include artificials)
        self.rhs = []
        self.den = []
        self.basis = []  # basis[i] = column basic in row i
        self.dead = [False] * self.m  # redundant rows dropped after phase 1
        for i, row in enumerate(lp.rows):
            sign = 1 if lp.rhs[i] >= 0 else -1
            self.signs.append(sign)
            b = lp.rhs[i]
            den = math.lcm(int(b.denominator),
                           *(int(v.denominator) for _, v in row))
            d = {col: sign * int(v.numerator) * (den // int(v.denominator))
                 for col, v in row}
            d[self.n + i] = den  # artificial column
            self.rows.append(d)
            self.rhs.append(sign * int(b.numerator) * (den // int(b.denominator)))
            self.den.append(den)
            self.basis.append(self.n + i)

    def pivot(self, r, col):
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise ResourceLimitError("pivot cap exceeded (%d)" % self.max_pivots)
        row = self.rows[r]
        if row[col] < 0:
            for c in row:
                row[c] = -row[c]
            self.rhs[r] = -self.rhs[r]
        # dividing by the pivot entry makes it the denominator
        b, p = _reduce(row, self.rhs[r], row[col])
        self.rhs[r], self.den[r] = b, p
        for i in range(self.m):
            if i == r or self.dead[i]:
                continue
            other = self.rows[i]
            f = other.get(col)
            if f is None:
                continue
            g = math.gcd(f, p)
            self.rhs[i], self.den[i] = _combine(
                other, self.rhs[i], self.den[i], p // g, f // g, row, b)
        f = self.cost.get(col)
        if f is not None:
            g = math.gcd(f, p)
            _, self.cost_den = _combine(
                self.cost, 0, self.cost_den, p // g, f // g, row, 0)
        self.basis[r] = col

    def run(self):
        """Pivot until no original column has negative reduced cost.

        Entering column: most negative reduced cost, except that after a
        long run of degenerate pivots the rule switches to Bland's
        least-index choice and stays there until the objective strictly
        improves.  Any infinite pivot sequence would eventually be all
        degenerate, hence all Bland, and Bland cannot cycle, so the switch
        keeps exact-arithmetic termination while avoiding Bland's stalls.
        Artificial columns never re-enter the basis; basic columns always
        have zero reduced cost, so eligibility is just col < num_vars.
        Ties go to the lower column, and in the ratio test to the row
        whose basic column is lower.  Returns "optimal" or "unbounded".
        """
        stall = 0
        while True:
            entering = None
            if stall > _STALL_LIMIT:
                for col, v in self.cost.items():
                    if v < 0 and col < self.n and (entering is None
                                                   or col < entering):
                        entering = col
            else:
                worst = None
                for col, v in self.cost.items():
                    if v < 0 and col < self.n and (
                            worst is None or v < worst
                            or (v == worst and col < entering)):
                        worst = v
                        entering = col
            if entering is None:
                return "optimal"
            # ratios b/a share the row's denominator, and b/a < lb/la
            # iff b*la < lb*a since a, la > 0
            leave = None
            for i in range(self.m):
                if self.dead[i]:
                    continue
                a = self.rows[i].get(entering)
                if a is None or a <= 0:
                    continue
                b = self.rhs[i]
                if leave is None:
                    leave, lb, la = i, b, a
                    continue
                left, right = b * la, lb * a
                if left < right or (left == right
                                    and self.basis[i] < self.basis[leave]):
                    leave, lb, la = i, b, a
            if leave is None:
                return "unbounded"
            if lb == 0:
                stall += 1
            else:
                stall = 0
            self.pivot(leave, entering)

    def set_phase1_cost(self):
        # cost of artificials is 1; reduced costs subtract the basic rows
        cost = {}
        den = 1
        for i in range(self.m):
            _, den = _sub_rational(cost, 0, den, 1, 1, self.rows[i], 0,
                                   self.den[i])
        for i in range(self.m):
            cost.pop(self.n + i, None)
        self.cost = cost
        self.cost_den = den

    def phase1_value(self):
        total = ZERO
        for i in range(self.m):
            if self.basis[i] >= self.n:
                total += QQ(self.rhs[i], self.den[i])
        return total

    def drive_out_artificials(self):
        for i in range(self.m):
            if self.dead[i] or self.basis[i] < self.n:
                continue
            target = min((col for col in self.rows[i] if col < self.n),
                         default=None)
            if target is None:
                self.dead[i] = True  # redundant constraint, 0 = 0
            else:
                self.pivot(i, target)

    def set_phase2_cost(self):
        c = self.lp.objective
        den = math.lcm(*(int(v.denominator) for v in c))
        cost = {j: int(c[j].numerator) * (den // int(c[j].denominator))
                for j in range(self.n) if c[j] != 0}
        for i in range(self.m):
            if self.dead[i] or self.basis[i] >= self.n:
                continue
            cb = c[self.basis[i]]
            if cb != 0:
                _, den = _sub_rational(cost, 0, den, int(cb.numerator),
                                       int(cb.denominator), self.rows[i], 0,
                                       self.den[i])
        self.cost = cost
        self.cost_den = den


def solve_min(lp, max_pivots=10 ** 6):
    """Exact optimum of min objective.x, rows.x = rhs, x >= 0.

    Raises ResourceLimitError when the pivot cap is hit (reported
    distinctly from infeasibility, which is a normal result status).
    """
    t = _Tableau(lp, max_pivots)
    t.set_phase1_cost()
    t.run()  # phase 1 cannot be unbounded
    if t.phase1_value() != 0:
        return LPResult("infeasible", None, None, None, t.pivots)
    t.drive_out_artificials()
    t.set_phase2_cost()
    status = t.run()
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, t.pivots)
    x = [ZERO] * t.n
    for i in range(t.m):
        if not t.dead[i] and t.basis[i] < t.n:
            x[t.basis[i]] = QQ(t.rhs[i], t.den[i])
    value = ZERO
    for j in range(t.n):
        if x[j] != 0:
            value += lp.objective[j] * x[j]
    # dual vector: reduced cost of the artificial column n+i equals minus
    # the simplex multiplier of (sign-adjusted) row i
    dual = []
    for i in range(t.m):
        if t.dead[i]:
            dual.append(ZERO)
        else:
            dual.append(QQ(-t.signs[i] * t.cost.get(t.n + i, 0), t.cost_den))
    return LPResult("optimal", value, tuple(x), tuple(dual), t.pivots)


def verify(lp, result):
    """Independent strong-duality check of a claimed optimal result.

    True iff the primal vector is feasible, the dual vector is feasible
    for the dual program (A^T y <= c), and both objective values equal
    the claimed optimum exactly.
    """
    if result.status != "optimal":
        return False
    x = result.primal
    y = result.dual
    if x is None or y is None:
        return False
    if len(x) != lp.num_vars or len(y) != lp.num_rows:
        return False
    if any(v < 0 for v in x):
        return False
    yta = [ZERO] * lp.num_vars  # A^T y
    bty = ZERO
    for i, row in enumerate(lp.rows):
        total = ZERO
        for col, a in row:
            total += a * x[col]
            yta[col] += y[i] * a
        if total != lp.rhs[i]:
            return False
        bty += y[i] * lp.rhs[i]
    for j in range(lp.num_vars):
        if yta[j] > lp.objective[j]:
            return False
    ctx = ZERO
    for j in range(lp.num_vars):
        if x[j] != 0:
            ctx += lp.objective[j] * x[j]
    return ctx == result.value and bty == result.value
