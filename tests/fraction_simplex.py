"""Fraction-valued sparse simplex: the oracle for sclkit.ratlp.solve_min.

Every entry is an exact rational and each row a dict col -> value.  The
pivot rules (the start basis that drives the artificials of the rows of
rhs 0 out, Dantzig, the switch to Bland after _STALL_LIMIT degenerate
pivots, every tie-break) are the ones the revised simplex in
sclkit.ratlp must reproduce pivot for pivot when every column is priced.

verify() is the strong-duality check in Fraction arithmetic, the oracle
for the integer sclkit.ratlp.verify.
"""

from sclkit.errors import ResourceLimitError
from sclkit.rational import QQ, ZERO
from sclkit.ratlp import _STALL_LIMIT, LPResult


def _axpy(target, factor, source, skip=None):
    """target -= factor * source for sparse dict rows."""
    for col, v in source.items():
        if col == skip:
            continue
        new = target.get(col, ZERO) - factor * v
        if new == 0:
            target.pop(col, None)
        else:
            target[col] = new


class _Tableau:
    """Sparse simplex dictionary with artificial columns kept for duals."""

    def __init__(self, lp, max_pivots):
        self.lp = lp
        self.n = lp.num_vars
        self.m = lp.num_rows
        self.max_pivots = max_pivots
        self.pivots = 0
        self.signs = []
        self.rows = []  # list of dict col -> value (cols may include artificials)
        self.rhs = []
        self.basis = []  # basis[i] = column basic in row i
        self.dead = [False] * self.m  # redundant rows, 0 = 0
        self.cost = {}  # no objective during the start basis
        for i, row in enumerate(lp.rows):
            sign = 1 if lp.rhs[i] >= 0 else -1
            self.signs.append(sign)
            d = {col: sign * v for col, v in row}
            d[self.n + i] = QQ(1)  # artificial column
            self.rows.append(d)
            self.rhs.append(sign * lp.rhs[i])
            self.basis.append(self.n + i)

    def pivot(self, r, col):
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise ResourceLimitError("pivot cap exceeded (%d)" % self.max_pivots)
        row = self.rows[r]
        inv = 1 / row[col]
        if inv != 1:
            for c in row:
                row[c] *= inv
            self.rhs[r] *= inv
        row[col] = QQ(1)
        for i in range(self.m):
            if i == r or self.dead[i]:
                continue
            other = self.rows[i]
            factor = other.get(col)
            if factor is None or factor == 0:
                continue
            _axpy(other, factor, row, skip=col)
            other.pop(col, None)
            self.rhs[i] -= factor * self.rhs[r]
        factor = self.cost.get(col)
        if factor is not None and factor != 0:
            _axpy(self.cost, factor, row, skip=col)
            self.cost.pop(col, None)
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
        Returns "optimal" or "unbounded".
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
            leave = None
            best = None
            for i in range(self.m):
                if self.dead[i]:
                    continue
                a = self.rows[i].get(entering)
                if a is None or a <= 0:
                    continue
                ratio = self.rhs[i] / a
                if (best is None or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])):
                    best = ratio
                    leave = i
            if leave is None:
                return "unbounded"
            if best == 0:
                stall += 1
            else:
                stall = 0
            self.pivot(leave, entering)

    def set_phase1_cost(self):
        # cost of artificials is 1; reduced costs subtract the rows whose
        # basic is artificial
        cost = {}
        for i in range(self.m):
            if self.basis[i] >= self.n:
                _axpy(cost, QQ(1), self.rows[i])
        for i in range(self.m):
            cost.pop(self.n + i, None)
        self.cost = cost

    def phase1_value(self):
        total = ZERO
        for i in range(self.m):
            if self.basis[i] >= self.n:
                total += self.rhs[i]
        return total

    def drive_out_artificials(self):
        # only artificials at value zero; before phase 1 this is the start
        # basis, after it every artificial left basic is at zero
        for i in range(self.m):
            if self.dead[i] or self.basis[i] < self.n or self.rhs[i] != 0:
                continue
            target = None
            for col in self.rows[i]:
                if col < self.n and self.rows[i][col] != 0:
                    if target is None or col < target:
                        target = col
            if target is None:
                self.dead[i] = True  # redundant constraint, 0 = 0
            else:
                self.pivot(i, target)

    def set_phase2_cost(self):
        c = self.lp.objective
        cost = {j: c[j] for j in range(self.n) if c[j] != 0}
        for i in range(self.m):
            if self.dead[i]:
                continue
            cb = c[self.basis[i]] if self.basis[i] < self.n else ZERO
            if cb != 0:
                _axpy(cost, cb, self.rows[i])
        self.cost = cost


def solve_min(lp, max_pivots=10 ** 6):
    """Exact optimum of min objective.x, rows.x = rhs, x >= 0.

    Raises ResourceLimitError when the pivot cap is hit (reported
    distinctly from infeasibility, which is a normal result status).
    """
    t = _Tableau(lp, max_pivots)
    t.drive_out_artificials()
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
            x[t.basis[i]] = t.rhs[i]
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
            dual.append(-t.signs[i] * t.cost.get(t.n + i, ZERO))
    return LPResult("optimal", value, tuple(x), tuple(dual), t.pivots)


def verify(lp, result):
    """True iff x >= 0, A x = b, A^T y <= c and c.x = b.y = value, all
    in Fraction arithmetic."""
    if result.status != "optimal":
        return False
    x = result.primal
    y = result.dual
    if x is None or y is None or result.value is None:
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
    if any(t > c for t, c in zip(yta, lp.objective)):
        return False
    ctx = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
    return ctx == result.value and bty == result.value
