"""Exact rational linear programming.

Solves min c.x subject to A x = b, x >= 0 with every entry an exact
rational, via a two-phase revised simplex (Dantzig and Orchard-Hays
1954).  Pivoting is Dantzig's rule with a fallback to Bland's
least-index rule after a run of degenerate pivots, which keeps the
exact-arithmetic termination guarantee without Bland's stalling.  The
result carries a primal vertex and a dual vector.

Phase 1 starts from a crash basis (Bixby 1992) rather than from the
basis of artificials alone.  Each row of rhs 0 has its artificial
pivoted out on the lowest original column of its tableau row, the rule
that also clears the artificials left basic after phase 1.  Such a pivot
moves no value, so the start is feasible whatever the sign of the pivot
entry, and phase 1 puts cost 1 only on the artificials still basic.
Without the start, phase 1 spends most of its pivots on degenerate swaps
of artificials at zero: the scl programs have many more rows of rhs 0
than of rhs > 0.

The solver never forms the tableau B^-1 A.  Each row of A is scaled to
integers and signed so that its rhs is nonnegative, which gives the
system R x = r; artificial column n+i is the row's scale times the i-th
unit vector.  The state is the basis inverse B^-1 of that system, one
sparse integer row per constraint over its own positive denominator,
kept beside the basic value of the row:

- the entering column B^-1 R_q is a few dot products of those rows with
  the sparse column R_q;
- the pivot updates the rows in fraction-free style (Bareiss 1968): the
  pivot row is divided by its pivot entry and reduced by the gcd of its
  entries, and every other row r becomes (r * mul - k * pivot row) /
  (den * mul) with mul = D / gcd(f, D) for the pivot row's denominator D
  and the row's own entry f, so a row is rescaled and gcd-reduced only
  when mul > 1;
- the simplex multipliers u = c_B B^-1 live in one integer vector over a
  shared denominator and take the update the tableau's cost row would:
  u += d_q * (new pivot row), for the entering column's reduced cost
  d_q.  A reduced cost c_j - u R_j is priced from the sparse column R_j;
- when phase 2 stops, u scaled back to the rows of A is the dual vector,
  so no final solve is needed.

Pricing may run in rounds (delayed column generation, Gilmore and Gomory
1961).  The columns are split into two sorted lists: the active ones,
priced at every pivot, and the waiting ones.  solve_min can be given
the active set; by default it is every column and nothing waits.  When
no active column has a negative reduced cost, the waiting columns are
priced once, each negative one moves to the active set, and the solve
goes on.  Every active column then prices at zero or more, so the rule's
choice among the waiting columns is its choice over all columns, and a
phase ends only when no column at all is negative: the final basis is
optimal for the whole program, not only for the active columns.  The
active set only grows, and each round is the plain simplex on a fixed
set of columns, so the solve still terminates.  The pivot count covers
every round of both phases, the start and the drive-out included.  With
every column active the pivots are exactly those of a solve without
rounds.

Ratio tests compare by cross-multiplication.  Rationals (QQ) appear only
at the boundary: the input is read through .numerator / .denominator and
the vertex and duals are built as QQ.

verify() is independent of all this: it checks a claimed optimum by
strong duality, in integers over common denominators, reading only the
program and the claimed result.
"""

import bisect
import math
from collections import namedtuple

from .errors import ResourceLimitError
from .rational import QQ, ZERO, denominator_lcm, qq

# consecutive degenerate pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 60


class LinearProgram(namedtuple("LinearProgram", "num_vars rows rhs objective")):
    """min objective . x  subject to  rows . x = rhs,  x >= 0.

    rows is a tuple of sparse rows, each a tuple of (column, value) pairs
    with strictly increasing columns and nonzero values; objective is a
    dense tuple of length num_vars.
    """

    __slots__ = ()

    def __new__(cls, num_vars, rows, rhs, objective):
        if len(rhs) != len(rows):
            raise ValueError("rhs length does not match row count")
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        for row in rows:
            last = -1
            for col, value in row:
                if not 0 <= col < num_vars:
                    raise ValueError("column %d out of range" % col)
                if col <= last:
                    raise ValueError("row columns must be strictly increasing")
                if not value:
                    raise ValueError("sparse entries must be nonzero")
                last = col
        return super().__new__(cls, num_vars, rows, rhs, objective)

    @property
    def num_rows(self):
        return len(self.rows)


class LPResult(namedtuple("LPResult", "status value primal dual pivots")):
    """The outcome of a solve.  status is "optimal", "infeasible" or
    "unbounded"; when optimal, value is the exact optimum, primal the
    vertex and dual the dual vector (one entry per row), else all three
    are None; pivots counts the simplex pivots."""

    __slots__ = ()


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
    get = row.get
    for c, v in src.items():
        new = get(c, 0) - k * v
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


def _entering(d, bland):
    """Index of the most negative entry of d, ties to the lower index, or
    under Bland's rule the lowest negative one; None when none is."""
    if bland:
        return next((i for i, v in enumerate(d) if v < 0), None)
    worst = min(d, default=0)
    return d.index(worst) if worst < 0 else None


class _Revised:
    """Basis inverse, basic values and simplex multipliers of R x = r.

    Row i of the basis inverse holds inv[i][k] / den[i] and the basic
    value rhs[i] / den[i]; the multipliers are u[k] / u_den, scaled by
    the phase's cost denominator.  Every denominator is positive, so
    signs and comparisons within a row are those of the numerators.
    active is the ascending list of columns priced in a round, waiting
    the ascending list of the others.
    """

    def __init__(self, lp, max_pivots, active):
        n = self.n = lp.num_vars
        m = self.m = lp.num_rows
        self.max_pivots = max_pivots
        self.active = active
        chosen = set(active)
        self.waiting = [j for j in range(n) if j not in chosen]
        self.pivots = 0
        self.rows = []  # rows[i] = [(col, integer entry of R)]
        self.cols = [[] for _ in range(n)]  # cols[j] = [(row, entry)]
        self.scale = []  # row i of R is scale[i] times row i of A
        self.inv = []
        self.rhs = []
        self.den = []
        self.basis = list(range(n, n + m))  # basis[i] = column basic in row i
        for i, row in enumerate(lp.rows):
            b = lp.rhs[i]
            den = math.lcm(b.denominator, *(v.denominator for _, v in row))
            sign = 1 if b >= 0 else -1
            r = []
            for col, v in row:
                a = sign * v.numerator * (den // v.denominator)
                r.append((col, a))
                self.cols[col].append((i, a))
            self.rows.append(r)
            self.scale.append(sign * den)
            self.inv.append({i: 1})
            self.rhs.append(sign * b.numerator * (den // b.denominator))
            self.den.append(den)

    def column(self, col):
        """Numerators of B^-1 R_col, row i over den[i]."""
        entries = self.cols[col]
        out = [0] * self.m
        for i, row in enumerate(self.inv):
            total = 0
            for k, a in entries:
                f = row.get(k)
                if f:
                    total += f * a
            out[i] = total
        return out

    def tableau_row(self, i):
        """Numerators of row i of B^-1 R over den[i], as col -> value."""
        out = {}
        for k, f in self.inv[i].items():
            for col, a in self.rows[k]:
                out[col] = out.get(col, 0) + f * a
        return out

    def pivot(self, r, col, entries):
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise ResourceLimitError("pivot cap exceeded (%d)" % self.max_pivots)
        row = self.inv[r]
        p = entries[r]
        if p < 0:
            for c in row:
                row[c] = -row[c]
            self.rhs[r] = -self.rhs[r]
            p = -p
        # dividing by the pivot entry makes it the denominator
        b, p = _reduce(row, self.rhs[r], p)
        self.rhs[r], self.den[r] = b, p
        for i, f in enumerate(entries):
            if f and i != r:
                g = math.gcd(f, p)
                self.rhs[i], self.den[i] = _combine(
                    self.inv[i], self.rhs[i], self.den[i], p // g, f // g,
                    row, b)
        self.basis[r] = col

    def set_cost(self, cost, basic_cost):
        """Phase objective: integer costs of the columns and of the rows'
        basic variables, over one shared denominator."""
        self.cost = cost
        self.u = {}
        self.u_den = 1
        for i, cb in enumerate(basic_cost):
            if cb:
                _, self.u_den = _sub_rational(self.u, 0, self.u_den, -cb, 1,
                                              self.inv[i], 0, self.den[i])

    def reduced_costs(self, cols):
        """Numerators over u_den of the reduced costs c - u R of cols,
        from the sparse columns of R."""
        dense = [0] * self.m
        for k, f in self.u.items():
            dense[k] = f
        u_den, cost, columns = self.u_den, self.cost, self.cols
        return [cost[col] * u_den - sum([dense[k] * a for k, a in columns[col]])
                for col in cols]

    def price(self, bland):
        """Entering column and its reduced cost numerator over u_den.

        The most negative reduced cost among the active columns, ties to
        the lower column, or under Bland's rule the lowest active column
        with a negative one; basic columns price at exactly zero.  When
        no active column is negative, the waiting columns are priced, the
        negative ones join the active set, and the rule picks among them.
        (None, None) when no column at all is negative.
        """
        d = self.reduced_costs(self.active)
        i = _entering(d, bland)
        if i is not None:
            return self.active[i], d[i]
        waiting = self.waiting
        d = self.reduced_costs(waiting)
        i = _entering(d, bland)
        if i is None:
            return None, None
        self.active = sorted(self.active
                             + [col for col, v in zip(waiting, d) if v < 0])
        self.waiting = [col for col, v in zip(waiting, d) if v >= 0]
        return waiting[i], d[i]

    def run(self):
        """Pivot until no original column has negative reduced cost.

        Pricing is in rounds over the active columns (see price), so a
        phase ends only when a pricing of every column finds nothing.

        Entering column: most negative reduced cost, except that after a
        long run of degenerate pivots the rule switches to Bland's
        least-index choice and stays there until the objective strictly
        improves.  Any infinite pivot sequence would eventually be all
        degenerate, hence all Bland, and Bland cannot cycle, so the switch
        keeps exact-arithmetic termination while avoiding Bland's stalls.
        Artificial columns never re-enter the basis, so only original
        columns are priced.  Ties go to the lower column, and in the ratio
        test to the row whose basic column is lower.  Returns "optimal"
        or "unbounded".
        """
        stall = 0
        while True:
            entering, d = self.price(stall > _STALL_LIMIT)
            if entering is None:
                return "optimal"
            entries = self.column(entering)
            # ratios b/a share the row's denominator, and b/a < lb/la
            # iff b*la < lb*a since a, la > 0
            leave = None
            for i, a in enumerate(entries):
                if a <= 0:
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
            u_den = self.u_den
            self.pivot(leave, entering, entries)
            # u += d_entering * (new row of B^-1 for the leaving row)
            _, self.u_den = _sub_rational(self.u, 0, u_den, -d, u_den,
                                          self.inv[leave], 0, self.den[leave])

    def drive_out_artificials(self):
        """Pivot each artificial basic at value zero out on the lowest
        original column of its tableau row; rows of nonzero value are left
        alone.  A pivot in a row of value zero moves no value, so the
        basis stays feasible whatever the sign of the pivot entry.  Run
        before phase 1 this builds the start basis (see the module
        docstring); run after it, it clears the artificials left basic.

        A row with no original column is a redundant constraint, 0 = 0:
        its artificial stays basic at zero, every later entering column is
        zero in that row, so no pivot touches it, and its multiplier stays
        zero in phase 2.  A column made basic here joins the active set.
        """
        waiting = self.waiting
        for i in range(self.m):
            if self.basis[i] < self.n or self.rhs[i]:
                continue
            target = min((col for col, v in self.tableau_row(i).items() if v),
                         default=None)
            if target is not None:
                self.pivot(i, target, self.column(target))
                k = bisect.bisect_left(waiting, target)
                if k < len(waiting) and waiting[k] == target:
                    del waiting[k]
                    bisect.insort(self.active, target)


def solve_min(lp, max_pivots=10 ** 6, active=None):
    """Exact optimum of min objective.x, rows.x = rhs, x >= 0.

    active, when given, holds the columns priced first; the others are
    priced only when none of these has a negative reduced cost (see the
    module docstring).  The optimum found is one of the whole program
    either way, but it may be another optimal vertex than a solve with
    every column active, which is the default.

    Phase 1 starts from the basis drive_out_artificials builds: the
    artificial of every row of rhs 0 is pivoted out first, and phase 1
    puts cost 1 only on the artificials still basic.  Raises
    ResourceLimitError when the pivot cap is hit, counting the pivots of
    the start and of every round (reported distinctly from
    infeasibility, which is a normal result status).
    """
    active = sorted(set(range(lp.num_vars) if active is None else active))
    if active and not (0 <= active[0] and active[-1] < lp.num_vars):
        raise ValueError("active column out of range")
    t = _Revised(lp, max_pivots, active)
    n, m = t.n, t.m
    # start basis: the artificials of the zero rows are pivoted out
    t.drive_out_artificials()
    # phase 1: each artificial still basic costs 1
    t.set_cost([0] * n, [1 if j >= n else 0 for j in t.basis])
    t.run()  # phase 1 cannot be unbounded
    # every basic value is >= 0, so the artificials sum to 0 iff each is 0
    if any(t.rhs[i] for i, j in enumerate(t.basis) if j >= n):
        return LPResult("infeasible", None, None, None, t.pivots)
    t.drive_out_artificials()
    c = lp.objective
    c_den = math.lcm(*(v.denominator for v in c))
    cost = [v.numerator * (c_den // v.denominator) for v in c]
    t.set_cost(cost, [cost[j] if j < n else 0 for j in t.basis])
    status = t.run()
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, t.pivots)
    x = [ZERO] * n
    for i, j in enumerate(t.basis):
        if j < n:
            x[j] = QQ(t.rhs[i], t.den[i])
    value = ZERO
    for j in range(n):
        if x[j] != 0:
            value += c[j] * x[j]
    # the multipliers of R x = r, scaled back to the rows of A
    dual_den = t.u_den * c_den
    dual = tuple(QQ(t.scale[i] * t.u.get(i, 0), dual_den) for i in range(m))
    return LPResult("optimal", value, tuple(x), dual, t.pivots)


def _numerators(values):
    """(numerators, D): the values as integers over their least common
    denominator D."""
    den = denominator_lcm(values)
    return [v.numerator * (den // v.denominator) for v in values], den


def verify(lp, result):
    """Independent strong-duality check of a claimed optimal result.

    True iff the primal vector is feasible, the dual vector is feasible
    for the dual program (A^T y <= c), and both objective values equal
    the claimed optimum exactly.  Reads only lp and result: x, y, b, c
    and the entries of A are each brought to integers over one common
    denominator, and every check is an integer comparison.
    """
    if result.status != "optimal":
        return False
    x = result.primal
    y = result.dual
    value = result.value
    if x is None or y is None or value is None:
        return False
    if len(x) != lp.num_vars or len(y) != lp.num_rows:
        return False
    xs, dx = _numerators(x)
    if any(v < 0 for v in xs):
        return False
    ys, dy = _numerators(y)
    bs, db = _numerators(lp.rhs)
    cs, dc = _numerators(lp.objective)
    da = denominator_lcm(a for row in lp.rows for _, a in row)
    yta = [0] * lp.num_vars  # A^T y, over da * dy
    for i, row in enumerate(lp.rows):
        total = 0  # row i of A x, over da * dx
        yi = ys[i]
        for col, a in row:
            a = a.numerator * (da // a.denominator)
            total += a * xs[col]
            yta[col] += yi * a
        if total * db != bs[i] * da * dx:
            return False
    scale = da * dy
    if any(t * dc > c * scale for t, c in zip(yta, cs)):
        return False
    ctx = sum(c * v for c, v in zip(cs, xs) if v)  # over dc * dx
    bty = sum(b * v for b, v in zip(bs, ys) if v)  # over db * dy
    p, q = value.numerator, value.denominator
    return ctx * q == p * dc * dx and bty * q == p * db * dy
