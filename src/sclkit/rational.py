"""Exact rational scalars: fractions.Fraction, named QQ.

Values stay in lowest terms with a positive denominator and expose
.numerator / .denominator, which is all the rest of the package needs.
"""

import math
from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def fmt(value):
    """Render a rational as "p/q" with an explicit positive denominator."""
    v = QQ(value)
    return "%d/%d" % (v.numerator, v.denominator)


def denominator_lcm(values):
    """lcm of the denominators of an iterable of ints or rationals (1 if
    empty)."""
    return math.lcm(*{v.denominator for v in values})
