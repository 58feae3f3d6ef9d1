"""Exact rational scalars: fractions.Fraction, named QQ.

Values stay in lowest terms with a positive denominator and expose
.numerator / .denominator, which is all the rest of the package needs.
"""

import math
from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def qq(value, denom=None):
    """Coerce ints, rationals, or "p/q" strings to an exact rational."""
    if denom is not None:
        return QQ(value, denom)
    return QQ(value)


def fmt(value):
    """Render a rational as "p/q" with an explicit positive denominator."""
    v = QQ(value)
    return "%d/%d" % (v.numerator, v.denominator)


def denominator_lcm(values):
    """lcm of the denominators of an iterable of rationals (1 if empty)."""
    out = 1
    for v in values:
        out = math.lcm(out, QQ(v).denominator)
    return out
