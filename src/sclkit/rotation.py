"""Rotation numbers for a hyperbolic once-punctured torus group.

The rank-2 free group acts on the hyperbolic plane as the fundamental
group of a once-punctured torus with geodesic boundary; the action on
the circle at infinity lifts to the real line once each generator is
assigned a lift.  The translation number of the lifted action is a
homogeneous quasimorphism of defect one whose value on the boundary
class normalizes the surface's area; scl of a chain is bounded below by
half its rotation number.

The circle is coordinatized by u(x) = atan(x)/pi + 1/2, sending the
real axis boundary of the upper half plane (plus infinity at u = 0) to
[0, 1).  Each Mobius map gets the lift with value in [0, 1) at 0, and
each inverse generator the exact inverse lift, so words evaluate to a
genuine lifted action.
"""

import functools
import math
import random
from dataclasses import dataclass

from .errors import (InvariantViolationError, NotBoundaryError,
                     NumericalMarginError, RankMismatchError)
from .freegroup import (concat, cyclic_reduce, make_word, require_boundary,
                        word, word_exponents)
from .rational import qq

_EPS = 1e-9


@dataclass(frozen=True)
class Mobius:
    """A real Mobius map (ax + b)/(cx + d) with determinant one."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # long products have huge entries, where det = ad - bc suffers
        # catastrophic cancellation; only demand det = 1 to the precision
        # that float64 can actually represent at this entry scale
        det = self.a * self.d - self.b * self.c
        tol = 1e-9 * (abs(self.a * self.d) + abs(self.b * self.c) + 1.0)
        if not abs(det - 1.0) <= tol:
            raise ValueError("determinant must be 1, got %r" % det)

    def trace(self):
        return self.a + self.d

    def apply(self, x):
        denom = self.c * x + self.d
        if denom == 0.0:
            return math.inf  # the pole maps to infinity (circle u = 0)
        return (self.a * x + self.b) / denom

    def compose(self, other):
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return Mobius(a, b, c, d)

    def inverse(self):
        return Mobius(self.d, -self.b, -self.c, self.a)


def classify(m):
    """"hyperbolic", "parabolic", or "elliptic" by the trace."""
    t = abs(m.trace())
    if t > 2.0 + _EPS:
        return "hyperbolic"
    if t < 2.0 - _EPS:
        return "elliptic"
    return "parabolic"


def _u_of_x(x):
    u = math.atan(x) / math.pi + 0.5
    if u >= 1.0:
        u = 0.0
    return u


def _x_of_u(u):
    return math.tan(math.pi * (u - 0.5))


def _lift_base(m, t):
    """The lift of the circle map of m whose value at 0 lies in [0, 1).

    The raw image drops by one when the input crosses the pole of m (the
    preimage of infinity); adding the drop back keeps the lift monotone,
    and since the pole never sits at u = 0 the value at 0 stays in [0,1).
    """
    fl = math.floor(t)
    u = t - fl
    y = m.apply(_x_of_u(u))
    if math.isnan(y):
        raise NumericalMarginError("lift evaluated exactly at a pole")
    raw = _u_of_x(y)
    jump = 0.0
    if m.c != 0.0:
        pole = _u_of_x(-m.d / m.c)
        if u >= pole:
            jump = 1.0
    return fl + raw + jump


@dataclass(frozen=True)
class PTRep:
    """Holonomy of the punctured torus: matrices and lift offsets per
    letter (offsets make inverse letters exact inverse lifts)."""

    rank: int
    matrices: dict  # letter -> Mobius
    offsets: dict  # letter -> int

    def lift(self, letter, t, extra=None):
        value = _lift_base(self.matrices[letter], t) + self.offsets[letter]
        if extra:
            g = abs(letter)
            shift = extra.get(g, 0)
            value += shift if letter > 0 else -shift
        return value

    def matrix_of(self, w):
        m = Mobius(1.0, 0.0, 0.0, 1.0)
        try:
            for letter in w.letters:
                m = m.compose(self.matrices[letter])
        except ValueError:
            # the float product overflowed, so its determinant is not 1
            raise NumericalMarginError(
                "holonomy of a %d-letter word overflows float64" % len(w)
            ) from None
        return m


def _inverse_offset(m):
    """Integer k with lift(m^-1) - k the exact inverse of lift(m)."""
    minv = m.inverse()
    ks = []
    for t in (0.0, 0.37, -1.25):
        k = _lift_base(minv, _lift_base(m, t)) - t
        ks.append(k)
    k0 = round(ks[0])
    for k in ks:
        if abs(k - k0) > 1e-6:
            raise NumericalMarginError(
                "inverse lift offset drifted: %r" % (ks,))
    return -k0


def _build_rep(flip):
    # trace triple (tr a, tr b, tr ab) = (3, 3, 4); the Fricke identity
    # then gives commutator trace 9 + 9 + 16 - 36 - 2 = -4, a geodesic
    # boundary.  a is diagonal with eigenvalue (3 + sqrt 5)/2; b is pinned
    # by its trace 3, the product trace 4, and determinant 1.
    s5 = math.sqrt(5.0)
    lam = (3.0 + s5) / 2.0
    mat_a = Mobius(lam, 0.0, 0.0, 1.0 / lam)
    off = -1.0 if flip else 1.0
    mat_b = Mobius((15.0 - s5) / 10.0, off, 1.2 * off, (15.0 + s5) / 10.0)
    matrices = {1: mat_a, 2: mat_b,
                -1: mat_a.inverse(), -2: mat_b.inverse()}
    offsets = {1: 0, 2: 0,
               -1: _inverse_offset(mat_a), -2: _inverse_offset(mat_b)}
    return PTRep(2, matrices, offsets)


@functools.cache
def punctured_torus_rep():
    """The once-punctured torus holonomy, oriented so that the
    commutator boundary word has rotation number +1."""
    boundary = word("abAB")
    for flip in (False, True):
        rep = _build_rep(flip)
        for letter in (1, 2):
            m = rep.matrices[letter]
            if classify(m) != "hyperbolic":
                raise InvariantViolationError("generators must be hyperbolic")
        comm = rep.matrix_of(boundary)
        if abs(comm.trace() + 4.0) > 1e-6:
            raise InvariantViolationError(
                "commutator trace must be -4, got %r" % comm.trace())
        if rot_element(rep, boundary) == 1:
            return rep
    raise InvariantViolationError("could not orient the holonomy")


def _fixed_point_u(m):
    """Circle coordinate of the attracting fixed point of m."""
    tr = m.trace()
    disc = tr * tr - 4.0
    if disc < -_EPS:
        raise InvariantViolationError(
            "no fixed point on the circle: elliptic element")
    s = math.sqrt(max(disc, 0.0))
    if m.c != 0.0:
        x1 = ((m.a - m.d) + s) / (2.0 * m.c)
        x2 = ((m.a - m.d) - s) / (2.0 * m.c)
        # attracting fixed point: derivative 1/(cx+d)^2 at most one
        x = x1 if abs(m.c * x1 + m.d) >= abs(m.c * x2 + m.d) else x2
        return _u_of_x(x)
    if abs(m.a) >= abs(m.d):
        return 0.0  # infinity is attracting (or parabolic at infinity)
    return _u_of_x(m.b / (m.d - m.a))


def rot_element(rep, w, extra=None):
    """Rotation number of a word: the integer translation of the lifted
    action at a fixed point of the underlying Mobius map."""
    if w.rank > rep.rank:
        raise RankMismatchError(
            "word rank %d exceeds representation rank %d"
            % (w.rank, rep.rank))
    if len(w) == 0:
        return 0
    u = _fixed_point_u(rep.matrix_of(w))
    t = u
    for letter in reversed(w.letters):
        t = rep.lift(letter, t, extra)
    m_float = t - u
    m = round(m_float)
    if abs(m_float - m) > 0.25:
        raise NumericalMarginError(
            "rotation number margin too wide: %r" % m_float)
    return int(m)


def rot_chain(rep, chain, extra=None):
    """Rotation number of a homologically trivial chain."""
    require_boundary(chain)
    total = qq(0)
    for term in chain.terms:
        total += term.coefficient * rot_element(rep, term.word, extra)
    return total


def rot(chain):
    """Rotation number of a chain under the punctured torus holonomy."""
    return rot_chain(punctured_torus_rep(), chain)


_DIRECTIONS = {1: 0, 2: 1, -1: 2, -2: 3}


def turning_number(w):
    """Winding of the closed axis-direction path spelled by a rank-2
    word: a goes east, b north, A west, B south; each cyclically
    consecutive pair turns left (+1), right (-1), or goes straight, and
    the total is four times the winding."""
    for letter in w.letters:
        if abs(letter) > 2:
            raise RankMismatchError(
                "turning numbers are defined for rank 2 only")
    core, _ = cyclic_reduce(w)
    if len(core) == 0:
        return 0
    exponents = word_exponents(core)
    if any(e != 0 for e in exponents[:2]):
        raise NotBoundaryError(
            "turning number needs a closed path; exponents %r"
            % (exponents,))
    total = 0
    n = len(core)
    for i in range(n):
        d1 = _DIRECTIONS[core.letters[i]]
        d2 = _DIRECTIONS[core.letters[(i + 1) % n]]
        delta = (d2 - d1) % 4
        if delta == 2:
            raise InvariantViolationError(
                "reversal in a cyclically reduced word")
        total += 1 if delta == 1 else (-1 if delta == 3 else 0)
    if total % 4 != 0:
        raise InvariantViolationError(
            "closed path with fractional winding: %d quarter turns" % total)
    return total // 4


def turning_number_chain(chain):
    """Term-by-term turning number; every term must close on its own."""
    require_boundary(chain)
    total = qq(0)
    for term in chain.terms:
        total += term.coefficient * turning_number(term.word)
    return total


def defect_probe(rep=None, samples=500, seed=20260814):
    """Largest |rot(gh) - rot(g) - rot(h)| over random word pairs.

    The rotation quasimorphism has defect one, so any value above one is
    an implementation fault and raises InvariantViolationError.
    """
    if rep is None:
        rep = punctured_torus_rep()
    rng = random.Random(seed)
    worst = 0
    for _ in range(samples):
        words = []
        for _ in range(2):
            letters = []
            for _ in range(rng.randint(1, 6)):
                letters.append(rng.choice((1, 2, -1, -2)))
            words.append(make_word(tuple(letters), 2))
        g, h = words
        product = concat(g, h)
        d = abs(rot_element(rep, product) - rot_element(rep, g)
                - rot_element(rep, h))
        if d > worst:
            worst = d
        if worst > 1:
            raise InvariantViolationError(
                "defect %d exceeds 1 on %r, %r" % (worst, str(g), str(h)))
    return worst
