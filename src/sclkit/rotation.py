"""Rotation numbers for the cusped once-punctured torus group.

The rank-2 free group acts on the hyperbolic plane as the commutator
subgroup of PSL(2, Z): a = [[1, -1], [-1, 2]] and b = [[1, 1], [1, 2]],
each of trace 3, with commutator trace -2, so the puncture is a cusp.
A word acts on column vectors by the product of its letters' matrices,
so its last letter acts first.  (The mirror marking, with the two
matrices swapped, turns abAB the other way.)

The action on the circle of lines through the origin lifts to its
universal cover once each generator is given a lift; the one taken is
the lift that fixes the generator's eigenlines, so inverse letters get
the exact inverse lifts.  The translation number of the lifted action,
counted in half-turns, is a homogeneous quasimorphism of defect one whose
value on the boundary class abAB is +1; scl of a chain is bounded below
by half its rotation number.  Any other Fuchsian marking of the punctured
torus gives the same rotation number on homologically trivial chains
(rotation number is a semi-conjugacy invariant), and on single words up
to a homomorphism.

Everything is exact: a point of the lifted circle is an integer vector
(x, y) with y >= 0 plus an integer count of half-turns.
"""

import functools
from collections import namedtuple

from .errors import (InvariantViolationError, NotBoundaryError,
                     RankMismatchError)
from .freegroup import cyclic_core, require_boundary, word, word_exponents
from .rational import qq


class PTRep(namedtuple("PTRep", "rank matrices")):
    """Integer holonomy of the punctured torus: matrices maps each letter
    to the entries (a, b, c, d) of its SL(2, Z) matrix [[a, b], [c, d]]."""

    __slots__ = ()


@functools.cache
def punctured_torus_rep():
    """The once-punctured torus holonomy, oriented so that the
    commutator boundary word has rotation number +1."""
    matrices = {1: (1, -1, -1, 2), 2: (1, 1, 1, 2)}
    for letter in (1, 2):
        a, b, c, d = matrices[letter]
        # rot_element relies on hyperbolic generators of positive trace
        if a * d - b * c != 1 or a + d <= 2:
            raise InvariantViolationError(
                "generators must be hyperbolic with positive trace")
        matrices[-letter] = (d, -b, -c, a)
    rep = PTRep(2, matrices)
    boundary = word("abAB")
    m = (1, 0, 0, 1)
    for letter in boundary.letters:
        a, b, c, d = m
        p, q, r, s = rep.matrices[letter]
        m = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
    if m[0] + m[3] != -2:
        raise InvariantViolationError(
            "commutator trace must be -2, got %d" % (m[0] + m[3]))
    if rot_element(rep, boundary) != 1:
        raise InvariantViolationError("the boundary class must rotate by +1")
    return rep


def rot_element(rep, w):
    """Rotation number of a word: the translation number, in half-turns,
    of the lifted action.

    The image of (1, 0) under w^2 lies k half-turns plus a fraction in
    [0, 1] from its start.  A lifted circle map moves every point by less
    than one from its translation number.  For w^2 that number is
    2 rot(w), an even integer, because w fixes its eigenline (the group
    has no elliptic elements).  So 2 rot(w) is whichever of k and k + 1
    is even.

    A letter's lift fixes the letter's eigenlines, so it turns every line
    by less than a half-turn, and it carries the closed upper half plane
    across the horizontal in one direction only: counterclockwise when
    its lower-left entry c is positive (the image of (1, 0) lies above
    the horizontal), clockwise when c is negative.
    """
    if w.rank > rep.rank:
        raise RankMismatchError(
            "word rank %d exceeds representation rank %d"
            % (w.rank, rep.rank))
    steps = [rep.matrices[letter] for letter in reversed(w.letters)]
    x, y, k = 1, 0, 0
    for a, b, c, d in steps * 2:
        x, y = a * x + b * y, c * x + d * y
        if y < 0:
            x, y = -x, -y
            k += 1 if c > 0 else -1
    return (k + (k & 1)) // 2


def rot(chain):
    """Rotation number of a homologically trivial chain under the
    punctured torus holonomy."""
    rep = punctured_torus_rep()
    require_boundary(chain)
    total = qq(0)
    for term in chain.terms:
        total += term.coefficient * rot_element(rep, term.word)
    return total


_DIRECTIONS = {1: 0, 2: 1, -1: 2, -2: 3}


def turning_number(w):
    """Winding of the closed axis-direction path spelled by a rank-2
    word: a goes east, b north, A west, B south; each cyclically
    consecutive pair turns left (+1), right (-1), or goes straight, and
    the total is four times the winding."""
    return _turning_number(w, word_exponents(w))


def _turning_number(w, exponents):
    """turning_number(w), given the exponent vector of w (which its
    cyclic core shares)."""
    for letter in w.letters:
        if abs(letter) > 2:
            raise RankMismatchError(
                "turning numbers are defined for rank 2 only")
    if any(e != 0 for e in exponents[:2]):
        raise NotBoundaryError(
            "turning number needs a closed path; exponents %r"
            % (exponents,))
    core = cyclic_core(w)
    total = 0
    n = len(core)
    for i in range(n):
        d1 = _DIRECTIONS[core.letters[i]]
        d2 = _DIRECTIONS[core.letters[(i + 1) % n]]
        delta = (d2 - d1) % 4
        total += 1 if delta == 1 else (-1 if delta == 3 else 0)
    return total // 4


def turning_number_chain(chain):
    """Term-by-term turning number; every term must close on its own."""
    exponents = require_boundary(chain)
    total = qq(0)
    for term, vector in zip(chain.terms, exponents):
        total += term.coefficient * _turning_number(term.word, vector)
    return total

