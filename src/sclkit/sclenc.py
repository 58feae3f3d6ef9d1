"""Encoding of scl as an exact linear program over surface pieces.

A homologically trivial chain with positive integer coefficients is cut
into letter slots (one per letter of each cyclic word) and corner slots
(the gap after each letter).  Admissible surfaces decompose into
rectangles, which pair a letter slot with an inverse-letter slot, and
polygonal pieces at the wedge point whose sides are either rectangle
sides or dummy diagonals (ordered corner pairs).  Weighting rectangles
and pieces nonnegatively and matching sides exactly yields a finite LP
whose optimum equals 2*scl(chain); optimal vertices decode to explicit
surface certificates.

One walk (_walk) makes the pieces in column order, appending each
column's row entries and cost as it goes: the bigons, then for each real
side s from corner a to corner b, in side order, the triangles whose
least side is s, by one rule: (s, s2, s3) for each side s2 > s from b to
some corner z, then each side s3 > s from z back to a.  At each corner
the real sides come in side order and then the dummy sides by end
corner.  Tuples compare entry by entry, every real side is less than
every dummy side and corners are numbered in sorted order, so this is the
sorted order of the piece tuples, with each piece made once, from its
least side.
"""

import math
from collections import OrderedDict, namedtuple

from . import surfcert
from .errors import InvariantViolationError, ResourceLimitError
from .freegroup import (Word, canonicalize, is_cyclically_reduced,
                        prepare, scale_chain)
from .rational import QQ, ZERO, denominator_lcm
from .ratlp import LinearProgram, solve_min, verify


# the default resource caps of every solve: letters of the prepared chain
# and exact simplex pivots
MAX_LETTERS = 24
MAX_PIVOTS = 10 ** 6


class Encoding(namedtuple("Encoding", "chain scale rectangles pieces "
                                     "lp row_meta")):
    """The LP of a prepared chain and the names of its rows and columns.

    A letter slot is (term, pos), and the corner (term, gap) after it is
    the same tuple.  A rectangle is (p, q, s1, s2): slots p < q carrying
    exactly inverse letters, and its two wedge-point sides as (start
    corner, end corner), s1 from the corner after p to the corner before
    q and s2 from the corner after q to the corner before p.  A real side,
    one of those two, is (0, rect, which); a dummy side, a gluing
    diagonal, is (1, start corner, end corner).  A piece is the tuple of
    its sides in cyclic order, starting at its least side.  Each tuple is
    its own sort key: tuples compare entry by entry, so the tag puts every
    real side before every dummy side, and no key is kept beside them.
    The columns are the rectangles, then the pieces, bigons before
    triangles, each in tuple order, which is the order the walk makes
    them in (see the module docstring).

    chain is the prepared chain (cyclic words, positive integer
    coefficients) and scale the rational multiplier that made the input
    integral; lp is the LinearProgram, and row_meta names each row
    ("cover", slot), ("side", rect, which) or ("dummy", d).
    """

    __slots__ = ()


def _letter(chain, slot):
    return chain.terms[slot[0]].word.letters[slot[1]]


def _slots(chain):
    return [(i, j) for i, t in enumerate(chain.terms)
            for j in range(len(t.word))]


def _corner_before(chain, slot):
    return (slot[0], (slot[1] - 1) % len(chain.terms[slot[0]].word))


def _check_cyclic_words(chain):
    for t in chain.terms:
        if len(t.word) == 0 or not is_cyclically_reduced(t.word):
            raise ValueError(
                "encoding requires nonempty cyclically reduced words; got %r"
                % (t.word,))


def enumerate_rectangles(chain):
    """All unordered slot pairs with exactly inverse letters, ordered by
    the positions (a, b) of p and q in slot order."""
    _check_cyclic_words(chain)
    slots = _slots(chain)
    by_letter = {}  # letter -> ascending positions of the slots carrying it
    for b, slot in enumerate(slots):
        by_letter.setdefault(_letter(chain, slot), []).append(b)
    rects = []
    for a, p in enumerate(slots):
        for b in by_letter.get(-_letter(chain, p), ()):
            if b > a:
                q = slots[b]
                s1 = (p, _corner_before(chain, q))
                s2 = (q, _corner_before(chain, p))
                rects.append((p, q, s1, s2))
    return tuple(rects)


# the few exact values that LP entries and piece costs take
_ONE, _NEG = QQ(1), QQ(-1)
_COST = tuple(QQ(k - 2, 2) for k in range(3))  # dummies/2 - 1, by dummies


def _walk(chain, rectangles):
    """The pieces in column order and the LP rows they enter, made in one
    walk: (pieces, row_meta, rows, objective), where rows[i] lists the
    (column, value) entries of row i.

    The rows are a cover row per letter slot, the side rows (rect, 1) and
    (rect, 2), then a row per pair of mutually reverse dummy sides, which
    the lesser enters with +1 and the other with -1 (a loop has no row).
    In a boundary every slot p is in a rectangle, so every corner starts
    a real side (the corner after p) and ends one (the corner before p):
    every ordered corner pair is a dummy side of some piece.  No piece
    enters a row twice: its real sides are distinct, and its two dummy
    sides are reverse only if a real side ends where it starts, which
    needs a word that is not cyclically reduced.
    """
    corners = _slots(chain)  # the corner after each slot, in sorted order
    n, nrect = len(corners), len(rectangles)
    index = {c: i for i, c in enumerate(corners)}
    meta = [("cover", c) for c in corners]
    meta += [("side", ri, which) for ri in range(nrect) for which in (1, 2)]
    rows = [[] for _ in meta]
    for ri, (p, q, _, _) in enumerate(rectangles):
        for r in (index[p], index[q], n + 2 * ri, n + 2 * ri + 1):
            rows[r].append((ri, _ONE))
    # a side's entry is (side, end corner, its row, its value there); the
    # real sides in side order, each with its start corner
    real = [(index[a], ((0, ri, which), index[b],
                        rows[n + 2 * ri + which - 1], _NEG))
            for ri, (_, _, s1, s2) in enumerate(rectangles)
            for which, (a, b) in ((1, s1), (2, s2))]
    between = [[[] for _ in corners] for _ in corners]  # by start, end
    out_of = [[] for _ in corners]  # by start
    for a, side in real:
        between[a][side[1]].append(side)
        out_of[a].append(side)
    loops = []  # a loop's entries go to this row, which is dropped
    for i, c1 in enumerate(corners):
        between[i][i].append(((1, c1, c1), i, loops, _ONE))
        for j in range(i + 1, n):
            c2 = corners[j]
            meta.append(("dummy", (1, c1, c2)))
            rows.append([])
            between[i][j].append(((1, c1, c2), j, rows[-1], _ONE))
            between[j][i].append(((1, c2, c1), i, rows[-1], _NEG))
    for i in range(n):
        out_of[i] += [between[i][j][-1] for j in range(n)]
    pieces = []
    objective = [_ONE] * nrect
    col = nrect
    add_piece, add_cost = pieces.append, objective.append
    for a, (s, b, row, _) in real:
        for s2, _, row2, _ in between[b][a][:-1]:
            if s2 > s:
                add_piece((s, s2))
                row.append((col, _NEG))
                row2.append((col, _NEG))
                col += 1
    objective += [_COST[0]] * len(pieces)
    for a, (s, b, row, value) in real:
        # the sides before s have left the tables, so s heads both its
        # lists; taking it out leaves only sides greater than s there
        del between[a][b][0], out_of[a][0]
        for s2, z, row2, value2 in out_of[b]:
            for s3, _, row3, value3 in between[z][a]:
                add_piece((s, s2, s3))
                row.append((col, value))
                row2.append((col, value2))
                row3.append((col, value3))
                add_cost(_COST[s2[0] + s3[0]])
                col += 1
    return tuple(pieces), meta, rows, objective


def enumerate_pieces(chain):
    """All corner-compatible bigons (two rectangle sides) and triangles
    (at least one rectangle side, dummy diagonals for the rest).

    A piece is the tuple of its sides, real (0, rect, which) or dummy
    (1, start, end) with any ordered pair of corners, rotated to start at
    its least side; the pieces come bigons first, then triangles, each in
    tuple order, which is the column order of build_lp: both read the one
    walk (see the module docstring), so the order is defined in one place.
    """
    return _walk(chain, enumerate_rectangles(chain))[0]


def check_letters(letters, max_letters=MAX_LETTERS, **_other_limits):
    """ResourceLimitError if a prepared chain of this many letters is over
    the letter cap.  Other caps are ignored, so a caller may pass its
    limits whole."""
    if letters > max_letters:
        raise ResourceLimitError(
            "chain has %d letters, cap is %d" % (letters, max_letters))


def build_lp(chain, max_letters=MAX_LETTERS):
    """Assemble the full encoding of a homologically trivial chain.

    The chain is prepared first (integer positive coefficients); the LP
    minimizes  sum(r) + sum(dummy_count/2 - 1, weighted)  which equals
    -chi of the assembled surface at degree one.

    The rows are assembled in time linear in their nonzeros: the walk
    (see the module docstring) makes each piece with its row entries and
    cost, so the pieces are neither sorted nor read a second time.  The
    rectangles' entries come first in every row: coverage (per letter
    slot, incident rectangle weights sum to the term coefficient) and side
    matching (rectangle weight equals the total piece usage of the side).
    A malformed LP is an internal fault, InvariantViolationError.
    """
    prepared, scale = prepare(chain)  # raises unless a boundary
    check_letters(sum(len(t.word) for t in prepared.terms), max_letters)
    rectangles = enumerate_rectangles(prepared)
    pieces, meta, rows, objective = _walk(prepared, rectangles)
    rhs = [QQ(prepared.terms[term].coefficient)
           for term, _ in _slots(prepared)]
    rhs += [ZERO] * (len(meta) - len(rhs))
    try:
        lp = LinearProgram(len(objective), tuple(map(tuple, rows)),
                           tuple(rhs), tuple(objective))
    except ValueError as err:
        raise InvariantViolationError("malformed scl LP: %s" % err) from err
    return Encoding(prepared, scale, rectangles, pieces, lp, tuple(meta))


# The result cache of solve_chain, least recently used first.  Its key is
# a ray, the positive multiples of one prepared chain, named by its
# primitive chain (the integer coefficients divided by their gcd g); its
# entry is the verified LPResult of that primitive chain.  g*C has C's LP
# with the cover-row rhs times g, and ratlp reads the rhs only through
# which rows are zero and through ratios, so a fresh solve of g*C makes
# the same pivots and gives the same dual, with value and primal times g;
# verify is homogeneous in (rhs, primal, value), so it accepts the one iff
# the other.  An entry holds a primal slot per column and a dual rational
# per row: about 7 KB at 8 letters and 23 KB at 14 by tracemalloc.  So
# the cap is 1024 entries, about 24 MB if all are 14-letter chains and
# about 80 MB if all are at the default cap of 24 letters.
_scl_cache = OrderedDict()
_SCL_CACHE_SIZE = 1024


def _scaled(result, k):
    """result with its value and nonzero primal entries times k > 0."""
    if k == 1:
        return result
    return result._replace(value=result.value * k,
                           primal=tuple(v * k if v else v
                                        for v in result.primal))


def solve_chain(chain, max_letters=MAX_LETTERS, max_pivots=MAX_PIVOTS):
    """Canonicalize, encode, solve, and verify; returns (encoding, result).

    The LP optimum is result.value; scl is result.value / (2 * scale).
    Returns (None, None) for chains that canonicalize to zero.

    The simplex prices a crash set of columns first, those of nonzero
    cost: the rectangles, the bigons and the triangles with two or three
    real sides.  The rest, the triangles with one real side and two dummy
    sides, are about three quarters of the columns and are seldom used
    by an optimal vertex; each joins the pricing only once it prices out
    negative, and the solve ends only when no column does (see ratlp).

    Results are cached by ray (see _scl_cache).  A hit still encodes the
    chain, so build_lp checks the boundary and then the letter cap, as on
    a fresh solve.  It raises ResourceLimitError if the stored pivot count
    exceeds max_pivots, and otherwise returns the stored result with value
    and primal times g, which is what a fresh solve would return, with no
    solve and no verify.
    """
    cchain = canonicalize(chain)
    if cchain.is_empty():
        return None, None
    enc = build_lp(cchain, max_letters=max_letters)
    g = math.gcd(*(t.coefficient.numerator for t in enc.chain.terms))
    key = scale_chain(enc.chain, QQ(1, g))
    cached = _scl_cache.get(key)
    if cached is not None:
        if cached.pivots > max_pivots:
            raise ResourceLimitError("pivot cap exceeded (%d)" % max_pivots)
        _scl_cache.move_to_end(key)
        return enc, _scaled(cached, g)
    # a rectangle costs 1 and a piece dummies/2 - 1, with at most
    # len - 1 dummy sides, so only the one-real triangles cost 0
    crash = [j for j, c in enumerate(enc.lp.objective) if c]
    result = solve_min(enc.lp, max_pivots=max_pivots, active=crash)
    if result.status != "optimal":
        raise InvariantViolationError(
            "scl encoding must be feasible and bounded, got %s" % result.status)
    if not verify(enc.lp, result):
        raise InvariantViolationError("LP duality certificate failed")
    if result.value < 0:
        raise InvariantViolationError("scl encoding produced a negative optimum")
    _scl_cache[key] = _scaled(result, QQ(1, g))
    if len(_scl_cache) > _SCL_CACHE_SIZE:
        _scl_cache.popitem(last=False)
    return enc, result


def scl(chain, max_letters=MAX_LETTERS, max_pivots=MAX_PIVOTS):
    """Exact stable commutator length of a homologically trivial chain:
    solve_chain's verified optimum over 2 * scale, or 0 for a chain that
    canonicalizes to zero."""
    enc, result = solve_chain(chain, max_letters=max_letters,
                              max_pivots=max_pivots)
    return ZERO if enc is None else result.value / (2 * enc.scale)


# ---------------------------------------------------------------------------
# decoding optimal vertices into surface certificates

def _glue(pieces, rect_counts, piece_counts):
    """Glue the side instances (piece, copy, j) of the pieces in use, in
    one pass over them: (instances, glued, partner).  instances maps each
    side to its instances in position order.  Copy k of a rectangle is
    glued to the k-th instance of each of its sides, and glued maps that
    instance to (rect, which, k); the k-th instance of a dummy side is
    paired with the k-th of its reverse, and partner maps each to the
    other.  A loop in use, a dummy side used more or less often than its
    reverse, and a real side used more or less often than its rectangle
    raise InvariantViolationError, in that order.

    No optimal vertex uses a loop, a dummy (1, c, c).  Proof: let a column
    with a loop have weight w > 0.  Real sides go from a to b with a != b,
    since words are cyclically reduced.
    - A two-real loop triangle (s, s2, d(a, a)) or (s, d(b, b), s1)
      enters the rows of its real sides, as the bigon (s, s2) or (s, s1)
      does: a loop has no row.  Moving the weight to the bigon keeps
      every row and lowers the cost by w/2 (-1 against -1/2).
    - A one-real loop triangle, (s, d(b, b), d(b, a)) or
      (s, d(b, a), d(a, a)), costs 0, and its d(b, a) must be balanced
      in the dummy row by some piece P of weight v > 0 that holds
      d(a, b).  P with d(a, b) replaced by s is a column: no triangle
      holds two sides from a to b.  Moving min(w, v) of both onto it
      keeps every row and lowers the cost by min(w, v)/2.
    So the LP optimum is never reached with weight on a loop.
    """
    instances = {}
    for pi, piece in enumerate(pieces):
        for copy in range(piece_counts[pi]):
            for j, s in enumerate(piece):
                instances.setdefault(s, []).append((pi, copy, j))
    glued, partner = {}, {}
    for s, mine in instances.items():
        if not s[0]:
            for k, inst in enumerate(mine):
                glued[inst] = (s[1], s[2], k)
            continue
        r = (1, s[2], s[1])
        if s == r:
            raise InvariantViolationError("loop dummy %r in use" % (s,))
        theirs = instances.get(r, [])
        if len(theirs) != len(mine):
            raise InvariantViolationError("unbalanced dummy usage")
        partner.update(zip(mine, theirs))
    if any(len(instances.get((0, ri, which), ())) != c
           for ri, c in enumerate(rect_counts) for which in (1, 2)):
        raise InvariantViolationError(
            "side usage does not match rectangle count")
    return instances, glued, partner


def _trace_boundary(encoding, rect_counts, instances, glued, partner):
    """Trace the boundary into circles: (circles, arc_at), where arc_at
    maps each letter arc (rect, role, copy) to (circle, position).

    After the arc of a copy in role p (side 1 starts at the corner after
    p, side 2 after q), the boundary goes on along the real side before
    that side around their polygon: step back one side in the piece and,
    while that side is a dummy, jump to its partner and step back again.
    """
    pieces, rects = encoding.pieces, encoding.rectangles
    circles, arc_at = [], {}
    for start in [(ri, role, copy) for ri, c in enumerate(rect_counts)
                  for role in ("p", "q") for copy in range(c)]:
        if start in arc_at:
            continue
        cur, letters = start, []
        while cur not in arc_at:
            ri, role, copy = cur
            slot = rects[ri][0 if role == "p" else 1]
            arc_at[cur] = (len(circles), len(letters))
            letters.append(_letter(encoding.chain, slot))
            pi, c, j = instances[(0, ri, 1 if role == "p" else 2)][copy]
            j = (j - 1) % len(pieces[pi])
            while pieces[pi][j][0]:  # a dummy side: go on through its partner
                pi, c, j = partner[(pi, c, j)]
                j = (j - 1) % len(pieces[pi])
            ri, which, copy = glued[(pi, c, j)]
            cur = (ri, "q" if which == 1 else "p", copy)
        circles.append(Word(tuple(letters), encoding.chain.rank))
    return circles, arc_at


def decode_certificate(encoding, result):
    """Assemble an optimal LP vertex into an explicit surface.

    The vertex is scaled to integer piece and rectangle counts, the side
    instances are glued in one pass (each real one to a rectangle copy,
    each dummy one to an instance of its reverse), and the boundary is
    traced into circles by walking back from each glued side to the
    previous real side of its polygon.  The rectangles become the
    bands of a band surface over the circles, which surfcert checks: its
    chi (counted by corner orbits) must equal the pieces' chi and the LP
    optimum, and its boundary must be N times the encoded chain, where N
    is the scaling; any disagreement raises InvariantViolationError.
    """
    n = denominator_lcm(result.primal)
    counts = [w.numerator * n // w.denominator for w in result.primal]
    nrect = len(encoding.rectangles)
    rect_counts, piece_counts = counts[:nrect], counts[nrect:]
    instances, glued, partner = _glue(encoding.pieces, rect_counts,
                                      piece_counts)
    circles, arc_at = _trace_boundary(encoding, rect_counts, instances,
                                      glued, partner)
    # each rectangle copy is a band joining its p-arc to its q-arc
    system = surfcert.ArcSystem(tuple(circles), encoding.chain.rank)
    bands = surfcert.certificate_from_matching(surfcert.matching(
        system, [(arc_at[(ri, "p", copy)], arc_at[(ri, "q", copy)])
                 for ri, c in enumerate(rect_counts) for copy in range(c)]))
    target = canonicalize(scale_chain(encoding.chain, n))
    if bands.boundary.terms != target.terms:
        raise InvariantViolationError(
            "decoded boundary does not match %d times the encoded chain" % n)
    chi_formula = -(sum(rect_counts) + len(partner) // 2 - sum(piece_counts))
    # at an optimal vertex every polygon is a disk, so the two counts agree
    if bands.chi != chi_formula:
        raise InvariantViolationError(
            "band surface chi %d disagrees with formula chi %d"
            % (bands.chi, chi_formula))
    if -QQ(chi_formula) != QQ(n) * result.value:
        raise InvariantViolationError("chi does not match the LP optimum")
    return bands._replace(degree=n)
