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
least side is s.  First come (s, s2, .) for each real s2 > s starting at
b, the 3-real (s, s2, s3) before the 2-real (s, s2, d(b2, a)); then
(s, d(b, y), .) for each corner y, the 2-real (s, d(b, y), s1) for each
real s1 > s from y to a before the 1-real (s, d(b, y), d(y, a)).  Tuples
compare entry by entry, every real side is less than every dummy side
and corners are numbered in sorted order, so this is the sorted order of
the piece tuples, with each piece made once, from its least side.
"""

import math
from collections import OrderedDict, namedtuple

from . import surfcert
from .errors import InvariantViolationError, ResourceLimitError
from .freegroup import (Word, canonicalize, is_cyclically_reduced,
                        prepare, scale_chain)
from .rational import ZERO, denominator_lcm, qq
from .ratlp import LinearProgram, solve_min, verify


# the default resource caps of every solve: letters of the prepared chain
# and exact simplex pivots
MAX_LETTERS = 24
MAX_PIVOTS = 10 ** 6


class Encoding(namedtuple("Encoding", "chain scale rectangles pieces "
                                     "dummy_types lp row_meta")):
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
    them in (see the module docstring); the dummy rows follow dummy_types.

    chain is the prepared chain (cyclic words, positive integer
    coefficients) and scale the rational multiplier that made the input
    integral; dummy_types holds every ordered corner pair, in tuple order;
    lp is the LinearProgram, and row_meta names each row ("cover", slot),
    ("side", rect, which) or ("dummy", d).
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
_ONE, _NEG = qq(1), qq(-1)
_COST = tuple(qq(k - 2, 2) for k in range(3))  # dummies/2 - 1, by dummies


def _walk(chain, rectangles):
    """The pieces in column order and the LP rows they enter, made in one
    walk: (pieces, dummy_types, row_meta, rows, objective), where rows[i]
    lists the (column, value) entries of row i.

    The rows are a cover row per letter slot, the side rows (rect, 1) and
    (rect, 2), then a row per pair of mutually reverse dummy sides, which
    the lesser enters with +1 and the other with -1 (a loop has no row).
    Dummy (1, c1, c2) occurs in a piece iff c1 is a real side's end or c2
    a real side's start.  In a boundary every slot p is in a rectangle,
    so every corner starts a real side (the corner after p) and ends one
    (the corner before p): the dummy types are all n * n ordered corner
    pairs.  No piece enters a row twice: its real sides are distinct,
    and its two dummy sides are reverse only if a real side ends where it
    starts, which needs a word that is not cyclically reduced.
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
    # real side table: (side, start index, end index, its row), side order
    sides = [((0, ri, which), index[a], index[b],
              rows[n + 2 * ri + which - 1])
             for ri, (_, _, s1, s2) in enumerate(rectangles)
             for which, (a, b) in ((1, s1), (2, s2))]
    starts = [[] for _ in corners]
    between = [[[] for _ in corners] for _ in corners]  # by start, end
    for side in sides:
        starts[side[1]].append(side)
        between[side[1]][side[2]].append(side)
    # dummy[i][j]: the dummy side from corner i to corner j, its row and
    # its sign there; a loop's entries go to a row that is dropped
    types = tuple((1, c1, c2) for c1 in corners for c2 in corners)
    dummy = [[None] * n for _ in corners]
    loops = []
    for i in range(n):
        dummy[i][i] = (types[i * n + i], loops, _ONE)
        for j in range(i + 1, n):
            meta.append(("dummy", types[i * n + j]))
            rows.append([])
            dummy[i][j] = (types[i * n + j], rows[-1], _ONE)
            dummy[j][i] = (types[j * n + i], rows[-1], _NEG)
    pieces = []
    objective = [_ONE] * nrect
    col = nrect
    add_piece, add_cost = pieces.append, objective.append
    for s, a, b, row in sides:
        for s2, _, _, row2 in between[b][a]:
            if s2 > s:
                add_piece((s, s2))
                row.append((col, _NEG))
                row2.append((col, _NEG))
                col += 1
    objective += [_COST[0]] * len(pieces)
    for s, a, b, row in sides:
        for s2, _, b2, row2 in starts[b]:
            if s2 > s:
                for s3, _, _, row3 in between[b2][a]:
                    if s3 > s:
                        add_piece((s, s2, s3))
                        row.append((col, _NEG))
                        row2.append((col, _NEG))
                        row3.append((col, _NEG))
                        add_cost(_COST[0])
                        col += 1
                d, drow, sign = dummy[b2][a]
                add_piece((s, s2, d))
                row.append((col, _NEG))
                row2.append((col, _NEG))
                drow.append((col, sign))
                add_cost(_COST[1])
                col += 1
        for y in range(n):
            d, drow, sign = dummy[b][y]
            for s1, _, _, row1 in between[y][a]:
                if s1 > s:
                    add_piece((s, d, s1))
                    row.append((col, _NEG))
                    drow.append((col, sign))
                    row1.append((col, _NEG))
                    add_cost(_COST[1])
                    col += 1
            d2, drow2, sign2 = dummy[y][a]
            add_piece((s, d, d2))
            row.append((col, _NEG))
            drow.append((col, sign))
            drow2.append((col, sign2))
            add_cost(_COST[2])
            col += 1
    return tuple(pieces), types, meta, rows, objective


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
    pieces, dummy_types, meta, rows, objective = _walk(prepared, rectangles)
    rhs = [qq(prepared.terms[term].coefficient)
           for term, _ in _slots(prepared)]
    rhs += [ZERO] * (len(meta) - len(rhs))
    try:
        lp = LinearProgram(len(objective), tuple(map(tuple, rows)),
                           tuple(rhs), tuple(objective))
    except ValueError as err:
        raise InvariantViolationError("malformed scl LP: %s" % err) from err
    return Encoding(prepared, scale, rectangles, pieces, dummy_types, lp,
                    tuple(meta))


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
    key = scale_chain(enc.chain, qq(1, g))
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
    _scl_cache[key] = _scaled(result, qq(1, g))
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

def _integer_counts(encoding, result):
    """(N, rectangle counts, piece counts): the vertex times the lcm N of
    its denominators, doubled if a self-reverse dummy type then has odd
    usage, so that its side instances can pair among themselves."""
    nrect = len(encoding.rectangles)
    n = denominator_lcm(result.primal)
    counts = [w.numerator * n // w.denominator for w in result.primal]
    used = [(c, p) for c, p in zip(counts[nrect:], encoding.pieces) if c]
    # safety code, unreached so far: no optimal vertex seen uses a loop dummy
    if any(sum(p.count(d) * c for c, p in used) % 2
           for d in encoding.dummy_types if d[1] == d[2]):
        n *= 2
        counts = [2 * c for c in counts]
    return n, counts[:nrect], counts[nrect:]


def _pair_dummies(pieces, piece_counts):
    """Pair off the dummy side instances (piece, copy, side): the k-th
    instance of a dummy type in position order with the k-th of its
    reverse.  Returns the pairing as an involution on instances."""
    instances = {}  # dummy type -> its instances in position order
    for pi, piece in enumerate(pieces):
        for copy in range(piece_counts[pi]):
            for j, s in enumerate(piece):
                if s[0]:
                    instances.setdefault(s, []).append((pi, copy, j))
    partner = {}
    for d, mine in instances.items():
        r = (1, d[2], d[1])
        theirs = instances.get(r, [])
        if len(theirs) != len(mine):
            raise InvariantViolationError("unbalanced dummy usage")
        if d == r:  # a loop pairs among itself (unreached, as above)
            if len(mine) % 2 != 0:
                raise InvariantViolationError("odd self-reverse dummy usage")
            mine, theirs = mine[0::2], mine[1::2]
        elif r < d:
            continue
        for a, b in zip(mine, theirs):
            partner[a] = b
            partner[b] = a
    return partner


def _trace_boundary(encoding, rect_counts, piece_counts, partner):
    """Trace the boundary into circles: (circles, arc_at), where arc_at
    maps each letter arc (rect, role, copy) to (circle, position).

    Copy k of a rectangle is glued to the k-th instance of each of its
    sides in position order.  After the arc of a copy in role p (side 1
    starts at the corner after p, side 2 after q), the boundary goes on
    along the real side before that side around their polygon: step back
    one side in the piece and, while that side is a dummy, jump to its
    partner and step back again.
    """
    pieces, rects = encoding.pieces, encoding.rectangles
    glued = {}  # real side instance (piece, copy, j) -> (rect, which, copy)
    used = {}  # real side -> its instances so far
    for pi, piece in enumerate(pieces):
        for copy in range(piece_counts[pi]):
            for j, s in enumerate(piece):
                if not s[0]:
                    used[s] = used.get(s, 0) + 1
                    glued[(pi, copy, j)] = (s[1], s[2], used[s] - 1)
    if any(used.get((0, ri, which), 0) != c
           for ri, c in enumerate(rect_counts) for which in (1, 2)):
        raise InvariantViolationError(
            "side usage does not match rectangle count")
    instance = {g: pos for pos, g in glued.items()}
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
            pi, c, j = instance[(ri, 1 if role == "p" else 2, copy)]
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

    The vertex is scaled to integer piece and rectangle counts, each
    dummy side instance is paired with one of the reverse type, and the
    boundary is traced into circles by walking back from each glued side
    to the previous real side of its polygon.  The rectangles become the
    bands of a band surface over the circles, which surfcert checks: its
    chi (counted by corner orbits) must equal the pieces' chi and the LP
    optimum, and its boundary must be N times the encoded chain, where N
    is the scaling; any disagreement raises InvariantViolationError.
    """
    n, rect_counts, piece_counts = _integer_counts(encoding, result)
    partner = _pair_dummies(encoding.pieces, piece_counts)
    circles, arc_at = _trace_boundary(encoding, rect_counts, piece_counts,
                                      partner)
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
    if -qq(chi_formula) != qq(n) * result.value:
        raise InvariantViolationError("chi does not match the LP optimum")
    return bands._replace(degree=n)
