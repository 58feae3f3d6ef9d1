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
"""

from collections import OrderedDict
from dataclasses import dataclass

from . import surfcert
from .errors import InvariantViolationError, ResourceLimitError
from .freegroup import (Chain, Word, canonicalize, is_cyclically_reduced,
                        prepare, require_boundary, scale_chain)
from .rational import ZERO, denominator_lcm, qq
from .ratlp import LinearProgram, solve_min, verify


@dataclass(frozen=True)
class RectangleVar:
    """Pairs slots p, q carrying exactly inverse letters.

    Side 1 runs from the corner after p to the corner before q; side 2
    from the corner after q to the corner before p.
    """

    p: tuple  # letter slot (term, pos)
    q: tuple
    s1: tuple  # (start corner, end corner), each (term, gap)
    s2: tuple


@dataclass(frozen=True)
class Encoding:
    """The LP of a prepared chain and the names of its rows and columns.

    A letter slot is (term, pos), and the corner (term, gap) after it is
    the same tuple.  A real side, one of the two wedge-point sides of a
    rectangle, is (0, rect, which); a dummy side, a gluing diagonal, is
    (1, start corner, end corner).  A piece is the tuple of its sides in
    cyclic order, starting at its least side.  Each tuple is its own sort
    key: tuples compare entry by entry, so the tag puts every real side
    before every dummy side, and no key is kept beside them.  The columns
    are the rectangles, then the pieces, bigons before triangles, each in
    tuple order; the dummy rows follow dummy_types.
    """

    chain: Chain  # prepared: cyclic words, positive integer coefficients
    scale: object  # rational multiplier that made the input integral
    slots: tuple
    rectangles: tuple
    pieces: tuple
    dummy_types: tuple  # dummy sides appearing in pieces, in tuple order
    lp: LinearProgram
    row_meta: tuple  # ("cover", slot) / ("side", rect, which) / ("dummy", d)


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
                % str(t.word))


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
                rects.append(RectangleVar(p, q, s1, s2))
    return tuple(rects)


def enumerate_pieces(chain, rectangles=None):
    """All corner-compatible bigons (two rectangle sides) and triangles
    (at least one rectangle side, dummy diagonals for the rest).

    A piece is the tuple of its sides, real (0, rect, which) or dummy
    (1, start, end), rotated to start at its least side; the pieces come
    bigons first, then triangles, each in tuple order, which is the
    column order of build_lp.  Corners are numbered in sorted order, so
    each dummy side is built once.
    """
    _check_cyclic_words(chain)
    if rectangles is None:
        rectangles = enumerate_rectangles(chain)
    corners = _slots(chain)  # the corner after each slot, in sorted order
    index = {c: i for i, c in enumerate(corners)}
    dummy = [[(1, a, b) for b in corners] for a in corners]
    # real side table: (side, start corner index, end corner index)
    sides = [((0, ri, which), index[a], index[b])
             for ri, rect in enumerate(rectangles)
             for which, (a, b) in ((1, rect.s1), (2, rect.s2))]
    starts = [[] for _ in corners]
    for entry in sides:
        starts[entry[1]].append(entry)
    bigons, triangles = [], []
    for s1, a1, b1 in sides:
        # bigons and 2-real triangles: second side continues from b1
        for s2, a2, b2 in starts[b1]:
            if s2 == s1:
                continue  # needs b1 == a1, impossible for cyclic words
            if b2 == a1 and s1 < s2:
                bigons.append((s1, s2))
            # the sides are distinct and every dummy exceeds every real
            # side, so the least rotation starts at the lesser real side
            d = dummy[b2][a1]
            triangles.append((s1, s2, d) if s1 < s2 else (s2, d, s1))
            # 3-real triangles, s1 strictly minimal to dedupe rotations
            if s2 > s1:
                for s3, a3, b3 in starts[b2]:
                    if b3 == a1 and s3 > s1:
                        triangles.append((s1, s2, s3))
        # 1-real triangles: both other sides are dummies through corner x
        # (the one real side comes first, so the rotation is least)
        for x in range(len(corners)):
            triangles.append((s1, dummy[b1][x], dummy[x][a1]))
    return tuple(sorted(bigons) + sorted(triangles))


# the few exact values that LP entries and piece costs take
_ONE = qq(1)
_NET = {k: qq(k) for k in range(-3, 4)}
_PIECE_COST = {k: qq(k - 2, 2) for k in range(4)}  # by dummy side count


def build_lp(chain, max_letters=24):
    """Assemble the full encoding of a homologically trivial chain.

    The chain is prepared first (integer positive coefficients); the LP
    minimizes  sum(r) + sum(dummy_count/2 - 1, weighted)  which equals
    -chi of the assembled surface at degree one.

    The rows are assembled in time linear in their nonzeros.  Each row's
    index is fixed up front: one cover row per letter slot, then side
    rows (rect, 1) and (rect, 2), then one row per pair of mutually
    reverse dummy sides, which a dummy side enters with sign +1 when it
    is the smaller tuple of the pair and -1 otherwise.  Each rectangle
    writes its cover and side entries, and one pass over the pieces, in
    column order, appends each piece's net usage to the rows it touches.
    Sides are their own keys (see Encoding), so nothing maps them to rows
    but the dummy pairs' (row, sign).
    """
    prepared, scale = prepare(chain)
    _check_letters(sum(len(t.word) for t in prepared.terms), max_letters)
    rectangles = enumerate_rectangles(prepared)
    pieces = enumerate_pieces(prepared, rectangles)
    slots = _slots(prepared)
    nrect = len(rectangles)
    ncover = len(slots)

    dummy_types = {s for p in pieces for s in p if s[0]}
    dummy_row = {}  # dummy side -> (row, sign); loops have no row
    meta = [("cover", slot) for slot in slots]
    meta += [("side", ri, which)
             for ri in range(nrect) for which in (1, 2)]
    for d in sorted(dummy_types):
        r = (1, d[2], d[1])
        if r not in dummy_types:
            raise InvariantViolationError(
                "dummy type %r lacks its reverse" % (d,))
        if d < r:
            dummy_row[d] = (len(meta), 1)
            dummy_row[r] = (len(meta), -1)
            meta.append(("dummy", d))

    rows = [[] for _ in meta]
    # coverage: per letter slot, incident rectangle weights sum to the
    # term coefficient; side matching: rectangle weight equals the total
    # piece usage of the side
    cover = {slot: i for i, slot in enumerate(slots)}
    for ri, rect in enumerate(rectangles):
        rows[cover[rect.p]].append((ri, _ONE))
        rows[cover[rect.q]].append((ri, _ONE))
        rows[ncover + 2 * ri].append((ri, _ONE))
        rows[ncover + 2 * ri + 1].append((ri, _ONE))
    # dummy matching: usage of each ordered pair equals usage of its
    # reverse (loops are self-paired and give no constraint)
    objective = [_ONE] * nrect
    for col, p in enumerate(pieces, nrect):
        net = {}
        dummies = 0
        for s in p:
            if s[0]:
                dummies += 1
                entry = dummy_row.get(s)
                if entry is not None:
                    net[entry[0]] = net.get(entry[0], 0) + entry[1]
            else:
                r = ncover + 2 * s[1] + s[2] - 1
                net[r] = net.get(r, 0) - 1
        for r, v in net.items():
            if v:
                rows[r].append((col, _NET[v]))
        objective.append(_PIECE_COST[dummies])

    rhs = [qq(prepared.terms[term].coefficient) for term, _ in slots]
    rhs += [ZERO] * (len(meta) - ncover)
    lp = LinearProgram(nrect + len(pieces), tuple(map(tuple, rows)),
                       tuple(rhs), tuple(objective))
    return Encoding(prepared, scale, tuple(slots), rectangles, pieces,
                    tuple(sorted(dummy_types)), lp, tuple(meta))


# canonical chain -> (scl, prepared letter count, pivot count), least
# recently used first; the counts replay the resource caps on a hit
_scl_cache = OrderedDict()
_SCL_CACHE_SIZE = 4096


def _check_letters(total_letters, max_letters):
    if total_letters > max_letters:
        raise ResourceLimitError(
            "chain has %d letters, cap is %d" % (total_letters, max_letters))


def solve_chain(chain, max_letters=24, max_pivots=10 ** 6):
    """Canonicalize, encode, solve, and verify; returns (encoding, result).

    The LP optimum is result.value; scl is result.value / (2 * scale).
    Returns (None, None) for chains that canonicalize to zero.
    """
    cchain = canonicalize(chain)
    require_boundary(cchain)
    if cchain.is_empty():
        return None, None
    enc = build_lp(cchain, max_letters=max_letters)
    result = solve_min(enc.lp, max_pivots=max_pivots)
    if result.status != "optimal":
        raise InvariantViolationError(
            "scl encoding must be feasible and bounded, got %s" % result.status)
    if not verify(enc.lp, result):
        raise InvariantViolationError("LP duality certificate failed")
    if result.value < 0:
        raise InvariantViolationError("scl encoding produced a negative optimum")
    return enc, result


def scl(chain, max_letters=24, max_pivots=10 ** 6):
    """Exact stable commutator length of a homologically trivial chain.

    Results are cached by canonical chain.  A hit raises
    ResourceLimitError exactly when a fresh solve under the given caps
    would: the pivot count is a property of the LP, not of the run.
    """
    key = canonicalize(chain)
    require_boundary(key)
    cached = _scl_cache.get(key)
    if cached is not None:
        value, letters, pivots = cached
        _check_letters(letters, max_letters)
        if pivots > max_pivots:
            raise ResourceLimitError("pivot cap exceeded (%d)" % max_pivots)
        _scl_cache.move_to_end(key)
        return value
    enc, result = solve_chain(key, max_letters=max_letters,
                              max_pivots=max_pivots)
    if enc is None:
        cached = (ZERO, 0, 0)
    else:
        letters = sum(len(t.word) for t in enc.chain.terms)
        cached = (result.value / (2 * enc.scale), letters, result.pivots)
    _scl_cache[key] = cached
    if len(_scl_cache) > _SCL_CACHE_SIZE:
        _scl_cache.popitem(last=False)
    return cached[0]


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
    if any(c * w.denominator != w.numerator * n
           for w, c in zip(result.primal, counts)):
        raise InvariantViolationError("vertex scaling failed")
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
        cur, letters, terms = start, [], set()
        while cur not in arc_at:
            ri, role, copy = cur
            slot = rects[ri].p if role == "p" else rects[ri].q
            arc_at[cur] = (len(circles), len(letters))
            letters.append(_letter(encoding.chain, slot))
            terms.add(slot[0])
            pi, c, j = instance[(ri, 1 if role == "p" else 2, copy)]
            j = (j - 1) % len(pieces[pi])
            while pieces[pi][j][0]:  # a dummy side: go on through its partner
                pi, c, j = partner[(pi, c, j)]
                j = (j - 1) % len(pieces[pi])
            ri, which, copy = glued[(pi, c, j)]
            cur = (ri, "q" if which == 1 else "p", copy)
        if len(terms) != 1:
            raise InvariantViolationError("boundary circle mixes chain terms")
        if len(letters) % len(encoding.chain.terms[terms.pop()].word) != 0:
            raise InvariantViolationError("boundary circle length mismatch")
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
    return surfcert.SurfaceCertificate(
        chi=chi_formula, degree=n, boundary=bands.boundary,
        provenance="lp-decode")
