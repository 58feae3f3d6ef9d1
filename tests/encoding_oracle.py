"""Dict-per-row LP assembly: the oracle for sclkit.sclenc.build_lp.

This is the straightforward encoder that build_lp replaced.  It scans
every pair of letter slots for rectangles, tries every rotation of each
piece for the least one, and fills each side and dummy row by looking
every piece up in turn, so it is quadratic in the chain length.
build_lp must return an equal (==) Encoding: the same LP, rows, pieces
and dummy types, in the same order.
"""

from sclkit.errors import InvariantViolationError, ResourceLimitError
from sclkit.freegroup import prepare
from sclkit.rational import ZERO, qq
from sclkit.ratlp import LinearProgram
from sclkit.sclenc import Encoding, RectangleVar

# slots and corners are (term, pos); sides are (0, rect, which) or
# (1, start corner, end corner); a piece is the tuple of its sides


def _real(rect, which):
    return (0, rect, which)


def _dummy(start, end):
    return (1, start, end)


def _is_dummy(side):
    return side[0] == 1


def _letter(chain, slot):
    return chain.terms[slot[0]].word.letters[slot[1]]


def _slots(chain):
    return [(i, j) for i, t in enumerate(chain.terms)
            for j in range(len(t.word))]


def _corner_after(slot):
    return slot


def _corner_before(chain, slot):
    n = len(chain.terms[slot[0]].word)
    return (slot[0], (slot[1] - 1) % n)


def enumerate_rectangles(chain):
    slots = _slots(chain)
    rects = []
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            p, q = slots[a], slots[b]
            if _letter(chain, p) == -_letter(chain, q):
                s1 = (_corner_after(p), _corner_before(chain, q))
                s2 = (_corner_after(q), _corner_before(chain, p))
                rects.append(RectangleVar(p, q, s1, s2))
    return tuple(rects)


def _piece_key(piece):
    return (len(piece), piece)


def _rotate_min_first(sides):
    best = None
    for i in range(len(sides)):
        rot = sides[i:] + sides[:i]
        if best is None or rot < best:
            best = rot
    return best


def enumerate_pieces(chain, rectangles):
    sides = []
    for ri, rect in enumerate(rectangles):
        sides.append((_real(ri, 1), rect.s1[0], rect.s1[1]))
        sides.append((_real(ri, 2), rect.s2[0], rect.s2[1]))
    corners = sorted({_corner_after(s) for s in _slots(chain)})
    starts = {}
    for entry in sides:
        starts.setdefault(entry[1], []).append(entry)
    pieces = []
    for s1, a1, b1 in sides:
        for s2, a2, b2 in starts.get(b1, ()):
            if s2 == s1:
                continue
            if b2 == a1 and s1 < s2:
                pieces.append(_rotate_min_first((s1, s2)))
            pieces.append(_rotate_min_first((s1, s2, _dummy(b2, a1))))
            if s2 > s1:
                for s3, a3, b3 in starts.get(b2, ()):
                    if b3 == a1 and s3 > s1:
                        pieces.append(_rotate_min_first((s1, s2, s3)))
        for x in corners:
            pieces.append(
                _rotate_min_first((s1, _dummy(b1, x), _dummy(x, a1))))
    pieces.sort(key=_piece_key)
    return tuple(pieces)


def _dummy_reverse(d):
    return _dummy(d[2], d[1])


def build_lp(chain, max_letters=24):
    prepared, scale = prepare(chain)
    total = sum(len(t.word) for t in prepared.terms)
    if total > max_letters:
        raise ResourceLimitError(
            "chain has %d letters, cap is %d" % (total, max_letters))
    rectangles = enumerate_rectangles(prepared)
    pieces = enumerate_pieces(prepared, rectangles)
    slots = _slots(prepared)
    ncols = len(rectangles) + len(pieces)

    dummy_types = sorted({s for p in pieces for s in p if _is_dummy(s)})
    dummy_set = set(dummy_types)
    for d in dummy_types:
        if _dummy_reverse(d) not in dummy_set:
            raise InvariantViolationError(
                "dummy type %r lacks its reverse" % (d,))

    rows = []
    rhs = []
    meta = []
    for slot in slots:
        entries = {}
        for ri, rect in enumerate(rectangles):
            if rect.p == slot or rect.q == slot:
                entries[ri] = qq(1)
        rows.append(entries)
        rhs.append(qq(prepared.terms[slot[0]].coefficient))
        meta.append(("cover", slot))
    usage = []
    for p in pieces:
        u = {}
        for s in p:
            u[s] = u.get(s, 0) + 1
        usage.append(u)
    for ri in range(len(rectangles)):
        for which in (1, 2):
            side = _real(ri, which)
            entries = {ri: qq(1)}
            for pi, u in enumerate(usage):
                if side in u:
                    entries[len(rectangles) + pi] = qq(-u[side])
            rows.append(entries)
            rhs.append(ZERO)
            meta.append(("side", ri, which))
    for d in dummy_types:
        r = _dummy_reverse(d)
        if not d < r:
            continue
        entries = {}
        for pi, u in enumerate(usage):
            net = u.get(d, 0) - u.get(r, 0)
            if net != 0:
                entries[len(rectangles) + pi] = qq(net)
        rows.append(entries)
        rhs.append(ZERO)
        meta.append(("dummy", d))

    objective = [qq(1)] * len(rectangles)
    for p in pieces:
        objective.append(qq(sum(map(_is_dummy, p)) - 2, 2))

    lp = LinearProgram(
        ncols,
        tuple(tuple(sorted(e.items())) for e in rows),
        tuple(rhs),
        tuple(objective))
    return Encoding(prepared, scale, tuple(slots), rectangles, pieces,
                    tuple(dummy_types), lp, tuple(meta))
