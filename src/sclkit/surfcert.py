"""Surface certificates from arc systems and pairings.

A band surface is described by a collection of boundary cycles (cyclic
words) together with a perfect pairing of their letters into bands: each
band joins a letter to an occurrence of its inverse.  The complementary
polygons are the orbits of the corner permutation, and the Euler
characteristic is (#polygons - #bands).  Such a surface bounds the sum
of its cycles, so -chi/(2n) is an upper bound for scl of the chain it
covers n times; equality is an extremality certificate.
"""

from collections import namedtuple

from .chainexpr import format_chain, parse_chain
from .errors import InvariantViolationError, ResourceLimitError
from .freegroup import (Chain, ChainTerm, Word, canonicalize, letter_to_char,
                        prepare, scale_chain, word)
from .rational import ONE, QQ


class ArcSystem(namedtuple("ArcSystem", "cycles rank")):
    """Boundary cycles of a band surface, a tuple of Words all of the
    given rank; each letter is an arc."""

    __slots__ = ()

    def __new__(cls, cycles, rank):
        for w in cycles:
            if not isinstance(w, Word) or len(w) == 0:
                raise ValueError("cycles must be nonempty words")
            if w.rank != rank:
                raise ValueError("cycle rank mismatch")
        return super().__new__(cls, cycles, rank)

    def arcs(self):
        return [(i, j) for i, w in enumerate(self.cycles)
                for j in range(len(w))]

    def letter(self, arc):
        return self.cycles[arc[0]].letters[arc[1]]


class Matching(namedtuple("Matching", "system pairs")):
    """A perfect pairing of arcs into bands (inverse letters only): pairs
    is a tuple of ((i, j), (i, j)), each pair sorted, pairs sorted."""

    __slots__ = ()

    def __new__(cls, system, pairs):
        arcs = set(system.arcs())
        seen = set()
        for a, b in pairs:
            for x in (a, b):
                if x not in arcs:
                    raise ValueError("unknown arc %r" % (x,))
                if x in seen:
                    raise ValueError("arc %r paired twice" % (x,))
                seen.add(x)
            if system.letter(a) != -system.letter(b):
                raise ValueError(
                    "pair %r, %r does not join inverse letters" % (a, b))
        if len(seen) != len(arcs):
            raise ValueError("matching must cover every arc")
        return super().__new__(cls, system, pairs)

    def partner(self):
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out


def matching(system, pairs):
    """Normalize and validate a pairing."""
    norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
    return Matching(system, norm)


def _pred(system, arc):
    i, j = arc
    return (i, (j - 1) % len(system.cycles[i]))


def euler_characteristic(m):
    """chi of the band surface: polygons minus bands.

    The polygons are the orbits of the corner permutation: the corner
    after arc a is sent to the corner after the predecessor of a's
    partner, since crossing a's band lands just before the partner arc.
    """
    partner = m.partner()
    seen, orbits = set(), 0
    for a in m.system.arcs():
        if a not in seen:
            orbits += 1
            while a not in seen:
                seen.add(a)
                a = _pred(m.system, partner[a])
    return orbits - len(m.pairs)


class SurfaceCertificate(namedtuple("SurfaceCertificate",
                                    "chi degree boundary")):
    """A verified surface: chi, the covering degree, and the canonical
    chain its full boundary covers."""

    __slots__ = ()


def boundary_chain(system):
    """The canonical chain bounded by a band surface over the system."""
    terms = tuple(ChainTerm(ONE, w) for w in system.cycles)
    return canonicalize(Chain(terms, system.rank))


def certificate_from_matching(m):
    """Package a matching as a certificate."""
    return SurfaceCertificate(chi=euler_characteristic(m), degree=1,
                              boundary=boundary_chain(m.system))


def extremality_ratio(certificate, chain):
    """The scl upper bound -chi / (2 * multiplicity) the certificate realizes.

    The multiplicity is the rational m with boundary = m * chain in
    canonical form; raises ValueError when the boundary is not a multiple
    of the chain.  The certificate is extremal exactly when the returned
    value equals scl(chain); the caller owns that comparison (this
    function never solves the linear program).
    """
    target = canonicalize(chain)
    boundary = canonicalize(certificate.boundary)
    if target.is_empty() or boundary.is_empty():
        raise ValueError("extremality needs nonzero chains")
    if len(boundary.terms) != len(target.terms):
        raise ValueError("certificate boundary is not a multiple of the chain")
    mult = boundary.terms[0].coefficient / target.terms[0].coefficient
    if (mult <= 0 or boundary.rank != target.rank
            or boundary.terms != scale_chain(target, mult).terms):
        raise ValueError("certificate boundary is not a multiple of the chain")
    return -QQ(certificate.chi) / (2 * mult)


# the default node cap of the matching search
MAX_NODES = 10 ** 7


def search_matching_arcs(system, max_nodes=MAX_NODES):
    """Maximize chi over all pairings of an arc system, exhaustively.

    Branch and bound: the lowest unmatched arc a is matched first, each
    pairing adds the corner steps a -> pred(b) and b -> pred(a), and a
    corner cycle closes when a step joins the two ends of one open path
    (each path is known by its ends).
    Returns (chi, Matching); deterministic: the first optimum in this
    depth-first order wins.  Two prunings cut branches that cannot hold
    that optimum, so they change neither chi nor the pairs.

    Copy symmetry.  A partner b of a in cycle j is skipped when cycle j-1
    spells the same word, neither cycle has a matched arc yet, and a is
    not in cycle j-1.  A corner step touches only matched arcs and their
    predecessors, so no step touches either cycle, and swapping the two
    copies maps the state, and a, to themselves.  The swap then maps the
    pairings that contain (a, b) one to one, chi for chi, onto those that
    contain (a, b'), b' the copy of b in cycle j-1, which come first.  If
    a is in cycle j-1 the swap moves a, so that case is not skipped.

    Bound.  The corner steps made so far form closed cycles and open
    paths, one open path ending at each unmatched arc, and each cycle
    still to close joins one or more of them.  A path of one arc u closes
    alone only if u's partner is the arc after u, which then carries u's
    inverse letter; no cyclically reduced cycle has such an arc, and
    search_matching builds only those.  Let S count the one-arc paths
    that cannot close alone, and M the other open paths.  A cycle still
    to close that joins none of the M joins two or more of the S, so at
    most M + S // 2 more cycles close; a branch is cut when that cannot
    beat the best chi.
    """
    arcs = system.arcs()
    n_arcs = len(arcs)
    index = {a: k for k, a in enumerate(arcs)}
    letters = [system.letter(a) for a in arcs]
    pred_gap = [index[_pred(system, a)] for a in arcs]
    succ = [index[(i, (j + 1) % len(system.cycles[i]))] for i, j in arcs]
    by_letter = {}
    for k, x in enumerate(letters):
        by_letter.setdefault(x, []).append(k)
    for x, group in by_letter.items():
        if len(group) != len(by_letter.get(-x, [])):
            raise ValueError("letters do not pair up; no matching exists")
    cycle_of = [i for i, _ in arcs]
    # twin[i]: cycle i spells the same word as cycle i - 1
    twin = [i > 0 and w == system.cycles[i - 1]
            for i, w in enumerate(system.cycles)]
    touched = [0] * len(system.cycles)  # matched arcs per cycle
    partner = [-1] * n_arcs
    # end[x]: the arc at the other end of x's open corner path, read only
    # at path ends; a step u -> v leaves u, the last arc of its path, and
    # enters v, the first arc of its path
    end = list(range(n_arcs))

    def single(u):
        # u is unmatched, no corner step touches it, and the arc after it
        # does not carry its inverse letter
        s = succ[u]
        return partner[u] < 0 and partner[s] < 0 and letters[s] != -letters[u]

    total_pairs = n_arcs // 2
    best_chi = best_pairs = None
    nodes = 0

    def recurse(start, closed, unmatched, singles):
        nonlocal best_chi, best_pairs, nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(
                "matching search exceeded %d nodes" % max_nodes)
        a = start
        while a < n_arcs and partner[a] >= 0:
            a += 1
        if a == n_arcs:
            chi = closed - total_pairs
            if best_chi is None or chi > best_chi:
                best_chi = chi
                best_pairs = [(arcs[u], arcs[v])
                              for u, v in enumerate(partner) if u < v]
            return
        ca, pa = cycle_of[a], pred_gap[a]
        for b in by_letter.get(-letters[a], ()):
            cb, pb = cycle_of[b], pred_gap[b]
            if partner[b] >= 0 or (twin[cb] and cb - 1 != ca
                                   and not touched[cb]
                                   and not touched[cb - 1]):
                continue
            # a and b get matched, pred(b) and pred(a) a step in: none
            # of the four is a one-arc path afterwards
            now_singles = singles - sum(map(single, {a, b, pa, pb}))
            partner[a], partner[b] = b, a
            touched[ca] += 1
            touched[cb] += 1
            # the steps a -> pb and b -> pa; a step closes a cycle when it
            # enters the first arc of its own path, and otherwise joins
            # two paths into one (in the closing case both writes are
            # no-ops)
            h1, t1 = end[a], end[pb]
            end[h1], end[t1] = t1, h1
            h2, t2 = end[b], end[pa]
            end[h2], end[t2] = t2, h2
            now_closed = closed + (h1 == pb) + (h2 == pa)
            # M + S // 2 = unmatched - ceil(S / 2) cycles can still close
            bound = (now_closed + unmatched - 2 - (now_singles + 1) // 2
                     - total_pairs)
            if best_chi is None or bound > best_chi:
                recurse(a + 1, now_closed, unmatched - 2, now_singles)
            end[h2], end[t2] = b, pa
            end[h1], end[t1] = a, pb
            touched[ca] -= 1
            touched[cb] -= 1
            partner[a] = partner[b] = -1

    try:
        recurse(0, 0, n_arcs, sum(map(single, range(n_arcs))))
    except RecursionError:
        raise ResourceLimitError(
            "matching search too deep for the stack") from None
    return best_chi, matching(system, best_pairs)


def search_matching(chain, n=1, max_nodes=MAX_NODES):
    """Best band surface whose boundary covers the chain n times.

    The chain is prepared (integer positive coefficients) and each term
    contributes n * coefficient cycle copies.  Returns the certificate
    of the chi-maximal pairing, of degree n, and the pairing; -chi/(2n)
    is then an upper bound for scl of the prepared chain (0 for a chain
    that prepares to zero: no arcs, the empty surface).
    """
    if n < 1:
        raise ValueError("degree must be positive, got %d" % n)
    prepared, _ = prepare(chain)
    system = ArcSystem(tuple(t.word for t in prepared.terms
                             for _ in range(int(t.coefficient) * n)),
                       prepared.rank)
    chi, m = search_matching_arcs(system, max_nodes=max_nodes)
    cert = certificate_from_matching(m)._replace(degree=n)
    if cert.chi != chi:
        raise InvariantViolationError("search chi %d disagrees with "
                                      "corner-orbit chi %d" % (chi, cert.chi))
    return cert, m


# ---------------------------------------------------------------------------
# certificate files

def write_certificate(m, chain, degree):
    """Serialize a matching, the chain it covers and its degree as text."""
    lines = ["rank %d" % m.system.rank]
    for i, w in enumerate(m.system.cycles):
        lines.append("cycle %d: %s"
                     % (i, " ".join(letter_to_char(x) for x in w.letters)))
    for a, b in m.pairs:
        lines.append("pair %d.%d %d.%d" % (a[0], a[1], b[0], b[1]))
    lines += ["chain %s" % format_chain(chain), "degree %d" % degree]
    return "\n".join(lines) + "\n"


def read_certificate(text):
    """Parse the textual format; returns (Matching, chain, degree).

    A repeated cycle id, or a second rank, chain or degree line, is a
    ValueError naming its line, as is a negative rank or a degree below 1;
    so is a boundary that is not degree times the prepared chain of the
    file."""
    rank = None
    cycles = {}
    pairs = []
    chain = None
    degree = None
    seen = set()  # the directives met so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        try:
            if key in ("rank", "chain", "degree") and key in seen:
                raise ValueError("repeated %s line" % key)
            seen.add(key)
            if key == "rank":
                rank = int(rest)
                if rank < 0:
                    raise ValueError("rank must be nonnegative, got %d" % rank)
            elif key == "cycle":
                if rank is None:
                    raise ValueError("rank must come before cycles")
                ident, letters = rest.split(":", 1)
                ident = int(ident)
                if ident in cycles:
                    raise ValueError("repeated cycle %d" % ident)
                cycles[ident] = word("".join(letters.split()), rank)
            elif key == "pair":
                ends = rest.split()
                if len(ends) != 2:
                    raise ValueError("pair needs two arcs")
                pair = []
                for end in ends:
                    ci, ai = end.split(".")
                    pair.append((int(ci), int(ai)))
                pairs.append(tuple(pair))
            elif key == "chain":
                chain = parse_chain(rest, min_rank=rank or 1).chain
            elif key == "degree":
                degree = int(rest)
                if degree < 1:
                    raise ValueError("degree must be positive, got %d" % degree)
            else:
                raise ValueError("unknown directive %r" % key)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
    if rank is None:
        raise ValueError("missing rank line")
    if sorted(cycles) != list(range(len(cycles))):
        raise ValueError("cycle ids must be 0..k-1")
    system = ArcSystem(tuple(cycles[i] for i in range(len(cycles))), rank)
    if chain is not None and degree is not None:
        prepared, _ = prepare(chain)
        want = canonicalize(scale_chain(prepared, degree))
        if boundary_chain(system).terms != want.terms:
            raise ValueError("boundary is not %d times the prepared chain"
                             % degree)
    return matching(system, pairs), chain, degree
