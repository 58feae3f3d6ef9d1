"""Surface certificates from arc systems and pairings.

A band surface is described by a collection of boundary cycles (cyclic
words) together with a perfect pairing of their letters into bands: each
band joins a letter to an occurrence of its inverse.  The complementary
polygons are the orbits of the corner permutation, and the Euler
characteristic is (#polygons - #bands).  Such a surface bounds the sum
of its cycles, so -chi/(2n) is an upper bound for scl of the chain it
covers n times; equality is an extremality certificate.
"""

from dataclasses import dataclass, replace

from .chainexpr import format_chain, parse_chain
from .errors import InvariantViolationError, ResourceLimitError
from .freegroup import (Chain, ChainTerm, Word, canonicalize, letter_to_char,
                        prepare, scale_chain, word)
from .rational import ONE, qq


@dataclass(frozen=True)
class ArcSystem:
    """Boundary cycles of a band surface; each letter is an arc."""

    cycles: tuple  # of Word, all the same rank
    rank: int

    def __post_init__(self):
        for w in self.cycles:
            if not isinstance(w, Word) or len(w) == 0:
                raise ValueError("cycles must be nonempty words")
            if w.rank != self.rank:
                raise ValueError("cycle rank mismatch")

    def arcs(self):
        return [(i, j) for i, w in enumerate(self.cycles)
                for j in range(len(w))]

    def letter(self, arc):
        return self.cycles[arc[0]].letters[arc[1]]


def arc_system(cycle_words, rank=None):
    """Build an ArcSystem from words or strings."""
    cycles = []
    for w in cycle_words:
        cycles.append(w if isinstance(w, Word) else word(w, rank))
    if rank is None:
        rank = max((w.rank for w in cycles), default=1)
    cycles = tuple(Word(w.letters, rank) if w.rank != rank else w
                   for w in cycles)
    return ArcSystem(cycles, rank)


@dataclass(frozen=True)
class Matching:
    """A perfect pairing of arcs into bands (inverse letters only)."""

    system: ArcSystem
    pairs: tuple  # of ((i, j), (i, j)), each pair sorted, pairs sorted

    def __post_init__(self):
        arcs = set(self.system.arcs())
        seen = set()
        for a, b in self.pairs:
            for x in (a, b):
                if x not in arcs:
                    raise ValueError("unknown arc %r" % (x,))
                if x in seen:
                    raise ValueError("arc %r paired twice" % (x,))
                seen.add(x)
            if self.system.letter(a) != -self.system.letter(b):
                raise ValueError(
                    "pair %r, %r does not join inverse letters" % (a, b))
        if len(seen) != len(arcs):
            raise ValueError("matching must cover every arc")

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


def _corner_orbits(m):
    """Orbits of the corner permutation.

    The corner after arc a is sent to the corner after the predecessor
    of a's partner: crossing a's band lands just before the partner arc.
    """
    partner = m.partner()
    sigma = {}
    for a in m.system.arcs():
        sigma[a] = _pred(m.system, partner[a])
    orbits = []
    seen = set()
    for a in sorted(sigma):
        if a in seen:
            continue
        orbit = []
        cur = a
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = sigma[cur]
        orbits.append(orbit)
    return orbits


def euler_characteristic(m):
    """chi of the band surface: polygons minus bands."""
    return len(_corner_orbits(m)) - len(m.pairs)


@dataclass(frozen=True)
class SurfaceCertificate:
    """A verified surface: chi, the chain its boundary covers, and the
    covering degree."""

    chi: int
    degree: int
    boundary: Chain  # canonical form of the full boundary


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
    return -qq(certificate.chi) / (2 * mult)


def search_matching_arcs(system, max_nodes=10 ** 7):
    """Maximize chi over all pairings of an arc system, exhaustively.

    Branch and bound: arcs are matched in index order; closing a corner
    cycle is detected by union-find, and a branch is cut when even one
    new cycle per remaining unmatched arc cannot beat the best chi.
    Returns (chi, Matching); deterministic (first optimum found wins).
    """
    arcs = system.arcs()
    n_arcs = len(arcs)
    index = {a: k for k, a in enumerate(arcs)}
    letters = [system.letter(a) for a in arcs]
    pred_gap = [index[_pred(system, a)] for a in arcs]
    by_letter = {}
    for k, x in enumerate(letters):
        by_letter.setdefault(x, []).append(k)
    for x, group in by_letter.items():
        if len(group) != len(by_letter.get(-x, [])):
            raise ValueError("letters do not pair up; no matching exists")

    parent = list(range(n_arcs))
    size = [1] * n_arcs
    trail = []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def link(u, v):
        # directed corner step u -> v; returns cycles closed (0 or 1)
        ru, rv = find(u), find(v)
        if ru == rv:
            trail.append(None)
            return 1
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        trail.append((ru, rv))
        return 0

    def unlink():
        entry = trail.pop()
        if entry is not None:
            ru, rv = entry
            parent[rv] = rv
            size[ru] -= size[rv]

    matched = [False] * n_arcs
    total_pairs = n_arcs // 2
    best = {"chi": None, "pairs": None}
    state = {"nodes": 0, "closed": 0, "unmatched": n_arcs}
    chosen = []

    def recurse(start):
        state["nodes"] += 1
        if state["nodes"] > max_nodes:
            raise ResourceLimitError(
                "matching search exceeded %d nodes" % max_nodes)
        a = start
        while a < n_arcs and matched[a]:
            a += 1
        if a == n_arcs:
            chi = state["closed"] - total_pairs
            if best["chi"] is None or chi > best["chi"]:
                best["chi"] = chi
                best["pairs"] = tuple(chosen)
            return
        for b in by_letter.get(-letters[a], ()):
            if matched[b] or b == a:
                continue
            matched[a] = matched[b] = True
            closed = link(a, pred_gap[b]) + link(b, pred_gap[a])
            state["closed"] += closed
            state["unmatched"] -= 2
            # each unset corner step can close at most one new cycle
            bound = state["closed"] + state["unmatched"] - total_pairs
            if best["chi"] is None or bound > best["chi"]:
                chosen.append((arcs[a], arcs[b]))
                recurse(a + 1)
                chosen.pop()
            state["unmatched"] += 2
            state["closed"] -= closed
            unlink()
            unlink()
            matched[a] = matched[b] = False

    try:
        recurse(0)
    except RecursionError:
        raise ResourceLimitError(
            "matching search too deep for the stack") from None
    return best["chi"], matching(system, best["pairs"])


def search_matching(chain, n=1, max_nodes=10 ** 7):
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
    cert = replace(certificate_from_matching(m), degree=n)
    if cert.chi != chi:
        raise InvariantViolationError("search chi %d disagrees with "
                                      "corner-orbit chi %d" % (chi, cert.chi))
    target = canonicalize(scale_chain(prepared, n))
    if cert.boundary.terms != target.terms:
        raise InvariantViolationError(
            "search certificate bounds the wrong chain")
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
    ValueError naming its line, as is a degree below 1; so is a boundary
    that is not degree times the prepared chain of the file."""
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
