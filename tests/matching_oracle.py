"""The unpruned-by-symmetry matching search: the oracle for
sclkit.surfcert.search_matching_arcs.

This is the branch and bound that search_matching_arcs replaced.  It
treats the copies of a repeated cycle as different cycles, and it bounds
the cycles still to close by one per unmatched arc.  Both prunings of the
new search are valid and keep the depth-first order, so it must return
the same (chi, pairs): the first optimum in that order.
"""

from sclkit.errors import ResourceLimitError


def search_matching_arcs(system, max_nodes):
    """(chi, pairs) of the first chi-maximal pairing in depth-first order,
    pairs as the sorted tuple search_matching_arcs' Matching holds."""
    arcs = system.arcs()
    n_arcs = len(arcs)
    index = {a: k for k, a in enumerate(arcs)}
    letters = [system.letter(a) for a in arcs]
    pred_gap = [index[(i, (j - 1) % len(system.cycles[i]))] for i, j in arcs]
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
            if matched[b]:
                continue
            matched[a] = matched[b] = True
            closed = link(a, pred_gap[b]) + link(b, pred_gap[a])
            state["closed"] += closed
            state["unmatched"] -= 2
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

    recurse(0)
    pairs = tuple(sorted(tuple(sorted(p)) for p in best["pairs"]))
    return best["chi"], pairs
