"""Band surfaces from arc pairings: chi accounting and certificates."""

import itertools
import json
import pathlib

import pytest

from sclkit.chainexpr import parse_chain
from sclkit.cli import main
from sclkit.errors import ResourceLimitError
from sclkit.freegroup import canonicalize, prepare, scale_chain
from sclkit.rational import QQ, fmt
from sclkit.sclenc import scl
from sclkit.surfcert import (ArcSystem, boundary_chain,
                             certificate_from_matching, euler_characteristic,
                             extremality_ratio, matching, read_certificate,
                             search_matching, search_matching_arcs,
                             write_certificate)

import matching_oracle
from conftest import arc_system, chain, random_trivial_chain, seeded

PINS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"


def punctured_torus_matching():
    system = arc_system(["abAB"])
    return matching(system, [((0, 0), (0, 2)), ((0, 1), (0, 3))])


def annulus_matching():
    system = arc_system(["a", "A"])
    return matching(system, [((0, 0), (1, 0))])


def test_arc_system_basics():
    system = arc_system(["abAB", "BA"])
    assert system.rank == 2
    assert len(system.arcs()) == 6
    assert system.letter((1, 0)) == -2
    with pytest.raises(ValueError):
        arc_system(["aA"])  # reduces to the empty word


def test_matching_validation():
    system = arc_system(["abAB"])
    with pytest.raises(ValueError):
        matching(system, [((0, 0), (0, 1)), ((0, 2), (0, 3))])  # a with b
    with pytest.raises(ValueError):
        matching(system, [((0, 0), (0, 2))])  # not a perfect matching
    with pytest.raises(ValueError):
        matching(system, [((0, 0), (0, 2)), ((0, 0), (0, 2)),
                          ((0, 1), (0, 3))])
    with pytest.raises(ValueError):
        matching(system, [((0, 0), (0, 0)), ((0, 1), (0, 3))])


def test_chi_punctured_torus():
    m = punctured_torus_matching()
    assert euler_characteristic(m) == -1


def test_chi_annulus():
    m = annulus_matching()
    assert euler_characteristic(m) == 0


def components(m):
    """Connected components of the band surface: cycles joined by bands."""
    parent = list(range(len(m.system.cycles)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in m.pairs:
        parent[find(a[0])] = find(b[0])
    return len({find(i) for i in range(len(parent))})


def test_chi_genus_exhaustive():
    """On every pairing of small systems, chi = 2c - 2g - b for the c
    components and b boundary cycles, with a whole genus g >= 0."""
    for cycles in (["abAB"], ["abAB", "abAB"], ["ab", "BA"],
                   ["a", "b", "BA"], ["abAB", "BA", "ab"]):
        system = arc_system(cycles)
        arcs = system.arcs()
        pos = {x: [a for a in arcs if system.letter(a) == x]
               for x in {system.letter(a) for a in arcs}}
        letters = sorted({abs(system.letter(a)) for a in arcs})
        counted = 0
        # enumerate all perfect pairings letter by letter
        def pairings(groups):
            if not groups:
                yield []
                return
            (plus, minus), rest = groups[0], groups[1:]
            for perm in itertools.permutations(minus):
                for tail in pairings(rest):
                    yield list(zip(plus, perm)) + tail
        groups = [(pos.get(x, []), pos.get(-x, [])) for x in letters]
        if any(len(p) != len(q) for p, q in groups):
            continue
        for pairs in pairings(groups):
            m = matching(system, pairs)
            twice_genus = (2 * components(m) - len(cycles)
                           - euler_characteristic(m))
            assert twice_genus >= 0 and twice_genus % 2 == 0
            counted += 1
        assert counted >= 1


def test_boundary_chain():
    system = arc_system(["abABabAB", "abABabAB", "BA", "BA", "aa", "bb"])
    got = boundary_chain(system)
    want = canonicalize(scale_chain(
        parse_chain("2*abAB + a + b - ab").chain, 2))
    assert canonicalize(got) == canonicalize(want)
    assert boundary_chain(arc_system(["a", "A"])).terms == ()


def test_certificate_from_matching():
    cert = certificate_from_matching(punctured_torus_matching())
    assert cert.chi == -1
    assert cert.degree == 1
    assert canonicalize(cert.boundary) == parse_chain("abAB").chain


def test_extremality_ratio_direct():
    cert = certificate_from_matching(punctured_torus_matching())
    target = parse_chain("abAB").chain
    assert extremality_ratio(cert, target) == QQ(1, 2)
    # the certificate is extremal: the bound it gives equals scl
    assert extremality_ratio(cert, target) == scl(target)


def test_extremality_ratio_multiplicity():
    system = arc_system(["abAB", "abAB"])
    chi, m = search_matching_arcs(system)
    cert = certificate_from_matching(m)
    assert extremality_ratio(cert, parse_chain("abAB").chain) \
        == QQ(-chi, 4)


def test_extremality_ratio_rejects_foreign_chain():
    cert = certificate_from_matching(punctured_torus_matching())
    with pytest.raises(ValueError):
        extremality_ratio(cert, parse_chain("a + b + BA").chain)
    with pytest.raises(ValueError):
        extremality_ratio(cert, parse_chain("a - a").chain)


def test_wrapped_cycles_certificate():
    """Doubled cycles let bands wrap, reaching chi = -4 over twice the
    chain 2*abAB + a + b - ab; simple copies cannot do better than -6."""
    system = arc_system(["abABabAB", "abABabAB", "BA", "BA", "aa", "bb"])
    chi, m = search_matching_arcs(system)
    assert chi == -4
    cert = certificate_from_matching(m)
    target = parse_chain("2*abAB + a + b - ab").chain
    ratio = extremality_ratio(cert, target)
    assert ratio == 1
    assert ratio == scl(target)


def test_search_matching_equalities():
    for expr in ("abAB", "a + b + BA", "abABAbaB", "a + A"):
        c = parse_chain(expr).chain
        cert, m = search_matching(c)
        bound = QQ(-cert.chi, 2 * cert.degree)
        assert bound == scl(c), expr


def test_search_matching_zero_chain():
    cert, m = search_matching(parse_chain("a + A").chain)
    assert cert.chi == 0
    assert cert.boundary.terms == ()
    assert m.pairs == ()


def test_search_matching_degree(capsys):
    c = parse_chain("abAB").chain
    cert, m = search_matching(c, n=2)
    assert cert.degree == 2
    assert len(m.system.cycles) == 2
    assert canonicalize(cert.boundary) == canonicalize(scale_chain(c, 2))
    # -chi / (2 * degree * scale) read off the certificate is the bound
    # that matchbound prints for the same chain and degree
    for expr, n in itertools.product(
            ("[a,b]", "1/2*abAB", "ab - a - b", "a + A"), (2, 3)):
        c = parse_chain(expr).chain
        _, scale = prepare(c)
        cert, _ = search_matching(c, n=n)
        assert cert.degree == n
        assert main(["matchbound", expr, "--degree", str(n), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)["record"]
        bound = QQ(-cert.chi, 2 * cert.degree * scale)
        assert record["bound"] == fmt(bound), expr


def test_search_matching_rejects_nonpositive_degree():
    c = parse_chain("abAB").chain
    for n in (0, -1):
        with pytest.raises(ValueError, match="degree must be positive, got %d"
                           % n):
            search_matching(c, n=n)


def test_search_matching_arcs_rejects_unpaired_letters():
    # two a's against one A: no perfect pairing into bands exists
    for cycles in (["aab", "AB"], ["ab"]):
        with pytest.raises(ValueError, match="letters do not pair up"):
            search_matching_arcs(arc_system(cycles))


def test_search_matching_bounds_scl():
    rng = seeded(808)
    checked = 0
    while checked < 25:
        c = random_trivial_chain(rng, max_letters=8)
        cert, m = search_matching(c)
        bound = QQ(-cert.chi, 2 * cert.degree)
        assert bound >= scl(c)
        checked += 1


def test_search_matching_determinism():
    c = parse_chain("2*abAB + ab - a - b").chain
    first = search_matching(c)
    second = search_matching(c)
    assert first[0] == second[0]
    assert first[1].pairs == second[1].pairs


def copies_system(c, n):
    """The arc system search_matching builds: n * coefficient copies of
    each prepared term."""
    prepared, _ = prepare(c)
    return ArcSystem(tuple(t.word for t in prepared.terms
                           for _ in range(int(t.coefficient) * n)),
                     prepared.rank)


def check_against_oracle(c, n, max_nodes=10 ** 7):
    """Assert that search_matching(c, n) returns the oracle's (chi,
    pairs), and return chi; None when the oracle does not finish under
    max_nodes."""
    system = copies_system(c, n)
    try:
        want = matching_oracle.search_matching_arcs(system, max_nodes)
    except ResourceLimitError:
        return None
    cert, m = search_matching(c, n=n)
    assert m.system == system
    assert (cert.chi, m.pairs) == want, (c, n)
    return cert.chi


def pinned_matchbounds():
    """(chain text, degree, chi) of every matchbound command the benchmark
    pins with exit 0."""
    out = []
    for pin in json.loads(PINS.read_text())["cli"]:
        for command in pin["commands"]:
            argv = command["argv"]
            if argv[0] == "matchbound" and command["exit"] == 0:
                degree = int(argv[argv.index("--degree") + 1])
                out.append((argv[1], degree, command["record"]["chi"]))
    return out


def test_search_matches_oracle_on_pins():
    pins = pinned_matchbounds()
    assert len(pins) == 16
    for expr, degree, chi in pins:
        assert check_against_oracle(chain(expr), degree) == chi, expr


def test_search_matches_oracle_on_copies():
    # repeated cycles, where the copy symmetry prunes
    for n in (2, 3, 4, 5):
        assert check_against_oracle(chain("abAB"), n) is not None
    assert check_against_oracle(chain("abAB + abAB"), 1) is not None


def test_search_matches_oracle_on_raw_systems():
    # the wrapped cycles of test_wrapped_cycles_certificate, where the
    # lowest arc's own copy must not be skipped; then arcs followed by
    # their inverse letter (the A of abA), which a cyclically reduced
    # cycle never has: such a one-arc path can close alone, so the bound
    # must not pair it up (the last system finds other pairs if it does)
    for cycles in (["abABabAB", "abABabAB", "BA", "BA", "aa", "bb"],
                   ["abA", "aBA", "A", "a"], ["aab", "B", "A", "A"],
                   ["B", "A", "bAB", "Aba", "baB", "baB"]):
        system = arc_system(cycles)
        chi, m = search_matching_arcs(system)
        assert (chi, m.pairs) == matching_oracle.search_matching_arcs(
            system, 10 ** 7), cycles


def test_search_matches_oracle_on_random_chains():
    rng = seeded(777)
    agreed = 0
    for _ in range(300):
        c = scale_chain(random_trivial_chain(rng), rng.randint(1, 3))
        agreed += check_against_oracle(c, rng.randint(1, 2),
                                       max_nodes=5000) is not None
    assert agreed >= 200


def test_search_node_counts():
    # the README's table: without copy symmetry and the paired bound the
    # rows took 306,613, 306,581, 14,872 and 306,613 nodes
    for expr, n, nodes in [("2/3*aaabA + 2/3*BA - 1/3*aa", 2, 3136),
                           ("4/3*B + 2/3*abbabb - 4/3*aabA", 1, 3391),
                           ("abAB", 5, 464),
                           ("aaB + A + bA", 4, 3136)]:
        search_matching(chain(expr), n=n, max_nodes=nodes)
        with pytest.raises(ResourceLimitError):
            search_matching(chain(expr), n=n, max_nodes=nodes - 1)


def test_search_node_cap():
    system = arc_system(["abABabAB", "abABabAB", "BA", "BA", "aa", "bb"])
    with pytest.raises(ResourceLimitError):
        search_matching_arcs(system, max_nodes=5)


def test_certificate_file_roundtrip(tmp_path):
    m = punctured_torus_matching()
    chain_ctx = parse_chain("abAB").chain
    text = write_certificate(m, chain=chain_ctx, degree=1)
    again, chain2, degree2 = read_certificate(text)
    assert again.pairs == m.pairs
    assert again.system == m.system
    assert canonicalize(chain2) == canonicalize(chain_ctx)
    assert degree2 == 1
    # serialization is bit-stable
    assert write_certificate(again, chain=chain2, degree=degree2) == text


def test_read_certificate_degree_must_agree():
    head = "rank 2\ncycle 0: a b A B\npair 0.0 0.2\npair 0.1 0.3\n"
    for degree in ("0", "-2"):
        with pytest.raises(ValueError, match="line 5: degree must be positive"):
            read_certificate(head + "degree %s\n" % degree)
    with pytest.raises(ValueError, match="not 7 times the prepared chain"):
        read_certificate(head + "chain abAB\ndegree 7\n")
    # degree times the prepared chain: 1/2*abAB prepares to abAB
    m, _, degree = read_certificate(head + "chain 1/2*abAB\ndegree 1\n")
    assert degree == 1 and m.pairs == punctured_torus_matching().pairs
    # with no chain line there is nothing to compare the degree with
    assert read_certificate(head + "degree 7\n")[2] == 7


def test_read_certificate_errors():
    with pytest.raises(ValueError, match="rank must come before cycles"):
        read_certificate("cycle 0: a b A B\nrank 2\n")
    with pytest.raises(ValueError, match="missing rank"):
        read_certificate("# empty\n")
    with pytest.raises(ValueError, match="unknown directive"):
        read_certificate("rank 2\nwibble 3\n")
    with pytest.raises(ValueError, match="cycle ids"):
        read_certificate("rank 2\ncycle 1: a\n")
    with pytest.raises(ValueError):
        read_certificate("rank 2\ncycle 0: abAB\npair 0.0 0.1\n")
    with pytest.raises(ValueError, match="^line 3: pair needs two arcs$"):
        read_certificate("rank 2\ncycle 0: abAB\npair 0.0\n")
    with pytest.raises(ValueError, match=r"^unknown arc \(5, 0\)$"):
        read_certificate("rank 2\ncycle 0: abAB\npair 0.0 5.0\n")
    with pytest.raises(ValueError,
                       match="^line 2: rank must be nonnegative, got -5$"):
        read_certificate("# no cycles\nrank -5\n")


@pytest.mark.parametrize("text, message", [
    ("rank 2\ncycle 0: abAB\ncycle 0: a\n", "line 3: repeated cycle 0"),
    ("rank 2\nrank 2\ncycle 0: abAB\n", "line 2: repeated rank line"),
    ("rank 2\ncycle 0: abAB\nchain abAB\nchain abAB\n",
     "line 4: repeated chain line"),
    ("rank 2\ncycle 0: abAB\ndegree 1\n# again\ndegree 2\n",
     "line 5: repeated degree line"),
])
def test_read_certificate_rejects_repeated_directives(text, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        read_certificate(text + "pair 0.0 0.2\npair 0.1 0.3\n")


def test_read_certificate_comments_and_blanks():
    text = "# band surface\nrank 2\n\ncycle 0: a b A B\n" \
           "pair 0.0 0.2\npair 0.1 0.3\n"
    m, chain_ctx, degree = read_certificate(text)
    assert euler_characteristic(m) == -1
    assert chain_ctx is None and degree is None
