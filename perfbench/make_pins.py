"""Write pins.json: the pinned expected output of every pool item.

    python3 perfbench/make_pins.py

Run from the repository root.  It fills the four pools with seeded
candidates, asks the program at the current commit for every answer, and
cross-checks the answers once before pinning them:

* the known values of ``tests/conftest.py::SCL_CORPUS`` hold;
* every decoded certificate gives ``-chi/(2*degree*scale) == scl``;
* for rank-2 chains ``|rot|/2 <= scl <= matchbound`` (degree 1), and the
  dynamical rot equals the turning number wherever it is defined;
* rot equals the turning number of corpus.turning, a separate
  implementation in this directory.

The costs it records (seconds on the machine that made the file) only
order each band for cost-stratified draws.  A run takes about 20
minutes and always rewrites the whole file, so that every pin comes from
the one commit recorded in its ``environment``.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import random
import signal
import subprocess
import sys
import tempfile
import time
import zlib
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
from corpus import (balanced_word, chain_text, dump_terms, free_reduce,  # noqa: E402
                    random_reduced)

from sclkit import cli, rotation, sclenc, surfcert  # noqa: E402
from sclkit.chainexpr import parse_chain  # noqa: E402
from sclkit.freegroup import Chain, ChainTerm, canonicalize, make_word  # noqa: E402
from sclkit.errors import ResourceLimitError  # noqa: E402
from sclkit.rational import QQ  # noqa: E402
from worker import frac, lp_counts, lp_digest  # noqa: E402

COEFFICIENTS = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "3/2", "2/3", "4/3"))

# pool sizes per band
SCL_QUOTA = {"4-5": 40, "6-7": 60, "8-9": 48, "10": 48}
ENCODE_QUOTA = 24
ROT_POOL = 768
CLI_QUOTA = {"scl": 16, "immersed": 32, "stabilize": 12, "scan": 12,
             "corollary": 10, "rot": 16, "matchbound": 16, "usage": 8,
             "not-boundary": 8, "resource": 8}
# paper-cli keeps commands that finish within this many seconds here, so
# that a run holds more than one round of every command kind
CLI_MAX_COST_S = 4.0
MAX_CANDIDATES = 20000


class PinError(Exception):
    """A cross-check failed: the program disagrees with itself."""


def check(ok, message):
    if not ok:
        raise PinError(message)


def scl_candidate(index):
    """A homologically trivial chain of rank 2 or 3 for scl-sweep: one
    balanced word; p*uv - p*u - p*v, optionally plus a multiple of a
    balanced word; or two balanced words with unrelated coefficients."""
    rng = random.Random("scl-%d" % index)
    rank = rng.choice((2, 2, 3))
    kind = rng.randrange(3)
    if kind == 0:
        return [(Fraction(1), balanced_word(rng, rank, rng.choice((4, 6, 8, 10))))], rank
    if kind == 1:
        u = random_reduced(rng, rank, rng.randint(1, 3))
        v = random_reduced(rng, rank, rng.randint(1, 3))
        p = rng.choice(COEFFICIENTS)
        terms = [(p, free_reduce(u + v)), (-p, u), (-p, v)]
        if rng.random() < 0.4:
            terms.append((rng.choice(COEFFICIENTS), balanced_word(rng, rank, 4)))
        return terms, rank
    a = balanced_word(rng, rank, rng.choice((4, 4, 6)))
    b = balanced_word(rng, rank, 4)
    return [(rng.choice(COEFFICIENTS), a), (-rng.choice(COEFFICIENTS), b)], rank


def encode_candidate(index):
    """A rank-2 homologically trivial chain of about 12-24 letters."""
    rng = random.Random("encode-%d" % index)
    kind = rng.randrange(3)
    if kind == 0:
        return [(Fraction(1), balanced_word(rng, 2, rng.choice(range(12, 25, 2))))], 2
    if kind == 1:
        a = balanced_word(rng, 2, rng.choice(range(4, 13, 2)))
        b = balanced_word(rng, 2, rng.choice(range(4, 15, 2)))
        return [(rng.choice(COEFFICIENTS), a), (rng.choice(COEFFICIENTS), b)], 2
    u = random_reduced(rng, 2, rng.randint(2, 6))
    v = random_reduced(rng, 2, rng.randint(2, 6))
    p = rng.choice(COEFFICIENTS)
    return [(p, free_reduce(u + v)), (-p, u), (-p, v),
            (rng.choice(COEFFICIENTS), balanced_word(rng, 2, rng.choice((4, 6, 8))))], 2


def to_chain(terms, rank):
    return Chain(tuple(ChainTerm(QQ(c.numerator, c.denominator), make_word(w, rank))
                       for c, w in terms), rank)


def canonical_terms(chain):
    return [(Fraction(int(t.coefficient.numerator), int(t.coefficient.denominator)),
             t.word.letters) for t in chain.terms]


def projective(chain):
    c0 = chain.terms[0].coefficient
    return tuple((t.coefficient / c0, t.word.letters) for t in chain.terms)


def letters_in(chain):
    return sum(len(t.word) for t in chain.terms)


def pooled_chains(candidate, bands, quota, accept, log):
    """Canonical chains from candidate(0), candidate(1), ... until every
    band holds its quota (or candidates run out: there are few distinct
    short chains); duplicates up to positive scaling are skipped."""
    seen = set()
    filled = {band: [] for band in bands}
    index = 0
    while any(len(filled[b]) < quota[b] for b in bands) and index < MAX_CANDIDATES:
        terms, rank = candidate(index)
        index += 1
        canon = canonicalize(to_chain(terms, rank))
        if canon.is_empty():
            continue
        used = {abs(x) for t in canon.terms for x in t.word.letters}
        band = corpus.band_of(bands, letters_in(canon))
        if (band is None or len(filled[band]) >= quota[band]
                or used != set(range(1, rank + 1)) or not accept(band, canon)
                or projective(canon) in seen):
            continue
        seen.add(projective(canon))
        filled[band].append((index - 1, band, canon))
        if index % 200 == 0:
            log("  candidates %d: %s" % (index, {b: len(v) for b, v in filled.items()}))
    return [entry for band in bands for entry in filled[band]]


def pin_scl(quota, log):
    entries = pooled_chains(scl_candidate, corpus.SCL_BANDS, quota,
                            lambda band, c: band != "10" or len(c.terms) == 1, log)
    pool = []
    for index, band, canon in entries:
        start = time.perf_counter()
        enc, result = sclenc.solve_chain(canon)
        cert = sclenc.decode_certificate(enc, result)
        cost = time.perf_counter() - start
        value = result.value / (2 * enc.scale)
        check(QQ(-cert.chi, 2 * cert.degree) / enc.scale == value,
              "certificate chi disagrees with scl on %s" % chain_text(canonical_terms(canon)))
        item = {"id": index, "band": band, "rank": canon.rank,
                "terms": dump_terms(canonical_terms(canon)),
                "letters": letters_in(canon), "scl": frac(value),
                "pivots": result.pivots, "cost_s": round(cost, 4)}
        item.update(lp_counts(enc.lp))
        if canon.rank == 2:
            item.update(rank2_bounds(canon, value))
        pool.append(item)
        log("  scl %s %s = %s (%.2f s)" % (band, chain_text(canonical_terms(canon)),
                                          item["scl"], cost))
    return pool


def rank2_bounds(canon, value):
    """|rot|/2 <= scl <= matchbound, and the dynamical rot equals the
    turning number when every term closes up on its own."""
    dyn = QQ(rotation.rot(canon))
    if all(not any(corpus.exponent_sums(t.word.letters, 2)) for t in canon.terms):
        turn = QQ(rotation.turning_number_chain(canon))
        check(dyn == turn, "dynamical rot %s != turning %s" % (dyn, turn))
    check(abs(dyn) / 2 <= value, "scl below rot/2")
    out = {"rot": frac(dyn)}
    try:
        mcert, _ = surfcert.search_matching(canon, n=1, max_nodes=2 * 10 ** 5)
    except ResourceLimitError:
        return out
    _, scale = sclenc.prepare(canon)
    bound = QQ(-mcert.chi, 2) / scale
    check(value <= bound, "scl %s above the matching bound %s" % (value, bound))
    out["matchbound"] = frac(bound)
    return out


def pin_encode(quota, log):
    entries = pooled_chains(encode_candidate, corpus.ENCODE_BANDS,
                            dict.fromkeys(corpus.ENCODE_BANDS, quota),
                            lambda band, c: True, log)
    pool = []
    for index, band, canon in entries:
        start = time.perf_counter()
        enc = sclenc.build_lp(canon)
        cost = time.perf_counter() - start
        item = {"id": index, "band": band, "rank": canon.rank,
                "terms": dump_terms(canonical_terms(canon)),
                "letters": letters_in(canon), "digest": lp_digest(enc.lp),
                "cost_s": round(cost, 4)}
        item.update(lp_counts(enc.lp))
        pool.append(item)
        log("  encode %s %d letters %dx%d (%.2f s)" % (
            band, item["letters"], item["rows"], item["cols"], cost))
    return pool


def pin_rot(size, log):
    pool = []
    for index in range(size):
        text, words = corpus.rot_candidate(index)
        start = time.perf_counter()
        chain = parse_chain(text, min_rank=2).chain
        cost = time.perf_counter() - start
        turn = QQ(rotation.turning_number_chain(chain))
        check(turn == sum(corpus.turning(w) for w in words),
              "turning number disagrees with the independent oracle on rot-%d" % index)
        try:
            dyn = QQ(rotation.rot(chain))
            check(dyn == turn, "dynamical rot %s != turning %s on rot-%d" % (dyn, turn, index))
            dynamical = frac(dyn)
        except ValueError as err:
            dynamical = "error: %s" % err
        letters = letters_in(chain)
        pool.append({"id": index, "letters": letters,
                     "rot": frac(turn), "dynamical": dynamical,
                     "crc": zlib.crc32(text.encode()), "cost_s": round(cost, 5)})
        if index % 100 == 0:
            log("  rot %d: %d letters, rot %s, dynamical %s" % (
                index, letters, frac(turn), dynamical))
    return pool


# ---------------------------------------------------------------------------
# paper-cli: the README's and the paper's commands

class TooSlow(Exception):
    """A candidate command ran past CLI_MAX_COST_S."""


def _too_slow(signum, frame):
    raise TooSlow()


def run_cli(argv, tmp):
    """Exit code and normalized record of one in-process CLI call; exit
    None when the command runs past CLI_MAX_COST_S."""
    sclenc._scl_cache.clear()  # each real command starts in a fresh process
    out, err = io.StringIO(), io.StringIO()
    real = [a.replace("{tmp}", tmp) for a in argv] + ["--json"]
    previous = signal.signal(signal.SIGALRM, _too_slow)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CLI_MAX_COST_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(real)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except TooSlow:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    cost = time.perf_counter() - start
    record = None
    if code == 0:
        record = json.loads(out.getvalue().replace(tmp, "{tmp}"))["record"]
    return code, record, cost


def family_letters(w, n, rank):
    """Letters of the canonical form of (abAB)^n * w in the given rank."""
    letters = (1, 2, -1, -2) * n if n >= 0 else (2, 1, -2, -1) * -n
    chain = Chain((ChainTerm(QQ(1), make_word(letters + corpus.letters_of(w), rank)),), rank)
    return letters_in(canonicalize(chain))


def cli_candidates(scl_pool, log):
    """Candidate commands per category, as lists of argv lists."""
    rng = random.Random("paper-cli-pool")
    small = [it for it in scl_pool if it["letters"] <= 8]
    rank2 = [it for it in small if it["rank"] == 2]

    def text_of(item):
        # a leading '-' would read as an option, so the first term is
        # written with a positive coefficient (c*w as -c*w^-1)
        terms = corpus.spell(rng, corpus.parse_terms(item["terms"]), item["rank"])
        c, w = terms[0]
        if c < 0:
            terms[0] = (-c, corpus.inverse(w))
        return chain_text(terms)

    def word_text(n):
        return corpus.word_text(balanced_word(rng, 2, n))

    def pick(items, n):
        return rng.sample(items, min(n, len(items)))

    out = {}
    out["scl"] = [[["scl", text_of(it)]] for it in pick(small, 40)]
    out["immersed"] = [[["immersed", text_of(it)]] for it in pick(rank2, 80)]
    bases = [it for it in rank2 if it["letters"] <= 6]
    out["stabilize"] = [[["stabilize", text_of(rng.choice(bases)), "--max-R",
                          str(rng.randint(2, 4))]] for _ in range(150)]
    out["scan"] = []
    while len(out["scan"]) < 60:
        w = word_text(rng.choice((4, 4, 6)))
        lo = rng.randint(-1, 1)
        hi = rng.randint(lo, 1)
        # the scanned words w*(abAB)^n are kept at 10 letters or fewer
        if all(family_letters(w, n, 2) <= 10 for n in range(lo, hi + 1)):
            out["scan"].append([["scan", "--w", w, "--n-range",
                                 str(lo) if lo == hi else "%d..%d" % (lo, hi)]])
    out["corollary"] = []
    while len(out["corollary"]) < 60:
        w, n = word_text(rng.choice((4, 4, 6))), rng.randint(-1, 1)
        if family_letters("c%sC" % w, n, 3) <= 10:
            out["corollary"].append([["corollary", "--w", w, "--n", str(n)]])
    out["rot"] = []
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(1, 2)):
            u = random_reduced(rng, 2, rng.randint(2, 12))
            v = random_reduced(rng, 2, rng.randint(2, 12))
            parts.append("%s[%s,%s]" % (rng.choice(("", "2*", "1/2*", "3*")),
                                        corpus.word_text(u), corpus.word_text(v)))
        out["rot"].append([["rot", " + ".join(parts), "--method", "both"]])
    out["matchbound"] = []
    for k in range(60):
        it = rng.choice(bases)
        path = "{tmp}/cert-%d.txt" % k
        out["matchbound"].append([
            ["matchbound", text_of(it), "--degree", str(rng.randint(1, 4)), "--emit", path],
            ["certify", "--file", path]])
    out["usage"] = [[argv] for argv in (
        ["scl", "ab+"], ["scl", "a*b"], ["scl", "[a,b"], ["scl", "2/0*abAB"],
        ["rot", "abAB^", "--method", "both"], ["scan", "--w", "abAB", "--n-range", "3..1"],
        ["stabilize", "abAB", "--max-R", "-1"], ["immersed", "[a,b] + [a,c]"],
        ["certify", "--file", "{tmp}/missing.cert"], ["scl", "ab#AB"])]
    out["not-boundary"] = [[argv] for argv in (
        ["scl", "ab"], ["scl", "aab - b"], ["rot", "abA", "--method", "both"],
        ["matchbound", "ab + a"], ["immersed", "aabAB"], ["corollary", "--w", "aab", "--n", "1"],
        ["stabilize", "ab", "--max-R", "2"], ["scl", "[a,b] + c"], ["scan", "--w", "abA",
                                                                     "--n-range", "0..1"])]
    heavy = [it for it in scl_pool if 8 <= it["letters"] <= 10]
    out["resource"] = [[["scl", text_of(it), "--max-letters", str(rng.choice((4, 6)))]]
                       for it in pick(heavy, 6)]
    out["resource"] += [[["scl", text_of(it), "--max-pivots", str(rng.randint(3, 8))]]
                        for it in pick(heavy, 6)]
    return out


def pin_cli(scl_pool, quota, log):
    pool = []
    with tempfile.TemporaryDirectory() as tmp:
        for category, candidates in cli_candidates(scl_pool, log).items():
            kept = 0
            seen = set()
            for k, commands in enumerate(candidates):
                if kept >= quota[category]:
                    break
                key = json.dumps(commands)
                if key in seen:
                    continue
                seen.add(key)
                results = [run_cli(argv, tmp) for argv in commands]
                cost = sum(r[2] for r in results)
                codes = [r[0] for r in results]
                if category in ("usage", "not-boundary", "resource"):
                    want = {"usage": 2, "not-boundary": 3, "resource": 4}[category]
                    check(codes == [want], "%s exited %s, expected %d" % (commands, codes, want))
                elif codes != [0] * len(commands) or cost > CLI_MAX_COST_S:
                    log("  cli %s %s -> %s skipped" % (category, commands[0], codes))
                    continue
                pool.append({"id": "%s-%d" % (category, k), "category": category,
                             "cost_s": round(cost, 4),
                             "commands": [{"argv": argv, "exit": r[0], "record": r[1]}
                                          for argv, r in zip(commands, results)]})
                kept += 1
                log("  cli %s %s -> %s (%.2f s)" % (category, commands[0], codes, cost))
            check(kept >= quota[category] or category in ("usage", "not-boundary", "resource"),
                  "only %d %s commands qualify" % (kept, category))
    return pool


def pin_known(log):
    """tests/conftest.py::SCL_CORPUS values still hold."""
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("sclkit_test_conftest", path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    for expr, value in conftest.SCL_CORPUS:
        got = sclenc.scl(parse_chain(expr).chain)
        check(got == value, "SCL_CORPUS %s: got %s, expected %s" % (expr, got, value))
        log("  known %s = %s" % (expr, frac(got)))
    return [[expr, frac(value)] for expr, value in conftest.SCL_CORPUS]


def environment():
    import sclkit.rational
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "python": platform.python_version(),
            "rational": "%s.%s" % (sclkit.rational.QQ.__module__,
                                   sclkit.rational.QQ.__name__),
            "machine": platform.machine()}


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()

    def log(message):
        print(message, file=sys.stderr, flush=True)

    pins = {"environment": environment(), "known": pin_known(log)}
    pins["scl"] = pin_scl(SCL_QUOTA, log)
    pins["encode"] = pin_encode(ENCODE_QUOTA, log)
    pins["rot"] = pin_rot(ROT_POOL, log)
    pins["cli"] = pin_cli(pins["scl"], CLI_QUOTA, log)
    out = os.path.join(HERE, "pins.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=0, sort_keys=True)
        handle.write("\n")
    log("wrote %s" % out)


if __name__ == "__main__":
    main()
