"""Seeded inputs for the benchmark workloads (standard library only).

Every input is drawn from a finite pool whose expected outputs are pinned
in ``pins.json`` (written by ``make_pins.py``).  A run is a sequence of
*rounds*.  A round draws a fixed number of items from each band of a
workload; inside a band the pool is sorted by its pinned cost and cut
into as many strata as the band has draws, and each draw comes from its
own stratum.  So every seed gives a different corpus with the same bands
and the same cost profile.  Each workload has a fixed number of rounds,
so every run, on any commit, does the same ops.

Letters are nonzero ints: k is the k-th generator, -k its inverse; the
text form uses a, b, c and A, B, C.
"""

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# words and chains as plain data


def letter_char(x):
    return chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1)


def letters_of(text):
    return tuple(ord(ch) - ord("a") + 1 if ch.islower() else -(ord(ch) - ord("A") + 1)
                 for ch in text)


def word_text(letters):
    return "".join(letter_char(x) for x in letters)


def inverse(letters):
    return tuple(-x for x in reversed(letters))


def free_reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def random_reduced(rng, rank, n):
    """A uniformly grown freely reduced word of length n."""
    out = []
    while len(out) < n:
        x = rng.choice([g for g in range(-rank, rank + 1) if g])
        if not (out and out[-1] == -x):
            out.append(x)
    return tuple(out)


def exponent_sums(letters, rank):
    out = [0] * rank
    for x in letters:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return out


def balanced_word(rng, rank, n):
    """A cyclically reduced word of length n with zero exponent sums."""
    while True:
        w = random_reduced(rng, rank, n)
        if w[0] != -w[-1] and not any(exponent_sums(w, rank)):
            return w


def coefficient_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (
        c.numerator, c.denominator)


def chain_text(terms):
    """Expression text of [(coefficient, letters), ...] for parse_chain."""
    parts = []
    for i, (c, w) in enumerate(terms):
        c = Fraction(c)
        body = word_text(w) if abs(c) == 1 else "%s*%s" % (
            coefficient_text(abs(c)), word_text(w))
        if i == 0:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def parse_terms(pinned):
    """[["3/2", "ab"], ...] from the pin file to [(Fraction, letters)]."""
    return [(Fraction(c), letters_of(w)) for c, w in pinned]


def dump_terms(terms):
    return [[coefficient_text(c), word_text(w)] for c, w in terms]


# ---------------------------------------------------------------------------
# an independent turning-number oracle (rank 2), used to cross-check pins

_DIRECTION = {1: 0, 2: 1, -1: 2, -2: 3}


def cyclic_core(letters):
    w = free_reduce(letters)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def turning(letters):
    """Winding number of the lattice path spelled by a closed rank-2 word."""
    core = cyclic_core(letters)
    quarter = 0
    for i, x in enumerate(core):
        delta = (_DIRECTION[core[(i + 1) % len(core)]] - _DIRECTION[x]) % 4
        quarter += {0: 0, 1: 1, 3: -1}[delta]
    return quarter // 4


def commutator(u, v):
    return free_reduce(u + v + inverse(u) + inverse(v))


# ---------------------------------------------------------------------------
# rot-long inputs: pinned by index, regenerated from it at run time

ROT_MIN, ROT_MAX = 64, 1024


def rot_candidate(index):
    """A commutator [u,v] or a sum of two, about ROT_MIN..ROT_MAX letters
    (log-uniform), as (expression text, letters of every term)."""
    rng = random.Random("rot-%d" % index)
    target = math.exp(rng.uniform(math.log(ROT_MIN), math.log(ROT_MAX)))
    pieces = 1 if rng.random() < 0.6 else 2
    texts, words = [], []
    for _ in range(pieces):
        half = max(2, round(target / (2 * pieces)))
        a = rng.randint(1, half - 1)
        u = random_reduced(rng, 2, a)
        v = random_reduced(rng, 2, half - a)
        texts.append("[%s,%s]" % (word_text(u), word_text(v)))
        words.append(commutator(u, v))
    return " + ".join(texts), words


# ---------------------------------------------------------------------------
# seeded draws


def spread_order(n):
    """0..n-1 in bit-reversed order: every prefix is spread over the range."""
    bits = max(1, (n - 1).bit_length())
    keys = sorted(range(1 << bits), key=lambda i: int(format(i, "0%db" % bits)[::-1], 2))
    return [i for i in keys if i < n]


def cost(item):
    """The sort key of the strata: for pinned solves the LP work (pivots
    times columns, which tracks solve time closer than one timing did),
    otherwise the seconds the item took when pinned."""
    if "pivots" in item:
        return item["pivots"] * item["cols"]
    return item["cost_s"]


class Strata:
    """Cost-stratified draws from one band of a pool.

    The band's items are sorted by pinned cost and cut into `draws`
    contiguous strata, one per draw of a round; each stratum is cut again
    into `cycle` sub-strata that successive rounds visit in bit-reversed
    order from a seeded start, so that a run of a few rounds already
    covers its stratum evenly.  Inside a sub-stratum the seed shuffles
    the items and draws cycle through them.
    """

    def __init__(self, rng, items, draws, cycle=1):
        items = sorted(items, key=lambda it: (cost(it), it["id"]))
        if len(items) < draws:
            raise ValueError("band has %d items, needs %d" % (len(items), draws))
        cycle = max(1, min(cycle, len(items) // draws))
        parts = draws * cycle
        bounds = [round(k * len(items) / parts) for k in range(parts + 1)]
        self.parts = []
        for k in range(parts):
            part = items[bounds[k]:bounds[k + 1]]
            rng.shuffle(part)
            self.parts.append(part)
        self.cycle = cycle
        self.order = spread_order(cycle)
        self.start = [rng.randrange(cycle) for _ in range(draws)]
        self.used = [0] * parts
        self.calls = [0] * draws

    def draw(self, k):
        sub = self.order[(self.start[k] + self.calls[k]) % self.cycle]
        self.calls[k] += 1
        index = k * self.cycle + sub
        part = self.parts[index]
        item = part[self.used[index] % len(part)]
        self.used[index] += 1
        return item


def _insert_after(rng, order, op, anchor):
    """Insert op at a random position after anchor (by identity) in order."""
    pos = next(i for i, other in enumerate(order) if other is anchor)
    order.insert(rng.randint(pos + 1, len(order)), op)


# ---------------------------------------------------------------------------
# workloads: bands and draws per round

SCALES = tuple(Fraction(x) for x in ("2", "3", "1/2", "3/2", "2/3"))

# scl-sweep: (band, draws) per round, then (band, repeats): a repeat
# re-asks a chain drawn earlier in the round, in another spelling and
# half of the time as a scalar multiple (7 of 25 ops)
SCL_BANDS = {"4-5": (4, 5), "6-7": (6, 7), "8-9": (8, 9), "10": (10, 10)}
SCL_ROUND = (("4-5", 2), ("6-7", 4), ("8-9", 10), ("10", 2))
SCL_REPEATS = (("4-5", 1), ("6-7", 2), ("8-9", 4))
# Solve times inside the two heaviest bands spread over a factor of ten
# (0.6-31 s at 10 letters).  A round holds only 14 and 2 of them, and
# the median and the tail percentile both fall among the 8-9 letter ops,
# so these bands draw only items whose pinned seconds lie in this window,
# as a multiple of the band's median: 0.42-0.68 s at 8-9 letters, and
# the rank-2 words of 4.2-5.6 s at 10 letters.
SCL_WINDOW = {"8-9": (0.85, 1.4), "10": (1.08, 1.45)}

ENCODE_BANDS = {"12-13": (12, 13), "14-15": (14, 15), "16-17": (16, 17),
                "18-19": (18, 19), "20-21": (20, 21), "22-23": (22, 23),
                "24": (24, 24)}
# encode-large: build_lp times repeat within about 40% from op to op on
# a shared machine, so the median and the tail percentile are placed in
# bands of near-equal ops: the median among the 16-17 letter chains
# (0.22-0.34 s), the tail among the 20-21 letter chains of 0.85-0.93 s
ENCODE_ROUND = (("12-13", 6), ("14-15", 6), ("16-17", 12), ("18-19", 2),
                ("20-21", 12), ("22-23", 1), ("24", 1))
ENCODE_WINDOW = {"20-21": (0.95, 1.05)}

ROT_BINS = 15  # log-uniform length bins over ROT_MIN..ROT_MAX
ROT_ROUND = tuple(("L%02d" % k, 1) for k in range(ROT_BINS))

# paper-cli: for the commands that solve LPs, half of each pool per round,
# one of each pair of neighbours in pinned cost (matchbound items are two
# commands each); stabilize draws one of each three, so that no stratum
# holds both a cheap (under 0.1 s) and a heavy (over 1.5 s) command.  The
# immersed commands of CLI_HEAVY_S or more are a band of their own, drawn
# whole every round: they sit around the tail percentile, and with them
# fixed the ops near it are the same in every run.
CLI_HEAVY_S = 0.5
CLI_ROUND = (("scl", 8), ("immersed", 7), ("immersed-heavy", 9), ("stabilize", 4),
             ("scan", 6), ("corollary", 5), ("rot", 4), ("matchbound", 8), ("usage", 2),
             ("not-boundary", 2), ("resource", 2))


def band_of(bands, letters):
    for name, (lo, hi) in bands.items():
        if lo <= letters <= hi:
            return name
    return None


def rot_bin(letters):
    k = int(ROT_BINS * math.log(letters / ROT_MIN) / math.log(ROT_MAX / ROT_MIN))
    return "L%02d" % min(max(k, 0), ROT_BINS - 1)


def spell(rng, terms, rank):
    """The same chain spelled another way: each term is rotated,
    conjugated by a letter, inverted with its sign flipped, or written
    as half its coefficient times its square; term order is shuffled."""
    out = []
    for c, w in terms:
        kind = rng.randrange(4)
        if kind == 0:
            k = rng.randrange(len(w))
            w = w[k:] + w[:k]
        elif kind == 1:
            x = rng.choice([g for g in range(-rank, rank + 1)
                            if g and g != -w[0] and g != w[-1]])
            w = (x,) + w + (-x,)
        elif kind == 2:
            c, w = -c, inverse(w)
        else:
            c, w = c / 2, w + w
        out.append((c, w))
    rng.shuffle(out)
    return out


# rounds per run: about 20 s, 30 s, 20 s and 8 s of op time at the
# baseline commit; every run does all of them, so both sides of a
# comparison time the same ops and the same tail percentile
PLANS = {"scl-sweep": {"rounds": 1, "draws": SCL_ROUND, "repeats": SCL_REPEATS,
                       "window": SCL_WINDOW},
         "encode-large": {"rounds": 1, "draws": ENCODE_ROUND, "window": ENCODE_WINDOW},
         "rot-long": {"rounds": 16, "draws": ROT_ROUND, "cycle": 16},
         "paper-cli": {"rounds": 1, "draws": CLI_ROUND}}
# tiny rounds of the cheapest bands, for the benchmark's own tests
SMOKE_PLANS = {"scl-sweep": {"rounds": 1, "draws": (("4-5", 3), ("6-7", 2)),
                             "repeats": (("4-5", 1), ("6-7", 1))},
               "encode-large": {"rounds": 1, "draws": (("12-13", 2), ("14-15", 1))},
               "rot-long": {"rounds": 1, "draws": ROT_ROUND[:6]},
               "paper-cli": {"rounds": 1,
                             "draws": (("usage", 1), ("not-boundary", 1), ("resource", 1),
                                       ("scl", 1), ("rot", 1), ("matchbound", 1))}}
POOL = {"scl-sweep": "scl", "encode-large": "encode", "rot-long": "rot", "paper-cli": "cli"}


def _bands(rng, pool, key, draws, window=None, cycle=1):
    by_band = {}
    for item in pool:
        by_band.setdefault(item[key], []).append(item)
    for band, (lo, hi) in (window or {}).items():
        items = by_band.get(band, [])
        if items:
            median = sorted(it["cost_s"] for it in items)[len(items) // 2]
            by_band[band] = [it for it in items
                             if lo * median <= it["cost_s"] <= hi * median]
    return {band: Strata(rng, by_band.get(band, []), n, cycle) for band, n in draws}


def _draws(strata, draws):
    return [(band, strata[band].draw(k)) for band, n in draws for k in range(n)]


def scl_rounds(pins, seed, plan):
    rng = random.Random("scl-sweep-%d" % seed)
    strata = _bands(rng, pins["scl"], "band", plan["draws"], plan.get("window"))
    rounds = []
    for _ in range(plan["rounds"]):
        ops = []
        for band, item in _draws(strata, plan["draws"]):
            terms = spell(rng, parse_terms(item["terms"]), item["rank"])
            ops.append({"band": band, "id": item["id"], "rank": item["rank"],
                        "terms": dump_terms(terms), "factor": "1",
                        "repeat": False})
        drawn = {band: [op for op in ops if op["band"] == band] for band, _ in plan["draws"]}
        rng.shuffle(ops)
        for band, repeats in plan["repeats"]:
            # repeat i re-asks the draw of stratum (i + 1/2) * draws / repeats,
            # so the repeats have the same cost profile in every round
            for i in range(repeats):
                base = drawn[band][int((i + 0.5) * len(drawn[band]) / repeats)]
                item_terms = spell(rng, parse_terms(base["terms"]), base["rank"])
                factor = rng.choice(SCALES) if rng.random() < 0.5 else Fraction(1)
                op = dict(base, terms=dump_terms([(c * factor, w) for c, w in item_terms]),
                          factor=coefficient_text(factor), repeat=True)
                _insert_after(rng, ops, op, base)
        rounds.append(ops)
    return rounds


def encode_rounds(pins, seed, plan):
    rng = random.Random("encode-large-%d" % seed)
    strata = _bands(rng, pins["encode"], "band", plan["draws"], plan.get("window"))
    rounds = []
    for _ in range(plan["rounds"]):
        ops = [{"band": band, "id": item["id"], "rank": item["rank"],
                "terms": item["terms"]} for band, item in _draws(strata, plan["draws"])]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def rot_rounds(pins, seed, plan):
    rng = random.Random("rot-long-%d" % seed)
    pool = [dict(item, band=rot_bin(item["letters"])) for item in pins["rot"]]
    strata = _bands(rng, pool, "band", plan["draws"], cycle=plan.get("cycle", 1))
    rounds = []
    for _ in range(plan["rounds"]):
        ops = [{"band": band, "id": item["id"]} for band, item in _draws(strata, plan["draws"])]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def cli_band(item):
    heavy = item["category"] == "immersed" and item["cost_s"] >= CLI_HEAVY_S
    return item["category"] + ("-heavy" if heavy else "")


def cli_rounds(pins, seed, plan):
    rng = random.Random("paper-cli-%d" % seed)
    pool = [dict(item, band=cli_band(item)) for item in pins["cli"]]
    strata = _bands(rng, pool, "band", plan["draws"], cycle=plan.get("cycle", 1))
    rounds = []
    for _ in range(plan["rounds"]):
        units = [[{"band": band, "id": item["id"], "step": k, "argv": cmd["argv"]}
                  for k, cmd in enumerate(item["commands"])]
                 for band, item in _draws(strata, plan["draws"])]
        rng.shuffle(units)
        rounds.append([op for unit in units for op in unit])
    return rounds


ROUNDS = {"scl-sweep": scl_rounds, "encode-large": encode_rounds,
          "rot-long": rot_rounds, "paper-cli": cli_rounds}
