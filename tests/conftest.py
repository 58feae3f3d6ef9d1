"""Shared pinned values, seeded random chain generators, the rotation
defect probe and the environment of a child sclkit process."""

import os
import random

import sclkit
from sclkit.chainexpr import parse_chain
from sclkit.errors import InvariantViolationError
from sclkit.freegroup import (add_chains, canonicalize, chain_of, concat,
                              invert, make_word, single_chain)
from sclkit.rational import qq
from sclkit.rotation import punctured_torus_rep, rot_element

# chains with exactly known scl, reused across the suite
SCL_CORPUS = (
    ("[a,b]", qq(1, 2)),
    ("2*[a,b] + ab - a - b", qq(1)),
    ("2*[a,b] - ab + a + b", qq(1)),
    ("a + b + BA", qq(1, 2)),
    ("abABAbaB", qq(1, 2)),
    ("c + CBAba", qq(1)),
    ("[a,b] + [c,d]", qq(1)),
    ("abABcabABC", qq(3, 2)),
    ("a + A", qq(0)),
)

# the rank-2 entries (immersion and rotation apply only to these)
RANK2_CORPUS = tuple((expr, value) for expr, value in SCL_CORPUS
                     if parse_chain(expr).chain.rank <= 2)

# explicit commutator-subgroup words of length <= 12 (rank 2, freely
# reduced, zero exponent sums)
COMMUTATOR_WORDS = (
    "abAB", "baBA", "abABabAB", "aabbAABB", "abABAbaB", "abABABab",
    "babABB", "aabABA", "aabAAB", "abbABB", "abABabABabAB", "aabbAABBabAB",
)


def chain(expr, min_rank=1):
    return parse_chain(expr, min_rank=min_rank).chain


def random_word(rng, rank, max_len):
    alphabet = [x for x in range(-rank, rank + 1) if x != 0]
    n = rng.randint(1, max_len)
    return make_word(tuple(rng.choice(alphabet) for _ in range(n)), rank)


def random_trivial_chain(rng, rank=2, max_letters=12):
    """Random homologically trivial chain with a bounded canonical size."""
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            u, v = random_word(rng, rank, 3), random_word(rng, rank, 3)
            ch = single_chain(concat(u, v, invert(u), invert(v)))
        elif kind == 1:
            u, v = random_word(rng, rank, 3), random_word(rng, rank, 3)
            ch = chain_of([(1, u), (1, v), (-1, concat(u, v))], rank)
        else:
            u, v = random_word(rng, rank, 2), random_word(rng, rank, 2)
            t = random_word(rng, rank, 2)
            ch = add_chains(
                chain_of([(1, u), (1, v), (-1, concat(u, v))], rank),
                chain_of([(1, concat(t, u, invert(t))), (-1, u)], rank))
        canon = canonicalize(ch)
        total = sum(len(t.word) for t in canon.terms)
        if 0 < total <= max_letters:
            return canon


def random_multi_term_chain(rng, rank, min_letters, max_letters):
    """Random homologically trivial chain of two or more terms, the sum of
    two random_trivial_chain draws, with a canonical size in range."""
    while True:
        canon = canonicalize(add_chains(random_trivial_chain(rng, rank),
                                        random_trivial_chain(rng, rank)))
        total = sum(len(t.word) for t in canon.terms)
        if len(canon.terms) > 1 and min_letters <= total <= max_letters:
            return canon


def seeded(seed):
    return random.Random(seed)


def defect_probe(rep=None, samples=500, seed=20260814):
    """Largest |rot(gh) - rot(g) - rot(h)| over random word pairs.

    The rotation quasimorphism has defect one, so any value above one is
    an implementation fault and raises InvariantViolationError.
    """
    if rep is None:
        rep = punctured_torus_rep()
    rng = random.Random(seed)
    worst = 0
    for _ in range(samples):
        words = []
        for _ in range(2):
            letters = []
            for _ in range(rng.randint(1, 6)):
                letters.append(rng.choice((1, 2, -1, -2)))
            words.append(make_word(tuple(letters), 2))
        g, h = words
        product = concat(g, h)
        d = abs(rot_element(rep, product) - rot_element(rep, g)
                - rot_element(rep, h))
        if d > worst:
            worst = d
        if worst > 1:
            raise InvariantViolationError(
                "defect %d exceeds 1 on %r, %r" % (worst, str(g), str(h)))
    return worst


def child_env():
    """os.environ with the directory that holds this sclkit first on
    PYTHONPATH: pytest's pythonpath setting does not reach a child
    process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sclkit.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
