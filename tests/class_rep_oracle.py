"""Brute-force conjugacy-class representatives: the oracle for
sclkit.freegroup.class_rep and canonicalize.

This is the straightforward normal form that the linear-time scan
replaced.  class_rep builds the full tuple key, (generator, inverse?) per
letter, of every rotation of the word and of its inverse and keeps the
least, so it is quadratic in the word length; canonicalize cyclically
reduces each term, takes the primitive root of the core, and sorts the
terms by these tuple keys.  The package must return equal (==) results:
the same (rep, sign) for every cyclically reduced word and the same
canonical chain, terms in the same order.
"""

from sclkit.freegroup import (Chain, ChainTerm, Word, cyclic_core, invert,
                              is_cyclically_reduced)
from sclkit.rational import QQ


def letter_key(letter):
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(w):
    return tuple(letter_key(x) for x in w.letters)


def primitive_root(core):
    """(u, k) with core = u**k and u primitive, for a nonempty cyclically
    reduced core."""
    n = len(core)
    L = core.letters
    for d in range(1, n + 1):
        if n % d == 0 and L[:d] * (n // d) == L:
            return Word(L[:d], core.rank), n // d


def class_rep(w):
    if not is_cyclically_reduced(w):
        raise ValueError("class_rep requires a cyclically reduced word")
    best = None
    best_key = None
    best_sign = 1
    for cand, sign in ((w, 1), (invert(w), -1)):
        L = cand.letters
        for i in range(len(L)):
            rot = L[i:] + L[:i]
            key = tuple(letter_key(x) for x in rot)
            if best_key is None or key < best_key:
                best, best_key, best_sign = rot, key, sign
    if best is None:
        return w, 1
    return Word(best, w.rank), best_sign


def canonicalize(chain):
    buckets = {}
    for t in chain.terms:
        core = cyclic_core(t.word)
        if len(core) == 0:
            continue
        root, k = primitive_root(core)
        rep, sign = class_rep(root)
        buckets[rep] = buckets.get(rep, QQ(0)) + t.coefficient * k * sign
    terms = [ChainTerm(c, w) for w, c in buckets.items() if c != 0]
    terms.sort(key=lambda t: (len(t.word), word_key(t.word)))
    return Chain(tuple(terms), chain.rank)
