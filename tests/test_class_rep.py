"""Linear-time class representatives against the brute-force oracle, and
normal-form properties of long words."""

import itertools

import pytest

import class_rep_oracle as oracle
from conftest import SCL_CORPUS, chain, random_word, seeded
from sclkit.chainexpr import parse_chain
from sclkit.freegroup import (Chain, ChainTerm, Word, _least_rotation,
                              canonicalize, chain_of, class_rep, concat,
                              cyclic_core, invert, is_cyclically_reduced,
                              letter_key, make_word, word, word_key,
                              word_power)
from sclkit.rational import QQ


def brute_least_rotation(keys):
    return min(range(len(keys)), key=lambda i: keys[i:] + keys[:i])


def cyclic_word(rng, rank, length):
    """A random cyclically reduced word of exactly `length` letters."""
    alphabet = [x for x in range(-rank, rank + 1) if x != 0]
    while True:
        letters = [rng.choice(alphabet)]
        while len(letters) < length:
            x = rng.choice(alphabet)
            if x != -letters[-1]:
                letters.append(x)
        w = Word(tuple(letters), rank)
        if is_cyclically_reduced(w):
            return w


def test_letter_key_order():
    order = [letter_key(x) for x in (1, -1, 2, -2, 3, -3, 26, -26)]
    assert order == sorted(order) and len(set(order)) == len(order)
    assert [letter_key(x) for x in (1, -1, 2, -2)] == [1, 2, 3, 4]
    words = [word(t, 3) for t in ("a", "A", "b", "B", "ab", "aB", "Ab", "c",
                                  "abc", "aC", "BA", "bA")]
    assert (sorted(words, key=word_key)
            == sorted(words, key=oracle.word_key))


@pytest.mark.parametrize("kind", ["constant", "periodic", "two-symbol"])
def test_least_rotation_matches_brute_force(kind):
    rng = seeded(5)
    cases = []
    for n in range(1, 40):
        if kind == "constant":
            cases.append([rng.randint(1, 4)] * n)
        elif kind == "periodic":
            block = [rng.randint(1, 2) for _ in range(rng.randint(1, 5))]
            cases.append(block * rng.randint(1, 8))
        else:
            cases.extend([rng.randint(1, 2) for _ in range(n)]
                         for _ in range(12))
    if kind == "two-symbol":
        # every sequence over {1, 2} up to 10 long
        cases.extend(list(p) for n in range(1, 11)
                     for p in itertools.product((1, 2), repeat=n))
    for keys in cases:
        k = _least_rotation(keys)
        assert k == brute_least_rotation(keys), keys


def test_class_rep_exhaustive_short_words():
    """Every cyclically reduced word of rank 1-3 up to 6 letters."""
    counted = 0
    for rank in (1, 2, 3):
        alphabet = [x for x in range(-rank, rank + 1) if x != 0]
        for n in range(0, 7 if rank < 3 else 5):
            for letters in itertools.product(alphabet, repeat=n):
                w = make_word(letters, rank)
                if len(w) != n or not is_cyclically_reduced(w):
                    continue
                assert class_rep(w) == oracle.class_rep(w), w
                counted += 1
    assert counted == 1911


def test_class_rep_matches_oracle_random():
    """Seeded cyclically reduced words of rank 1-4 and 1-300 letters,
    a quarter of them proper powers."""
    rng = seeded(11)
    for trial in range(400):
        rank = rng.randint(1, 4)
        n = rng.choice((rng.randint(1, 30), rng.randint(1, 300)))
        if trial % 4 == 0:
            k = rng.randint(2, 5)
            w = word_power(cyclic_word(rng, rank, max(1, n // k)), k)
        else:
            w = cyclic_word(rng, rank, n)
        assert class_rep(w) == oracle.class_rep(w), w


def test_class_rep_matches_oracle_shared_first_letter():
    """Words u b U b, whose inverse has the rotation u B U B: the least
    rotations of the word and of its inverse agree on a long prefix."""
    rng = seeded(12)
    shared = 0
    for trial in range(300):
        rank = rng.randint(2, 4)
        u = random_word(rng, rank, rng.randint(1, 40))
        x = rng.choice([g for g in range(-rank, rank + 1) if abs(g) >= 2])
        w = concat(u, Word((x,), rank), invert(u), Word((x,), rank))
        w = cyclic_core(w)
        if len(w) == 0:
            continue
        rep, sign = oracle.class_rep(w)
        inv = invert(w)
        first = min(w.letters, key=letter_key)
        if first == min(inv.letters, key=letter_key):
            shared += 1
        assert class_rep(w) == (rep, sign), w
        assert class_rep(inv) == (rep, -sign), w
    assert shared > 150


def test_class_rep_rejects_unreduced():
    with pytest.raises(ValueError):
        class_rep(word("abA"))
    assert class_rep(Word((), 2)) == (Word((), 2), 1)


def scrambled(rng, c):
    """The terms of c rotated, conjugated, split into powers and inverted
    with the coefficient negated: the same chain in another spelling."""
    pairs = []
    for t in c.terms:
        w, coeff = t.word, t.coefficient
        i = rng.randrange(len(w))
        w = Word(w.letters[i:] + w.letters[:i], w.rank)
        if rng.random() < 0.5:
            w, coeff = invert(w), -coeff
        k = rng.randint(1, 3)
        w, coeff = word_power(w, k), coeff / k
        g = random_word(rng, c.rank, 4)
        pairs.append((coeff, concat(g, w, invert(g))))
    rng.shuffle(pairs)
    return chain_of(pairs, c.rank)


def test_canonicalize_matches_oracle():
    rng = seeded(13)
    for expr, _ in SCL_CORPUS:
        c = chain(expr)
        assert canonicalize(c) == oracle.canonicalize(c) == c
        for _ in range(10):
            raw = scrambled(rng, c)
            assert canonicalize(raw) == oracle.canonicalize(raw) == c
    for _ in range(200):
        rank = rng.randint(1, 3)
        pairs = [(QQ(rng.randint(-3, 3), rng.randint(1, 3)),
                  random_word(rng, rank, 12))
                 for _ in range(rng.randint(1, 6))]
        raw = chain_of(pairs, rank)
        raw = Chain(raw.terms + raw.terms[:1], rank)
        assert canonicalize(raw) == oracle.canonicalize(raw)


def long_pair(rng):
    """Two random rank-2 words of 250-500 letters in all."""
    total = rng.randint(250, 500)
    a = rng.randint(1, total - 1)
    return (cyclic_word(rng, 2, a), cyclic_word(rng, 2, total - a))


def test_long_canonicalize_invariant_under_rotation_and_inversion():
    rng = seeded(14)
    for _ in range(12):
        w = cyclic_word(rng, 2, rng.randint(500, 1000))
        coeff = QQ(rng.randint(1, 5), rng.randint(1, 3))
        base = canonicalize(chain_of([(coeff, w)], 2))
        assert len(base.terms) == 1
        for _ in range(3):
            i = rng.randrange(len(w))
            turned = Word(w.letters[i:] + w.letters[:i], 2)
            assert canonicalize(chain_of([(coeff, turned)], 2)) == base
            inverted = chain_of([(-coeff, invert(turned))], 2)
            assert canonicalize(inverted) == base


def test_long_commutator_parse_equals_explicit_word():
    rng = seeded(15)
    for _ in range(12):
        u, v = long_pair(rng)
        parsed = parse_chain("[%s,%s]" % (u, v)).chain
        explicit = concat(u, v, invert(u), invert(v))
        assert parsed == canonicalize(Chain((ChainTerm(QQ(1), explicit),), 2))
