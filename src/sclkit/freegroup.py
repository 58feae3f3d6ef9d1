"""Words, conjugacy classes, and rational chains in free groups.

Letters are nonzero integers: k stands for the k-th generator (1-based)
and -k for its inverse.  In text form generators are a..z and inverses
A..Z.  Words are always stored freely reduced.  A chain is a finite
formal sum of words with exact rational coefficients; canonicalize puts
it into the normal form used by every downstream computation (primitive
cyclically reduced class representatives, merged and cancelled against
inverse classes).
"""

from collections import namedtuple

from .errors import NotBoundaryError, RankMismatchError
from .rational import QQ, ZERO, denominator_lcm


# ---------------------------------------------------------------------------
# letters

# generators that have a letter: a..z
_SPELLED = 26


def letter_from_char(ch):
    o = ord(ch)
    if ord("a") <= o <= ord("z"):
        return o - ord("a") + 1
    if ord("A") <= o <= ord("Z"):
        return -(o - ord("A") + 1)
    raise ValueError("invalid letter %r" % ch)


def letter_to_char(letter):
    """a..z for the letters 1..26 and A..Z for -1..-26; any other letter
    has no character and raises ValueError."""
    if not 0 < abs(letter) <= _SPELLED:
        raise ValueError("letter %r has no character (at most %d generators "
                         "are spelled)" % (letter, _SPELLED))
    if letter > 0:
        return chr(ord("a") + letter - 1)
    return chr(ord("A") - letter - 1)


def letter_key(letter):
    """Integer sort key: a < A < b < B < ... are 1, 2, 3, 4, ..."""
    return 2 * abs(letter) - (letter > 0)


def reduce_letters(letters):
    """Freely reduce a letter sequence."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# words

class Word(namedtuple("Word", "letters rank")):
    """A freely reduced word; letters are nonzero ints with |letter| <= rank.

    Its length is its letter count, not its field count, so the namedtuple
    helpers _make and _replace do not apply to it.
    """

    __slots__ = ()

    def __new__(cls, letters, rank):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        for x in letters:
            if not isinstance(x, int) or x == 0 or abs(x) > rank:
                raise ValueError("letter %r out of range for rank %d" % (x, rank))
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                raise ValueError("word is not freely reduced: %r" % (letters,))
        return super().__new__(cls, letters, rank)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return "".join(letter_to_char(x) for x in self.letters)

    def __repr__(self):
        # a word over generators past z shows its letters as integers
        if any(abs(x) > _SPELLED for x in self.letters):
            return "Word(%r, rank=%d)" % (self.letters, self.rank)
        return "Word(%r, rank=%d)" % (str(self), self.rank)


def make_word(letters, rank):
    """Build a Word, freely reducing the letter sequence first."""
    return Word(reduce_letters(letters), rank)


def word(text, rank=None):
    """Parse a word from a letter string such as "abAB".

    Rank defaults to the largest generator index used (at least 1).
    """
    letters = tuple(letter_from_char(ch) for ch in text)
    if rank is None:
        rank = max((abs(x) for x in letters), default=1)
    return make_word(letters, rank)


def invert(w):
    """Inverse word; the inverse of a reduced word is already reduced."""
    return Word(tuple(-x for x in reversed(w.letters)), w.rank)


def concat(*words):
    """Product of words (freely reduced); all ranks must agree."""
    if not words:
        raise ValueError("empty product")
    rank = words[0].rank
    letters = []
    for w in words:
        if w.rank != rank:
            raise RankMismatchError("cannot multiply rank %d and rank %d words"
                                    % (rank, w.rank))
        letters.extend(w.letters)
    return make_word(letters, rank)


def word_power(w, n):
    """w**n for any integer n (freely reduced)."""
    base = w if n >= 0 else invert(w)
    return make_word(base.letters * abs(n), w.rank)


def with_rank(w, rank):
    """The same word viewed in a larger ambient free group."""
    if rank < w.rank:
        raise RankMismatchError("cannot shrink rank %d to %d" % (w.rank, rank))
    return Word(w.letters, rank)


def is_cyclically_reduced(w):
    L = w.letters
    return len(L) < 2 or L[0] != -L[-1]


def cyclic_core(w):
    """The cyclically reduced core of w: w itself when it already is
    cyclically reduced, so no Word is built or validated."""
    L = w.letters
    i, j = 0, len(L)
    while j - i >= 2 and L[i] == -L[j - 1]:
        i += 1
        j -= 1
    return w if i == 0 else Word(L[i:j], w.rank)


def _cyclic_root(core):
    """(u, k) with core = u**k and u primitive, for a nonempty cyclically
    reduced core; the root is the periodic block of the letter string."""
    L = core.letters
    n = len(L)
    for d in range(1, n):
        if n % d == 0 and L[:d] * (n // d) == L:
            return Word(L[:d], core.rank), n // d
    return core, 1


def word_key(w):
    """Total order on words: by the letter order a < A < b < B < ..."""
    return tuple(letter_key(x) for x in w.letters)


def _least_rotation(keys):
    """Start of the lexicographically least rotation of a sequence (the
    first start, when several rotations are equal).

    Two candidate starts i < j are compared letter by letter.  At the
    first mismatch, at offset k, the start with the larger letter loses,
    and so do the k starts after it: the rotation at loser + t is larger
    than the one at winner + t, for t <= k.  Every start below j other
    than i has lost, so when j runs off the end, or the two rotations
    agree for a full period, i is the answer; O(n) comparisons.
    """
    n = len(keys)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[(i + k) % n], keys[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(j, i + k + 1)
            j = i + 1
        else:
            j += k + 1
        k = 0
    return i


def class_rep(w):
    """Canonical conjugacy-class representative of a cyclically reduced word.

    Returns (rep, sign): rep is the lexicographically least rotation among
    the rotations of w and of its inverse, and sign is +1 if rep is a
    rotation of w itself, -1 if it comes from the inverse.  The two
    rotation sets never meet (no free-group element is conjugate to its
    own inverse), so the sign is well defined.

    Linear time: the least-rotation scan (see _least_rotation) runs once
    over the integer letter keys of w and once over those of its inverse,
    and the smaller of the two rotations wins.
    """
    if not is_cyclically_reduced(w):
        raise ValueError("class_rep requires a cyclically reduced word")
    L = w.letters
    if not L:
        return w, 1
    table = {x: letter_key(x) for x in range(-w.rank, w.rank + 1) if x}
    keys = [table[x] for x in L]
    inv_keys = [table[-x] for x in reversed(L)]
    i = _least_rotation(keys)
    j = _least_rotation(inv_keys)
    if inv_keys[j:] + inv_keys[:j] < keys[i:] + keys[:i]:
        inv = tuple(-x for x in reversed(L))
        return Word(inv[j:] + inv[:j], w.rank), -1
    return Word(L[i:] + L[:i], w.rank), 1


# ---------------------------------------------------------------------------
# chains

class ChainTerm(namedtuple("ChainTerm", "coefficient word")):
    """An exact rational coefficient times a Word."""

    __slots__ = ()


class Chain(namedtuple("Chain", "terms rank")):
    """A formal rational sum of words, all of the same rank: terms is a
    tuple of ChainTerm."""

    __slots__ = ()

    def __new__(cls, terms, rank):
        for t in terms:
            if t.word.rank != rank:
                raise RankMismatchError(
                    "term %r has rank %d, chain has rank %d"
                    % (t.word, t.word.rank, rank))
        return super().__new__(cls, terms, rank)

    def is_empty(self):
        return not self.terms


def chain_of(pairs, rank):
    """Chain from (coefficient, word) pairs."""
    return Chain(tuple(ChainTerm(QQ(c), w) for c, w in pairs), rank)


def single_chain(w):
    return chain_of([(1, w)], w.rank)


def add_chains(a, b):
    if a.rank != b.rank:
        raise RankMismatchError("cannot add rank %d and rank %d chains"
                                % (a.rank, b.rank))
    return Chain(a.terms + b.terms, a.rank)


def scale_chain(chain, k):
    k = QQ(k)
    if k == 0:
        return Chain((), chain.rank)
    return Chain(tuple(ChainTerm(t.coefficient * k, t.word) for t in chain.terms),
                 chain.rank)


def word_exponents(w):
    """Signed letter-count vector of length rank."""
    out = [0] * w.rank
    for x in w.letters:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(out)


def canonicalize(chain):
    """Normal form of a chain as a sum of conjugacy classes.

    Each term is cyclically reduced, powers are split off (u**k counts as
    k copies of u), every class is replaced by its canonical representative
    with the coefficient sign adjusted when the representative comes from
    the inverse class, equal representatives are merged, and zero terms are
    dropped.  Terms are sorted by (length, letter order).  scl, rot, and
    homology class are all invariant under this rewriting.
    """
    buckets = {}
    for t in chain.terms:
        core = cyclic_core(t.word)
        if len(core) == 0:
            continue
        root, k = _cyclic_root(core)
        rep, sign = class_rep(root)
        buckets[rep] = buckets.get(rep, ZERO) + t.coefficient * k * sign
    terms = [ChainTerm(c, w) for w, c in buckets.items() if c != 0]
    terms.sort(key=lambda t: (len(t.word), word_key(t.word)))
    return Chain(tuple(terms), chain.rank)


def require_boundary(chain):
    """Raise NotBoundaryError unless the chain is homologically trivial;
    returns the exponent vector of each term, in order."""
    exponents = tuple(word_exponents(t.word) for t in chain.terms)
    total = [ZERO] * chain.rank
    for t, vector in zip(chain.terms, exponents):
        for g, e in enumerate(vector):
            total[g] += t.coefficient * e
    if any(v != 0 for v in total):
        raise NotBoundaryError(
            "chain is not homologically trivial: exponent vector (%s)"
            % ", ".join(str(v) for v in total))
    return exponents


def prepare(chain):
    """Integerize and orient a chain for encoding; returns (chain, scale).

    Clears denominators (scale = lcm of them), drops terms that die in
    the normal form (identity words), replaces negative-coefficient terms
    by their inverse words, and cyclically reduces every word.  Raises
    NotBoundaryError if the chain is not homologically trivial.
    """
    require_boundary(chain)
    scale = denominator_lcm(t.coefficient for t in chain.terms)
    terms = []
    for t in chain.terms:
        c = t.coefficient * scale
        if c == 0:
            continue
        w = cyclic_core(t.word)
        if len(w) == 0:
            continue
        if c < 0:
            c, w = -c, invert(w)
        terms.append(ChainTerm(c, w))
    return Chain(tuple(terms), chain.rank), QQ(scale)
