"""Words, conjugacy classes, and rational chains in free groups.

Letters are nonzero integers: k stands for the k-th generator (1-based)
and -k for its inverse.  In text form generators are a..z and inverses
A..Z.  Words are always stored freely reduced.  A chain is a finite
formal sum of words with exact rational coefficients; canonicalize puts
it into the normal form used by every downstream computation (primitive
cyclically reduced class representatives, merged and cancelled against
inverse classes).
"""

from dataclasses import dataclass

from .errors import NotBoundaryError, RankMismatchError
from .rational import QQ, denominator_lcm, qq


# ---------------------------------------------------------------------------
# letters

def letter_from_char(ch):
    o = ord(ch)
    if ord("a") <= o <= ord("z"):
        return o - ord("a") + 1
    if ord("A") <= o <= ord("Z"):
        return -(o - ord("A") + 1)
    raise ValueError("invalid letter %r" % ch)


def letter_to_char(letter):
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

@dataclass(frozen=True)
class Word:
    """A freely reduced word; letters are nonzero ints with |letter| <= rank."""

    letters: tuple
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise ValueError("letter %r out of range for rank %d" % (x, self.rank))
        for i in range(len(self.letters) - 1):
            if self.letters[i] == -self.letters[i + 1]:
                raise ValueError("word is not freely reduced: %r" % (self.letters,))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return "".join(letter_to_char(x) for x in self.letters)

    def __repr__(self):
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


def _cyclic_core(w):
    """The cyclically reduced core of w: w itself when it already is
    cyclically reduced, so no Word is built or validated."""
    L = w.letters
    i, j = 0, len(L)
    while j - i >= 2 and L[i] == -L[j - 1]:
        i += 1
        j -= 1
    return w if i == 0 else Word(L[i:j], w.rank)


def cyclic_reduce(w):
    """Split w = conjugator * core * conjugator**-1 with core cyclically
    reduced; returns (core, conjugator)."""
    core = _cyclic_core(w)
    return core, Word(w.letters[:(len(w) - len(core)) // 2], w.rank)


def _cyclic_root(core):
    """(u, k) with core = u**k and u primitive, for a nonempty cyclically
    reduced core; the root is the periodic block of the letter string."""
    L = core.letters
    n = len(L)
    for d in range(1, n + 1):
        if n % d == 0 and L[:d] * (n // d) == L:
            return (core if d == n else Word(L[:d], core.rank)), n // d
    raise AssertionError("unreachable")  # pragma: no cover


def primitive_root(w):
    """Smallest u with w = u**k (k >= 1); returns (u, k).

    For cyclically reduced input the root is the periodic block of the
    letter string; in general the word is conjugated to its cyclic core
    first.  The empty word returns (w, 1).
    """
    core, conj = cyclic_reduce(w)
    if len(core) == 0:
        return w, 1
    root_core, k = _cyclic_root(core)
    if len(conj) == 0:
        return root_core, k
    return concat(conj, root_core, invert(conj)), k


def word_key(w):
    """Total order on words: by the letter order a < A < b < B < ..."""
    return tuple(letter_key(x) for x in w.letters)


def _least_rotation(keys):
    """Start of the lexicographically least rotation of a sequence (the
    first start, when several rotations are equal).

    Booth's algorithm (1980): a Knuth-Morris-Pratt failure function over
    the doubled sequence, in which a mismatch against a smaller element
    moves the candidate start k forward; O(n) comparisons in all.
    """
    n = len(keys)
    s = keys + keys
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and sj != s[k]:
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def class_rep(w):
    """Canonical conjugacy-class representative of a cyclically reduced word.

    Returns (rep, sign): rep is the lexicographically least rotation among
    the rotations of w and of its inverse, and sign is +1 if rep is a
    rotation of w itself, -1 if it comes from the inverse.  The two
    rotation sets never meet (no free-group element is conjugate to its
    own inverse), so the sign is well defined.

    Linear time: Booth's least-rotation scan (see _least_rotation) runs
    once over the integer letter keys of w and once over those of its
    inverse, and the smaller of the two rotations wins.
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

@dataclass(frozen=True)
class ChainTerm:
    coefficient: object  # exact rational
    word: Word


def chain_term(coefficient, w):
    return ChainTerm(qq(coefficient), w)


@dataclass(frozen=True)
class Chain:
    """A formal rational sum of words, all of the same rank."""

    terms: tuple
    rank: int

    def __post_init__(self):
        for t in self.terms:
            if t.word.rank != self.rank:
                raise RankMismatchError(
                    "term %r has rank %d, chain has rank %d"
                    % (str(t.word), t.word.rank, self.rank))

    def is_empty(self):
        return not self.terms


def chain_of(pairs, rank):
    """Chain from (coefficient, word) pairs."""
    return Chain(tuple(chain_term(c, w) for c, w in pairs), rank)


def single_chain(w, coefficient=1):
    return chain_of([(coefficient, w)], w.rank)


def add_chains(a, b):
    if a.rank != b.rank:
        raise RankMismatchError("cannot add rank %d and rank %d chains"
                                % (a.rank, b.rank))
    return Chain(a.terms + b.terms, a.rank)


def scale_chain(chain, k):
    k = qq(k)
    if k == 0:
        return Chain((), chain.rank)
    return Chain(tuple(ChainTerm(t.coefficient * k, t.word) for t in chain.terms),
                 chain.rank)


def invert_chain(chain):
    """Orientation reversal: every word replaced by its inverse."""
    return Chain(tuple(ChainTerm(t.coefficient, invert(t.word)) for t in chain.terms),
                 chain.rank)


def word_exponents(w):
    """Signed letter-count vector of length rank."""
    out = [0] * w.rank
    for x in w.letters:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(out)


def _weighted_sum(chain, exponents):
    """Sum of the terms' exponent vectors weighted by their coefficients."""
    out = [qq(0)] * chain.rank
    for t, vector in zip(chain.terms, exponents):
        for g, e in enumerate(vector):
            out[g] += t.coefficient * e
    return tuple(out)


def abelianize(chain):
    """Coefficient-weighted exponent-sum vector (length = rank)."""
    return _weighted_sum(chain, (word_exponents(t.word) for t in chain.terms))


def is_homologically_trivial(chain):
    return all(v == 0 for v in abelianize(chain))


def term_sort_key(term):
    return (len(term.word), word_key(term.word))


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
        core = _cyclic_core(t.word)
        if len(core) == 0:
            continue
        root, k = _cyclic_root(core)
        rep, sign = class_rep(root)
        buckets[rep] = buckets.get(rep, qq(0)) + t.coefficient * k * sign
    terms = [ChainTerm(c, w) for w, c in buckets.items() if c != 0]
    terms.sort(key=term_sort_key)
    return Chain(tuple(terms), chain.rank)


def chains_equal(a, b):
    """Equality in the normal form (same rank, same canonical terms)."""
    return a.rank == b.rank and canonicalize(a).terms == canonicalize(b).terms


def require_boundary(chain):
    """Raise NotBoundaryError unless the chain is homologically trivial;
    returns the exponent vector of each term, in order."""
    exponents = tuple(word_exponents(t.word) for t in chain.terms)
    total = _weighted_sum(chain, exponents)
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
        w = _cyclic_core(t.word)
        if len(w) == 0:
            continue
        if c < 0:
            c, w = -c, invert(w)
        terms.append(ChainTerm(c, w))
    return Chain(tuple(terms), chain.rank), qq(scale)
