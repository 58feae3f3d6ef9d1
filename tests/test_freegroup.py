"""Words, reduction, conjugacy classes, and chain normal forms."""

import pytest
from hypothesis import given, strategies as st

from sclkit.errors import NotBoundaryError, RankMismatchError
from sclkit.freegroup import (Chain, Word, _cyclic_core, abelianize,
                              add_chains, canonicalize, chain_of,
                              chains_equal, concat,
                              cyclic_reduce, invert, invert_chain,
                              is_homologically_trivial, letter_from_char,
                              letter_to_char, make_word, primitive_root,
                              require_boundary, scale_chain, single_chain,
                              with_rank, word, word_exponents, word_power)
from sclkit.rational import qq

letters_st = st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=14)


def test_letter_chars():
    assert letter_from_char("a") == 1 and letter_from_char("A") == -1
    assert letter_from_char("z") == 26 and letter_from_char("Z") == -26
    assert letter_to_char(3) == "c" and letter_to_char(-3) == "C"


def test_word_reduces_on_construction():
    assert word("aA").letters == ()
    assert word("abBA").letters == ()
    assert word("abBc").letters == (1, 3)
    assert str(word("abAB")) == "abAB"


@given(letters_st)
def test_reduction_idempotent_and_reduced(ls):
    w = make_word(tuple(ls), 2)
    for i in range(len(w.letters) - 1):
        assert w.letters[i] != -w.letters[i + 1]
    assert make_word(w.letters, 2) == w


@given(letters_st)
def test_invert_involution_and_cancellation(ls):
    w = make_word(tuple(ls), 2)
    assert invert(invert(w)) == w
    assert len(concat(w, invert(w))) == 0
    assert word_exponents(invert(w)) == tuple(-e for e in word_exponents(w))


@given(letters_st, letters_st)
def test_concat_exponents_additive(ls1, ls2):
    u, v = make_word(tuple(ls1), 2), make_word(tuple(ls2), 2)
    uv = concat(u, v)
    assert word_exponents(uv) == tuple(
        a + b for a, b in zip(word_exponents(u), word_exponents(v)))


def test_word_power():
    w = word("ab")
    assert word_power(w, 3).letters == (1, 2) * 3
    assert word_power(w, -2) == invert(word_power(w, 2))
    assert len(word_power(w, 0)) == 0


def test_rank_handling():
    w = word("ab")
    assert w.rank == 2
    assert with_rank(w, 4).rank == 4
    with pytest.raises(RankMismatchError):
        with_rank(word("abc"), 2)
    with pytest.raises(RankMismatchError):
        concat(word("a"), word("abc"))


def test_cyclic_reduce():
    w = word("aabAA")
    core, conj = cyclic_reduce(w)
    assert str(core) == "b" and str(conj) == "aa"
    # conjugating back recovers the original word
    assert concat(conj, core, invert(conj)) == w
    already = word("abAB")
    core, conj = cyclic_reduce(already)
    assert core == already and len(conj) == 0
    # the core of a cyclically reduced word is the word itself
    assert _cyclic_core(already) is already
    assert _cyclic_core(w) == word("b")


def test_primitive_root():
    root, k = primitive_root(word("abab"))
    assert str(root) == "ab" and k == 2
    root, k = primitive_root(word("abAB"))
    assert str(root) == "abAB" and k == 1


@given(letters_st, letters_st)
def test_conjugacy_class_merges_in_canonical_form(ls, gs):
    w = make_word(tuple(ls), 2)
    g = make_word(tuple(gs), 2)
    conj = concat(g, w, invert(g))
    diff = chain_of([(1, conj), (-1, w)], 2)
    assert canonicalize(diff).terms == ()


@given(letters_st, st.integers(min_value=1, max_value=4))
def test_powers_merge_in_canonical_form(ls, k):
    w = make_word(tuple(ls), 2)
    power_chain = single_chain(word_power(w, k))
    scaled = scale_chain(single_chain(w), k)
    assert chains_equal(power_chain, scaled)


def test_canonicalize_examples():
    assert canonicalize(chain_of([(1, word("a")), (1, word("A"))], 1)).terms == ()
    c = canonicalize(chain_of([(qq(1, 2), word("abab"))], 2))
    assert len(c.terms) == 1 and c.terms[0].coefficient == 1
    assert str(c.terms[0].word) == "ab"


def test_chains_equal_ignores_presentation():
    a = chain_of([(1, word("abAB")), (1, word("ba"))], 2)
    b = chain_of([(1, word("BabABb")), (1, word("ab"))], 2)
    assert chains_equal(a, b)
    assert not chains_equal(a, chain_of([(1, word("abAB"))], 2))


def test_abelianize_and_boundary():
    c = chain_of([(1, word("ab")), (-1, word("a", 2)), (-1, word("b"))], 2)
    assert abelianize(c) == (0, 0)
    assert is_homologically_trivial(c)
    # the check hands back each term's exponent vector
    assert require_boundary(c) == ((1, 1), (1, 0), (0, 1))
    with pytest.raises(NotBoundaryError, match=r"exponent vector \(1, 1\)"):
        require_boundary(single_chain(word("ab")))


def test_chain_algebra():
    c = single_chain(word("abAB"))
    doubled = add_chains(c, c)
    assert chains_equal(doubled, scale_chain(c, 2))
    assert chains_equal(invert_chain(invert_chain(c)), c)
    with pytest.raises(RankMismatchError):
        add_chains(single_chain(word("a")), single_chain(word("ab")))
