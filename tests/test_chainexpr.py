"""Chain expression grammar, formatting, and round trips."""

import pytest
from hypothesis import given, strategies as st

from sclkit.chainexpr import (format_chain, format_coefficient, format_word,
                              parse_chain, parse_word)
from sclkit.errors import ChainSyntaxError
from sclkit.freegroup import canonicalize, chain_of, make_word, word
from sclkit.rational import QQ

from conftest import random_trivial_chain, seeded


def test_single_word():
    c = parse_chain("abAB").chain
    assert len(c.terms) == 1
    assert str(c.terms[0].word) == "abAB"
    assert c.terms[0].coefficient == 1
    assert c.rank == 2


def test_plus_minus_terms():
    c = parse_chain("2*abAB + ab - a - b").chain
    coeffs = {str(t.word): t.coefficient for t in c.terms}
    assert coeffs == {"abAB": 2, "ab": 1, "a": -1, "b": -1}


def test_commutator_and_powers():
    assert parse_chain("[a,b]").chain == parse_chain("abAB").chain
    c = parse_chain("[a,b]^2").chain
    # squares of a single class merge into coefficient 2 of the root
    assert len(c.terms) == 1 and c.terms[0].coefficient == 2
    assert str(c.terms[0].word) == "abAB"
    assert parse_chain("abab").chain == parse_chain("2*ab").chain


def test_inverse_suffix_and_rational_coefficients():
    c = parse_chain("1/2*a^2").chain
    assert len(c.terms) == 1
    assert c.terms[0].coefficient == 1 and str(c.terms[0].word) == "a"
    c = parse_chain("3/2*ab - 1/2*ba").chain
    assert len(c.terms) == 1 and c.terms[0].coefficient == 1
    assert str(c.terms[0].word) == "ab"


def test_zero_chain_spellings():
    assert parse_chain("0").chain.terms == ()
    assert parse_chain("a - a").chain.terms == ()
    assert parse_chain("a + A").chain.terms == ()


def test_min_rank():
    assert parse_chain("a", min_rank=3).chain.rank == 3
    assert parse_word("ab").rank == 2
    assert parse_word("a").rank == 1


def test_syntax_error_positions():
    cases = [
        ("ab^", "missing exponent after '^'", 2),
        ("", "empty chain expression", 0),
        ("a ++ b", "expected a word", 3),
        ("[a,b", "expected ']'", 4),
        ("2*", "expected a word", 2),
        ("a1", "expected a word", 1),
        ("a@b", "unexpected character '@'", 1),
        ("1/0*a", "zero denominator", 2),
        ("[a b]", "expected ','", 4),
        ("a,b", "expected '+' or '-'", 1),
    ]
    for text, message, offset in cases:
        with pytest.raises(ChainSyntaxError) as err:
            parse_chain(text)
        assert err.value.position == offset, text
        assert str(err.value) == "%s (at offset %d)" % (message, offset)
    with pytest.raises(ChainSyntaxError) as err:
        parse_word("ab]")
    assert str(err.value) == "unexpected token in word expression (at offset 2)"
    with pytest.raises(ChainSyntaxError) as err:
        parse_word(" ")
    assert str(err.value) == "empty word expression (at offset 0)"


def test_non_ascii_characters_are_syntax_errors():
    # only a-z, A-Z and decimal digits are tokens, so a non-ASCII letter
    # or a non-decimal digit fails at its own offset
    for text, offset in [("é", 0), ("abé", 2), ("a²", 1), ("a^²", 2)]:
        for parse in (parse_chain, parse_word):
            with pytest.raises(ChainSyntaxError) as err:
                parse(text)
            assert err.value.position == offset, text
            assert "unexpected character %r" % text[offset] in str(err.value)


def test_format_basics():
    assert format_chain(parse_chain("0").chain) == "0"
    assert format_chain(parse_chain("abAB").chain) == "abAB"
    assert format_coefficient(QQ(3, 2)) == "3/2"
    assert format_coefficient(QQ(4, 2)) == "2"
    assert format_word(word("aA")) == "1"
    assert format_word(word("abAB")) == "abAB"


def test_format_negative_and_fractional_terms():
    c = chain_of([(QQ(-3, 2), word("ab")), (1, word("a", 2))], 2)
    text = format_chain(canonicalize(c))
    again = parse_chain(text).chain
    assert again == canonicalize(c)
    assert "3/2*" in text


def test_format_chain_of_rank_past_26():
    # the rank is not spelled; only a letter past z has no character
    c = parse_chain("abAB", min_rank=30).chain
    assert format_chain(c) == "abAB"
    assert parse_chain(format_chain(c), min_rank=30).chain == c
    with pytest.raises(ValueError, match="letter 27 has no character"):
        format_chain(canonicalize(chain_of([(1, make_word((27, 1), 30))],
                                           30)))


letters_st = st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=10)


@given(st.lists(st.tuples(st.integers(-3, 3), letters_st), max_size=4))
def test_roundtrip_random_chains(pairs):
    chain = canonicalize(chain_of(
        [(c, make_word(tuple(ls), 2)) for c, ls in pairs], 2))
    text = format_chain(chain)
    assert parse_chain(text, min_rank=chain.rank).chain == chain


def test_roundtrip_trivial_chains():
    rng = seeded(7)
    for _ in range(40):
        chain = random_trivial_chain(rng)
        text = format_chain(chain)
        assert parse_chain(text, min_rank=chain.rank).chain == chain
