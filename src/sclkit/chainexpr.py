"""Parsing and formatting of chain expressions.

Grammar:
    chain  := [sign] term (('+'|'-') term)*
    term   := [coeff ['*']] factor+
    coeff  := int ['/' int]
    factor := letters | '[' factor+ ',' factor+ ']' | factor '^' ['-'] int

Lowercase letters are the generators a..z in order, uppercase letters
their inverses; a letters run is a single factor, so "ab^2" means
(ab)^2.  "[u,v]" expands to u v u^-1 v^-1.  Parsed chains are returned
in canonical form; the ambient rank is the largest generator mentioned.
"""

import re
from collections import namedtuple

from .errors import ChainSyntaxError
from .freegroup import (Chain, ChainTerm, Word, canonicalize, letter_from_char,
                        letter_to_char, reduce_letters)
from .rational import QQ, qq

# a number, a run of letters, a symbol, or any other non-space character
_TOKEN = re.compile(r"(\d+)|([a-zA-Z]+)|([-+*/\[\],^])|(\S)")


def _fail(message, tok):
    raise ChainSyntaxError(message, tok[2])


def _inverse(letters):
    return [-x for x in reversed(letters)]


class _Parser:
    """Recursive descent over (kind, text, offset) tokens, where kind is
    "num", "letters" or the symbol itself; an "end" token at the text's
    length closes the list."""

    def __init__(self, text, what):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            num, letters, symbol, other = m.groups()
            if other is not None:
                raise ChainSyntaxError("unexpected character %r" % other,
                                       m.start())
            kind = "num" if num else "letters" if letters else symbol
            self.tokens.append((kind, m.group(), m.start()))
        if not self.tokens:
            raise ChainSyntaxError("empty %s expression" % what, 0)
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, *kinds):
        """Consume and return the next token if its kind is one of kinds."""
        tok = self.tokens[self.i]
        if tok[0] in kinds:
            self.i += 1
            return tok
        return None

    def expect(self, kind, what):
        tok = self.take(kind)
        if tok is None:
            _fail("expected %s" % what, self.peek())
        return tok

    def terms(self):
        """chain := [sign] term (('+'|'-') term)*"""
        terms = [self.term(self.take("+", "-"))]
        while self.peek()[0] != "end":
            sign = self.take("+", "-")
            if sign is None:
                _fail("expected '+' or '-'", self.peek())
            terms.append(self.term(sign))
        return terms

    def term(self, sign):
        """term := [coeff ['*']] factor+, after an optional sign token."""
        coeff = qq(-1 if sign and sign[0] == "-" else 1)
        num = self.take("num")
        if num is not None:
            den = 1
            if self.take("/"):
                dtok = self.expect("num", "denominator")
                den = int(dtok[1])
                if den == 0:
                    _fail("zero denominator", dtok)
            coeff = coeff * QQ(int(num[1]), den)
            self.take("*")
        return coeff, self.factors("+", "-")

    def factors(self, *stops):
        """factor+ up to the end, ',', ']' or a token in stops."""
        letters = self.factor()
        stops += ("end", ",", "]")
        while self.peek()[0] not in stops:
            letters += self.factor()
        return letters

    def factor(self):
        tok = self.take("letters", "[")
        if tok is None:
            _fail("expected a word", self.peek())
        if tok[0] == "letters":
            letters = [letter_from_char(ch) for ch in tok[1]]
        else:
            u = self.factors()
            self.expect(",", "','")
            v = self.factors()
            self.expect("]", "']'")
            letters = u + v + _inverse(u) + _inverse(v)
        while True:
            caret = self.take("^")
            if caret is None:
                return letters
            negative = self.take("-")
            exp = self.take("num")
            if exp is None:
                _fail("missing exponent after '^'", caret)
            base = _inverse(letters) if negative else letters
            letters = base * int(exp[1])


class ChainExpression(namedtuple("ChainExpression", "source chain")):
    """A parsed expression: its source text and its canonical Chain."""

    __slots__ = ()


def parse_chain(text, min_rank=1):
    """Parse a chain expression; the result is canonicalized."""
    parser = _Parser(text, "chain")
    tokens = parser.tokens
    # the zero chain is spelled "0", matching format_chain
    if len(tokens) == 2 and tokens[0][0] == "num" and int(tokens[0][1]) == 0:
        return ChainExpression(text, Chain((), min_rank))
    pairs = parser.terms()
    rank = max(min_rank, max((abs(x) for _, ls in pairs for x in ls), default=1))
    terms = []
    for coeff, letters in pairs:
        w = Word(reduce_letters(letters), rank)
        terms.append(ChainTerm(coeff, w))
    return ChainExpression(text, canonicalize(Chain(tuple(terms), rank)))


def parse_word(text, min_rank=1):
    """Parse a single word expression (letters, brackets, powers); the
    word is freely reduced but not cyclically normalized."""
    parser = _Parser(text, "word")
    letters = parser.factors()
    tok = parser.peek()
    if tok[0] != "end":
        _fail("unexpected token in word expression", tok)
    rank = max(min_rank, max((abs(x) for x in letters), default=1))
    return Word(reduce_letters(letters), rank)


def format_coefficient(c):
    c = qq(c)
    if c.denominator == 1:
        return "%d" % c.numerator
    return "%d/%d" % (c.numerator, c.denominator)


def format_chain(chain):
    """Deterministic text form.  The text only records the letters that
    occur, so the round trip is parse_chain(format_chain(C),
    min_rank=C.rank) == C for canonical C of rank <= 26."""
    if not chain.terms:
        return "0"
    if chain.rank > 26:
        raise ValueError("cannot format words beyond generator 'z'")
    parts = []
    for idx, t in enumerate(chain.terms):
        mag = abs(t.coefficient)
        negative = t.coefficient < 0
        body = str(t.word) if mag == 1 else "%s*%s" % (format_coefficient(mag), t.word)
        if idx == 0:
            parts.append("-" + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def format_word(w):
    if len(w) == 0:
        return "1"
    return "".join(letter_to_char(x) for x in w.letters)
