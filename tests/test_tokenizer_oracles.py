"""The lazy expression tokenizer against the eager one it replaced.

``expr._tokens`` refuses the first character no token can hold with one
regular-expression search, then makes tokens one at a time as the parser
reads them, so a deeply nested expression is refused after about
:data:`expr.MAX_NESTING` tokens instead of after tokenizing all of it.  The
oracle is the replaced ``_tokenize``, kept here on purpose: it walked the
text, skipped white space and matched one token at a time into a list.
Strings over the token alphabet, with stray Unicode digits, white space and
characters no token holds, must give the same tokens and the same
``ParseError`` messages and positions, from the tokenizer and from the
whole parser.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpstar import expr
from cpstar.expr import MAX_NESTING, ParseError, _Token, parse


def tokenize_oracle(text):
    """The replaced eager tokenizer."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = expr._TOKEN_RE.match(text, pos)
        if match is None or match.lastgroup is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def _outcome(run, text):
    """What ``run(text)`` returns, or the message and position it raises."""
    try:
        return run(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)


ALPHABET = list("abzAZ_019*.^()/- ") + ["sigma", "subst", "quot", "unit", "7/3", "(("]
STRAY = ["٣", "১", " ", " ", "\t", "\n", "+", "@", "é", "#", ",", "²", "\x00"]
texts = st.lists(st.sampled_from(ALPHABET + STRAY), max_size=40).map("".join)
mostly_valid = st.lists(st.sampled_from(ALPHABET * 4 + STRAY), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts, mostly_valid))
def test_tokens_and_tokenizer_errors_match_the_eager_oracle(text):
    assert _outcome(lambda t: list(expr._tokens(t)), text) == _outcome(tokenize_oracle, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts, mostly_valid))
def test_parse_results_and_errors_match_parsing_eager_tokens(text):
    lazy = _outcome(parse, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "_tokens", lambda t: iter(tokenize_oracle(t)))
        eager = _outcome(parse, text)
    assert lazy == eager


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("A * #", "unexpected character '#'", 4),
        ("((((((( @", "unexpected character '@'", 8),
        ("A *٣ + B", "unexpected character '+'", 5),
        ("(" * 300 + "é", "unexpected character 'é'", 300),
    ],
)
def test_a_bad_character_is_refused_before_any_parse_error(text, message, position):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == f"{message} at position {position}"
    assert caught.value.position == position


def test_deep_nesting_is_refused_after_a_bounded_number_of_tokens(monkeypatch):
    made = []

    class CountedToken(_Token):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(expr, "_Token", CountedToken)
    depth = 10**6
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse("(" * depth + "unit" + ")" * depth)
    assert 0 < len(made) <= MAX_NESTING + 2
