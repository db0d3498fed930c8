"""Lexer behavior: lossless round-trips, span bookkeeping, error positions."""

import pytest
from hypothesis import given, strategies as st

from solbugsmith.errors import LexError
from solbugsmith.front import Token, TokenKind, tokenize

TRICKY_SOURCES = [
    "",
    "   \n\t\n",
    "// just a comment\n",
    "/* block */ /* another */",
    'string s = "semi; brace } paren )";',
    "uint a = 0x1F + 077;",
    "a >>= b ** c; d => e;",
    "pragma solidity ^0.4.24;\ncontract A {}",
    "x += y;// trailing comment with no newline",
    "unicode text in comment: /* zürich */ uint q;",
    "'single quoted \\' with escape'",
    '"double \\" quoted"',
]


def _assert_lossless(src: str, tokens: list[Token]) -> None:
    """Each token's text is its span's bytes, in order, and only whitespace
    lies between and around the tokens, so the stream rebuilds ``src``."""
    data = src.encode("utf-8")
    pos = 0
    for tok in tokens:
        assert pos <= tok.span.start, (tok, pos)
        assert data[pos:tok.span.start].strip(b" \t\r\n") == b"", tok
        assert data[tok.span.start:tok.span.end] == tok.text.encode("utf-8")
        pos = tok.span.end
    assert data[pos:].strip(b" \t\r\n") == b""


@pytest.mark.parametrize("src", TRICKY_SOURCES)
def test_reconstruct_is_byte_exact(src):
    _assert_lossless(src, tokenize(src))


def test_reconstruct_corpus_files(corpus_sources, egame):
    for src in [*corpus_sources.values(), egame]:
        _assert_lossless(src, tokenize(src))


def test_comments_become_tokens():
    toks = tokenize("uint a; // note\n/* block */ uint b;")
    comments = [t for t in toks if t.kind is TokenKind.COMMENT]
    assert [t.text for t in comments] == ["// note", "/* block */"]


def test_pragma_is_a_single_token():
    toks = tokenize("pragma solidity >=0.4.21 <0.6.0;\nuint x;")
    pragmas = [t for t in toks if t.kind is TokenKind.PRAGMA]
    assert len(pragmas) == 1
    assert pragmas[0].text == "pragma solidity >=0.4.21 <0.6.0;"


def test_spans_are_monotone_and_gap_free_of_tokens(corpus_sources):
    for src in corpus_sources.values():
        _assert_lossless(src, tokenize(src))


def test_token_lines_are_one_based():
    toks = tokenize("uint a;\nuint b;")
    first = [t for t in toks if t.text == "a"][0]
    second = [t for t in toks if t.text == "b"][0]
    assert first.span.start_line == 1
    assert second.span.start_line == 2


def test_longest_match_operators():
    texts = [t.text for t in tokenize("a>>=b; c**d; e=>f; g!=h; i++;")
             if t.kind is TokenKind.PUNCTUATOR]
    assert ">>=" in texts
    assert "**" in texts
    assert "=>" in texts
    assert "!=" in texts
    assert "++" in texts


def test_number_with_underscores_and_hex():
    kinds = {t.text: t.kind for t in tokenize("x = 0xAbC + 1000;")}
    assert kinds["0xAbC"] is TokenKind.NUMBER
    assert kinds["1000"] is TokenKind.NUMBER


@pytest.mark.parametrize("src, line", [
    ('x = "unterminated', 1),
    ("y = 'nope\n", 1),
    ("a;\n/* never closed", 2),
])
def test_lex_errors_carry_position(src, line):
    with pytest.raises(LexError) as err:
        tokenize(src)
    assert err.value.line == line


@pytest.mark.parametrize("src, expected", [
    pytest.param('x = "a\\\nb";', [
        ("IDENTIFIER", "x", 1, 1), ("PUNCTUATOR", "=", 1, 1),
        ("STRING", '"a\\\nb"', 1, 2), ("PUNCTUATOR", ";", 2, 2)],
        id="escaped-newline-keeps-string-open"),
    pytest.param("0x", [("NUMBER", "0x", 1, 1)], id="bare-hex-prefix"),
    pytest.param("1.e5", [
        ("NUMBER", "1", 1, 1), ("PUNCTUATOR", ".", 1, 1),
        ("IDENTIFIER", "e5", 1, 1)], id="fraction-needs-digits"),
    pytest.param("a &= b", [
        ("IDENTIFIER", "a", 1, 1), ("PUNCTUATOR", "&", 1, 1),
        ("PUNCTUATOR", "=", 1, 1), ("IDENTIFIER", "b", 1, 1)],
        id="no-bitwise-compound-assign"),
    pytest.param("pragmatic", [("IDENTIFIER", "pragmatic", 1, 1)],
                 id="pragma-prefix-is-identifier"),
    pytest.param("1 days", [
        ("NUMBER", "1", 1, 1), ("KEYWORD", "days", 1, 1)], id="unit-keyword"),
])
def test_exact_token_stream(src, expected):
    assert [(t.kind.name, t.text, t.span.start_line, t.span.end_line)
            for t in tokenize(src)] == expected


@pytest.mark.parametrize("src, line, column, message", [
    pytest.param("a \u00e9", 1, 3, "illegal character b'\\xc3'", id="illegal"),
    pytest.param("pragma", 1, 1, "unterminated pragma directive",
                 id="open-pragma"),
    pytest.param("a;\n  /* open", 2, 3, "unterminated block comment",
                 id="open-comment"),
    pytest.param("x;\n  'a\nb'", 2, 3, "unterminated string literal",
                 id="open-string"),
])
def test_lex_error_position_and_message(src, line, column, message):
    with pytest.raises(LexError) as err:
        tokenize(src)
    assert (err.value.line, err.value.column, err.value.message) == \
        (line, column, message)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=80))
def test_round_trip_or_clean_error(src):
    # Arbitrary printable input either lexes losslessly or raises LexError;
    # no third outcome, no partial output.
    try:
        toks = tokenize(src)
    except LexError:
        return
    _assert_lossless(src, toks)


@given(st.lists(st.sampled_from(
    ["uint", "x", "=", "1", ";", "{", "}", "(", ")", "// c\n", "/*b*/",
     '"s"', "1 days", "+=", "tx", ".", "origin"]), max_size=30))
def test_token_soup_round_trips(parts):
    src = " ".join(parts)
    _assert_lossless(src, tokenize(src))
