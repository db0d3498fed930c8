"""Lexer behavior: lossless round-trips, span bookkeeping, error positions."""

import hashlib
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from solbugsmith.errors import LexError
from solbugsmith.front import Token, TokenKind, parse, tokenize
from solbugsmith.injector import inject_all
from solbugsmith.locator import find_all_potential_locations
from solbugsmith.model import BugType

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
        assert pos <= tok.start, (tok, pos)
        assert data[pos:tok.start].strip(b" \t\r\n") == b"", tok
        assert data[tok.start:tok.end] == tok.text.encode("utf-8")
        pos = tok.end
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
    assert first.start_line == 1
    assert second.start_line == 2


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
    assert [(t.kind.name, t.text, t.start_line, t.end_line)
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


def test_whitespace_runs_lex_in_linear_time(corpus_sources):
    """A megabyte of whitespace after the last token, or with no token at
    all, is one scan step, not a rescan from every byte of it. The 64 KB
    round comes first so that a quadratic scan fails in seconds."""
    src = corpus_sources["Counter.sol"]
    expected = tokenize(src)
    for size in (1 << 16, 1 << 20):
        blank = " \t\r\n" * (size // 4)
        started = time.perf_counter()
        assert tokenize(src + blank) == expected
        assert tokenize(blank) == []
        assert time.perf_counter() - started < 2.0, size


def _token_digest(src: str) -> str:
    rows = [(t.kind.value, t.text, t.start, t.end, t.start_line, t.end_line)
            for t in tokenize(src)]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


# SHA-256 of the JSON list of (kind value, text, start, end, start line,
# end line) over every token. Recorded from the bundled corpus and the test
# fixtures; a change to any of them, or to the tokens the lexer makes of
# them, must update these on purpose.
SOURCE_TOKEN_DIGESTS = {
    "Auction.sol":
        "0af068ca0dced51fe2b4b0bc1fb5a5493b4c1d481ff66aa2793a67b1d7dc779a",
    "Counter.sol":
        "0e62bcef9f3f8e4ae817f7cb21f8add224357bd337dbdcd387a7fb740b8eb221",
    "Crowdfund.sol":
        "d01644d31185013fbd75d6f35b73ba816650502c2a81f1af5f0caa6b24e92a70",
    "Escrow.sol":
        "6d31cc22f9afae3b27d3187800861d9873d3bcf40860d781e7eb1c5778ea6f33",
    "Lottery.sol":
        "33c5261ca468a5fda914ef23bb0740c8bf22ef1842c2032dae326f2ac77022cc",
    "NameRegistry.sol":
        "7da1887651f8016fbabd0e784c266961fd8a223acbcec4dedbd3cf3783718850",
    "PiggyBank.sol":
        "e5d127038e8715e84afba421b0cb44e299f37b305ae0254c78b4da57c4b6d4a9",
    "SimpleWallet.sol":
        "6658dc9608a667981dd285abf18779d3fe74d0911a778dd077df66aa977e2323",
    "Splitter.sol":
        "bee6205f2afa048b92bf5400e56a7b7c30168cb3bb07a8b45b9e65453b720c6e",
    "TimeLock.sol":
        "3e5187a1a064e3eb16a15714bfd1b2fb6762e0706f98f75d251908a46cb5c734",
    "TokenLedger.sol":
        "a058c4097315a50c06f549b205ba9d6f4a14d99847fe850ae71c2260f2285b70",
    "VaultToken.sol":
        "61bfdcd258a7d7713642a05045e9b159640d414a599b0680508dcac55ec3ec07",
    "EGame.sol":
        "817c56c4d3fd4021f7d4261fa8e6f6ec9928b558f3f05c45115627fbedb91fa1",
    "ThrowGuards.sol":
        "313586f824bec1ce6250b082b7bfe8a3f4d1529b0d6182df310f96e1a176f6d2",
}

# Per bundled contract, the SHA-256 over the token digests of its seven
# ``inject`` outputs, one per bug type in type order; recorded alike from
# the corpus and the bundled pool.
OUTPUT_TOKEN_DIGESTS = {
    "Auction.sol":
        "3828373e61c9609edc2e368c6eecd7895293e813d56ba7405db6a947ce901672",
    "Counter.sol":
        "69ab1ed7670a803d87fef144f97d8301eaeee05bed95232ee064f70a8fc8dfa9",
    "Crowdfund.sol":
        "241f7552957af07117b3c842b8095d904556f840f429a8b3498c292783fb2bbd",
    "Escrow.sol":
        "3beb09684b60f7a8a85acd7ea2b0044ba3ac8bba49202936e0b453244993d758",
    "Lottery.sol":
        "7f561cbbcf3c51a1c0d2eb8a865221ac4ebc26da3e2b3e328a60886973c5dfba",
    "NameRegistry.sol":
        "337d301fc01ea479192c96c8b874e4a3d5653c249a89ce8b3e1bd70493dfb381",
    "PiggyBank.sol":
        "5fa2cc7c693b1698516cf7692540008ba4367253946b3cc8f2eab97773c093d8",
    "SimpleWallet.sol":
        "692d2dff5f43584e698949e9a60600f3c7b6e73c83041c20d23f31f8b766635b",
    "Splitter.sol":
        "670605d75f09528cd32a823f685ffb1b81afd59bdcec9fec8183de64604604bc",
    "TimeLock.sol":
        "17d046c231e5ebd65e266514ce81a8ce5dca2732e0567e261023dff43e99cdc9",
    "TokenLedger.sol":
        "3daa7f3684a0cebaac763c9b1243fe5e6f193de4ba2a1b3c22e0b1f24c0c2763",
    "VaultToken.sol":
        "180fa52c37a2ef609fcc5496ed0ec4e822158e656ea47b510552216c1bd3f201",
}


def test_sources_match_recorded_token_digests(corpus_sources):
    """Every bundled contract and every ``tests/fixtures`` source."""
    fixtures = Path(__file__).parent / "fixtures"
    sources = dict(corpus_sources)
    sources.update((p.name, p.read_text(encoding="utf-8"))
                   for p in sorted(fixtures.glob("*.sol")))
    got = {name: _token_digest(src) for name, src in sources.items()}
    assert got == SOURCE_TOKEN_DIGESTS


def test_bundled_outputs_match_recorded_token_digests(corpus_sources, pool):
    got = {}
    for name, src in corpus_sources.items():
        digest = hashlib.sha256()
        unit = parse(src)
        for bug_type in BugType:
            out_name = f"{name[:-len('.sol')]}.{bug_type.value}.sol"
            profile = find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=out_name)
            text = inject_all(unit, profile, pool).text
            digest.update(bytes.fromhex(_token_digest(text)))
        got[name] = digest.hexdigest()
    assert got == OUTPUT_TOKEN_DIGESTS
