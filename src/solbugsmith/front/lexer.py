"""Lossless tokenizer for the supported Solidity subset.

Comments are kept as first-class tokens and a ``pragma`` directive is one
token running through its terminating semicolon, so re-serializing the
stream (tokens plus the whitespace gaps between them) reproduces the input
byte-for-byte.

The token grammar is one table, the ``_TOKEN`` pattern: a run of
whitespace, then one named alternative per line. The whitespace before a
token belongs to its match, so the scan takes one step per token; the
whitespace after the last token is one final match that names no
alternative. After the whitespace, the first alternative that matches
wins, so their order is the longest-match and error policy: a complete
comment, string or pragma is tried before its unterminated opener (a
LexError at the opener), a word before a punctuator, three-character
operators before two-character ones before single characters, and any
other byte last (an illegal character). A LexError is raised at the start
of the offending alternative, after the whitespace.

A keyword or punctuator text is never given any other kind, so a reader
that compares a token's text with one of those needs no kind test.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from ..errors import LexError
from .spans import column_of


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "numberLiteral"
    STRING = "stringLiteral"
    PUNCTUATOR = "punctuator"
    COMMENT = "comment"
    PRAGMA = "pragmaDirective"


class Token(NamedTuple):
    """One token: its text, its half-open byte range [start, end), and the
    1-based lines of its first and last byte."""

    kind: TokenKind
    text: str
    start: int
    end: int
    start_line: int
    end_line: int


def _elementary_types() -> frozenset[str]:
    names = {"address", "bool", "string", "bytes", "byte", "uint", "int"}
    for i in range(1, 33):
        names.add(f"uint{8 * i}")
        names.add(f"int{8 * i}")
        names.add(f"bytes{i}")
    return frozenset(names)


ELEMENTARY_TYPES = _elementary_types()

UNIT_KEYWORDS = frozenset(
    {"wei", "szabo", "finney", "ether",
     "seconds", "minutes", "hours", "days", "weeks", "years"}
)

STRUCTURAL_KEYWORDS = frozenset(
    {"contract", "function", "constructor", "modifier", "event", "emit",
     "if", "else", "for", "while", "return", "returns", "mapping", "new",
     "public", "private", "internal", "external",
     "payable", "view", "pure", "constant",
     "memory", "storage", "calldata", "indexed",
     "true", "false"}
)

KEYWORDS = STRUCTURAL_KEYWORDS | ELEMENTARY_TYPES | UNIT_KEYWORDS

# Each match is a run of whitespace and then one alternative, or the bare
# ``\Z`` at the end of the input. Any byte but whitespace starts an alternative
# (``illegal`` takes any byte), so the matches tile the input and the scan
# never backtracks into the whitespace, which would make it quadratic.
# Upper-case groups are TokenKind names; the others are errors.
_TOKEN = re.compile(rb"""
    [ \t\r\n]*
    (?: (?P<COMMENT>//[^\n]*|/\*.*?\*/)
      | (?P<open_comment>/\*)
      | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
      | (?P<open_string>["'])
      | (?P<NUMBER>0[xX][0-9a-fA-F]*|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | (?P<PRAGMA>pragma(?![A-Za-z0-9_$])[^;]*;)
      | (?P<open_pragma>pragma(?![A-Za-z0-9_$]))
      | (?P<IDENTIFIER>[A-Za-z_$][A-Za-z0-9_$]*)
      | (?P<PUNCTUATOR>>>=|<<=|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\+\+|--
                      |=>|\*\*|<<|>>|[-+*/%!=<>(){}\[\];,.?:&|^~])
      | (?P<illegal>.)
      | \Z )
""", re.VERBOSE | re.DOTALL)

# group number -> TokenKind, or None for an error group
_KINDS = {index: TokenKind.__members__.get(name)
          for name, index in _TOKEN.groupindex.items()}

_ERRORS = {
    _TOKEN.groupindex["open_comment"]: "unterminated block comment",
    _TOKEN.groupindex["open_string"]: "unterminated string literal",
    _TOKEN.groupindex["open_pragma"]: "unterminated pragma directive",
}

# the kinds whose text may hold a newline
_MULTILINE = frozenset({TokenKind.COMMENT, TokenKind.STRING, TokenKind.PRAGMA})


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a lossless token stream (byte-offset spans)."""
    data = source.encode("utf-8")
    tokens: list[Token] = []
    append = tokens.append
    make = tuple.__new__  # what Token._make calls, without the method call
    count = data.count
    kinds = _KINDS
    identifier, keyword = TokenKind.IDENTIFIER, TokenKind.KEYWORD
    keywords, multiline = KEYWORDS, _MULTILINE
    line = 1
    pos = 0  # end of the previous match: the matches tile the input
    for match in _TOKEN.finditer(data):
        index = match.lastindex
        if index is None:  # trailing whitespace
            break
        start, end = match.span(index)
        if pos != start:
            line += count(b"\n", pos, start)
        kind = kinds[index]
        if kind is None:
            message = (_ERRORS.get(index)
                       or f"illegal character {match[index]!r}")
            raise LexError(line, column_of(data, start), message)
        text = match[index].decode("utf-8")
        if kind is identifier and text in keywords:
            kind = keyword
        start_line = line
        if kind in multiline:
            line += count(b"\n", start, end)
        append(make(Token, (kind, text, start, end, start_line, line)))
        pos = end
    return tokens
