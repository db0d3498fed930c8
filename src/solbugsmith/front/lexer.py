"""Lossless tokenizer for the supported Solidity subset.

Comments are kept as first-class tokens and a ``pragma`` directive is one
token running through its terminating semicolon, so re-serializing the
stream (tokens plus the whitespace gaps between them) reproduces the input
byte-for-byte.

The token grammar is one table, the ``_TOKEN`` pattern, with one named
alternative per line. At each offset the first alternative that matches
wins, so their order is the longest-match and error policy: a complete
comment, string or pragma is tried before its unterminated opener (a
LexError at the opener), a word before a punctuator, three-character
operators before two-character ones before single characters, and any
other byte last (an illegal character). A LexError is raised at the start
of the offending match.

A keyword or punctuator text is never given any other kind, so a reader
that compares a token's text with one of those needs no kind test.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from ..errors import LexError
from .spans import Span, column_of


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "numberLiteral"
    STRING = "stringLiteral"
    PUNCTUATOR = "punctuator"
    COMMENT = "comment"
    PRAGMA = "pragmaDirective"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span


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

# Every alternative consumes at least one byte, so the matches tile the input.
# Upper-case groups are TokenKind names; the others are skipped or errors.
_TOKEN = re.compile(rb"""
    (?P<whitespace>[ \t\r\n]+)
  | (?P<COMMENT>//[^\n]*|/\*.*?\*/)
  | (?P<open_comment>/\*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<open_string>["'])
  | (?P<NUMBER>0[xX][0-9a-fA-F]*|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<PRAGMA>pragma(?![A-Za-z0-9_$])[^;]*;)
  | (?P<open_pragma>pragma(?![A-Za-z0-9_$]))
  | (?P<IDENTIFIER>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<PUNCTUATOR>>>=|<<=|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\+\+|--|=>|\*\*
                  |<<|>>|[-+*/%!=<>(){}\[\];,.?:&|^~])
  | (?P<illegal>.)
""", re.VERBOSE | re.DOTALL)

_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_pragma": "unterminated pragma directive",
}


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a lossless token stream (byte-offset spans)."""
    data = source.encode("utf-8")
    tokens: list[Token] = []
    kinds = TokenKind.__members__
    line = 1
    for match in _TOKEN.finditer(data):
        group = match.lastgroup
        start, end = match.span()
        if group == "whitespace":
            line += data.count(b"\n", start, end)
            continue
        kind = kinds.get(group)
        if kind is None:
            message = _ERRORS.get(group) or f"illegal character {match[0]!r}"
            raise LexError(line, column_of(data, start), message)
        text = match[0].decode("utf-8")
        if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        newlines = data.count(b"\n", start, end)
        # most tokens end on their first line; share its int object
        end_line = line + newlines if newlines else line
        tokens.append(Token(kind, text, Span(start, end, line, end_line)))
        line = end_line
    return tokens

