"""Source validation: lexing, bracket balance, and subset parsing.

An empty diagnostic list means the source is acceptable. Bracket balance is
checked independently of the parser because opaque regions only track nesting
depth, not bracket kind, so a mismatched pair hiding inside one would
otherwise slip through.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError, ParseError
from .lexer import Token, tokenize
from .parser import parse
from .spans import column_of

_PAIR = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(")]}")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str


def validate(source: str) -> list[Diagnostic]:
    """Return all diagnostics for ``source``; empty list means valid."""
    try:
        tokens = tokenize(source)
    except LexError as err:
        return [Diagnostic(err.line, err.column, err.message)]
    diags = _balance_errors(source.encode("utf-8"), tokens)
    if diags:
        return diags
    try:
        parse(source)
    except ParseError as err:
        diags.append(Diagnostic(
            err.line, err.column,
            f"expected {err.expected}, found {err.found}"))
    return diags


def _balance_errors(data: bytes, tokens: list[Token]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    stack: list[Token] = []
    for tok in tokens:
        if tok.text in _PAIR:
            stack.append(tok)
        elif tok.text in _CLOSERS:
            if not stack:
                diags.append(Diagnostic(
                    tok.start_line, column_of(data, tok.start),
                    f"unmatched '{tok.text}'"))
            else:
                opener = stack.pop()
                if _PAIR[opener.text] != tok.text:
                    diags.append(Diagnostic(
                        tok.start_line, column_of(data, tok.start),
                        f"'{opener.text}' closed by '{tok.text}'"))
    for opener in stack:
        diags.append(Diagnostic(
            opener.start_line, column_of(data, opener.start),
            f"unclosed '{opener.text}'"))
    return diags
