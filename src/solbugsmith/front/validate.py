"""Source validation: one parse, reported as at most one diagnostic.

An empty diagnostic list means the source is acceptable. The parser checks
bracket nesting as it goes, opaque regions included, so a source parses only
if its brackets balance. A parse error that comes from a bracket fault is
reported in bracket terms (``'(' closed by '}'``, ``unmatched ')'``,
``unclosed '{'``) rather than as the grammar violation it shows up as, at
the parse error's position: the closer, or the end of input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError, ParseError
from .parser import parse
# unused here, but perfbench/tracing.py rebinds these names in this module
from .lexer import tokenize  # noqa: F401


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str


def validate(source: str) -> list[Diagnostic]:
    """No diagnostics if ``source`` lexes and parses; otherwise one, for the
    first fault."""
    try:
        parse(source)
    except LexError as err:
        return [Diagnostic(err.line, err.column, err.message)]
    except ParseError as err:
        return [Diagnostic(err.line, err.column, err.bracket or
                           f"expected {err.expected}, found {err.found}")]
    return []
