"""Exception types shared across the toolkit, and how messages show values."""

from __future__ import annotations

import reprlib

_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxstring, _SHORT.maxother = 3, 60, 60


def shown(value: object) -> str:
    """``repr(value)`` cut short by ``reprlib``, which also sorts dict keys,
    for a one-line error message: at most 100 characters."""
    text = _SHORT.repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


class SolBugSmithError(Exception):
    """Base class for all toolkit errors."""


class LexError(SolBugSmithError):
    """Raised on an unterminated string/comment or an illegal character."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ParseError(SolBugSmithError):
    """Raised on a grammar violation, carrying the offending position.

    ``bracket`` names the bracket fault behind the violation when the parser
    sees one there: ``'(' closed by '}'``, ``unmatched ')'`` or, at the end
    of input, ``unclosed '{'``; otherwise it is None."""

    def __init__(self, line: int, column: int, expected: str, found: str,
                 bracket: str | None = None) -> None:
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        self.bracket = bracket


class PoolError(SolBugSmithError):
    """Malformed pool entry (bad template, duplicate id, unknown bug type)."""

    def __init__(self, entry_id: str, reason: str) -> None:
        super().__init__(f"{entry_id}: {reason}")
        self.entry_id = entry_id
        self.reason = reason


class EditConflict(SolBugSmithError):
    """Two text edits overlap; profiles must never produce this."""


class ScopeError(SolBugSmithError):
    """Tool capability set is empty or otherwise unusable."""


class MissingThreshold(SolBugSmithError):
    """A bug type present in findings has no majority threshold."""

    def __init__(self, bug_type: str) -> None:
        super().__init__(f"no majority threshold for bug type {bug_type}")
        self.bug_type = bug_type


class DomainError(SolBugSmithError):
    """Numeric precondition violated (e.g. confirmed > sampled)."""


class MalformedDocument(SolBugSmithError):
    """A bug log, report or truth file does not have its documented shape,
    or names a file or tool other than the one it is read as. For a
    report, ``finding`` is the 1-based index of the faulty finding and
    ``line`` the line of a JSON syntax error; a fault of the whole document
    has neither."""

    def __init__(self, reason: str, *, finding: int | None = None,
                 line: int | None = None) -> None:
        super().__init__(f"finding {finding}: {reason}" if finding else
                         f"line {line}: {reason}" if line else reason)
        self.finding, self.line, self.reason = finding, line, reason
