"""Exception types shared across the toolkit."""

from __future__ import annotations


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


class OutOfRange(SolBugSmithError):
    """Byte offset outside the source text."""


class PoolError(SolBugSmithError):
    """Malformed pool entry (bad template, duplicate id, unknown bug type)."""

    def __init__(self, entry_id: str, reason: str) -> None:
        super().__init__(f"{entry_id}: {reason}")
        self.entry_id = entry_id
        self.reason = reason


class StaleProfile(SolBugSmithError):
    """Injection profile does not match the source it is applied to."""


class EditConflict(SolBugSmithError):
    """Two text edits overlap; profiles must never produce this."""


class ScopeError(SolBugSmithError):
    """Tool capability set is empty or otherwise unusable."""


class FormatError(SolBugSmithError):
    """Malformed analyzer report."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MissingThreshold(SolBugSmithError):
    """A bug type present in findings has no majority threshold."""

    def __init__(self, bug_type: str) -> None:
        super().__init__(f"no majority threshold for bug type {bug_type}")
        self.bug_type = bug_type


class DomainError(SolBugSmithError):
    """Numeric precondition violated (e.g. confirmed > sampled)."""


class MissingBugLog(SolBugSmithError):
    """No BugLog found where one is required."""


class MalformedDocument(SolBugSmithError):
    """A bug log or truth file does not have its documented shape."""
