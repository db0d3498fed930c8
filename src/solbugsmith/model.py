"""Shared vocabulary: bug categories, snippet forms, injection approaches."""

from __future__ import annotations

from enum import Enum


class _Term(Enum):
    """A term of one vocabulary below; it prints as its value."""

    # Enum hashes a member's name in Python; a member equals only itself,
    # so the C identity hash serves and spares a Python call per lookup
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class BugType(_Term):
    REENTRANCY = "Reentrancy"
    TIMESTAMP_DEPENDENCY = "TimestampDependency"
    UNCHECKED_SEND = "UncheckedSend"
    UNHANDLED_EXCEPTION = "UnhandledException"
    TOD = "TOD"
    INTEGER_OVERFLOW_UNDERFLOW = "IntegerOverflowUnderflow"
    TX_ORIGIN = "TxOrigin"


class SnippetForm(_Term):
    SIMPLE_STATEMENT = "SimpleStatement"
    NON_FUNCTION_BLOCK = "NonFunctionBlock"
    FUNCTION_DEFINITION = "FunctionDefinition"


class Approach(_Term):
    FULL_SNIPPET = "FullSnippet"
    CODE_TRANSFORMATION = "CodeTransformation"
    WEAKEN_SECURITY = "WeakenSecurity"


# each term by its value: a lookup that does not go through Enum's call
BUG_TYPES = {member.value: member for member in BugType}
APPROACHES = {member.value: member for member in Approach}
