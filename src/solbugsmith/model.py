"""Shared vocabulary: bug categories, snippet forms, injection approaches,
the per-part seeds of a run (``child_seed``), and each tool's capabilities,
the bug types it can report (``load_capabilities``): the oracle and the
evaluator both read them, so neither stage loads the other for them."""

from __future__ import annotations

import json
from _blake2 import blake2b  # hashlib's blake2b, without loading hashlib
from enum import Enum

from .errors import shown


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
SNIPPET_FORMS = {member.value: member for member in SnippetForm}
APPROACHES = {member.value: member for member in Approach}


def term(table: dict, value: object, kind: str):
    """``table[value]``, or the enum ``kind``'s ValueError, shown short."""
    if type(value) is str and value in table:
        return table[value]
    raise ValueError(f"{shown(value)} is not a valid {kind}")


def child_seed(seed: int, *parts: str) -> int:
    """A stable seed for the part of a run that ``parts`` names."""
    label = "|".join([str(seed), *parts]).encode("utf-8")
    return int.from_bytes(blake2b(label, digest_size=8).digest(), "big")


def load_capabilities(text: str) -> dict[str, frozenset[BugType]]:
    """``{tool: [bug type name, ...]}``; ValueError for any other shape, an
    empty list, an unknown bug type name, or a tool name that is empty or
    holds a ``/`` or an unprintable character (it names ``<tool>.report.json``
    and a table column)."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested deeper than the decoder goes
        raise ValueError(exc) from None
    if not isinstance(doc, dict) or not all(
            isinstance(names, list) and names
            and all(isinstance(n, str) for n in names)
            for names in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to a "
                         "non-empty list of bug type names")
    for tool in doc:
        if not tool or "/" in tool or not tool.isprintable():
            raise ValueError(f"tool name {shown(tool)} cannot name a report file")
    return {tool: frozenset(term(BUG_TYPES, n, "BugType") for n in names)
            for tool, names in doc.items()}
