"""Span-annotated AST for the supported Solidity subset.

Constructs outside the subset are retained as opaque members/statements with
correct spans; they are excluded from injection sites but never dropped.
"""

from __future__ import annotations

from typing import NamedTuple

from .lexer import Token
from .spans import Span

SIMPLE_STMT_KINDS = frozenset(
    {"localVarDecl", "assignment", "expressionStmt", "returnStmt",
     "requireStmt", "revertStmt", "emitStmt"}
)
COMPOUND_STMT_KINDS = frozenset({"ifStmt", "forStmt", "whileStmt", "block"})


class Stmt(NamedTuple):
    """A statement. Only ``expressionStmt`` leaves are ever ``opaque``: a
    statement the parser cannot model is kept whole, with no children."""

    kind: str
    span: Span
    children: list["Stmt"]
    opaque: bool = False
    # For ifStmt/requireStmt: the condition, parentheses excluded.
    cond_span: Span | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "span": self.span.to_json(),
               "children": [c.to_json() for c in self.children]}
        if self.opaque:
            out["opaque"] = True
        return out


class Decl(NamedTuple):
    """A member without a parsed body: a named ``stateVar`` or ``event``, or
    an ``opaqueMember`` (no name) that the parser keeps whole."""

    kind: str  # "stateVar" | "event" | "opaqueMember"
    span: Span
    name: str | None = None

    def to_json(self) -> dict:
        if self.name is None:
            return {"kind": self.kind, "span": self.span.to_json(),
                    "children": [], "opaque": True}
        return {"kind": self.kind, "name": self.name,
                "span": self.span.to_json(), "children": []}


class FunctionDef(NamedTuple):
    """A function, constructor, or modifier definition with a parsed body."""

    kind: str  # "function" | "constructor" | "modifier"
    name: str | None
    span: Span
    body_span: Span  # between the braces (exclusive of both)
    statements: list[Stmt]

    def to_json(self) -> dict:
        return {"kind": self.kind, "name": self.name, "span": self.span.to_json(),
                "children": [s.to_json() for s in self.statements]}


Member = Decl | FunctionDef


class ContractDef(NamedTuple):
    name: str
    members: list[Member]
    span: Span
    body_span: Span  # between the braces (exclusive of both)

    kind = "contract"

    def to_json(self) -> dict:
        return {"kind": self.kind, "name": self.name, "span": self.span.to_json(),
                "children": [m.to_json() for m in self.members]}


class SourceUnit:
    """A parsed source: its contracts, its bytes (``data``, UTF-8), the
    tokens less comments as the parser read them, and the locator's site
    analysis, filled on first use (``locator.site_facts``). Unlike every
    node, it is a plain class, and units compare by identity."""

    __slots__ = ("contracts", "data", "tokens", "site_facts")

    def __init__(self, contracts: list[ContractDef], data: bytes,
                 tokens: list[Token]) -> None:
        self.contracts, self.data, self.tokens = contracts, data, tokens
        self.site_facts = None

    def to_json(self) -> dict:
        return {"kind": "sourceUnit",
                "span": Span(0, len(self.data), 1,
                             self.data.count(b"\n") + 1).to_json(),
                "children": [c.to_json() for c in self.contracts]}
