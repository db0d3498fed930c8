"""Span-annotated AST for the supported Solidity subset.

Constructs outside the subset are retained as opaque members/statements with
correct spans; they are excluded from injection sites but never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import Token
from .spans import Span

SIMPLE_STMT_KINDS = frozenset(
    {"localVarDecl", "assignment", "expressionStmt", "returnStmt",
     "requireStmt", "revertStmt", "emitStmt"}
)
COMPOUND_STMT_KINDS = frozenset({"ifStmt", "forStmt", "whileStmt", "block"})


@dataclass
class Stmt:
    kind: str
    span: Span
    children: list["Stmt"]
    text: str
    opaque: bool = False
    # For ifStmt/whileStmt: span of the parenthesized condition (parens excluded).
    cond_span: Span | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "span": self.span.to_json(),
               "children": [c.to_json() for c in self.children]}
        if self.opaque:
            out["opaque"] = True
        return out


@dataclass
class StateVarDecl:
    name: str
    span: Span

    kind = "stateVar"

    def to_json(self) -> dict:
        return {"kind": self.kind, "name": self.name, "span": self.span.to_json(),
                "children": []}


@dataclass
class EventDef:
    name: str
    span: Span

    kind = "event"

    def to_json(self) -> dict:
        return {"kind": self.kind, "name": self.name, "span": self.span.to_json(),
                "children": []}


@dataclass
class OpaqueMember:
    span: Span
    text: str

    kind = "opaqueMember"
    name = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "span": self.span.to_json(), "children": [],
                "opaque": True}


@dataclass
class FunctionDef:
    """A function, constructor, or modifier definition with a parsed body."""

    kind: str  # "function" | "constructor" | "modifier"
    name: str | None
    span: Span
    body_span: Span  # between the braces (exclusive of both)
    statements: list[Stmt]

    def to_json(self) -> dict:
        return {"kind": self.kind, "name": self.name, "span": self.span.to_json(),
                "children": [s.to_json() for s in self.statements]}


Member = StateVarDecl | FunctionDef | EventDef | OpaqueMember


@dataclass
class ContractDef:
    name: str
    members: list[Member]
    span: Span
    body_span: Span  # between the braces (exclusive of both)

    kind = "contract"

    def to_json(self) -> dict:
        return {"kind": self.kind, "name": self.name, "span": self.span.to_json(),
                "children": [m.to_json() for m in self.members]}


@dataclass
class SourceUnit:
    contracts: list[ContractDef]
    raw_text: str
    tokens: list[Token] = field(repr=False, default_factory=list)

    def to_json(self) -> dict:
        return {"kind": "sourceUnit",
                "span": Span(0, len(self.raw_text.encode("utf-8")), 1,
                             self.raw_text.count("\n") + 1).to_json(),
                "children": [c.to_json() for c in self.contracts]}

    def opaque_spans(self) -> list[Span]:
        """Spans of every opaque member and opaque statement in the unit."""
        found: list[Span] = []

        def visit_stmt(stmt: Stmt) -> None:
            if stmt.opaque:
                found.append(stmt.span)
                return
            for child in stmt.children:
                visit_stmt(child)

        for contract in self.contracts:
            for member in contract.members:
                if isinstance(member, OpaqueMember):
                    found.append(member.span)
                elif isinstance(member, FunctionDef):
                    for stmt in member.statements:
                        visit_stmt(stmt)
        return found
