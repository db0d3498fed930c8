"""Solidity-subset front end: lossless lexer, span-annotated parser, validator."""

from __future__ import annotations

from .lexer import Token, TokenKind, reconstruct, tokenize
from .nodes import (ContractDef, EventDef, FunctionDef, Member, OpaqueMember,
                    SourceUnit, StateVarDecl, Stmt)
from .parser import parse, parse_member_fragment, parse_statement_fragment
from .spans import LineIndex, Span, column_of
from .validate import Diagnostic, validate


__all__ = [
    "ContractDef", "Diagnostic", "EventDef", "FunctionDef", "LineIndex",
    "Member", "OpaqueMember", "SourceUnit", "Span", "StateVarDecl", "Stmt",
    "Token", "TokenKind", "column_of", "parse",
    "parse_member_fragment", "parse_statement_fragment", "reconstruct",
    "tokenize", "validate",
]
