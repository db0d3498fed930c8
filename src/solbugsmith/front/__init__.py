"""Solidity-subset front end: lossless lexer, span-annotated parser, validator."""

from __future__ import annotations

from .lexer import Token, TokenKind, tokenize
from .nodes import ContractDef, Decl, FunctionDef, Member, SourceUnit, Stmt
from .parser import parse, parse_member_fragment, parse_statement_fragment
from .spans import Span, column_of
from .validate import Diagnostic, validate


__all__ = [
    "ContractDef", "Decl", "Diagnostic", "FunctionDef", "Member",
    "SourceUnit", "Span", "Stmt", "Token", "TokenKind",
    "column_of", "parse", "parse_member_fragment",
    "parse_statement_fragment", "tokenize", "validate",
]
