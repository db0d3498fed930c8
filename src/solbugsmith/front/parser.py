"""Recursive-descent parser for the supported Solidity subset.

Commitment rule: constructs introduced by a subset keyword (``contract``,
``function``, ``if``, a type name, ...) are parsed strictly and report
grammar violations as ParseError. Members and statements led by anything
else (user-typed declarations, ``assembly`` blocks, tuple assignments, ...)
fall back to balanced opaque consumption so no source byte is ever dropped.
A ``function`` keyword in statement position is always an error: the
language has no nested function definitions, and the member/statement walk
relies on that.
"""

from __future__ import annotations

from ..errors import ParseError
from .lexer import ELEMENTARY_TYPES, Token, TokenKind, UNIT_KEYWORDS, tokenize
from .nodes import (ContractDef, EventDef, FunctionDef, OpaqueMember,
                    SourceUnit, StateVarDecl, Stmt)
from .spans import Span, column_of

_VISIBILITY = frozenset({"public", "private", "internal", "external"})
_MUTABILITY = frozenset({"payable", "view", "pure", "constant"})
_HEADER_KEYWORDS = _VISIBILITY | _MUTABILITY
_DATA_LOCATION = frozenset({"memory", "storage", "calldata"})
_STATE_VAR_WORDS = _VISIBILITY | {"constant"}
_PARAM_WORDS = _DATA_LOCATION | {"indexed", "payable"}
_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})
_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = frozenset(")]}")

_BINARY_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10, "**": 11,
}


def parse(source: str) -> SourceUnit:
    """Parse ``source`` into a span-annotated SourceUnit."""
    tokens = tokenize(source)
    return _Parser(source, tokens).parse_unit()


def _between(open_tok: Token, close_tok: Token) -> Span:
    """Span strictly inside a bracket pair (both brackets excluded)."""
    return Span(open_tok.span.end, close_tok.span.start,
                open_tok.span.end_line, close_tok.span.start_line)


class _Parser:
    def __init__(self, source: str, tokens: list[Token]) -> None:
        self.data = source.encode("utf-8")
        self.all_tokens = tokens
        self.toks = [t for t in tokens if t.kind is not TokenKind.COMMENT]
        self.i = 0

    # -- token plumbing ---------------------------------------------------

    def _at_end(self) -> bool:
        return self.i >= len(self.toks)

    def _cur(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next_text(self) -> str | None:
        nxt = self.i + 1
        return self.toks[nxt].text if nxt < len(self.toks) else None

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _error(self, expected: str) -> ParseError:
        tok = self._cur()
        if tok is None:
            if self.toks:
                last = self.toks[-1].span
                line, col = last.end_line, last.end + 1
            else:
                line, col = 1, 1
            return ParseError(line, col, expected, "end of input")
        return ParseError(tok.span.start_line,
                          column_of(self.data, tok.span.start), expected,
                          repr(tok.text))

    def _expect_punct(self, text: str) -> Token:
        tok = self._cur()
        if tok is None or tok.kind is not TokenKind.PUNCTUATOR or tok.text != text:
            raise self._error(repr(text))
        return self._advance()

    def _expect_keyword(self, text: str) -> Token:
        tok = self._cur()
        if tok is None or tok.kind is not TokenKind.KEYWORD or tok.text != text:
            raise self._error(repr(text))
        return self._advance()

    def _expect_identifier(self, what: str = "identifier") -> Token:
        tok = self._cur()
        if tok is None or tok.kind is not TokenKind.IDENTIFIER:
            raise self._error(what)
        return self._advance()

    def _is_punct(self, text: str) -> bool:
        tok = self._cur()
        return tok is not None and tok.kind is TokenKind.PUNCTUATOR and tok.text == text

    def _is_keyword(self, text: str) -> bool:
        tok = self._cur()
        return tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == text

    def _skip_keywords(self, words: frozenset[str]) -> None:
        tok = self._cur()
        while tok is not None and tok.kind is TokenKind.KEYWORD \
                and tok.text in words:
            self._advance()
            tok = self._cur()

    def _span_from(self, start_idx: int) -> Span:
        first = self.toks[start_idx].span
        last = self.toks[self.i - 1].span
        return Span(first.start, last.end, first.start_line, last.end_line)

    def _text_of(self, span: Span) -> str:
        return self.data[span.start:span.end].decode("utf-8")

    # -- top level ---------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        contracts: list[ContractDef] = []
        while not self._at_end():
            tok = self._cur()
            assert tok is not None
            if tok.kind is TokenKind.PRAGMA:
                self._advance()
            elif tok.kind is TokenKind.KEYWORD and tok.text == "contract":
                contracts.append(self._contract())
            else:
                raise self._error("'contract' or pragma directive")
        return SourceUnit(contracts, self.data.decode("utf-8"),
                          tokens=self.all_tokens)

    def _contract(self) -> ContractDef:
        start = self.i
        self._expect_keyword("contract")
        name = self._expect_identifier("contract name")
        members, body = self._braced(self._member, "contract body")
        return ContractDef(name.text, members, self._span_from(start), body)

    def _braced(self, item, what: str) -> tuple[list, Span]:
        """``{ item* }``: the items and the span between the braces."""
        lbrace = self._expect_punct("{")
        items = []
        while not self._is_punct("}"):
            if self._at_end():
                raise self._error(f"'}}' closing {what}")
            items.append(item())
        return items, _between(lbrace, self._expect_punct("}"))

    # -- members -----------------------------------------------------------

    def _member(self):
        tok = self._cur()
        assert tok is not None
        if tok.kind is TokenKind.KEYWORD:
            if tok.text in ELEMENTARY_TYPES or tok.text == "mapping":
                return self._state_var()
            if tok.text in ("function", "constructor", "modifier"):
                return self._function_def(tok.text)
            if tok.text == "event":
                return self._event_def()
        return self._opaque_member()

    def _state_var(self) -> StateVarDecl:
        start = self.i
        self._type_ref()
        self._skip_keywords(_STATE_VAR_WORDS)
        name = self._expect_identifier("state variable name")
        if self._is_punct("="):
            self._advance()
            self._expression()
        self._expect_punct(";")
        return StateVarDecl(name.text, self._span_from(start))

    def _type_ref(self) -> None:
        tok = self._cur()
        if tok is None:
            raise self._error("type")
        if tok.kind is TokenKind.KEYWORD and tok.text == "mapping":
            self._advance()
            self._expect_punct("(")
            self._type_ref()
            self._expect_punct("=>")
            self._type_ref()
            self._expect_punct(")")
        elif tok.kind is TokenKind.KEYWORD and tok.text in ELEMENTARY_TYPES:
            self._advance()
            if tok.text == "address" and self._is_keyword("payable"):
                self._advance()
        elif tok.kind is TokenKind.IDENTIFIER:
            self._advance()
        else:
            raise self._error("type")
        while self._is_punct("["):
            self._advance()
            if not self._is_punct("]"):
                self._expression()
            self._expect_punct("]")

    def _function_def(self, kind_word: str) -> FunctionDef | OpaqueMember:
        start = self.i
        self._advance()
        name = None
        if kind_word == "modifier" or (kind_word == "function"
                                       and not self._is_punct("(")):
            # A nameless function () is the fallback function.
            name = self._expect_identifier(f"{kind_word} name").text
        if self._is_punct("("):
            self._param_list(_PARAM_WORDS)
        while not self._is_punct("{") and not self._is_punct(";"):
            tok = self._cur()
            if tok is None:
                raise self._error("'{' or ';'")
            if tok.kind is TokenKind.KEYWORD and tok.text in _HEADER_KEYWORDS:
                self._advance()
            elif tok.kind is TokenKind.KEYWORD and tok.text == "returns":
                self._advance()
                self._param_list(_DATA_LOCATION)
            elif tok.kind is TokenKind.IDENTIFIER:
                self._advance()  # modifier invocation
                if self._is_punct("("):
                    self._skip_balanced("(")
            else:
                raise self._error("function header element")
        if self._is_punct(";"):
            # Declaration without a body: outside the subset, keep it opaque.
            self._advance()
            span = self._span_from(start)
            return OpaqueMember(span, self._text_of(span))
        statements, body = self._braced(self._statement, "function body")
        return FunctionDef(kind_word, name, self._span_from(start), body,
                           statements)

    def _param_list(self, words: frozenset[str]) -> None:
        """``( type words* [name], ... )``; ``words`` are the keywords
        allowed between a type and its optional name."""
        self._expect_punct("(")
        while not self._is_punct(")"):
            self._type_ref()
            self._skip_keywords(words)
            tok = self._cur()
            if tok is not None and tok.kind is TokenKind.IDENTIFIER:
                self._advance()
            if self._is_punct(","):
                self._advance()
            elif not self._is_punct(")"):
                raise self._error("',' or ')'")
        self._expect_punct(")")

    def _event_def(self) -> EventDef:
        start = self.i
        self._expect_keyword("event")
        name = self._expect_identifier("event name")
        self._param_list(_PARAM_WORDS)
        self._expect_punct(";")
        return EventDef(name.text, self._span_from(start))

    def _opaque_member(self) -> OpaqueMember:
        span = self._consume_balanced("member")
        return OpaqueMember(span, self._text_of(span))

    def _consume_balanced(self, what: str) -> Span:
        """Consume until ';' at depth 0, or until a depth-0 brace group closes."""
        start = self.i
        depth = 0
        entered_brace = False
        while not self._at_end():
            tok = self.toks[self.i]
            if tok.kind is TokenKind.PUNCTUATOR:
                text = tok.text
                if text in _OPEN:
                    if text == "{" and depth == 0:
                        entered_brace = True
                    depth += 1
                elif text in _CLOSE:
                    if depth == 0:
                        break  # enclosing '}' reached: unterminated
                    depth -= 1
                    self._advance()
                    if depth == 0 and text == "}" and entered_brace:
                        return self._span_from(start)
                    continue
                elif text == ";" and depth == 0:
                    self._advance()
                    return self._span_from(start)
            self._advance()
        self.i = start
        raise self._error(f"terminated {what}")

    def _skip_balanced(self, opener: str) -> None:
        self._expect_punct(opener)
        depth = 1
        while depth > 0:
            if self._at_end():
                raise self._error(f"'{_OPEN[opener]}'")
            tok = self._advance()
            if tok.kind is TokenKind.PUNCTUATOR:
                if tok.text in _OPEN:
                    depth += 1
                elif tok.text in _CLOSE:
                    depth -= 1

    # -- statements ----------------------------------------------------------

    def _statement(self) -> Stmt:
        tok = self._cur()
        if tok is None:
            raise self._error("statement")
        if tok.kind is TokenKind.PUNCTUATOR and tok.text == "{":
            return self._block()
        if tok.kind is TokenKind.KEYWORD:
            text = tok.text
            if text == "if":
                return self._if_stmt()
            if text == "for":
                return self._for_stmt()
            if text == "while":
                return self._while_stmt()
            if text == "return":
                return self._return_stmt()
            if text == "emit":
                return self._emit_stmt()
            if text == "function":
                raise self._error(
                    "statement (nested function definition is not supported)")
            if text == "else":
                # No construct starts with 'else'; letting the opaque
                # fallback swallow one would hide a broken if/else pairing.
                raise self._error("statement")
            if text in ELEMENTARY_TYPES or text == "mapping":
                return self._local_var_decl()
        return self._fallback_stmt()

    def _fallback_stmt(self) -> Stmt:
        """Identifier/expression-led statement with opaque fallback."""
        checkpoint = self.i
        try:
            tok = self._cur()
            assert tok is not None
            if tok.kind is TokenKind.IDENTIFIER and tok.text == "require" \
                    and self._next_text() == "(":
                return self._require_stmt()
            if tok.kind is TokenKind.IDENTIFIER and tok.text == "revert" \
                    and self._next_text() == "(":
                return self._revert_stmt()
            return self._expr_or_assign_stmt()
        except ParseError as first_err:
            self.i = checkpoint
            try:
                span = self._consume_balanced("statement")
            except ParseError:
                raise first_err from None
            return Stmt("expressionStmt", span, [], self._text_of(span), opaque=True)

    def _stmt(self, kind: str, start: int, children: list[Stmt] | None = None,
              cond_span: Span | None = None) -> Stmt:
        span = self._span_from(start)
        return Stmt(kind, span, children or [], self._text_of(span),
                    cond_span=cond_span)

    def _require_stmt(self) -> Stmt:
        start = self.i
        self._advance()  # require
        lparen = self._expect_punct("(")
        self._expression()
        if self._is_punct(","):
            self._advance()
            self._expression()
        cond = _between(lparen, self._expect_punct(")"))
        self._expect_punct(";")
        return self._stmt("requireStmt", start, cond_span=cond)

    def _revert_stmt(self) -> Stmt:
        start = self.i
        self._advance()  # revert
        self._call_args()
        self._expect_punct(";")
        return self._stmt("revertStmt", start)

    def _block(self) -> Stmt:
        start = self.i
        children, _ = self._braced(self._statement, "block")
        return self._stmt("block", start, children)

    def _if_stmt(self) -> Stmt:
        start = self.i
        self._expect_keyword("if")
        cond = self._condition()
        children = [self._statement()]
        if self._is_keyword("else"):
            self._advance()
            children.append(self._statement())
        return self._stmt("ifStmt", start, children, cond_span=cond)

    def _while_stmt(self) -> Stmt:
        start = self.i
        self._expect_keyword("while")
        cond = self._condition()
        children = [self._statement()]
        return self._stmt("whileStmt", start, children, cond_span=cond)

    def _condition(self) -> Span:
        """``( expression )``; returns the span between the parentheses."""
        lparen = self._expect_punct("(")
        self._expression()
        return _between(lparen, self._expect_punct(")"))

    def _for_stmt(self) -> Stmt:
        start = self.i
        self._expect_keyword("for")
        self._expect_punct("(")
        if not self._is_punct(";"):
            tok = self._cur()
            if tok is not None and tok.kind is TokenKind.KEYWORD and \
                    (tok.text in ELEMENTARY_TYPES or tok.text == "mapping"):
                self._var_decl_core()
            else:
                self._expr_or_assign_core()
        self._expect_punct(";")
        if not self._is_punct(";"):
            self._expression()
        self._expect_punct(";")
        if not self._is_punct(")"):
            self._expr_or_assign_core()
        self._expect_punct(")")
        children = [self._statement()]
        return self._stmt("forStmt", start, children)

    def _return_stmt(self) -> Stmt:
        start = self.i
        self._expect_keyword("return")
        if not self._is_punct(";"):
            self._expression()
        self._expect_punct(";")
        return self._stmt("returnStmt", start)

    def _emit_stmt(self) -> Stmt:
        start = self.i
        self._expect_keyword("emit")
        self._expect_identifier("event name")
        self._call_args()
        self._expect_punct(";")
        return self._stmt("emitStmt", start)

    def _local_var_decl(self) -> Stmt:
        start = self.i
        self._var_decl_core()
        self._expect_punct(";")
        return self._stmt("localVarDecl", start)

    def _var_decl_core(self) -> None:
        self._type_ref()
        self._skip_keywords(_DATA_LOCATION)
        self._expect_identifier("variable name")
        if self._is_punct("="):
            self._advance()
            self._expression()

    def _expr_or_assign_stmt(self) -> Stmt:
        start = self.i
        kind = self._expr_or_assign_core()
        self._expect_punct(";")
        return self._stmt(kind, start)

    def _expr_or_assign_core(self) -> str:
        self._expression()
        tok = self._cur()
        if tok is not None and tok.kind is TokenKind.PUNCTUATOR and \
                tok.text in _ASSIGN_OPS:
            self._advance()
            self._expression()
            return "assignment"
        return "expressionStmt"

    # -- expressions -----------------------------------------------------------

    def _expression(self) -> None:
        self._binary(1)
        if self._is_punct("?"):
            self._advance()
            self._expression()
            self._expect_punct(":")
            self._expression()

    def _binary(self, min_prec: int) -> None:
        self._unary()
        while True:
            tok = self._cur()
            if tok is None or tok.kind is not TokenKind.PUNCTUATOR:
                return
            prec = _BINARY_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return
            self._advance()
            self._binary(prec + 1)

    def _unary(self) -> None:
        tok = self._cur()
        if tok is None:
            raise self._error("expression")
        if tok.kind is TokenKind.PUNCTUATOR and tok.text in ("!", "-", "+", "~", "++", "--"):
            self._advance()
            self._unary()
            return
        if tok.kind is TokenKind.KEYWORD and tok.text == "new":
            self._advance()
            self._type_ref()
            if self._is_punct("("):
                self._call_args()
            self._postfix_chain()
            return
        self._primary()
        self._postfix_chain()

    def _primary(self) -> None:
        tok = self._cur()
        if tok is None:
            raise self._error("expression")
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            nxt = self._cur()
            if nxt is not None and nxt.kind is TokenKind.KEYWORD and \
                    nxt.text in UNIT_KEYWORDS:
                self._advance()
            return
        if tok.kind is TokenKind.STRING or tok.kind is TokenKind.IDENTIFIER:
            self._advance()
            return
        if tok.kind is TokenKind.KEYWORD and tok.text in ("true", "false"):
            self._advance()
            return
        if tok.kind is TokenKind.KEYWORD and tok.text in ELEMENTARY_TYPES:
            self._advance()  # cast target: uint8(...), address(this), ...
            return
        if tok.kind is TokenKind.PUNCTUATOR and tok.text == "(":
            # Parenthesized expression or a tuple such as (a, b, c).
            self._advance()
            self._expression()
            while self._is_punct(","):
                self._advance()
                self._expression()
            self._expect_punct(")")
            return
        raise self._error("expression")

    def _postfix_chain(self) -> None:
        while True:
            if self._is_punct("."):
                self._advance()
                self._expect_identifier("member name")
            elif self._is_punct("("):
                self._call_args()
            elif self._is_punct("["):
                self._advance()
                self._expression()
                self._expect_punct("]")
            elif self._is_punct("++") or self._is_punct("--"):
                self._advance()
            else:
                return

    def _call_args(self) -> None:
        self._expect_punct("(")
        if not self._is_punct(")"):
            self._expression()
            while self._is_punct(","):
                self._advance()
                self._expression()
        self._expect_punct(")")


def parse_member_fragment(text: str):
    """Parse ``text`` as if it appeared at contract-body level."""
    unit = parse("contract __Wrap {\n" + text + "\n}")
    return unit.contracts[0].members


def parse_statement_fragment(text: str) -> list[Stmt]:
    """Parse ``text`` as if it appeared inside a function body."""
    unit = parse("contract __Wrap {\nfunction __wrap() public {\n"
                 + text + "\n}\n}")
    member = unit.contracts[0].members[0]
    assert isinstance(member, FunctionDef)
    return member.statements
