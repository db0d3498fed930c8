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
from .nodes import ContractDef, Decl, FunctionDef, Member, SourceUnit, Stmt
from .spans import Span, column_of

_VISIBILITY = frozenset({"public", "private", "internal", "external"})
_MUTABILITY = frozenset({"payable", "view", "pure", "constant"})
_HEADER_KEYWORDS = _VISIBILITY | _MUTABILITY
_DATA_LOCATION = frozenset({"memory", "storage", "calldata"})
_TYPE_WORDS = ELEMENTARY_TYPES | {"mapping"}  # words that open a declaration
_STATE_VAR_WORDS = _VISIBILITY | {"constant"}
_PARAM_WORDS = _DATA_LOCATION | {"indexed", "payable"}
_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})
_OPEN = {"(": ")", "[": "]", "{": "}"}
_OPENER = {close: open_ for open_, close in _OPEN.items()}

_BINARY_OPS = frozenset({"||", "&&", "|", "^", "&", "==", "!=", "<", ">",
                         "<=", ">=", "<<", ">>", "+", "-", "*", "/", "%",
                         "**"})

# The identifiers whose text the parser reads: ``require(``, ``revert(`` and
# ``do`` lead statements of their own, and ``catch`` continues an opaque one.
READ_IDENTIFIERS = frozenset({"require", "revert", "do", "catch"})
# The tokens that can carry an opaque statement on past a brace group.
_CONTINUERS = frozenset({"(", ".", "[", "catch"})


def parse(source: str) -> SourceUnit:
    """Parse ``source`` into a span-annotated SourceUnit. Brackets nested
    deeper than the interpreter's stack allows are a ParseError at the token
    the parser had reached."""
    parser = _Parser(source, tokenize(source))
    try:
        return parser.parse_unit()
    except RecursionError:
        raise parser._error("shallower nesting") from None


def _between(open_tok: Token, close_tok: Token) -> Span:
    """Span strictly inside a bracket pair (both brackets excluded)."""
    return Span(open_tok.end, close_tok.start,
                open_tok.end_line, close_tok.start_line)


class _Parser:
    def __init__(self, source: str, tokens: list[Token]) -> None:
        self.data = source.encode("utf-8")
        self.toks = [t for t in tokens if t.kind is not TokenKind.COMMENT]
        # the token texts, then "" (no token's text) at the end of input
        self.texts = [t.text for t in self.toks]
        self.texts.append("")
        self.i = 0

    # -- token plumbing ---------------------------------------------------

    def _at_end(self) -> bool:
        return self.i >= len(self.toks)

    def _cur(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next_text(self) -> str:
        """The text after the current token's; only valid before the end."""
        return self.texts[self.i + 1]

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _error(self, expected: str, closer: str | None = None) -> ParseError:
        """A ParseError at the current token. ``closer`` is the closer the
        innermost open bracket needs here ("" when none is open); given it,
        a closer of another kind or the end of input is named as a bracket
        fault."""
        tok = self._cur()
        text = self.texts[self.i]
        bracket = None
        if closer is not None:
            if text in _OPENER and text != closer:
                bracket = (f"'{_OPENER[closer]}' closed by '{text}'" if closer
                           else f"unmatched '{text}'")
            elif tok is None and closer:
                bracket = f"unclosed '{_OPENER[closer]}'"
        if tok is None:
            # an input without tokens parses to an empty unit, so the
            # end of input is only reached after a token
            last = self.toks[-1]
            return ParseError(last.end_line, column_of(self.data, last.end),
                              expected, "end of input", bracket)
        return ParseError(tok.start_line, column_of(self.data, tok.start),
                          expected, repr(tok.text), bracket)

    def _expect(self, text: str) -> Token:
        if not self._is(text):
            raise self._error(repr(text), text if text in _OPENER else None)
        return self._advance()

    def _expect_identifier(self, what: str = "identifier") -> Token:
        tok = self._cur()
        if tok is None or tok.kind is not TokenKind.IDENTIFIER:
            raise self._error(what)
        return self._advance()

    def _is(self, text: str) -> bool:
        return self.texts[self.i] == text

    def _in(self, texts) -> bool:
        return self.texts[self.i] in texts

    def _skip_keywords(self, words: frozenset[str]) -> None:
        while self._in(words):
            self._advance()

    def _span_from(self, start_idx: int) -> Span:
        first = self.toks[start_idx]
        last = self.toks[self.i - 1]
        return Span(first.start, last.end, first.start_line, last.end_line)

    # -- top level ---------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        contracts: list[ContractDef] = []
        while not self._at_end():
            tok = self.toks[self.i]
            if tok.kind is TokenKind.PRAGMA:
                self._advance()
            elif tok.text == "contract":
                contracts.append(self._contract())
            else:
                raise self._error("'contract' or pragma directive", "")
        return SourceUnit(contracts, self.data, tokens=self.toks)

    def _contract(self) -> ContractDef:
        start = self.i
        self._expect("contract")
        name = self._expect_identifier("contract name")
        members, body = self._braced(self._member, "contract body")
        return ContractDef(name.text, members, self._span_from(start), body)

    def _braced(self, item, what: str) -> tuple[list, Span]:
        """``{ item* }``: the items and the span between the braces."""
        lbrace = self._expect("{")
        items = []
        while not self._is("}"):
            if self._at_end() or self._in(_OPENER):
                raise self._error(f"'}}' closing {what}", "}")
            items.append(item())
        return items, _between(lbrace, self._expect("}"))

    # -- members -----------------------------------------------------------

    def _member(self) -> Member:
        text = self.toks[self.i].text
        if text in _TYPE_WORDS:
            return self._state_var()
        if text in ("function", "constructor", "modifier"):
            return self._function_def(text)
        if text == "event":
            return self._event_def()
        return Decl("opaqueMember", self._consume_balanced("member"))

    def _state_var(self) -> Decl:
        start = self.i
        self._type_ref()
        self._skip_keywords(_STATE_VAR_WORDS)
        name = self._expect_identifier("state variable name")
        if self._is("="):
            self._advance()
            self._expression()
        self._expect(";")
        return Decl("stateVar", self._span_from(start), name.text)

    def _type_ref(self) -> None:
        tok = self._cur()
        if tok is None:
            raise self._error("type")
        if tok.text == "mapping":
            self._advance()
            self._expect("(")
            self._type_ref()
            self._expect("=>")
            self._type_ref()
            self._expect(")")
        elif tok.text in ELEMENTARY_TYPES:
            self._advance()
            if tok.text == "address" and self._is("payable"):
                self._advance()
        elif tok.kind is TokenKind.IDENTIFIER:
            self._advance()
        else:
            raise self._error("type")
        while self._is("["):
            self._advance()
            if not self._is("]"):
                self._expression()
            self._expect("]")

    def _function_def(self, kind_word: str) -> Member:
        start = self.i
        self._advance()
        name = None
        if kind_word == "modifier" or (kind_word == "function"
                                       and not self._is("(")):
            # A nameless function () is the fallback function.
            name = self._expect_identifier(f"{kind_word} name").text
        if self._is("("):
            self._param_list(_PARAM_WORDS)
        while not self._in(("{", ";")):
            tok = self._cur()
            if tok is None:
                raise self._error("'{' or ';'")
            if tok.text in _HEADER_KEYWORDS:
                self._advance()
            elif tok.text == "returns":
                self._advance()
                self._param_list(_DATA_LOCATION)
            elif tok.kind is TokenKind.IDENTIFIER:
                self._advance()  # modifier invocation
                if self._is("("):
                    self._skip_balanced("(")
            else:
                raise self._error("function header element")
        if self._is(";"):
            # Declaration without a body: outside the subset, keep it opaque.
            self._advance()
            return Decl("opaqueMember", self._span_from(start))
        statements, body = self._braced(self._statement, "function body")
        return FunctionDef(kind_word, name, self._span_from(start), body,
                           statements)

    def _param_list(self, words: frozenset[str]) -> None:
        """``( type words* [name], ... )``; ``words`` are the keywords
        allowed between a type and its optional name."""
        self._expect("(")
        while not self._is(")"):
            self._type_ref()
            self._skip_keywords(words)
            tok = self._cur()
            if tok is not None and tok.kind is TokenKind.IDENTIFIER:
                self._advance()
            if self._is(","):
                self._advance()
            elif not self._is(")"):
                raise self._error("',' or ')'", ")")
        self._expect(")")

    def _event_def(self) -> Decl:
        start = self.i
        self._expect("event")
        name = self._expect_identifier("event name")
        self._param_list(_PARAM_WORDS)
        self._expect(";")
        return Decl("event", self._span_from(start), name.text)

    def _consume_balanced(self, what: str) -> Span:
        """Consume until ';' at depth 0, or until a depth-0 brace group
        closes and ``_continues`` says the statement ends there. A closer
        of the wrong kind is a bracket fault."""
        start = opened = self.i
        closers: list[str] = []  # what each open bracket needs, innermost last
        while not self._at_end():
            text = self.texts[self.i]
            if text in _OPEN:
                if not closers:
                    opened = self.i
                closers.append(_OPEN[text])
            elif text in _OPENER:
                if not closers:
                    break  # enclosing closer reached: unterminated
                if text != closers[-1]:
                    raise self._error(repr(closers[-1]), closers[-1])
                closers.pop()
                self.i += 1
                if not closers and text == "}" and \
                        not self._continues(opened):
                    return self._span_from(start)
                continue
            elif text == ";" and not closers:
                self.i += 1
                return self._span_from(start)
            self.i += 1
        self.i = start
        raise self._error(f"terminated {what}")

    def _continues(self, opened: int) -> bool:
        """Whether the current token carries an opaque region on past the
        brace group opened at ``opened``: the arguments after call options
        (``x.f{value: 1}(...)``, ``new C{salt: s}()``, but not after
        ``unchecked {}`` or ``assembly {}``), ``catch`` after a ``try``
        clause, or a member access or index."""
        text = self.texts[self.i]
        if text == "(":
            return self.texts[opened - 2] in (".", "new")
        return text in _CONTINUERS

    def _skip_balanced(self, opener: str) -> None:
        """Skip a bracketed group, checking that its brackets nest."""
        self._expect(opener)
        closers = [_OPEN[opener]]
        while closers:
            text = self.texts[self.i]
            if text in _OPEN:
                closers.append(_OPEN[text])
            elif text in _OPENER:
                if text != closers[-1]:
                    raise self._error(repr(closers[-1]), closers[-1])
                closers.pop()
            elif self._at_end():
                raise self._error(f"'{_OPEN[opener]}'", closers[-1])
            self.i += 1

    # -- statements ----------------------------------------------------------

    def _statement(self) -> Stmt:
        tok = self._cur()
        if tok is None:
            raise self._error("statement")
        text = tok.text
        if text == "{":
            return self._block()
        if text == "if":
            return self._if_stmt()
        if text == "for":
            return self._for_stmt()
        if text == "while":
            return self._while_stmt()
        if text == "do":
            return self._do_stmt()
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
        if text in _TYPE_WORDS:
            return self._local_var_decl()
        return self._fallback_stmt()

    def _fallback_stmt(self) -> Stmt:
        """Identifier/expression-led statement with opaque fallback."""
        checkpoint = self.i
        try:
            if self._is("require") and self._next_text() == "(":
                return self._require_stmt()
            if self._is("revert") and self._next_text() == "(":
                return self._revert_stmt()
            return self._expr_or_assign_stmt()
        except ParseError as first_err:
            self.i = checkpoint
            try:
                span = self._consume_balanced("statement")
            except ParseError as err:
                # a bracket fault in the statement is the cause; the strict
                # attempt's error is only its symptom
                raise (err if err.bracket else first_err) from None
            return Stmt("expressionStmt", span, [], opaque=True)

    def _stmt(self, kind: str, start: int, children: list[Stmt] | None = None,
              cond_span: Span | None = None) -> Stmt:
        return Stmt(kind, self._span_from(start), children or [],
                    cond_span=cond_span)

    def _require_stmt(self) -> Stmt:
        start = self.i
        self._advance()  # require
        lparen = self._expect("(")
        self._expression()
        if self._is(","):
            self._advance()
            self._expression()
        cond = _between(lparen, self._expect(")"))
        self._expect(";")
        return self._stmt("requireStmt", start, cond_span=cond)

    def _revert_stmt(self) -> Stmt:
        start = self.i
        self._advance()  # revert
        self._call_args()
        self._expect(";")
        return self._stmt("revertStmt", start)

    def _block(self) -> Stmt:
        start = self.i
        children, _ = self._braced(self._statement, "block")
        return self._stmt("block", start, children)

    def _if_stmt(self) -> Stmt:
        start = self.i
        self._expect("if")
        cond = self._condition()
        children = [self._statement()]
        if self._is("else"):
            self._advance()
            children.append(self._statement())
        return self._stmt("ifStmt", start, children, cond_span=cond)

    def _while_stmt(self) -> Stmt:
        start = self.i
        self._expect("while")
        self._condition()
        children = [self._statement()]
        return self._stmt("whileStmt", start, children)

    def _do_stmt(self) -> Stmt:
        """``do <statement> while (...);``, as one opaque statement."""
        start = self.i
        self._advance()  # do
        self._statement()
        self._expect("while")
        self._skip_balanced("(")
        self._expect(";")
        return Stmt("expressionStmt", self._span_from(start), [], opaque=True)

    def _condition(self) -> Span:
        """``( expression )``; returns the span between the parentheses."""
        lparen = self._expect("(")
        self._expression()
        return _between(lparen, self._expect(")"))

    def _for_stmt(self) -> Stmt:
        start = self.i
        self._expect("for")
        self._expect("(")
        if not self._is(";"):
            if self._in(_TYPE_WORDS):
                self._var_decl_core()
            else:
                self._expr_or_assign_core()
        self._expect(";")
        if not self._is(";"):
            self._expression()
        self._expect(";")
        if not self._is(")"):
            self._expr_or_assign_core()
        self._expect(")")
        children = [self._statement()]
        return self._stmt("forStmt", start, children)

    def _return_stmt(self) -> Stmt:
        start = self.i
        self._expect("return")
        if not self._is(";"):
            self._expression()
        self._expect(";")
        return self._stmt("returnStmt", start)

    def _emit_stmt(self) -> Stmt:
        start = self.i
        self._expect("emit")
        self._expect_identifier("event name")
        self._call_args()
        self._expect(";")
        return self._stmt("emitStmt", start)

    def _local_var_decl(self) -> Stmt:
        start = self.i
        self._var_decl_core()
        self._expect(";")
        return self._stmt("localVarDecl", start)

    def _var_decl_core(self) -> None:
        self._type_ref()
        self._skip_keywords(_DATA_LOCATION)
        self._expect_identifier("variable name")
        if self._is("="):
            self._advance()
            self._expression()

    def _expr_or_assign_stmt(self) -> Stmt:
        start = self.i
        kind = self._expr_or_assign_core()
        self._expect(";")
        return self._stmt(kind, start)

    def _expr_or_assign_core(self) -> str:
        self._expression()
        if self._in(_ASSIGN_OPS):
            self._advance()
            self._expression()
            return "assignment"
        return "expressionStmt"

    # -- expressions -----------------------------------------------------------

    def _expression(self) -> None:
        # no tree is built, so precedence cannot change what is consumed
        self._unary()
        while self._in(_BINARY_OPS):
            self._advance()
            self._unary()
        if self._is("?"):
            self._advance()
            self._expression()
            self._expect(":")
            self._expression()

    def _unary(self) -> None:
        tok = self._cur()
        if tok is None:
            raise self._error("expression")
        if tok.text in ("!", "-", "+", "~", "++", "--"):
            self._advance()
            self._unary()
            return
        if tok.text == "new":
            self._advance()
            self._type_ref()
            if self._is("("):
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
            if self._in(UNIT_KEYWORDS):
                self._advance()
            return
        if tok.kind is TokenKind.STRING or tok.kind is TokenKind.IDENTIFIER:
            self._advance()
            return
        if tok.text in ("true", "false"):
            self._advance()
            return
        if tok.text in ELEMENTARY_TYPES:
            self._advance()  # cast target: uint8(...), address(this), ...
            return
        if tok.text == "(":
            # Parenthesized expression or a tuple such as (a, b, c).
            self._advance()
            self._expression()
            while self._is(","):
                self._advance()
                self._expression()
            self._expect(")")
            return
        raise self._error("expression")

    def _postfix_chain(self) -> None:
        while True:
            if self._is("."):
                self._advance()
                self._expect_identifier("member name")
            elif self._is("("):
                self._call_args()
            elif self._is("["):
                self._advance()
                self._expression()
                self._expect("]")
            elif self._in(("++", "--")):
                self._advance()
            else:
                return

    def _call_args(self) -> None:
        self._expect("(")
        if not self._is(")"):
            self._expression()
            while self._is(","):
                self._advance()
                self._expression()
        self._expect(")")


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
