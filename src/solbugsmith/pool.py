"""Bug pool: parameterized snippets, token rewrite patterns, weakening rules.

Snippet templates mark every identifier they declare with a ``{N}`` suffix so
each instantiation is fresh; required context declarations use fixed names so
multiple bugs in one contract can share them. Templates are verified at load
time by parsing them with a probe counter, which catches malformed entries
before they can ever reach an injection run; a ``{N}`` where some counter
would lex as another kind of token than the probe's is an error.

The loader also records what lets the injector vouch for its output without
a re-parse: ``vouched`` is true of a snippet that passed those checks, and
of a transform whose replacement can stand wherever its match parses. Both
checks read only the entry's fields, so an equal copy is vouched for too.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .errors import LexError, ParseError, PoolError, shown
from .front import FunctionDef, parse_member_fragment, parse_statement_fragment
from .front.lexer import ELEMENTARY_TYPES, Token, TokenKind, tokenize
from .front.parser import READ_IDENTIFIERS
from .front.nodes import COMPOUND_STMT_KINDS, SIMPLE_STMT_KINDS, Stmt
from .model import BUG_TYPES, SNIPPET_FORMS, BugType, SnippetForm, term

GUARD_SHAPES = frozenset({"guardedSendRevert"})

_MARKED_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\{N\}")

# A {N} in code whose counter can change how the instance lexes (a group):
# after int, uint or bytes (and any digits) it can complete an elementary
# type name such as uint8, and a counter of 0 before x starts a hex number.
# Strings and comments are matched whole, so a {N} inside one is skipped;
# its digits cannot change where the string or comment ends.
_COUNTER_HAZARD = re.compile(
    r"\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*'|//[^\n]*|/\*.*?\*/"
    r"|(?<![A-Za-z_$])(?:u?int|bytes)[0-9]*(\{N\})"
    r"|(?<![A-Za-z0-9_$])(\{N\})[xX]", re.DOTALL)

# the elementary types that parse alike (``address`` may take ``payable``)
_SWAPPABLE_TYPES = ELEMENTARY_TYPES - {"address"}


class BugSnippet(NamedTuple):
    id: str
    bug_type: BugType
    form: SnippetForm
    template: str
    required_context: tuple[str, ...] = ()

    @property
    def lead_name(self) -> str | None:
        """The first marked identifier without its marker; an instance's
        bug id is this name followed by the counter."""
        match = _MARKED_NAME.search(self.template)
        return None if match is None else match.group(1)


class TransformPattern(NamedTuple):
    """A token rewrite; ``needle`` holds the token texts of ``match`` less
    its comments, and ``insert`` is ``replace`` with each whitespace run
    collapsed to one space."""

    bug_type: BugType
    match: str
    replace: str
    needle: tuple[str, ...]
    insert: str


class WeakeningRule(NamedTuple):
    bug_type: BugType
    guard_shape: str


class BugPool(NamedTuple):
    snippets: tuple[BugSnippet, ...] = ()
    transforms: tuple[TransformPattern, ...] = ()
    weakenings: tuple[WeakeningRule, ...] = ()

    def snippets_for(self, bug_type: BugType) -> tuple[BugSnippet, ...]:
        return tuple(s for s in self.snippets if s.bug_type is bug_type)

    def variants(self, bug_type: BugType) \
            -> dict[SnippetForm, list[BugSnippet]]:
        """The snippets of ``bug_type`` by form, forms in pool order."""
        groups: dict[SnippetForm, list[BugSnippet]] = {}
        for snippet in self.snippets_for(bug_type):
            groups.setdefault(snippet.form, []).append(snippet)
        return groups

    def transforms_for(self, bug_type: BugType) -> tuple[TransformPattern, ...]:
        return tuple(t for t in self.transforms if t.bug_type is bug_type)

    def weakenings_for(self, bug_type: BugType) -> tuple[WeakeningRule, ...]:
        return tuple(w for w in self.weakenings if w.bug_type is bug_type)


_VOUCHED: set[BugSnippet | TransformPattern] = set()


def vouched(entry: BugSnippet | TransformPattern) -> bool:
    """Whether ``load_pool`` found ``entry``, or an equal one, sound: a
    snippet whose instance at any counter >= 0 parses as one fragment of
    its form, or a pattern whose ``insert`` the parser reads wherever it
    reads the needle, token for token (``_same_role``)."""
    return entry in _VOUCHED


def instantiate(snippet: BugSnippet, counter: int) -> str:
    """Render the template with ``counter`` substituted for every marker."""
    return snippet.template.replace("{N}", str(counter))


def load_pool(text: str) -> BugPool:
    """Parse and verify a pool document, raising PoolError on the first bad entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise PoolError("<document>", f"not valid JSON: {err}") from None
    except RecursionError as err:  # nested deeper than the decoder goes
        raise PoolError("<document>", str(err)) from None
    if not isinstance(doc, dict):
        raise PoolError("<document>", "top level must be an object")

    snippets = []
    seen_ids: set[str] = set()
    for raw in _section(doc, "snippets"):
        snippet = _snippet_from_json(raw)
        if snippet.id in seen_ids:
            raise PoolError(snippet.id, "duplicate snippet id")
        seen_ids.add(snippet.id)
        _check_snippet(snippet)
        _VOUCHED.add(snippet)
        snippets.append(snippet)

    transforms = []
    for idx, raw in enumerate(_section(doc, "transforms")):
        transforms.append(_transform_from_json(raw, idx))

    weakenings = []
    for idx, raw in enumerate(_section(doc, "weakenings")):
        weakening = _weakening_from_json(raw, idx)
        # a second rule would find the same guards again, and its edits
        # would overlap the first rule's
        if weakening in weakenings:
            raise PoolError(f"<weakening #{idx}>",
                            "duplicate bugType and guardShape")
        weakenings.append(weakening)

    return BugPool(tuple(snippets), tuple(transforms), tuple(weakenings))


def _section(doc: dict, key: str) -> list:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise PoolError("<document>", f"{key} must be a list")
    return entries


@lru_cache(maxsize=1)
def default_pool() -> BugPool:
    text = (resources.files("solbugsmith") / "data" / "default_pool.json") \
        .read_text(encoding="utf-8")
    return load_pool(text)


def _snippet_from_json(raw: object) -> BugSnippet:
    if not isinstance(raw, dict):
        raise PoolError("<snippet>", "snippet entry must be an object")
    entry_id = raw.get("id")
    if not isinstance(entry_id, str) or not entry_id:
        raise PoolError("<snippet>", "missing or empty id")
    # the id goes into every bug log, whose CSV rows stay one line of
    # printable text each
    if not entry_id.isprintable():
        raise PoolError("<snippet>", f"id {shown(entry_id)} is not printable")
    try:
        bug_type = term(BUG_TYPES, raw["bugType"], "BugType")
        form = term(SNIPPET_FORMS, raw["form"], "SnippetForm")
    except (KeyError, ValueError) as err:
        raise PoolError(entry_id, str(err)) from None
    template = raw.get("template")
    if not isinstance(template, str) or not template.strip():
        raise PoolError(entry_id, "missing or empty template")
    context = raw.get("requiredContext", [])
    if not isinstance(context, list) or \
            not all(isinstance(c, str) for c in context):
        raise PoolError(entry_id, "requiredContext must be a list of strings")
    return BugSnippet(entry_id, bug_type, form, template, tuple(context))


def _check_snippet(snippet: BugSnippet) -> None:
    if any(m.lastindex for m in _COUNTER_HAZARD.finditer(snippet.template)):
        raise PoolError(snippet.id, "{N} after int, uint or bytes, or before "
                        "x, lexes as another token for some counters")
    probe = instantiate(snippet, 0)
    if snippet.form is SnippetForm.FUNCTION_DEFINITION:
        members = _parsed(snippet, "template", parse_member_fragment, probe)
        if not members:
            raise PoolError(snippet.id, "template declares no members")
        if any(m.kind == "opaqueMember" for m in members):
            raise PoolError(snippet.id, "template has an opaque member")
        if not any(isinstance(m, FunctionDef) for m in members):
            raise PoolError(snippet.id, "template declares no function")
    else:
        stmts = _parsed(snippet, "template", parse_statement_fragment, probe)
        if len(stmts) != 1:
            raise PoolError(
                snippet.id,
                f"template must be exactly one statement, got {len(stmts)}")
        stmt = stmts[0]
        if _has_opaque(stmt):
            raise PoolError(snippet.id, "template contains opaque code")
        wanted = SIMPLE_STMT_KINDS if snippet.form is SnippetForm.SIMPLE_STATEMENT \
            else COMPOUND_STMT_KINDS
        if stmt.kind not in wanted:
            raise PoolError(
                snippet.id,
                f"{snippet.form.value} template parsed as {stmt.kind}")
    for decl in snippet.required_context:
        if "{N}" in decl:
            raise PoolError(snippet.id, "context declarations must use fixed names")
        members = _parsed(snippet, "context declaration",
                          parse_member_fragment, decl)
        if len(members) != 1 or members[0].kind == "opaqueMember":
            raise PoolError(snippet.id,
                            "each context entry must be one parsable declaration")


def _parsed(snippet: BugSnippet, what: str, parse, text: str):
    # tokenize encodes its input as UTF-8, which fails on a lone surrogate
    try:
        return parse(text)
    except (LexError, ParseError, UnicodeEncodeError) as err:
        raise PoolError(snippet.id, f"{what} does not parse: {err}") from None


def _has_opaque(stmt: Stmt) -> bool:
    return stmt.opaque or any(map(_has_opaque, stmt.children))


def _transform_from_json(raw: object, idx: int) -> TransformPattern:
    label = f"<transform #{idx}>"
    if not isinstance(raw, dict):
        raise PoolError(label, "transform entry must be an object")
    try:
        bug_type = term(BUG_TYPES, raw["bugType"], "BugType")
    except (KeyError, ValueError) as err:
        raise PoolError(label, str(err)) from None
    match = raw.get("match")
    replace = raw.get("replace")
    if not isinstance(match, str) or not match.strip():
        raise PoolError(label, "missing or empty match pattern")
    if not isinstance(replace, str) or not replace.strip():
        raise PoolError(label, "missing or empty replacement")
    # tokenize encodes its input as UTF-8, which fails on a lone surrogate
    try:
        needle = [t for t in tokenize(match)
                  if t.kind is not TokenKind.COMMENT]
    except (LexError, UnicodeEncodeError) as err:
        raise PoolError(label, f"match pattern does not lex: {err}") from None
    if not needle:
        raise PoolError(label, "match pattern has no tokens")
    insert = " ".join(replace.split())
    try:
        inserted = tokenize(insert)
    except (LexError, UnicodeEncodeError) as err:
        raise PoolError(label, f"replacement does not lex: {err}") from None
    pattern = TransformPattern(bug_type, match, replace,
                               tuple(t.text for t in needle), insert)
    if len(inserted) == len(needle) and all(map(_same_role, needle, inserted)):
        _VOUCHED.add(pattern)
    return pattern


def _same_role(old: Token, new: Token) -> bool:
    """Whether the parser reads ``new`` wherever it reads ``old`` alike."""
    if old.kind is not new.kind:
        return False
    if old.text == new.text:
        return True
    if old.kind is TokenKind.KEYWORD:
        return old.text in _SWAPPABLE_TYPES and new.text in _SWAPPABLE_TYPES
    if old.kind is TokenKind.IDENTIFIER:
        return not {old.text, new.text} & READ_IDENTIFIERS
    return old.kind is not TokenKind.PUNCTUATOR


def _weakening_from_json(raw: object, idx: int) -> WeakeningRule:
    label = f"<weakening #{idx}>"
    if not isinstance(raw, dict):
        raise PoolError(label, "weakening entry must be an object")
    try:
        bug_type = term(BUG_TYPES, raw["bugType"], "BugType")
    except (KeyError, ValueError) as err:
        raise PoolError(label, str(err)) from None
    shape = raw.get("guardShape")
    if not isinstance(shape, str) or shape not in GUARD_SHAPES:
        raise PoolError(label, f"unknown guard shape: {shown(shape)}")
    action = raw.get("action", "commentOutStatement")
    if action != "commentOutStatement":
        raise PoolError(label, f"unknown action: {shown(action)}")
    return WeakeningRule(bug_type, shape)
