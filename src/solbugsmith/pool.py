"""Bug pool: parameterized snippets, token rewrite patterns, weakening rules.

Snippet templates mark every identifier they declare with a ``{N}`` suffix so
each instantiation is fresh; required context declarations use fixed names so
multiple bugs in one contract can share them. Templates are verified at load
time by parsing them with a probe counter, which catches malformed entries
before they can ever reach an injection run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import LexError, ParseError, PoolError
from .front import FunctionDef, parse_member_fragment, parse_statement_fragment
from .front.lexer import TokenKind, tokenize
from .front.nodes import COMPOUND_STMT_KINDS, SIMPLE_STMT_KINDS, Stmt
from .model import BugType, SnippetForm

GUARD_SHAPES = frozenset({"guardedSendRevert"})

_MARKED_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\{N\}")


@dataclass(frozen=True)
class BugSnippet:
    id: str
    bug_type: BugType
    form: SnippetForm
    template: str
    required_context: tuple[str, ...] = ()


@dataclass(frozen=True)
class TransformPattern:
    bug_type: BugType
    match: str
    replace: str


@dataclass(frozen=True)
class WeakeningRule:
    bug_type: BugType
    guard_shape: str


@dataclass(frozen=True)
class BugPool:
    snippets: tuple[BugSnippet, ...] = ()
    transforms: tuple[TransformPattern, ...] = ()
    weakenings: tuple[WeakeningRule, ...] = ()

    def snippets_for(self, bug_type: BugType) -> tuple[BugSnippet, ...]:
        return tuple(s for s in self.snippets if s.bug_type is bug_type)

    def forms_for(self, bug_type: BugType) -> tuple[SnippetForm, ...]:
        seen: list[SnippetForm] = []
        for snippet in self.snippets:
            if snippet.bug_type is bug_type and snippet.form not in seen:
                seen.append(snippet.form)
        return tuple(seen)

    def transforms_for(self, bug_type: BugType) -> tuple[TransformPattern, ...]:
        return tuple(t for t in self.transforms if t.bug_type is bug_type)

    def weakenings_for(self, bug_type: BugType) -> tuple[WeakeningRule, ...]:
        return tuple(w for w in self.weakenings if w.bug_type is bug_type)


def instantiate(snippet: BugSnippet, counter: int) -> str:
    """Render the template with ``counter`` substituted for every marker."""
    return snippet.template.replace("{N}", str(counter))


def lead_identifier(snippet: BugSnippet, counter: int) -> str | None:
    """First marked identifier with the counter applied, if any."""
    match = _MARKED_NAME.search(snippet.template)
    if match is None:
        return None
    return f"{match.group(1)}{counter}"


def load_pool(text: str) -> BugPool:
    """Parse and verify a pool document, raising PoolError on the first bad entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise PoolError("<document>", f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise PoolError("<document>", "top level must be an object")

    snippets = []
    seen_ids: set[str] = set()
    for raw in doc.get("snippets", []):
        snippet = _snippet_from_json(raw)
        if snippet.id in seen_ids:
            raise PoolError(snippet.id, "duplicate snippet id")
        seen_ids.add(snippet.id)
        _check_snippet(snippet)
        snippets.append(snippet)

    transforms = []
    for idx, raw in enumerate(doc.get("transforms", [])):
        transform = _transform_from_json(raw, idx)
        _check_transform(transform, idx)
        transforms.append(transform)

    weakenings = []
    for idx, raw in enumerate(doc.get("weakenings", [])):
        weakenings.append(_weakening_from_json(raw, idx))

    return BugPool(tuple(snippets), tuple(transforms), tuple(weakenings))


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
    try:
        bug_type = BugType(raw["bugType"])
        form = SnippetForm(raw["form"])
    except (KeyError, ValueError, TypeError) as err:
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
    if stmt.opaque:
        return True
    return any(_has_opaque(child) for child in stmt.children)


def _transform_from_json(raw: object, idx: int) -> TransformPattern:
    label = f"<transform #{idx}>"
    if not isinstance(raw, dict):
        raise PoolError(label, "transform entry must be an object")
    try:
        bug_type = BugType(raw["bugType"])
    except (KeyError, ValueError, TypeError) as err:
        raise PoolError(label, str(err)) from None
    match = raw.get("match")
    replace = raw.get("replace")
    if not isinstance(match, str) or not match.strip():
        raise PoolError(label, "missing or empty match pattern")
    if not isinstance(replace, str) or not replace.strip():
        raise PoolError(label, "missing or empty replacement")
    return TransformPattern(bug_type, match, replace)


def _check_transform(transform: TransformPattern, idx: int) -> None:
    label = f"<transform #{idx}>"
    # tokenize encodes its input as UTF-8, which fails on a lone surrogate
    try:
        toks = [t for t in tokenize(transform.match)
                if t.kind is not TokenKind.COMMENT]
    except (LexError, UnicodeEncodeError) as err:
        raise PoolError(label, f"match pattern does not lex: {err}") from None
    if not toks:
        raise PoolError(label, "match pattern has no tokens")
    try:
        tokenize(" ".join(transform.replace.split()))
    except (LexError, UnicodeEncodeError) as err:
        raise PoolError(label, f"replacement does not lex: {err}") from None


def _weakening_from_json(raw: object, idx: int) -> WeakeningRule:
    label = f"<weakening #{idx}>"
    if not isinstance(raw, dict):
        raise PoolError(label, "weakening entry must be an object")
    try:
        bug_type = BugType(raw["bugType"])
    except (KeyError, ValueError, TypeError) as err:
        raise PoolError(label, str(err)) from None
    shape = raw.get("guardShape")
    if shape not in GUARD_SHAPES:
        raise PoolError(label, f"unknown guard shape: {shape!r}")
    action = raw.get("action", "commentOutStatement")
    if action != "commentOutStatement":
        raise PoolError(label, f"unknown action: {action!r}")
    return WeakeningRule(bug_type, shape)
