"""Locate every place a bug can be planted in a source file.

Three site families, discovered per bug type:

* snippet sites: statement boundaries inside function, constructor, and
  modifier bodies (for statement-shaped snippets) and member boundaries at
  contract-body level (for function-shaped snippets);
* transform sites: token-level matches of rewrite patterns, whitespace and
  comment insensitive, leftmost-longest and non-overlapping;
* weaken sites: security guards of the form ``if (!x.send(...)) revert()``
  (with else-clause and throw variants) or ``require(x.send(...))``.

Opaque regions never produce sites and never host matches: an edit inside
code the parser cannot model could break it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .front import FunctionDef, SourceUnit, Span, Stmt, parse
from .front.lexer import Token, TokenKind, tokenize
from .model import BugType, SnippetForm
from .pool import BugPool, TransformPattern, WeakeningRule

_FORM_RANK = {
    SnippetForm.SIMPLE_STATEMENT: 0,
    SnippetForm.NON_FUNCTION_BLOCK: 1,
    SnippetForm.FUNCTION_DEFINITION: 2,
}


@dataclass(frozen=True)
class SnippetSite:
    form: SnippetForm
    offset: int
    line: int
    path: tuple[str, ...]

    kind = "snippet"

    def to_json(self) -> dict:
        return {"kind": self.kind, "form": self.form.value,
                "offset": self.offset, "line": self.line,
                "path": list(self.path)}


@dataclass(frozen=True)
class TransformSite:
    pattern: TransformPattern
    match_span: Span
    line: int
    path: tuple[str, ...]

    kind = "transform"

    def to_json(self) -> dict:
        return {"kind": self.kind, "match": self.pattern.match,
                "replace": self.pattern.replace,
                "span": self.match_span.to_json(), "line": self.line,
                "path": list(self.path)}


@dataclass(frozen=True)
class WeakenSite:
    rule: WeakeningRule
    guard_span: Span
    revert_stmt_span: Span
    line: int
    path: tuple[str, ...]

    kind = "weaken"

    def to_json(self) -> dict:
        return {"kind": self.kind, "guardShape": self.rule.guard_shape,
                "guardSpan": self.guard_span.to_json(),
                "revertStmtSpan": self.revert_stmt_span.to_json(),
                "line": self.line, "path": list(self.path)}


Site = SnippetSite | TransformSite | WeakenSite


@dataclass(frozen=True)
class InjectionProfile:
    source_id: str
    bug_type: BugType
    sites: tuple[Site, ...]
    source_digest: str

    def to_json(self) -> dict:
        return {"sourceId": self.source_id, "bugType": self.bug_type.value,
                "sites": [s.to_json() for s in self.sites]}


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def find_all_potential_locations(source: str, bug_type: BugType,
                                 pool: BugPool,
                                 source_id: str = "<memory>") -> InjectionProfile:
    """Union of snippet, transform, and weaken sites for one bug type."""
    unit = parse(source)
    sites: list[Site] = []
    for form in pool.forms_for(bug_type):
        if form is SnippetForm.FUNCTION_DEFINITION:
            sites.extend(_member_sites(unit, form))
        else:
            sites.extend(_statement_sites(unit, form))
    if pool.transforms_for(bug_type):
        sites.extend(find_transformable_code(unit, bug_type, pool))
    for rule in pool.weakenings_for(bug_type):
        sites.extend(find_security_mechanisms(unit, rule))
    ordered = sorted(enumerate(sites), key=_order_key)
    return InjectionProfile(source_id, bug_type,
                            tuple(site for _, site in ordered),
                            source_digest(source))


def _order_key(pair: tuple[int, Site]):
    seq, site = pair
    if isinstance(site, SnippetSite):
        return (site.offset, 0, _FORM_RANK[site.form], seq)
    if isinstance(site, TransformSite):
        return (site.match_span.start, 1, 0, seq)
    return (site.guard_span.start, 2, 0, seq)


# -- snippet sites ----------------------------------------------------------


def _member_sites(unit: SourceUnit, form: SnippetForm) -> list[SnippetSite]:
    sites = []
    for contract in unit.contracts:
        path = (contract.name,)
        sites.append(SnippetSite(form, contract.body_span.start,
                                 contract.body_span.start_line, path))
        for member in contract.members:
            sites.append(SnippetSite(form, member.span.end,
                                     member.span.end_line, path))
    return sites


def _statement_sites(unit: SourceUnit, form: SnippetForm) -> list[SnippetSite]:
    sites: list[SnippetSite] = []
    for contract in unit.contracts:
        for member in contract.members:
            if not isinstance(member, FunctionDef):
                continue
            path = (contract.name, _member_label(member))
            _boundaries(form, member.body_span.start,
                        member.body_span.start_line, member.statements,
                        path, sites)
    return sites


def _member_label(member: FunctionDef) -> str:
    return f"{member.kind} {member.name}" if member.name else member.kind


def _boundaries(form: SnippetForm, open_offset: int, open_line: int,
                stmts: list[Stmt], path: tuple[str, ...],
                out: list[SnippetSite]) -> None:
    out.append(SnippetSite(form, open_offset, open_line, path))
    for stmt in stmts:
        out.append(SnippetSite(form, stmt.span.end, stmt.span.end_line, path))
    for stmt in stmts:
        _recurse_stmt(form, stmt, path, out)


def _recurse_stmt(form: SnippetForm, stmt: Stmt, path: tuple[str, ...],
                  out: list[SnippetSite]) -> None:
    if stmt.opaque:
        return
    if stmt.kind == "block":
        inner = path + (f"block@{stmt.span.start_line}",)
        _boundaries(form, stmt.span.start + 1, stmt.span.start_line,
                    stmt.children, inner, out)
    elif stmt.kind in ("ifStmt", "forStmt", "whileStmt"):
        for arm in stmt.children:
            _recurse_stmt(form, arm, path, out)


# -- weaken sites -----------------------------------------------------------


def find_security_mechanisms(unit: SourceUnit,
                             rule: WeakeningRule) -> list[WeakenSite]:
    """Guarded-send shapes whose failure branch can be commented out.

    The statement to be commented out must sit in a braced statement list;
    removing the sole statement of a braceless arm would leave the enclosing
    construct without a body.
    """
    sites: list[WeakenSite] = []
    for contract in unit.contracts:
        for member in contract.members:
            if not isinstance(member, FunctionDef):
                continue
            path = (contract.name, _member_label(member))
            _scan_list(unit, rule, member.statements, True, path, sites)
    return sites


def _scan_list(unit: SourceUnit, rule: WeakeningRule, stmts: list[Stmt],
               in_list: bool, path: tuple[str, ...],
               out: list[WeakenSite]) -> None:
    for stmt in stmts:
        _scan_stmt(unit, rule, stmt, in_list, path, out)


def _scan_stmt(unit: SourceUnit, rule: WeakeningRule, stmt: Stmt,
               in_list: bool, path: tuple[str, ...],
               out: list[WeakenSite]) -> None:
    if stmt.opaque:
        return
    if stmt.kind == "requireStmt":
        if in_list and stmt.cond_span is not None and \
                _has_send_call(unit, stmt.cond_span):
            out.append(WeakenSite(rule, stmt.span, stmt.span,
                                  stmt.span.start_line, path))
        return
    if stmt.kind == "block":
        _scan_list(unit, rule, stmt.children, True, path, out)
        return
    if stmt.kind == "ifStmt" and stmt.cond_span is not None and \
            _has_send_call(unit, stmt.cond_span):
        for arm in stmt.children:
            carrier = _failure_carrier(unit, arm)
            if carrier is not None:
                out.append(WeakenSite(rule, stmt.span, carrier.span,
                                      stmt.span.start_line, path))
                break
    if stmt.kind in ("ifStmt", "forStmt", "whileStmt"):
        for arm in stmt.children:
            _scan_stmt(unit, rule, arm, False, path, out)


def _failure_carrier(unit: SourceUnit, arm: Stmt) -> Stmt | None:
    if arm.opaque or arm.kind != "block":
        return None
    for stmt in arm.children:
        if stmt.kind == "revertStmt":
            return stmt
        text = unit.data[stmt.span.start:stmt.span.end]
        if stmt.kind == "expressionStmt" and not stmt.opaque and \
                text.rstrip(b";").strip() == b"throw":
            return stmt
    return None


def _has_send_call(unit: SourceUnit, span: Span) -> bool:
    prev: Token | None = None
    for tok in unit.tokens:
        if tok.kind is TokenKind.COMMENT:
            continue
        if tok.span.start >= span.end:
            break
        if tok.span.start >= span.start:
            if tok.kind is TokenKind.IDENTIFIER and tok.text == "send" and \
                    prev is not None and prev.text == "." and \
                    prev.span.start >= span.start:
                return True
        prev = tok
    return False


# -- transform sites ----------------------------------------------------------


def find_transformable_code(unit: SourceUnit, bug_type: BugType,
                            pool: BugPool) -> list[TransformSite]:
    """Leftmost-longest non-overlapping pattern matches outside opaque code."""
    stream = [t for t in unit.tokens if t.kind is not TokenKind.COMMENT
              and t.kind is not TokenKind.PRAGMA]
    opaque = unit.opaque_spans()
    candidates: list[tuple[Span, TransformPattern]] = []
    for pattern in pool.transforms_for(bug_type):
        needle = [t.text for t in tokenize(pattern.match)
                  if t.kind is not TokenKind.COMMENT]
        if not needle:
            continue
        for start in range(len(stream) - len(needle) + 1):
            if any(stream[start + k].text != needle[k]
                   for k in range(len(needle))):
                continue
            first = stream[start].span
            last = stream[start + len(needle) - 1].span
            span = Span(first.start, last.end, first.start_line, last.end_line)
            if any(o.overlaps(span) for o in opaque):
                continue
            candidates.append((span, pattern))
    candidates.sort(key=lambda c: (c[0].start, -(c[0].end - c[0].start)))
    sites: list[TransformSite] = []
    last_end = -1
    for span, pattern in candidates:
        if span.start < last_end:
            continue
        sites.append(TransformSite(pattern, span, span.start_line,
                                   _path_for_offset(unit, span.start)))
        last_end = span.end
    return sites


def _path_for_offset(unit: SourceUnit, offset: int) -> tuple[str, ...]:
    for contract in unit.contracts:
        if not (contract.span.start <= offset < contract.span.end):
            continue
        for member in contract.members:
            if member.span.start <= offset < member.span.end:
                if isinstance(member, FunctionDef):
                    return (contract.name, _member_label(member))
                label = member.name if getattr(member, "name", None) else member.kind
                return (contract.name, label)
        return (contract.name,)
    return ()


def dump_profile(profile: InjectionProfile) -> str:
    return json.dumps(profile.to_json(), indent=2) + "\n"
