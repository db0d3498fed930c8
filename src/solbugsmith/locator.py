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
from collections.abc import Iterator
from dataclasses import dataclass

from .front import FunctionDef, SourceUnit, Span, Stmt
from .front.lexer import TokenKind, tokenize
# unused here, but perfbench/tracing.py rebinds these names in this module
from .front import parse  # noqa: F401
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


def source_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def find_all_potential_locations(unit: SourceUnit, bug_type: BugType,
                                 pool: BugPool,
                                 source_id: str = "<memory>") -> InjectionProfile:
    """Union of snippet, transform, and weaken sites for one bug type in
    the parsed source ``unit``; parse once and locate every bug type in the
    same unit."""
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
                            source_digest(unit.data))


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
    """The opening of every function body and block, and the end of every
    statement in a braced list."""
    sites: list[SnippetSite] = []
    for member, path in _functions(unit):
        sites.append(SnippetSite(form, member.body_span.start,
                                 member.body_span.start_line, path))
        for stmt, inner, in_list in _walk(member.statements, path):
            if in_list:
                sites.append(SnippetSite(form, stmt.span.end,
                                         stmt.span.end_line, inner))
            if stmt.kind == "block":
                sites.append(SnippetSite(form, stmt.span.start + 1,
                                         stmt.span.start_line,
                                         _block_path(inner, stmt)))
    return sites


def _functions(unit: SourceUnit) -> Iterator[tuple[FunctionDef, tuple[str, ...]]]:
    """Each function, constructor and modifier with its (contract, label) path."""
    for contract in unit.contracts:
        for member in contract.members:
            if isinstance(member, FunctionDef):
                yield member, (contract.name, _member_label(member))


def _member_label(member: FunctionDef) -> str:
    return f"{member.kind} {member.name}" if member.name else member.kind


def _walk(stmts: list[Stmt], path: tuple[str, ...], in_list: bool = True
          ) -> Iterator[tuple[Stmt, tuple[str, ...], bool]]:
    """Every statement under ``stmts``, depth first, with its block path and
    whether it sits directly in a braced list (an arm of ``if``, ``for`` or
    ``while`` does not)."""
    for stmt in stmts:
        yield stmt, path, in_list
        if stmt.kind == "block":
            yield from _walk(stmt.children, _block_path(path, stmt))
        else:
            yield from _walk(stmt.children, path, False)


def _block_path(path: tuple[str, ...], block: Stmt) -> tuple[str, ...]:
    return path + (f"block@{block.span.start_line}",)


# -- weaken sites -----------------------------------------------------------


def find_security_mechanisms(unit: SourceUnit,
                             rule: WeakeningRule) -> list[WeakenSite]:
    """Guarded-send shapes whose failure branch can be commented out.

    The statement to be commented out must sit in a braced statement list;
    removing the sole statement of a braceless arm would leave the enclosing
    construct without a body.
    """
    sites: list[WeakenSite] = []
    for member, path in _functions(unit):
        for stmt, _, in_list in _walk(member.statements, path):
            if stmt.kind == "requireStmt":
                carrier = stmt if in_list else None
            elif stmt.kind == "ifStmt":
                carrier = _failure_carrier(unit, stmt)
            else:
                continue
            if carrier is not None and _has_send_call(unit, stmt.cond_span):
                sites.append(WeakenSite(rule, stmt.span, carrier.span,
                                        stmt.span.start_line, path))
    return sites


def _failure_carrier(unit: SourceUnit, if_stmt: Stmt) -> Stmt | None:
    """The first ``revert(...)`` or bare ``throw`` directly in a braced arm."""
    for arm in if_stmt.children:
        if arm.kind != "block":
            continue
        for stmt in arm.children:
            text = unit.data[stmt.span.start:stmt.span.end]
            if stmt.kind == "revertStmt" or (
                    stmt.kind == "expressionStmt" and
                    text.rstrip(b";").strip() == b"throw"):
                return stmt
    return None


def _has_send_call(unit: SourceUnit, span: Span) -> bool:
    toks = [t for t in unit.tokens if span.start <= t.start < span.end]
    return any(dot.text == "." and name.text == "send"
               for dot, name in zip(toks, toks[1:]))


# -- transform sites ----------------------------------------------------------


def find_transformable_code(unit: SourceUnit, bug_type: BugType,
                            pool: BugPool) -> list[TransformSite]:
    """Leftmost-longest non-overlapping pattern matches outside opaque code."""
    stream = [t for t in unit.tokens if t.kind is not TokenKind.PRAGMA]
    opaque = [m.span for c in unit.contracts for m in c.members
              if m.kind == "opaqueMember"]
    opaque += [stmt.span for member, path in _functions(unit)
               for stmt, _, _ in _walk(member.statements, path) if stmt.opaque]
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
            first = stream[start]
            last = stream[start + len(needle) - 1]
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
                return (contract.name, member.name or member.kind)
        return (contract.name,)
    return ()


def dump_profile(profile: InjectionProfile) -> str:
    return json.dumps(profile.to_json(), indent=2) + "\n"
