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
code the parser cannot model could break it. A profile keeps the parsed
unit it was located in, so ``injector.inject_all`` edits that same unit.
What does not depend on the bug type, the unit's ``SiteFacts``, is worked
out once, on first use, and kept with the unit: locating and injecting
every bug type share one walk and each insertion offset's indent, and
record the sites last found per bug type, which ``located`` reads.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterator
from operator import attrgetter
from typing import NamedTuple

from .front import FunctionDef, SourceUnit, Span, Stmt
# unused here, but perfbench/tracing.py rebinds these names in this module
from .front import parse  # noqa: F401
from .front.lexer import tokenize  # noqa: F401
from .model import BugType, SnippetForm
from .pool import BugPool, TransformPattern, WeakeningRule

_FORM_RANK = {
    SnippetForm.SIMPLE_STATEMENT: 0,
    SnippetForm.NON_FUNCTION_BLOCK: 1,
    SnippetForm.FUNCTION_DEFINITION: 2,
}


class SnippetSite(NamedTuple):
    form: SnippetForm
    offset: int
    line: int
    path: tuple[str, ...]

    kind = "snippet"

    def to_json(self) -> dict:
        return {"kind": self.kind, "form": self.form.value,
                "offset": self.offset, "line": self.line,
                "path": list(self.path)}


class TransformSite(NamedTuple):
    pattern: TransformPattern
    match_span: Span
    path: tuple[str, ...]

    kind = "transform"

    def to_json(self) -> dict:
        return {"kind": self.kind, "match": self.pattern.match,
                "replace": self.pattern.replace,
                "span": self.match_span.to_json(),
                "line": self.match_span.start_line, "path": list(self.path)}


class WeakenSite(NamedTuple):
    rule: WeakeningRule
    guard_span: Span
    revert_stmt_span: Span
    path: tuple[str, ...]

    kind = "weaken"

    def to_json(self) -> dict:
        return {"kind": self.kind, "guardShape": self.rule.guard_shape,
                "guardSpan": self.guard_span.to_json(),
                "revertStmtSpan": self.revert_stmt_span.to_json(),
                "line": self.guard_span.start_line, "path": list(self.path)}


Site = SnippetSite | TransformSite | WeakenSite


class InjectionProfile(NamedTuple):
    """The sites of one bug type in ``unit``, the parsed source they were
    located in; ``unit`` is not part of the profile's JSON."""

    source_id: str
    bug_type: BugType
    sites: tuple[Site, ...]
    unit: SourceUnit

    def to_json(self) -> dict:
        return {"sourceId": self.source_id, "bugType": self.bug_type.value,
                "sites": [s.to_json() for s in self.sites]}


def find_all_potential_locations(unit: SourceUnit, bug_type: BugType,
                                 pool: BugPool,
                                 source_id: str = "<memory>") -> InjectionProfile:
    """Union of snippet, transform, and weaken sites for one bug type in
    the parsed source ``unit``; parse once and locate every bug type in the
    same unit, which then shares its site facts."""
    sites = site_facts(unit).snippet_sites(pool.variants(bug_type))
    others: list[Site] = []
    if pool.transforms_for(bug_type):
        others.extend(find_transformable_code(unit, bug_type, pool))
    for rule in pool.weakenings_for(bug_type):
        others.extend(find_security_mechanisms(unit, rule))
    if others:
        sites = tuple(sorted(sites + tuple(others), key=_order_key))
    site_facts(unit).located[bug_type] = sites
    return InjectionProfile(source_id, bug_type, sites, unit)


def located(profile: InjectionProfile) -> bool:
    """Whether ``profile.sites`` is the tuple last found for its bug type in
    its unit, so ``injector.inject_all`` need not check where each lies."""
    facts = site_facts(profile.unit)
    return facts.located.get(profile.bug_type) is profile.sites


def _order_key(site: Site):
    """Sites by offset, then kind and form; a stable sort keeps the order
    they were found in for the rest."""
    if isinstance(site, SnippetSite):
        return (site.offset, 0, _FORM_RANK[site.form])
    if isinstance(site, TransformSite):
        return (site.match_span.start, 1, 0)
    return (site.guard_span.start, 2, 0)


# -- site facts -------------------------------------------------------------

# the whitespace that the lexer skips within a line (front/lexer.py)
_SPACE = " \t\r"


def line_lead(data: bytes, offset: int) -> tuple[str, str]:
    """The (prefix, indent) of ``offset``'s line: its text before
    ``offset``, and the spaces, tabs and carriage returns that lead it."""
    prefix = data[data.rfind(b"\n", 0, offset) + 1:offset].decode("utf-8")
    return prefix, prefix[:len(prefix) - len(prefix.lstrip(_SPACE))]


class SiteFacts:
    """The site analysis of one parsed unit that every bug type shares.
    ``functions``: each function's path and statements, depth first, with
    their block paths and whether each sits directly in a braced list;
    ``points``: per form, the (offset, line, path) places that take a
    snippet; ``opaque``: the spans of opaque members and statements;
    ``located``: per bug type, the sites its last locating returned."""

    def __init__(self, unit: SourceUnit) -> None:
        self.data = unit.data
        self.contracts = unit.contracts
        self.functions = []
        # each contract body's opening and member's end; each function
        # body's and block's opening and listed statement's end
        members, statements = [], []
        for contract in unit.contracts:
            members.append((contract.body_span.start,
                            contract.body_span.start_line, (contract.name,)))
            for member in contract.members:
                members.append((member.span.end, member.span.end_line,
                                (contract.name,)))
                if not isinstance(member, FunctionDef):
                    continue
                path = (contract.name, _member_label(member))
                walked = list(_walk(member.statements, path))
                self.functions.append((path, walked))
                statements.append((member.body_span.start,
                                   member.body_span.start_line, path))
                for stmt, inner, in_list in walked:
                    if in_list:
                        statements.append((stmt.span.end, stmt.span.end_line,
                                           inner))
                    if stmt.kind == "block":
                        statements.append((stmt.span.start + 1,
                                           stmt.span.start_line,
                                           _block_path(inner, stmt)))
        self.points = {form: members if form is SnippetForm.FUNCTION_DEFINITION
                       else statements for form in SnippetForm}
        self.opaque = [m.span for c in unit.contracts for m in c.members
                       if m.kind == "opaqueMember"]
        self.opaque += [stmt.span for _, walked in self.functions
                        for stmt, _, _ in walked if stmt.opaque]
        self.located: dict[BugType, tuple[Site, ...]] = {}
        self._sites: dict[frozenset, tuple[SnippetSite, ...]] = {}
        self._insertions: dict[int, tuple[str, str, int | None]] = {}

    def snippet_sites(self, forms) -> tuple[SnippetSite, ...]:
        """The sites of every form in ``forms``, in profile order."""
        key = frozenset(forms)
        sites = self._sites.get(key)
        if sites is None:
            sites = self._sites[key] = tuple(sorted(
                (SnippetSite(form, *point)
                 for form in forms for point in self.points[form]),
                key=_order_key))
        return sites

    def insertion(self, offset: int) -> tuple[str, str, int | None]:
        """The (indent, follows, contract) of code put on a new line at
        ``offset``: the line's lead, four spaces more after a ``{``; ``"\\n"``
        and the indent unless a newline is next, both ASCII; the index of the
        first contract that encloses ``offset``, or None."""
        facts = self._insertions.get(offset)
        if facts is None:
            data = self.data
            prefix, indent = line_lead(data, offset)
            if prefix.rstrip().endswith("{"):
                indent += "    "
            follows = "\n" + indent if offset < len(data) and \
                data[offset:offset + 1] != b"\n" else ""
            contract = next((index for index, c in enumerate(self.contracts)
                             if c.span.start <= offset <= c.span.end), None)
            facts = self._insertions[offset] = (indent, follows, contract)
        return facts


def site_facts(unit: SourceUnit) -> SiteFacts:
    """The site facts of ``unit``, worked out on first use and kept with it."""
    if unit.site_facts is None:
        unit.site_facts = SiteFacts(unit)
    return unit.site_facts


# -- snippet sites ----------------------------------------------------------


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
    for path, walked in site_facts(unit).functions:
        for stmt, _, in_list in walked:
            if stmt.kind == "requireStmt":
                carrier = stmt if in_list else None
            elif stmt.kind == "ifStmt":
                carrier = _failure_carrier(unit, stmt)
            else:
                continue
            if carrier is not None and _has_send_call(unit, stmt.cond_span):
                sites.append(WeakenSite(rule, stmt.span, carrier.span, path))
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
    """Whether ``span`` holds ``.send``; its tokens are bisected out of
    ``unit.tokens``, which are in source order."""
    start = attrgetter("start")
    first = bisect_left(unit.tokens, span.start, key=start)
    toks = unit.tokens[first:bisect_left(unit.tokens, span.end, first,
                                         key=start)]
    return any(dot.text == "." and name.text == "send"
               for dot, name in zip(toks, toks[1:]))


# -- transform sites ----------------------------------------------------------


def find_transformable_code(unit: SourceUnit, bug_type: BugType,
                            pool: BugPool) -> list[TransformSite]:
    """Leftmost-longest non-overlapping pattern matches outside opaque code,
    each over a run of the unit's tokens."""
    stream = unit.tokens
    texts = [t.text for t in stream]
    opaque = site_facts(unit).opaque
    candidates: list[tuple[Span, TransformPattern]] = []
    for pattern in pool.transforms_for(bug_type):
        needle = list(pattern.needle)  # never empty (load_pool)
        for start in range(len(stream) - len(needle) + 1):
            if texts[start] != needle[0] or \
                    texts[start:start + len(needle)] != needle:
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
        sites.append(TransformSite(pattern, span,
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
