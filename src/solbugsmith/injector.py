"""Apply an injection profile to the source it was located in and log the
ground truth.

Each site becomes one byte edit of the source, and one front-to-back pass
splices the edits in and records where each landed. Every site in the
profile produces exactly one log entry whose line range and byte span
refer to the OUTPUT file. Shared context declarations are inserted once
per contract, directly after the contract's opening brace, and are charged
to the first bug that needs them: that entry's range is the convex hull of
its snippet and its context lines.

An output is valid by construction when the source parsed and every edit
is one of these, checked per edit against the parsed unit and the pool:

* a snippet or context insertion at an offset where the unit takes a
  statement or a member (a statement or member end, or just after a body's
  ``{``), of a snippet that ``load_pool`` vetted, at a counter >= 0: the
  text is ``"\n"`` and the reindented instance, and it ends at a newline or
  at ``"\n"`` and the indent; reindenting changes only whitespace at the
  start of a line;
* a transform of a pattern that keeps token roles, over exactly a run of
  the unit's tokens with the pattern's texts, between bytes that no token
  can join (whitespace, brackets, ``;`` and ``,``);
* a weakening of a statement that sits in a braced list, with no opaque
  statement carried on past it: every line of the statement gets a ``//``
  prefix, and code after it on its line moves to a line of its own.

Every indent is taken from the spaces, tabs and carriage returns that lead
a line, which the lexer skips wherever they stand.

``inject_file`` validates, with ``front.validate``, only an output that some
edit leaves unvouched for.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from . import front, locator
from .buglog import BugLogEntry
from .errors import EditConflict, SolBugSmithError
from .front import LineIndex, SourceUnit, Span
from .front.parser import CONTINUERS
from .locator import InjectionProfile, SnippetSite, TransformSite, WeakenSite
from .model import Approach, BugType, SnippetForm
from .pool import BugPool
# unused here, but perfbench/tracing.py rebinds these names in this module;
# its targets name this module as the home of the bug-log functions
from .buglog import emit_buglog_csv, emit_buglog_json, load_buglog  # noqa: F401
from .front import parse  # noqa: F401


@dataclass(frozen=True)
class InjectionResult:
    text: str
    entries: tuple[BugLogEntry, ...]
    # whether every edit keeps the source valid (see the module docstring)
    vouched: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class _Edit:
    """Replace bytes [start, end) with ``insert``; ``logged`` holds a
    (site index, start, end) range relative to ``insert`` for each bug-log
    entry that covers part of it."""

    start: int
    end: int
    insert: bytes
    logged: list[tuple[int, int, int]]


def inject_file(unit: SourceUnit, bug_type: BugType, pool: BugPool,
                name: str, counter_start: int = 0) -> InjectionResult:
    """Inject one ``bug_type`` bug at every site of the parsed source
    ``unit``; its log entries name the file ``name``. An output that the
    edits do not vouch for is validated: SolBugSmithError naming its first
    fault if it does not validate."""
    # through the module attributes, which perfbench/tracing.py rebinds
    profile = locator.find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=name)
    result = inject_all(profile, pool, counter_start=counter_start)
    if not result.vouched:
        diagnostics = front.validate(result.text)
        if diagnostics:
            first = diagnostics[0]
            raise SolBugSmithError(f"output failed validation at line "
                                   f"{first.line}: {first.message}")
    return result


def inject_all(profile: InjectionProfile, pool: BugPool,
               counter_start: int = 0) -> InjectionResult:
    """Inject one bug per profile site into ``profile.unit``, the parsed
    source the profile was located in; returns new text plus its bug log,
    whose entries name the file ``profile.source_id``."""
    unit = profile.unit
    data = unit.data
    layout = _Layout(unit)
    vouched = counter_start >= 0

    # per form, its snippets in pool order, each with its template
    # reindented per indent
    variants = {form: [(snippet, {}) for snippet in group]
                for form, group in pool.variants(profile.bug_type).items()}
    picks: Counter = Counter()
    # per contract: its context declarations, each with the first site
    # that needs it
    context: list[list[tuple[str, int]]] = [[] for _ in unit.contracts]
    edits: list[_Edit] = []
    fields: list[tuple[str, Approach, str | None]] = []
    for idx, site in enumerate(profile.sites):
        counter = counter_start + idx
        if isinstance(site, SnippetSite):
            choices = variants[site.form]
            snippet, bodies = choices[picks[site.form] % len(choices)]
            picks[site.form] += 1
            indent = _indent_at(data, site.offset)
            template = bodies.get(indent)
            if template is None:
                # {N} never touches the whitespace that leads a line
                template = bodies[indent] = _reindent(snippet.template,
                                                      indent)
            body = template.replace("{N}", str(counter))
            edits.append(_insertion(data, site.offset, body, indent,
                                    [(idx, 0, len(body.encode("utf-8")))]))
            lead = snippet.lead_name
            fields.append((f"{lead}{counter}" if lead
                           else f"{snippet.id}-{counter}",
                           Approach.FULL_SNIPPET, snippet.id))
            vouched = vouched and snippet.vetted and \
                layout.takes(site.form, site.offset)
            if snippet.required_context:
                decls = context[_contract_at(unit, site.offset)]
                for decl in snippet.required_context:
                    if decl not in [seen for seen, _ in decls]:
                        decls.append((decl, idx))
        elif isinstance(site, TransformSite):
            insert = site.pattern.insert.encode("utf-8")
            edits.append(_Edit(site.match_span.start, site.match_span.end,
                               insert, [(idx, 0, len(insert))]))
            fields.append((f"trans_{profile.bug_type.value}{counter}",
                           Approach.CODE_TRANSFORMATION, None))
            vouched = vouched and site.pattern.keeps_roles and \
                layout.holds_run(site.match_span, site.pattern.needle)
        else:
            edits.append(_weaken_edit(data, site, idx))
            fields.append((f"weak_{profile.bug_type.value}{counter}",
                           Approach.WEAKEN_SECURITY, None))
            vouched = vouched and layout.removable(site.revert_stmt_span)

    context_edits = []
    for contract, decls in zip(unit.contracts, context):
        if not decls:
            continue
        offset = contract.body_span.start
        indent = _indent_at(data, offset)
        logged, rel = [], 0
        for decl, owner in decls:
            start = rel + len(indent.encode("utf-8"))
            rel = start + len(decl.encode("utf-8"))
            logged.append((owner, start, rel))
            rel += len(b"\n")
        body = "\n".join(indent + decl for decl, _ in decls)
        context_edits.append(_insertion(data, offset, body, indent, logged))

    # A stable sort: a context insertion, listed first, precedes the site
    # edits at its offset, and site edits at one offset keep profile order.
    hull: list[tuple[int, int] | None] = [None] * len(fields)
    out, pos = bytearray(), 0
    for edit in sorted(context_edits + edits, key=lambda e: e.start):
        if edit.start < pos:
            raise EditConflict(f"edits overlap at bytes {edit.start}..{pos}")
        out += data[pos:edit.start]
        for idx, rel_start, rel_end in edit.logged:
            start, end = len(out) + rel_start, len(out) + rel_end
            if hull[idx] is not None:
                start, end = min(start, hull[idx][0]), max(end, hull[idx][1])
            hull[idx] = (start, end)
        out += edit.insert
        pos = edit.end
    out += data[pos:]

    line_index = LineIndex(bytes(out))
    entries = tuple(
        BugLogEntry(bug_id, profile.bug_type, approach, snippet_id,
                    profile.source_id, line_index.line_of(start),
                    line_index.line_of(max(start, end - 1)), start, end)
        for (bug_id, approach, snippet_id), (start, end) in zip(fields, hull))
    return InjectionResult(out.decode("utf-8"), entries, vouched)


_token_start = attrgetter("start")

# the whitespace that the lexer skips within a line (front/lexer.py)
_SPACE = " \t\r"

# the bytes next to which no token can change where it ends
_INERT = frozenset(b" \t\r\n()[]{};,")


class _Layout:
    """Where the parsed unit takes an edit that keeps it valid: the offsets
    at which the locator puts a snippet of each form, and the spans of the
    statements that sit directly in a braced list. Each is worked out from
    the unit on first use."""

    def __init__(self, unit: SourceUnit) -> None:
        self.unit = unit
        self.data = unit.data
        self.tokens = unit.tokens
        self._offsets: dict[SnippetForm, frozenset[int]] = {}

    def takes(self, form: SnippetForm, offset: int) -> bool:
        """Whether a snippet of ``form`` can go in at ``offset``."""
        offsets = self._offsets.get(form)
        if offsets is None:
            offsets = self._offsets[form] = frozenset(
                site.offset for site in locator.snippet_sites(self.unit, form))
        return offset in offsets

    @cached_property
    def listed(self) -> frozenset[tuple[int, int]]:
        return frozenset((stmt.span.start, stmt.span.end)
                         for stmt in locator.listed_statements(self.unit))

    def holds_run(self, span: Span, needle: tuple[str, ...]) -> bool:
        """Whether ``span`` covers exactly a run of tokens with the texts
        ``needle``, between bytes that no token can join."""
        first = bisect_left(self.tokens, span.start, key=_token_start)
        run = self.tokens[first:first + len(needle)]
        return (len(run) == len(needle) and run[0].start == span.start
                and run[-1].end == span.end
                and all(tok.text == text for tok, text in zip(run, needle))
                and _inert(self.data, span.start - 1)
                and _inert(self.data, span.end))

    def removable(self, span: Span) -> bool:
        """Whether the statement at ``span`` sits in a braced list and the
        statement before it, if it ends with ``}``, cannot run on into the
        one after it."""
        if (span.start, span.end) not in self.listed:
            return False
        after = bisect_left(self.tokens, span.end, key=_token_start)
        before = bisect_left(self.tokens, span.start, key=_token_start) - 1
        return not (self.tokens[before].text == "}"
                    and after < len(self.tokens)
                    and self.tokens[after].text in CONTINUERS)


def _inert(data: bytes, offset: int) -> bool:
    return not 0 <= offset < len(data) or data[offset] in _INERT


def _insertion(data: bytes, offset: int, body: str, indent: str,
               logged: list[tuple[int, int, int]]) -> _Edit:
    """Put ``body`` on a new line at ``offset``; code that follows on the
    same line moves to its own line at ``indent``. ``logged`` ranges are
    relative to ``body``."""
    text = "\n" + body
    if offset < len(data) and data[offset:offset + 1] != b"\n":
        text += "\n" + indent
    return _Edit(offset, offset, text.encode("utf-8"),
                 [(idx, 1 + start, 1 + end) for idx, start, end in logged])


def _weaken_edit(data: bytes, site: WeakenSite, idx: int) -> _Edit:
    start, end = site.revert_stmt_span.start, site.revert_stmt_span.end
    line_start = data.rfind(b"\n", 0, start) + 1
    before = data[line_start:start]
    line_end = data.find(b"\n", end)
    if line_end < 0:
        line_end = len(data)
    after = data[end:line_end]
    indent = before.decode("utf-8")
    indent = indent[:len(indent) - len(indent.lstrip(_SPACE))]
    commented = "//" + data[start:end].decode("utf-8").replace("\n", "\n//")
    prefix = ("\n" + indent) if before.strip() else ""
    suffix = ("\n" + indent) if after.strip() else ""
    rel_start = len(prefix.encode("utf-8"))
    return _Edit(start, end, (prefix + commented + suffix).encode("utf-8"),
                 [(idx, rel_start, rel_start + len(commented.encode("utf-8")))])


def _indent_at(data: bytes, offset: int) -> str:
    line_start = data.rfind(b"\n", 0, offset) + 1
    prefix = data[line_start:offset].decode("utf-8")
    lead = prefix[:len(prefix) - len(prefix.lstrip(_SPACE))]
    if prefix.rstrip().endswith("{"):
        return lead + "    "
    return lead


def _reindent(text: str, indent: str) -> str:
    lines = text.split("\n")
    widths = [len(l) - len(l.lstrip()) for l in lines if l.strip()]
    common = min(widths, default=0)
    return "\n".join(indent + l[common:] if l.strip() else l for l in lines)


def _contract_at(unit, offset: int) -> int:
    for index, contract in enumerate(unit.contracts):
        if contract.span.start <= offset <= contract.span.end:
            return index
    raise EditConflict(f"no contract encloses byte {offset}")
