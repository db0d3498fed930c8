"""Apply an injection profile to the source it was located in and log the
ground truth.

Each site becomes one byte edit of the source, and one front-to-back pass
splices the edits in and records where each landed. Every site in the
profile produces exactly one log entry whose line range and byte span
refer to the OUTPUT file; the pass counts the newlines of the source it
copies, and each edit brings the newline counts of its insert, so each
entry's lines come from the splice. A snippet instance's counts are worked
out once per snippet, indent and what follows, with ``{N}`` unfilled: a
counter adds no newline, however many digits it has. Shared context
declarations are inserted once per contract, directly after the contract's
opening brace, and are charged to the first bug that needs them: that
entry's range is the convex hull of its snippet and its context lines.

An output is valid by construction when the profile is ``locator.located``
(each site lies where the locator put it), the counter is >= 0, no two
edits overlap, and every edit is one of these:

* a snippet or context insertion at an offset where the unit takes a
  statement or a member (a statement or member end, or just after a body's
  ``{``), of a snippet ``pool.vouched`` for: the text is ``"\n"`` and the
  reindented instance, and it ends at a newline or at ``"\n"`` and the
  indent; reindenting changes only whitespace at the start of a line;
* a transform of a pattern ``pool.vouched`` for, over a run of the unit's
  tokens with the pattern's texts, between bytes that no token can join
  (whitespace, brackets, ``;`` and ``,``);
* a weakening of a statement that sits in a braced list: every line of the
  statement gets a ``//`` prefix, and code after it on its line moves to a
  line of its own; as a ``do`` must end with its ``while``, a statement that
  carries on an opaque one before it still ends where it ended alone.

Where each site lies is the locator's to guarantee; ``inject_all`` checks
only the rest: the pool's word for each snippet and pattern, the counter
and the two bytes around a rewrite. Every indent is taken from the spaces,
tabs and carriage returns that lead a line, which the lexer skips wherever
they stand, and read from the unit's site facts (``locator.site_facts``),
shared by every bug type.

``inject_file`` validates, with ``front.validate``, only an output that
``inject_all`` does not vouch for.
"""

from __future__ import annotations

from itertools import cycle
from operator import itemgetter
from typing import NamedTuple

from . import front, locator
from .buglog import BugLogEntry
from .errors import EditConflict, SolBugSmithError
from .front import SourceUnit
from .locator import (InjectionProfile, SnippetSite, TransformSite,
                      WeakenSite, line_lead)
from .model import Approach, BugType
from .pool import BugPool, vouched
# unused here, but perfbench/tracing.py rebinds these names in this module;
# its targets name this module as the home of the bug-log functions
from .buglog import emit_buglog_csv, emit_buglog_json, load_buglog  # noqa: F401
from .front import parse  # noqa: F401


class InjectionResult(NamedTuple):
    text: str
    entries: tuple[BugLogEntry, ...]
    # whether every edit keeps the source valid (see the module docstring)
    vouched: bool = False


# An edit replaces bytes [start, end) with ``insert``, which holds
# ``newlines`` newlines; ``logged`` holds a (site index, start, end, newlines
# before start, newlines before the last byte) range relative to ``insert``
# for each bug-log entry that covers part of it.
_Edit = tuple[int, int, bytes, int,
              tuple[tuple[int, int, int, int, int], ...]]


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
    facts = locator.site_facts(unit)
    # the locator vouches for where each site lies; a profile built by any
    # other means is validated
    sound = locator.located(profile) and counter_start >= 0

    # per form, its snippets in pool order, taken in turn, each with its bug
    # ids' prefix, the pool's word for it, and its instances per (indent,
    # what follows)
    variants = {form: cycle([(snippet, snippet.lead_name or f"{snippet.id}-",
                              vouched(snippet), {}) for snippet in group])
                for form, group in pool.variants(profile.bug_type).items()}
    # per contract: its context declarations in order, each with the first
    # site that needs it
    context: list[dict[str, int]] = [{} for _ in unit.contracts]
    edits: list[_Edit] = []
    fields: list[tuple[str, Approach, str | None]] = []
    for idx, site in enumerate(profile.sites):
        counter = counter_start + idx
        if isinstance(site, SnippetSite):
            snippet, prefix, trusted, instances = next(variants[site.form])
            indent, follows, contract = facts.insertion(site.offset)
            instance = instances.get((indent, follows))
            if instance is None:
                instance = instances[indent, follows] = \
                    _instance(snippet.template, indent, follows)
            text, tail, last_newlines, newlines = instance
            insert = text.replace(b"{N}", b"%d" % counter)
            edits.append((site.offset, site.offset, insert, newlines,
                          ((idx, 1, len(insert) - tail, 1, last_newlines),)))
            fields.append((f"{prefix}{counter}", Approach.FULL_SNIPPET,
                           snippet.id))
            sound = sound and trusted
            if snippet.required_context:
                if contract is None:
                    raise EditConflict(f"no contract encloses byte "
                                       f"{site.offset}")
                decls = context[contract]
                for decl in snippet.required_context:
                    decls.setdefault(decl, idx)
        elif isinstance(site, TransformSite):
            insert = site.pattern.insert.encode("utf-8")
            edits.append(_edit(site.match_span.start, site.match_span.end,
                               insert, [(idx, 0, len(insert))]))
            fields.append((f"trans_{profile.bug_type.value}{counter}",
                           Approach.CODE_TRANSFORMATION, None))
            sound = sound and vouched(site.pattern) and \
                _inert(data, site.match_span.start - 1) and \
                _inert(data, site.match_span.end)
        else:
            edits.append(_weaken_edit(data, site, idx))
            fields.append((f"weak_{profile.bug_type.value}{counter}",
                           Approach.WEAKEN_SECURITY, None))

    context_edits = []
    for contract, decls in zip(unit.contracts, context):
        if not decls:
            continue
        offset = contract.body_span.start
        indent, follows, _ = facts.insertion(offset)
        insert, logged = b"", []
        for decl, owner in decls.items():
            insert += ("\n" + indent).encode("utf-8")
            line = decl.encode("utf-8")
            logged.append((owner, len(insert), len(insert) + len(line)))
            insert += line
        insert += follows.encode("utf-8")
        context_edits.append(_edit(offset, offset, insert, logged))

    # A stable sort: a context insertion, listed first, precedes the site
    # edits at its offset, and site edits at one offset keep profile order.
    # Lines are counted as the source bytes are copied; each insert brings
    # its own counts. Per entry: its first and last line and its byte span;
    # an entry charged context declarations spans the hull of its ranges,
    # as lines rise with offsets.
    spans: list[tuple[int, int, int, int] | None] = [None] * len(fields)
    out, pos, line = bytearray(), 0, 1
    for start, end, insert, newlines, logged in sorted(context_edits + edits,
                                                       key=itemgetter(0)):
        if start < pos:
            raise EditConflict(f"edits overlap at bytes {start}..{pos}")
        line += data.count(b"\n", pos, start)
        out += data[pos:start]
        at = len(out)
        for idx, rel_start, rel_end, first_newlines, last_newlines in logged:
            span = (line + first_newlines, line + last_newlines,
                    at + rel_start, at + rel_end)
            held = spans[idx]
            if held is not None:
                span = (min(held[0], span[0]), max(held[1], span[1]),
                        min(held[2], span[2]), max(held[3], span[3]))
            spans[idx] = span
        line += newlines
        out += insert
        pos = end
    out += data[pos:]

    bug_type, source_id = profile.bug_type, profile.source_id
    entries = tuple(
        BugLogEntry(bug_id, bug_type, approach, snippet_id, source_id, *span)
        for (bug_id, approach, snippet_id), span in zip(fields, spans))
    return InjectionResult(out.decode("utf-8"), entries, sound)


def _instance(template: str, indent: str, follows: str
              ) -> tuple[bytes, int, int, int]:
    """A snippet's instance put on a new line with ``indent``, before
    ``follows``: its UTF-8 text with the ``{N}`` markers left in, the length
    of ``follows``, the newlines ahead of the last byte the bug log covers
    and all of its newlines. A counter adds no newline, so the counts hold
    for every counter, however many digits it has."""
    logged = "\n" + _reindent(template, indent)
    return ((logged + follows).encode("utf-8"), len(follows),
            logged.count("\n", 0, max(1, len(logged) - 1)),
            logged.count("\n") + follows.count("\n"))


def _edit(start: int, end: int, insert: bytes,
          logged: list[tuple[int, int, int]]) -> _Edit:
    """An edit of bytes [start, end) whose ``logged`` ranges of ``insert``
    get their newline counts."""
    return (start, end, insert, insert.count(b"\n"),
            tuple((idx, rel_start, rel_end,
                   insert.count(b"\n", 0, rel_start),
                   insert.count(b"\n", 0, max(rel_start, rel_end - 1)))
                  for idx, rel_start, rel_end in logged))


# the bytes next to which no token can change where it ends
_INERT = frozenset(b" \t\r\n()[]{};,")


def _inert(data: bytes, offset: int) -> bool:
    return not 0 <= offset < len(data) or data[offset] in _INERT


def _weaken_edit(data: bytes, site: WeakenSite, idx: int) -> _Edit:
    start, end = site.revert_stmt_span.start, site.revert_stmt_span.end
    before, indent = line_lead(data, start)
    line_end = data.find(b"\n", end)
    if line_end < 0:
        line_end = len(data)
    after = data[end:line_end]
    commented = "//" + data[start:end].decode("utf-8").replace("\n", "\n//")
    prefix = ("\n" + indent) if before.strip() else ""
    suffix = ("\n" + indent) if after.strip() else ""
    rel_start = len(prefix.encode("utf-8"))
    return _edit(start, end, (prefix + commented + suffix).encode("utf-8"),
                 [(idx, rel_start, rel_start + len(commented.encode("utf-8")))])


def _reindent(text: str, indent: str) -> str:
    lines = text.split("\n")
    widths = [len(l) - len(l.lstrip()) for l in lines if l.strip()]
    common = min(widths, default=0)
    return "\n".join(indent + l[common:] if l.strip() else l for l in lines)
