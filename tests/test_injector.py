"""Edit application: snippet splicing, token rewrites, guard weakening,
bug-log accuracy, and byte-for-byte determinism."""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solbugsmith import locator
from solbugsmith.buglog import (CSV_COLUMNS, BugLogEntry, emit_buglog_csv,
                                emit_buglog_json, held, load_buglog)
from solbugsmith.cli import main
from solbugsmith.errors import MalformedDocument, SolBugSmithError
from solbugsmith.front import TokenKind, parse, tokenize, validate
from solbugsmith.injector import inject_all, inject_file
from solbugsmith.locator import (InjectionProfile, SnippetSite, TransformSite,
                                 WeakenSite, dump_profile,
                                 find_all_potential_locations)
from solbugsmith.model import Approach, BugType
from solbugsmith.pool import load_pool

ALL_TYPES = list(BugType)

GUARDED = """contract Guarded {
    address owner;
    uint stored;

    function set(uint v) public {
        require(msg.sender == owner);
        stored = v;
    }

    function drain(address payable dest, uint amount) public {
        if (dest.send(amount)) {
            stored = 0;
        } else {
            revert();
        }
    }
}
"""


def _only(src, bug_type, pool, keep):
    """Profile restricted to one site kind, for isolating an approach."""
    full = find_all_potential_locations(parse(src), bug_type, pool)
    sites = tuple(s for s in full.sites if isinstance(s, keep))
    assert sites, "fixture source must expose at least one such site"
    return InjectionProfile(full.source_id, bug_type, sites, full.unit)


def _identifiers(src):
    return {t.text for t in tokenize(src) if t.kind is TokenKind.IDENTIFIER}


class TestSnippetInjection:
    def test_every_site_receives_one_bug(self, corpus_sources, pool):
        src = corpus_sources["PiggyBank.sol"]
        unit = parse(src)
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(unit, bug_type, pool)
            result = inject_all(profile, pool)
            assert len(result.entries) == len(profile.sites)

    def test_output_parses_and_validates(self, corpus_sources, pool):
        for name in ("PiggyBank.sol", "Counter.sol", "SimpleWallet.sol"):
            src = corpus_sources[name]
            unit = parse(src)
            for bug_type in ALL_TYPES:
                profile = find_all_potential_locations(unit, bug_type, pool)
                result = inject_all(profile, pool)
                assert validate(result.text) == [], (name, bug_type)

    def test_logged_lines_match_byte_spans(self, corpus_sources, pool):
        """Over every bundled contract and fixture, each as it is, with
        CRLF line ends, with no trailing newline, and with multi-byte UTF-8
        comments ahead of the sites and after the code of every line; at
        counter starts 0, 95 and 995, so that bug ids gain a digit inside
        one file: a snippet instance's newline counts, worked out once, do
        not hang on the length of its id."""
        fixtures = Path(__file__).parent / "fixtures"
        sources = list(corpus_sources.values()) + [
            path.read_text(encoding="utf-8")
            for path in sorted(fixtures.glob("*.sol"))]
        variants = [variant for src in sources for variant in (
            src, src.replace("\n", "\r\n"), src.rstrip("\n"),
            "// ¿Qué? → ✓ 𝄞\n" + "\n".join(
                line + " // ü→✓" if line.strip() else line
                for line in src.split("\n")))]
        widened = set()  # the counter starts whose ids gained a digit
        for src in variants:
            unit = parse(src)
            for bug_type in ALL_TYPES:
                profile = find_all_potential_locations(unit, bug_type, pool)
                for counter_start in (0, 95, 995):
                    result = inject_all(profile, pool, counter_start)
                    digits = {len(str(counter_start + idx))
                              for idx, site in enumerate(profile.sites)
                              if isinstance(site, SnippetSite)}
                    if len(digits) > 1:
                        widened.add(counter_start)
                    data = result.text.encode()
                    for e in result.entries:
                        assert e.byte_start < e.byte_end <= len(data)
                        assert e.start_line == \
                            data[:e.byte_start].count(b"\n") + 1
                        last = max(e.byte_start, e.byte_end - 1)
                        assert e.end_line == data[:last].count(b"\n") + 1
        assert {95, 995} <= widened

    def test_introduced_identifiers_are_fresh(self, corpus_sources, pool):
        src = corpus_sources["Counter.sol"]
        before = _identifiers(src)
        unit = parse(src)
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(unit, bug_type, pool)
            result = inject_all(profile, pool)
            ids = [e.bug_id for e in result.entries]
            assert len(set(ids)) == len(ids)
            for e in result.entries:
                assert e.bug_id not in before
                if e.approach is Approach.FULL_SNIPPET \
                        and "-" not in e.bug_id:
                    sliced = result.text.encode()[e.byte_start:e.byte_end]
                    assert e.bug_id.encode() in sliced

    def test_shared_context_declared_once_per_contract(self, pool):
        unit = parse(GUARDED)
        profile = find_all_potential_locations(
            unit, BugType.TX_ORIGIN, pool)
        assert len(profile.sites) > 2
        result = inject_all(profile, pool)
        assert result.text.count("address owner_txorigin = msg.sender;") == 1
        assert validate(result.text) == []

    def test_contracts_of_one_name_each_declare_their_context(self, pool):
        src = GUARDED + GUARDED
        unit = parse(src)
        profile = find_all_potential_locations(unit, BugType.TX_ORIGIN, pool)
        result = inject_all(profile, pool)
        first, second = result.text.split("contract Guarded")[1:]
        for body in (first, second):
            assert body.count("address owner_txorigin = msg.sender;") == 1

    def test_counter_start_numbers_the_first_bug(self, pool):
        unit = parse(GUARDED)
        profile = find_all_potential_locations(
            unit, BugType.REENTRANCY, pool)
        result = inject_all(profile, pool, counter_start=41)
        assert result.entries[0].bug_id.endswith("41")
        suffixes = [e.bug_id for e in result.entries]
        for i, bug_id in enumerate(suffixes):
            assert bug_id.rstrip("0123456789") + str(41 + i) == bug_id

    def test_file_label_defaults_to_source_id(self, pool):
        unit = parse(GUARDED)
        profile = find_all_potential_locations(
            unit, BugType.TIMESTAMP_DEPENDENCY, pool, source_id="g.sol")
        result = inject_all(profile, pool)
        assert {e.file for e in result.entries} == {"g.sol"}


class TestTokenRewrites:
    def test_sender_guard_becomes_tx_origin(self, pool):
        profile = _only(GUARDED, BugType.TX_ORIGIN, pool, TransformSite)
        result = inject_all(profile, pool)
        assert "require(tx.origin == owner);" in result.text
        assert "msg.sender == owner" not in result.text
        entry = result.entries[0]
        assert entry.approach is Approach.CODE_TRANSFORMATION
        assert entry.snippet_id is None
        sliced = result.text.encode()[entry.byte_start:entry.byte_end]
        assert sliced == b"tx.origin == owner"
        assert validate(result.text) == []

    def test_integer_width_shrinks_in_place(self, pool):
        src = ("contract Ledger {\n"
               "    uint256 total;\n"
               "    function add(uint256 v) public { total = total + v; }\n"
               "}\n")
        profile = _only(src, BugType.INTEGER_OVERFLOW_UNDERFLOW, pool,
                        TransformSite)
        result = inject_all(profile, pool)
        assert "uint256" not in result.text
        assert result.text.count("uint8") == 2
        assert validate(result.text) == []

    def test_rewrite_preserves_surrounding_bytes(self, pool):
        profile = _only(GUARDED, BugType.TX_ORIGIN, pool, TransformSite)
        result = inject_all(profile, pool)
        entry = result.entries[0]
        out = result.text.encode()
        src = GUARDED.encode()
        match_start = profile.sites[0].match_span.start
        match_end = profile.sites[0].match_span.end
        assert out[:entry.byte_start] == src[:match_start]
        assert out[entry.byte_end:] == src[match_end:]


class TestGuardWeakening:
    def test_revert_arm_commented_on_its_own_line(self, pool):
        profile = _only(GUARDED, BugType.UNHANDLED_EXCEPTION, pool,
                        WeakenSite)
        result = inject_all(profile, pool)
        lines = [l.strip() for l in result.text.splitlines()]
        assert "//revert();" in lines
        entry = result.entries[0]
        assert entry.approach is Approach.WEAKEN_SECURITY
        sliced = result.text.encode()[entry.byte_start:entry.byte_end]
        assert sliced == b"//revert();"
        assert validate(result.text) == []

    def test_require_send_guard_commented_whole(self, pool):
        src = ("contract Payer {\n"
               "    function pay(address payable dest, uint v) public {\n"
               "        require(dest.send(v));\n"
               "    }\n"
               "}\n")
        profile = _only(src, BugType.UNHANDLED_EXCEPTION, pool, WeakenSite)
        result = inject_all(profile, pool)
        assert "//require(dest.send(v));" in result.text
        assert validate(result.text) == []

    def test_disabled_guard_no_longer_reverts_parse(self, pool):
        # The commented statement must not leave a dangling else behind.
        profile = _only(GUARDED, BugType.UNHANDLED_EXCEPTION, pool,
                        WeakenSite)
        result = inject_all(profile, pool)
        assert "revert();" in result.text  # still present, but commented
        assert validate(result.text) == []


# ids and file names with non-ASCII, control and lone surrogate characters
_LOG_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) \
    | st.sampled_from(["", "é.sol", "a\x00\n\t\"\\b", "\u2028", "\ud800"])
_LOG_INT = st.integers(min_value=0, max_value=2**40)
# those, and the characters that a CSV field is quoted for; csv.writer
# quotes a field holding a bare \r from Python 3.13 on only, so the drawn
# fields compared with it hold none
_CSV_TEXT = (_LOG_TEXT | st.sampled_from([",", '"', "a\nb", ""])).filter(
    lambda text: "\r" not in text)


class TestBugLogSerialization:
    @pytest.fixture()
    def entries(self, pool):
        unit = parse(GUARDED)
        profile = find_all_potential_locations(
            unit, BugType.UNCHECKED_SEND, pool)
        return inject_all(profile, pool).entries

    def test_json_round_trip(self, entries):
        assert load_buglog(emit_buglog_json(entries),
                           entries[0].file) == list(entries)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(
        BugLogEntry, bug_id=_LOG_TEXT, bug_type=st.sampled_from(BugType),
        approach=st.sampled_from(Approach),
        snippet_id=st.none() | _LOG_TEXT, file=_LOG_TEXT,
        start_line=_LOG_INT, end_line=_LOG_INT, byte_start=_LOG_INT,
        byte_end=_LOG_INT), max_size=4))
    @example([])
    def test_json_writer_writes_what_json_dumps_does(self, logged):
        assert emit_buglog_json(logged) == \
            json.dumps([e.to_json() for e in logged], indent=2) + "\n"

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.builds(
        BugLogEntry, bug_id=_CSV_TEXT, bug_type=st.sampled_from(BugType),
        approach=st.sampled_from(Approach),
        snippet_id=st.none() | _CSV_TEXT, file=_CSV_TEXT,
        start_line=_LOG_INT, end_line=_LOG_INT, byte_start=_LOG_INT,
        byte_end=_LOG_INT), max_size=4))
    @example([])
    def test_csv_writer_writes_what_csv_writer_does(self, logged):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([e.bug_id, e.bug_type.value, e.approach.value,
                          e.snippet_id or "", e.file, e.start_line,
                          e.end_line, e.byte_start, e.byte_end]
                         for e in logged)
        assert emit_buglog_csv(logged) == buf.getvalue()

    def test_csv_writer_quotes_a_carriage_return(self):
        """RFC 4180's rule, and csv.writer's from Python 3.13 on; the
        writer is the package's own, so every Python writes these bytes."""
        logged = [BugLogEntry("a\rb", BugType.TOD, Approach.FULL_SNIPPET,
                              "\r", "c\r\n.sol", 1, 2, 3, 4),
                  BugLogEntry('d"\r', BugType.TOD, Approach.FULL_SNIPPET,
                              None, "e.sol", 5, 6, 7, 8)]
        assert emit_buglog_csv(logged).split("\n", 1)[1] == \
            '"a\rb",TOD,FullSnippet,"\r","c\r\n.sol",1,2,3,4\n' \
            '"d""\r",TOD,FullSnippet,,e.sol,5,6,7,8\n'

    def test_csv_header_and_row_count(self, entries):
        rows = emit_buglog_csv(entries).strip().split("\n")
        assert rows[0].split(",") == list(CSV_COLUMNS)
        assert len(rows) == len(entries) + 1

    def test_json_fields_are_primitive(self, entries):
        doc = entries[0].to_json()
        assert doc["bugType"] == "UncheckedSend"
        assert doc["approach"] == "FullSnippet"
        assert doc["byteSpan"] == {"start": entries[0].byte_start,
                                   "end": entries[0].byte_end}

    @pytest.mark.parametrize("lines, span", [
        pytest.param((9, 3), (10, 20), id="reversed-lines"),
        pytest.param((0, 3), (10, 20), id="line-zero"),
        pytest.param((3, 9), (20, 10), id="reversed-bytes"),
        pytest.param((3, 9), (-1, 10), id="negative-byte"),
    ])
    def test_reversed_or_non_positive_range_is_malformed(
            self, entries, lines, span):
        doc = [entries[0].to_json()]
        doc[0]["startLine"], doc[0]["endLine"] = lines
        doc[0]["byteSpan"] = dict(zip(("start", "end"), span))
        with pytest.raises(MalformedDocument, match="reversed or non-positive"):
            load_buglog(json.dumps(doc), entries[0].file)

    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda doc: {}, "expected a JSON array of entries",
                     id="not-an-array"),
        pytest.param(lambda doc: [3], "each entry must be a JSON object",
                     id="entry-not-an-object"),
        pytest.param(lambda doc: [{**doc[0], "startLine": "3"}],
                     "lines and byte offsets must be integers: ('3', ",
                     id="line-not-an-integer"),
        pytest.param(lambda doc: [{**doc[0], "bugId": 7}],
                     "bugId and file must be strings", id="id-not-a-string"),
        pytest.param(lambda doc: [{**doc[0], "snippetId": [1, 2]}],
                     "snippetId must be a string or null",
                     id="snippet-id-a-list"),
        pytest.param(lambda doc: [{**doc[0], "snippetId": 3}],
                     "snippetId must be a string or null",
                     id="snippet-id-a-number"),
        pytest.param(lambda doc: [{**doc[0], "byteSpan": [10, 20]}],
                     "byteSpan must be an object with start and end",
                     id="byte-span-a-list"),
        pytest.param(lambda doc: [{**doc[0], "byteSpan": None}],
                     "byteSpan must be an object with start and end",
                     id="byte-span-null"),
        pytest.param(lambda doc: [{k: v for k, v in doc[0].items()
                                   if k != "bugType"}],
                     "entry without 'bugType'", id="no-bug-type"),
        pytest.param(lambda doc: [{**doc[0], "bugType": "Gremlins"}],
                     "'Gremlins' is not a valid BugType",
                     id="unknown-bug-type"),
        pytest.param(lambda doc: [{**doc[0], "bugType": ["TOD"]}],
                     "['TOD'] is not a valid BugType",
                     id="bug-type-a-list"),
        pytest.param(lambda doc: [{**doc[0], "approach": "Manual"}],
                     "'Manual' is not a valid Approach",
                     id="unknown-approach"),
        pytest.param(lambda doc: [doc[0], {**doc[0], "bugId": "b2",
                                           "file": "Other.sol"}],
                     "entry 'b2' names 'Other.sol', not ",
                     id="entry-naming-another-file"),
    ])
    def test_wrong_shape_is_malformed(self, entries, change, message):
        doc = change([entries[0].to_json()])
        with pytest.raises(MalformedDocument) as err:
            load_buglog(json.dumps(doc), entries[0].file)
        assert str(err.value).startswith(f"malformed bug log: {message}")

    def test_a_loaded_log_holds_each_file_and_snippet_id_once(self):
        """Every entry holds the file name string it was loaded under."""
        doc = [{"bugId": f"b{i}", "bugType": "TOD",
                "approach": "FullSnippet", "snippetId": snippet_id,
                "file": "a.sol", "startLine": 1, "endLine": 1,
                "byteSpan": {"start": 0, "end": 1}}
               for i, snippet_id in enumerate(["s1", "s2", None] * 3)]
        file = "a.sol"
        loaded = load_buglog(json.dumps(doc), file)
        assert [e.snippet_id for e in loaded] == \
            [raw["snippetId"] for raw in doc]
        assert all(e.file is file for e in loaded)
        assert len({id(e.snippet_id) for e in loaded}) == 3  # None once

    @settings(max_examples=80, deadline=None)
    @given(_LOG_TEXT, st.lists(st.builds(
        lambda first, lines, start, length, **fields: BugLogEntry(
            file="", start_line=first, end_line=first + lines,
            byte_start=start, byte_end=start + length, **fields),
        bug_id=_LOG_TEXT, bug_type=st.sampled_from(BugType),
        approach=st.sampled_from(Approach),
        snippet_id=st.none() | _LOG_TEXT,
        first=st.integers(min_value=1, max_value=2**40), lines=_LOG_INT,
        start=_LOG_INT, length=_LOG_INT), max_size=4))
    @example("", [])
    def test_a_written_log_loads_back(self, file, logged):
        logged = [e._replace(file=file) for e in logged]
        assert load_buglog(emit_buglog_json(logged), file) == logged


# a line or range end: small, so that ranges nest, repeat and touch, or
# anywhere up to 10**12
_END = st.integers(1, 40) | st.integers(1, 10**12)


class TestHeld:
    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.tuples(_END, _END), max_size=8),
           lines=st.sets(_END, max_size=20),
           span=st.tuples(_END, st.integers(0, 50)))
    @example(ends=[], lines=set(), span=(1, 0))
    @example(ends=[(1, 10), (3, 4), (3, 4), (11, 12), (12, 20), (30, 10**12)],
             lines={2, 4, 5, 10, 11, 12, 21, 29, 30, 10**12, 10**12 + 1},
             span=(10**12 - 2, 5))
    def test_held_is_every_line_some_range_holds(self, ends, lines, span):
        """``ranges`` as a campaign passes them, ``(first, last, index)``
        sorted; ``lines`` both as a sorted list and as a range. Each line
        is tested against every range."""
        ranges = sorted((min(a, b), max(a, b), i)
                        for i, (a, b) in enumerate(ends))
        start, count = span
        for given_lines in (sorted(lines), range(start, start + count)):
            want = {line for line in given_lines
                    if any(first <= line <= last for first, last, _ in ranges)}
            assert held(ranges, given_lines) == want


class TestInjectFile:
    def test_is_locate_then_inject_all(self, corpus_sources, pool):
        src = corpus_sources["Counter.sol"]
        unit = parse(src)
        profile = find_all_potential_locations(
            unit, BugType.TOD, pool, source_id="Counter.TOD.sol")
        assert inject_file(unit, BugType.TOD, pool, "Counter.TOD.sol",
                           counter_start=3) \
            == inject_all(profile, pool, counter_start=3)

    def test_no_snippet_lands_inside_a_call_with_options(self, pool):
        call = 'msg.sender.call{value: 1}("");'
        unit = parse("contract A {\n  function f() public {\n"
                     f"    (bool ok, ) = {call}\n  }}\n}}\n")
        result = inject_file(unit, BugType.TX_ORIGIN, pool, "A.TxOrigin.sol")
        assert result.entries
        assert call in result.text

    def test_output_failing_validation_is_an_error(
            self, corpus_sources, unbalancing_pool_text):
        pool = load_pool(unbalancing_pool_text)
        with pytest.raises(SolBugSmithError) as err:
            inject_file(parse(corpus_sources["Counter.sol"]),
                        BugType.INTEGER_OVERFLOW_UNDERFLOW, pool, "C.sol")
        assert str(err.value) == (
            "output failed validation at line 11: expected ')', found '('")

    def test_every_bug_type_of_a_unit_shares_one_walk(
            self, corpus_dir, corpus_sources, pool, monkeypatch, tmp_path):
        """A parsed unit's statements are walked once for all seven bug
        types, whether each is injected by its own call or by the CLI."""
        walks = []
        real = locator._walk

        def counted(stmts, *rest):
            walks.append(stmts)
            yield from real(stmts, *rest)

        monkeypatch.setattr(locator, "_walk", counted)
        once = {}
        for name, src in corpus_sources.items():
            locator.site_facts(parse(src))
            once[name] = len(walks)
            walks.clear()
        assert all(once.values())

        unit = parse(corpus_sources["VaultToken.sol"])
        for bug_type in ALL_TYPES:
            inject_file(unit, bug_type, pool, f"VaultToken.{bug_type}.sol")
        assert len(walks) == once["VaultToken.sol"]

        walks.clear()
        assert main(["inject", "--corpus", str(corpus_dir),
                     "--out", str(tmp_path)]) == 0
        assert len(walks) == sum(once.values())

    def test_a_unit_shared_by_every_bug_type_injects_as_a_fresh_parse(
            self, corpus_sources, pool):
        fixtures = Path(__file__).parent / "fixtures"
        sources = dict(corpus_sources, **{
            path.name: path.read_text(encoding="utf-8")
            for path in sorted(fixtures.glob("*.sol"))})
        for name, src in sources.items():
            shared = parse(src)
            for bug_type in reversed(ALL_TYPES):
                got = inject_file(shared, bug_type, pool, name)
                fresh = inject_file(parse(src), bug_type, pool, name)
                assert (got.text, got.entries, got.vouched) == \
                    (fresh.text, fresh.entries, fresh.vouched), (name, bug_type)


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, corpus_sources, pool):
        src = corpus_sources["TimeLock.sol"]
        unit = parse(src)
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(unit, bug_type, pool)
            first = inject_all(profile, pool, counter_start=7)
            second = inject_all(profile, pool, counter_start=7)
            assert first.text == second.text
            assert first.entries == second.entries

    @settings(max_examples=25, deadline=None)
    @given(start=st.integers(min_value=0, max_value=10_000))
    def test_any_counter_start_keeps_ids_unique(self, pool, start):
        unit = parse(GUARDED)
        profile = find_all_potential_locations(
            unit, BugType.REENTRANCY, pool)
        result = inject_all(profile, pool, counter_start=start)
        ids = [e.bug_id for e in result.entries]
        assert len(set(ids)) == len(ids)
        assert validate(result.text) == []


# Recorded from the bundled corpus and pool; a change to any of them, or to
# what the locator and injector make of them, must update these on purpose.
BUNDLED_DIGESTS = {
    "Auction.sol": "ed018a17f9a71d052558146d677b26c89be387c4bb232e504bc5ac6ad0498d8e",
    "Counter.sol": "68c92fdede051697d707f4fd448690ea82671aa189ffd1c25098fa91113bc3c8",
    "Crowdfund.sol": "c7524214bb419fcaa26319484d802b601deee86e265b94888fd132746291259e",
    "Escrow.sol": "27a299d415288650db0af347965fc110b2b41742cc0af82cb274e637d9f79531",
    "Lottery.sol": "d4bbd2b76f4b553191273c2bc16b4ede39ef8b53bf4e2daf9eddfcff299e4bf4",
    "NameRegistry.sol": "3c347b94026207894f8c5d7850a7c92c352d6024778fe84e8b554cccc0da9174",
    "PiggyBank.sol": "961f68961566816aa17bad6b644806563f1c1c989f42cf3a8ae4848a95135f4a",
    "SimpleWallet.sol": "6c2a6465117b72bbde22ce125cfff7578211580edb6d1cde2d3974966dd3641a",
    "Splitter.sol": "27715264858b40ac141da71eb7912602e3b5ea2b5dde098e19dc37edea4059b5",
    "TimeLock.sol": "183e7c3bca20b6d38a805481b6987b453211cd216b7e9957636e8757d78217aa",
    "TokenLedger.sol": "1fabb0a6ef554501e3b838d73c6f32753d2ede1cc8985cfe4e5910d55d6bb15f",
    "VaultToken.sol": "2602bd9ed6d2fc1aad6e7a9c66522e29572e3fbba63f0fc7b761a366e977a569",
}


def test_bundled_outputs_match_recorded_digests(corpus_sources, pool):
    """Per contract, the SHA-256 over the SHA-256s of each bug type's
    profile, buggy source, bug-log JSON and bug-log CSV, in type order."""
    got = {}
    for name, src in corpus_sources.items():
        digest = hashlib.sha256()
        unit = parse(src)
        for bug_type in ALL_TYPES:
            out_name = f"{name[:-len('.sol')]}.{bug_type.value}.sol"
            profile = find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=out_name)
            result = inject_all(profile, pool)
            for doc in (dump_profile(profile), result.text,
                        emit_buglog_json(result.entries),
                        emit_buglog_csv(result.entries)):
                digest.update(hashlib.sha256(doc.encode("utf-8")).digest())
        got[name] = digest.hexdigest()
    assert got == BUNDLED_DIGESTS


# Recorded like BUNDLED_DIGESTS. Of the pinned sources, only ThrowGuards.sol
# has ``throw`` carriers and braceless arms.
FIXTURE_PROFILE_DIGESTS = {
    ("EGame.sol", "Reentrancy"):
        "28666db6acc2f2262d59989d410db1c63a63716e3cd4e0dc62f770b41119118f",
    ("EGame.sol", "TimestampDependency"):
        "f3542e163b72c62a0595ff92dff38953a2394efcd5ffc11c863796d2c77f706c",
    ("EGame.sol", "UncheckedSend"):
        "e6d1ad771a4b2e9eddf3f6c836b494345884553863dcae71ee87146fc022c4c8",
    ("EGame.sol", "UnhandledException"):
        "1ee188385b713c0170d681564d340fe01510692f08c10742ae531e7ded63a45d",
    ("EGame.sol", "TOD"):
        "b92c64d4f24c940ed499e0b9522867c18624cc68e51ecbf8f4184bbeefef1a91",
    ("EGame.sol", "IntegerOverflowUnderflow"):
        "4aaf24a73c29d6c29a7351c09554f9ce829c814babb7026e497c5c9e5eca3cbb",
    ("EGame.sol", "TxOrigin"):
        "4f4d1b0dd3d8760786faac32f8fed6fa43d6fd9ec95e3ee872af9763ca9c2b7a",
    ("ThrowGuards.sol", "Reentrancy"):
        "1ef5e7db2dc789626cf1ca5713c4306f2cfacf9fae53457d753ba0214938204a",
    ("ThrowGuards.sol", "TimestampDependency"):
        "5b52a25ac8845c64968feea674a48f754f30d971d1282a91465557def29edc00",
    ("ThrowGuards.sol", "UncheckedSend"):
        "0589a1db617536466c38d9c3d54ab23f6e54f91d7a93a346361ed05960d2677e",
    ("ThrowGuards.sol", "UnhandledException"):
        "a5c84c98738440a0fda22dd648c0a0d78374bc89af05026b6f5a2ec926e299ac",
    ("ThrowGuards.sol", "TOD"):
        "e7ba03298f064ae1a11535107ff89f3229dd6c573b2807f58745428c3ec42b50",
    ("ThrowGuards.sol", "IntegerOverflowUnderflow"):
        "27261e186ac5c640024b2798532bd77c65fe80d342715953a9ac91d6b438b8f1",
    ("ThrowGuards.sol", "TxOrigin"):
        "d0e6be9574cfa6315d2f5c508332af7a54ae8d5e9cea54bae80b60e55e6e5eb1",
}


def test_fixture_profiles_match_recorded_digests(egame, throw_guards, pool):
    """The SHA-256 of each bug type's profile of both fixtures."""
    got = {}
    for name, src in (("EGame.sol", egame), ("ThrowGuards.sol", throw_guards)):
        unit = parse(src)
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=name)
            got[name, bug_type.value] = hashlib.sha256(
                dump_profile(profile).encode("utf-8")).hexdigest()
    assert got == FIXTURE_PROFILE_DIGESTS

