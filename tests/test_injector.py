"""Edit application: snippet splicing, token rewrites, guard weakening,
bug-log accuracy, and byte-for-byte determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith.errors import MalformedDocument, SolBugSmithError, StaleProfile
from solbugsmith.front import TokenKind, tokenize, validate
from solbugsmith.injector import (CSV_COLUMNS, emit_buglog_csv,
                                  emit_buglog_json, inject_all, inject_file,
                                  load_buglog)
from solbugsmith.locator import (InjectionProfile, SnippetSite, TransformSite,
                                 WeakenSite, find_all_potential_locations,
                                 source_digest)
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
    full = find_all_potential_locations(src, bug_type, pool)
    sites = tuple(s for s in full.sites if isinstance(s, keep))
    assert sites, "fixture source must expose at least one such site"
    return InjectionProfile(full.source_id, bug_type, sites,
                            full.source_digest)


def _identifiers(src):
    return {t.text for t in tokenize(src) if t.kind is TokenKind.IDENTIFIER}


class TestSnippetInjection:
    def test_every_site_receives_one_bug(self, corpus_sources, pool):
        src = corpus_sources["PiggyBank.sol"]
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(src, bug_type, pool)
            result = inject_all(src, profile, pool)
            assert len(result.entries) == len(profile.sites)

    def test_output_parses_and_validates(self, corpus_sources, pool):
        for name in ("PiggyBank.sol", "Counter.sol", "SimpleWallet.sol"):
            src = corpus_sources[name]
            for bug_type in ALL_TYPES:
                profile = find_all_potential_locations(src, bug_type, pool)
                result = inject_all(src, profile, pool)
                assert validate(result.text) == [], (name, bug_type)

    def test_logged_lines_match_byte_spans(self, corpus_sources, pool):
        src = corpus_sources["SimpleWallet.sol"]
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(src, bug_type, pool)
            result = inject_all(src, profile, pool)
            data = result.text.encode()
            for e in result.entries:
                assert e.byte_start < e.byte_end <= len(data)
                assert e.start_line == data[:e.byte_start].count(b"\n") + 1
                last = max(e.byte_start, e.byte_end - 1)
                assert e.end_line == data[:last].count(b"\n") + 1

    def test_introduced_identifiers_are_fresh(self, corpus_sources, pool):
        src = corpus_sources["Counter.sol"]
        before = _identifiers(src)
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(src, bug_type, pool)
            result = inject_all(src, profile, pool)
            ids = [e.bug_id for e in result.entries]
            assert len(set(ids)) == len(ids)
            for e in result.entries:
                assert e.bug_id not in before
                if e.approach is Approach.FULL_SNIPPET \
                        and "-" not in e.bug_id:
                    sliced = result.text.encode()[e.byte_start:e.byte_end]
                    assert e.bug_id.encode() in sliced

    def test_shared_context_declared_once_per_contract(self, pool):
        profile = find_all_potential_locations(
            GUARDED, BugType.TX_ORIGIN, pool)
        assert len(profile.sites) > 2
        result = inject_all(GUARDED, profile, pool)
        assert result.text.count("address owner_txorigin = msg.sender;") == 1
        assert validate(result.text) == []

    def test_counter_start_numbers_the_first_bug(self, pool):
        profile = find_all_potential_locations(
            GUARDED, BugType.REENTRANCY, pool)
        result = inject_all(GUARDED, profile, pool, counter_start=41)
        assert result.entries[0].bug_id.endswith("41")
        suffixes = [e.bug_id for e in result.entries]
        for i, bug_id in enumerate(suffixes):
            assert bug_id.rstrip("0123456789") + str(41 + i) == bug_id

    def test_file_label_defaults_to_source_id(self, pool):
        profile = find_all_potential_locations(
            GUARDED, BugType.TIMESTAMP_DEPENDENCY, pool, source_id="g.sol")
        result = inject_all(GUARDED, profile, pool)
        assert {e.file for e in result.entries} == {"g.sol"}


class TestTokenRewrites:
    def test_sender_guard_becomes_tx_origin(self, pool):
        profile = _only(GUARDED, BugType.TX_ORIGIN, pool, TransformSite)
        result = inject_all(GUARDED, profile, pool)
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
        result = inject_all(src, profile, pool)
        assert "uint256" not in result.text
        assert result.text.count("uint8") == 2
        assert validate(result.text) == []

    def test_rewrite_preserves_surrounding_bytes(self, pool):
        profile = _only(GUARDED, BugType.TX_ORIGIN, pool, TransformSite)
        result = inject_all(GUARDED, profile, pool)
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
        result = inject_all(GUARDED, profile, pool)
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
        result = inject_all(src, profile, pool)
        assert "//require(dest.send(v));" in result.text
        assert validate(result.text) == []

    def test_disabled_guard_no_longer_reverts_parse(self, pool):
        # The commented statement must not leave a dangling else behind.
        profile = _only(GUARDED, BugType.UNHANDLED_EXCEPTION, pool,
                        WeakenSite)
        result = inject_all(GUARDED, profile, pool)
        assert "revert();" in result.text  # still present, but commented
        assert validate(result.text) == []


class TestBugLogSerialization:
    @pytest.fixture()
    def entries(self, pool):
        profile = find_all_potential_locations(
            GUARDED, BugType.UNCHECKED_SEND, pool)
        return inject_all(GUARDED, profile, pool).entries

    def test_json_round_trip(self, entries):
        assert load_buglog(emit_buglog_json(entries)) == list(entries)

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
            load_buglog(json.dumps(doc))


class TestInjectFile:
    def test_is_locate_then_inject_all(self, corpus_sources, pool):
        src = corpus_sources["Counter.sol"]
        profile = find_all_potential_locations(
            src, BugType.TOD, pool, source_id="Counter.TOD.sol")
        assert inject_file(src, BugType.TOD, pool, "Counter.TOD.sol",
                           counter_start=3) \
            == inject_all(src, profile, pool, counter_start=3)

    def test_output_failing_validation_is_an_error(
            self, corpus_sources, unbalancing_pool_text):
        pool = load_pool(unbalancing_pool_text)
        with pytest.raises(SolBugSmithError) as err:
            inject_file(corpus_sources["Counter.sol"],
                        BugType.INTEGER_OVERFLOW_UNDERFLOW, pool, "C.sol")
        assert str(err.value) == (
            "output failed validation (12 diagnostic(s); first at line 100: "
            "'(' closed by '}')")


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, corpus_sources, pool):
        src = corpus_sources["TimeLock.sol"]
        for bug_type in ALL_TYPES:
            profile = find_all_potential_locations(src, bug_type, pool)
            first = inject_all(src, profile, pool, counter_start=7)
            second = inject_all(src, profile, pool, counter_start=7)
            assert first.text == second.text
            assert first.entries == second.entries

    @settings(max_examples=25, deadline=None)
    @given(start=st.integers(min_value=0, max_value=10_000))
    def test_any_counter_start_keeps_ids_unique(self, pool, start):
        profile = find_all_potential_locations(
            GUARDED, BugType.REENTRANCY, pool)
        result = inject_all(GUARDED, profile, pool, counter_start=start)
        ids = [e.bug_id for e in result.entries]
        assert len(set(ids)) == len(ids)
        assert validate(result.text) == []


class TestStaleness:
    def test_profile_rejects_edited_source(self, pool):
        profile = find_all_potential_locations(
            GUARDED, BugType.REENTRANCY, pool)
        with pytest.raises(StaleProfile):
            inject_all(GUARDED + "\n// touched\n", profile, pool)

    def test_digest_tracks_content_not_identity(self, pool):
        profile = find_all_potential_locations(
            GUARDED, BugType.REENTRANCY, pool)
        copy = GUARDED.encode().decode()
        assert source_digest(copy) == profile.source_digest
        inject_all(copy, profile, pool)  # same bytes: accepted
