"""Parser structure, span discipline, opaque fallback, and hard errors."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from solbugsmith.errors import ParseError
from solbugsmith.front import (FunctionDef, parse, parse_member_fragment,
                               parse_statement_fragment)


def _walk_spans(node, parent_span=None, bag=None):
    if bag is None:
        bag = []
    span = node.span
    if parent_span is not None:
        assert parent_span.start <= span.start <= span.end <= parent_span.end
    bag.append(span)
    for child in getattr(node, "children", []):
        _walk_spans(child, span, bag)
    return bag


def _source_of(unit, node) -> str:
    return unit.data[node.span.start:node.span.end].decode("utf-8")


def _in_function(body: str):
    """The unit of ``body`` placed in a function, and its statements."""
    unit = parse("contract A {\nfunction f() public {\n" + body + "\n}\n}")
    return unit, unit.contracts[0].members[0].statements


def _in_contract(body: str):
    """The unit of ``body`` placed in a contract, and its members."""
    unit = parse("contract A {\n" + body + "\n}")
    return unit, unit.contracts[0].members


def _all_statements(stmts):
    for stmt in stmts:
        yield stmt
        yield from _all_statements(stmt.children)


class TestStructure:
    def test_game_contract_shape(self, egame):
        unit = parse(egame)
        assert [c.name for c in unit.contracts] == ["EGame"]
        members = unit.contracts[0].members
        assert members[0].kind == "stateVar"
        assert members[0].name == "winner"
        assert members[1].kind == "stateVar"
        assert members[1].name == "startTime"
        kinds = [m.kind for m in members[2:]]
        assert kinds == ["constructor", "function", "function"]
        play = members[3]
        assert play.name == "play"
        # Nested braceless/braced if chain: outer if holds an inner if,
        # which holds the assignment.
        outer = play.statements[0]
        assert outer.kind == "ifStmt"
        inner = outer.children[0].children[0]
        assert inner.kind == "ifStmt"
        assert inner.children[0].children[0].kind == "assignment"

    def test_unit_raw_text_is_source(self, egame):
        assert parse(egame).data == egame.encode("utf-8")

    def test_multiple_contracts(self, corpus_sources):
        unit = parse(corpus_sources["Splitter.sol"])
        assert [c.name for c in unit.contracts] == ["Splitter", "PayoutLog"]

    def test_nameless_fallback_function(self):
        fn = parse_member_fragment("function() public payable { x += 1; }")[0]
        assert isinstance(fn, FunctionDef)
        assert fn.name is None

    def test_modifier_bodies_hold_statements(self):
        mod = parse_member_fragment(
            "modifier gate(uint m) { require(m > 0); _; }")[0]
        assert mod.kind == "modifier"
        assert [s.kind for s in mod.statements] == ["requireStmt",
                                                    "expressionStmt"]

    def test_tuple_return(self):
        stmts = parse_statement_fragment("return (a, b + 1, c);")
        assert stmts[0].kind == "returnStmt"

    def test_require_condition_holds_the_message_argument_too(self):
        unit, (stmt,) = _in_function('require(x > 0, "too small");')
        assert (stmt.kind, stmt.opaque) == ("requireStmt", False)
        assert unit.data[stmt.cond_span.start:stmt.cond_span.end] == \
            b'x > 0, "too small"'

    @pytest.mark.parametrize("text", ["t = new T(x);", "u = new uint[](3);"])
    def test_new_expression_is_modelled(self, text):
        unit, (stmt,) = _in_function(text)
        assert (stmt.kind, stmt.opaque) == ("assignment", False)
        assert _source_of(unit, stmt) == text

    @pytest.mark.parametrize("src", ["", " \n", "// no code\n"])
    def test_source_without_code_is_an_empty_unit(self, src):
        assert parse(src).contracts == []

    def test_bodyless_declaration_is_opaque(self):
        members = parse_member_fragment("function ping() public;")
        assert members[0].kind == "opaqueMember"


class TestSpans:
    def test_child_spans_nest_in_parents(self, corpus_sources, egame):
        for name, src in list(corpus_sources.items()) + [("EGame", egame)]:
            unit = parse(src)
            for contract in unit.contracts:
                for member in contract.members:
                    assert contract.body_span.start <= member.span.start
                    assert member.span.end <= contract.body_span.end
                    for stmt in getattr(member, "statements", []):
                        _walk_spans(stmt, member.body_span)

    def test_sibling_statements_do_not_overlap(self, corpus_sources):
        for src in corpus_sources.values():
            unit = parse(src)
            for contract in unit.contracts:
                for member in contract.members:
                    stmts = getattr(member, "statements", [])
                    for left, right in zip(stmts, stmts[1:]):
                        assert left.span.end <= right.span.start

    def test_span_text_matches_statement_text(self, corpus_sources):
        # every statement's span slice parses back to one statement of its
        # kind
        checked = 0
        for src in corpus_sources.values():
            unit = parse(src)
            for contract in unit.contracts:
                for member in contract.members:
                    for stmt in _all_statements(
                            getattr(member, "statements", [])):
                        again = parse_statement_fragment(
                            _source_of(unit, stmt))
                        assert [s.kind for s in again] == [stmt.kind]
                        checked += 1
        assert checked > 100

    def test_lines_are_one_based_and_consistent(self, egame):
        unit = parse(egame)
        contract = unit.contracts[0]
        assert contract.span.start_line == 2
        getreward = contract.members[-1]
        assert getreward.span.start_line == 15
        assert getreward.span.end_line == 16


class TestOpaqueFallback:
    def test_struct_and_enum_members_are_opaque(self, corpus_sources):
        unit = parse(corpus_sources["Escrow.sol"])
        opaque = [m for c in unit.contracts for m in c.members
                  if m.kind == "opaqueMember"]
        assert any(_source_of(unit, m).startswith("enum") for m in opaque)

    def test_unknown_statement_falls_back(self):
        unit, (stmt,) = _in_function("delete stash[msg.sender];")
        assert stmt.opaque
        assert _source_of(unit, stmt) == "delete stash[msg.sender];"

    def test_opaque_region_respects_nested_braces(self):
        unit, members = _in_contract(
            "struct Pair { uint a; uint b; }\nuint after;")
        assert members[0].kind == "opaqueMember"
        assert _source_of(unit, members[0]) == "struct Pair { uint a; uint b; }"
        assert members[1].kind == "stateVar"

    @pytest.mark.parametrize("text", [
        '(bool ok, ) = msg.sender.call{value: 1}("");',
        "try c.f() returns (uint v) { x = v; } catch { x = 0; }",
        "do { x += 1; } while (x < 10);",
        "C c = new C{salt: s}(1);",
        "try c.f{value: 1}() { x = 1; } catch { x = 0; }",
    ])
    def test_brace_group_followed_by_more_of_the_statement(self, text):
        unit, stmts = _in_function(text + "\nx = 1;")
        assert [(stmt.opaque, _source_of(unit, stmt)) for stmt in stmts] \
            == [(True, text), (False, "x = 1;")]

    @pytest.mark.parametrize("block", ["unchecked { x += 1; }",
                                       "assembly { let y := 1 }"])
    @pytest.mark.parametrize("after", ["(a, b) = (b, a);",
                                       "while (x < 10) { x += 1; }"])
    def test_brace_group_then_the_next_statement(self, block, after):
        unit, stmts = _in_function(f"{block}\n{after}")
        assert [_source_of(unit, stmt) for stmt in stmts] == [block, after]

    @pytest.mark.parametrize("text", [
        "do x++; while (x < 10);",
        "do { x++; } while (x < 10);",
        "do if (x > 0) { x--; } else { x++; } while (x != 5);",
    ])
    def test_a_do_and_its_while_are_one_opaque_statement(self, text):
        unit, stmts = _in_function(text + "\nx = 1;")
        assert [(stmt.opaque, stmt.children, _source_of(unit, stmt))
                for stmt in stmts] == [(True, [], text), (False, [], "x = 1;")]

    def test_opaque_spans_reported(self, corpus_sources):
        # storage-pointer locals fall back to opaque statements of the bodies
        unit = parse(corpus_sources["Crowdfund.sol"])
        opaque = [_source_of(unit, stmt) for c in unit.contracts
                  for m in c.members if isinstance(m, FunctionDef)
                  for stmt in m.statements if stmt.opaque]
        assert len(opaque) == corpus_sources["Crowdfund.sol"].count(
            "Campaign storage c = ")
        assert all(stmt.startswith("Campaign storage c = ") for stmt in opaque)


class TestHardErrors:
    def test_orphan_else_is_rejected(self):
        with pytest.raises(ParseError):
            parse_statement_fragment("x = 1; else x = 2;")

    def test_nested_function_is_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_statement_fragment("function g() public {}")
        assert "function" in str(err.value)

    def test_statement_between_braceless_arm_and_else(self):
        src = """contract A {
  uint x;
  function f(uint c) public {
    if (c > 0) x = 1; y = 9; else x = 2;
  }
}"""
        with pytest.raises(ParseError):
            parse(src)

    def test_contract_without_brace(self):
        with pytest.raises(ParseError) as err:
            parse("contract A uint x;")
        assert err.value.found is not None

    def test_stray_top_level_token(self):
        with pytest.raises(ParseError):
            parse("uint x;")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("contract A {\n  function f( {}\n}")
        assert err.value.line == 2


@pytest.mark.parametrize("src, column, expected, found", [
    pytest.param("contract A { function f() public { function g() public {} } }",
                 36, "statement (nested function definition is not supported)",
                 "'function'", id="nested-function"),
    pytest.param("contract A { function f() public returns (uint a b) {} }",
                 50, "',' or ')'", "'b'", id="returns-missing-comma"),
    pytest.param("contract A { function f() public returns (uint indexed a) {} }",
                 48, "',' or ')'", "'indexed'", id="returns-rejects-indexed"),
    pytest.param("contract A { event E(uint a b); }",
                 29, "',' or ')'", "'b'", id="event-missing-comma"),
    pytest.param("contract A { function f() public { emit E(1;); } }",
                 44, "')'", "';'", id="emit-args-unclosed"),
    pytest.param("contract A { function f() public { if (x y) {} } }",
                 42, "')'", "'y'", id="if-condition-unclosed"),
])
def test_error_position_expected_and_found(src, column, expected, found):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.column, err.value.expected,
            err.value.found) == (1, column, expected, found)


@pytest.mark.parametrize("body, line, column, expected, found", [
    ("do { x += 1; } x = 3;", 3, 16, "'while'", "'x'"),
    ("do x++; y = 1;", 3, 9, "'while'", "'y'"),
    ("do { x++; } while (x < 10) { }", 3, 28, "';'", "'{'"),
    ("do { x++; }", 4, 1, "'while'", "'}'"),
])
def test_a_do_without_its_while_is_an_error_after_the_body(
        body, line, column, expected, found):
    with pytest.raises(ParseError) as err:
        _in_function(body)
    assert (err.value.line, err.value.column, err.value.expected,
            err.value.found) == (line, column, expected, found)


def test_end_of_input_error_column_is_within_the_last_line():
    src = ("contract A {\n    uint x;\n    function f() public {\n"
           "        x = 1;\n")
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == \
        "4:15: expected '}' closing function body, found end of input"


@given(st.integers(min_value=0, max_value=11),
       st.sampled_from([" ", "\n", "\t", " /* pad */ ", " // pad\n"]))
def test_whitespace_between_tokens_preserves_shape(gap_index, filler):
    # Splicing whitespace or comments between two tokens never changes the
    # parsed statement kinds.
    base = "contract A { uint x; function f() public { x = 1; if (x > 0) { x = 2; } } }"
    from solbugsmith.front import tokenize
    toks = tokenize(base)
    idx = min(gap_index + 4, len(toks) - 1)
    cut = toks[idx].start
    src = base[:cut] + filler + base[cut:]

    def shape(text):
        unit = parse(text)
        out = []
        for contract in unit.contracts:
            for member in contract.members:
                out.append(getattr(member, "kind", "var"))
                for stmt in getattr(member, "statements", []):
                    out.append(stmt.kind)
        return out

    assert shape(src) == shape(base)


@given(st.sampled_from(["x = 1;", "emit E(x);", "return;", "require(x > 0);",
                        "revert();", "uint q = 2;", "x += 3;"]))
def test_fragment_round_trip_kind_is_stable(stmt_text):
    unit, (stmt,) = _in_function(stmt_text)
    again = parse_statement_fragment(_source_of(unit, stmt))[0]
    assert again.kind == stmt.kind


# SHA-256 of ``json.dumps(parse(src).to_json(), indent=2)``, the
# ``locate --dump-ast`` document. Recorded from the bundled corpus and the
# test fixtures; a change to any of them, or to the tree the parser builds,
# must update these on purpose.
AST_DIGESTS = {
    "Auction.sol": "21320a52821d499782d2a3c7099cb7e64f5f4551de9fb4b6ba704dcd93bdb7ca",
    "Counter.sol": "cbc2b97fe173a6e525ba0674d98c8ad38b48ddbe34536602b5656bfa11497035",
    "Crowdfund.sol": "0de9f17ae8c52d70456b211d08adfc1e7e2e49a434c7b39ef3f19b13b4cc0f9f",
    "Escrow.sol": "4a1023a192ff27d75bc0bb6fbd28f57a6279691bdb185cc9ccd3e6c507c8f055",
    "Lottery.sol": "7a30ea6dcb5128f4297ecf7539340fdb0ee0c73fdb9f2abcad2e234502531e14",
    "NameRegistry.sol": "bb2532e36f5bbfab68ed17c8de9a91b0b51df414b7566171adce030fc17dd6c6",
    "PiggyBank.sol": "dca604c1f933bbeadb67187f875f7f4d2a2ea6810aa00ca79068c20a7bc9c860",
    "SimpleWallet.sol": "4b71f34362d1e7c8abd90196e53a4a1493daec8a0f3bb9bb239ae4876dd9b545",
    "Splitter.sol": "73340db1bc20d408b44db6cf00f3d80cfacc715865f589940bab6bc0b72559cf",
    "TimeLock.sol": "14f35e617900c03051fe2ba02c15f8fe2c6d0f6bbe8927aaf36ca821ea9f49ce",
    "TokenLedger.sol": "0dc946dbd27ee320404f370eeeab43baac8f9c8f5b2743fe55052f0907285845",
    "VaultToken.sol": "e4b7564964e96f7f038189f2980d811beb17e6bb7833e173125755b0a901dd3c",
    "EGame.sol": "52ec131a7c5c09521c87d05b3a94804c1c3f2b274eaac517aa7ecc6864f86716",
    "ThrowGuards.sol": "8259e23588b801f3ab68814f452dbbe72aa609c897fc6d0fed8d8c9850b17787",
}


def test_span_trees_match_recorded_digests(corpus_sources):
    """Every bundled contract and every ``tests/fixtures`` source."""
    fixtures = Path(__file__).parent / "fixtures"
    sources = dict(corpus_sources)
    sources.update((p.name, p.read_text(encoding="utf-8"))
                   for p in sorted(fixtures.glob("*.sol")))
    got = {name: hashlib.sha256(json.dumps(parse(src).to_json(), indent=2)
                                .encode("utf-8")).hexdigest()
           for name, src in sources.items()}
    assert got == AST_DIGESTS
