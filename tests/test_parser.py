"""Parser structure, span discipline, opaque fallback, and hard errors."""

import pytest
from hypothesis import given, strategies as st

from solbugsmith.errors import ParseError
from solbugsmith.front import (FunctionDef, OpaqueMember, StateVarDecl, parse,
                               parse_member_fragment, parse_statement_fragment)


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


class TestStructure:
    def test_game_contract_shape(self, egame):
        unit = parse(egame)
        assert [c.name for c in unit.contracts] == ["EGame"]
        members = unit.contracts[0].members
        assert isinstance(members[0], StateVarDecl)
        assert members[0].name == "winner"
        assert isinstance(members[1], StateVarDecl)
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
        assert parse(egame).raw_text == egame

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

    def test_bodyless_declaration_is_opaque(self):
        members = parse_member_fragment("function ping() public;")
        assert isinstance(members[0], OpaqueMember)


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
        for src in corpus_sources.values():
            data = src.encode("utf-8")
            unit = parse(src)
            for contract in unit.contracts:
                for member in contract.members:
                    for stmt in getattr(member, "statements", []):
                        sliced = data[stmt.span.start:stmt.span.end]
                        assert sliced.decode("utf-8") == stmt.text

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
                  if isinstance(m, OpaqueMember)]
        assert any(m.text.startswith("enum") for m in opaque)

    def test_unknown_statement_falls_back(self):
        stmt = parse_statement_fragment("delete stash[msg.sender];")[0]
        assert stmt.opaque
        assert stmt.text == "delete stash[msg.sender];"

    def test_opaque_region_respects_nested_braces(self):
        members = parse_member_fragment(
            "struct Pair { uint a; uint b; }\nuint after;")
        assert isinstance(members[0], OpaqueMember)
        assert members[0].text.endswith("}")
        assert isinstance(members[1], StateVarDecl)

    def test_opaque_spans_reported(self, corpus_sources):
        unit = parse(corpus_sources["Crowdfund.sol"])
        spans = unit.opaque_spans()
        assert spans, "storage-pointer locals should fall back"
        data = corpus_sources["Crowdfund.sol"].encode("utf-8")
        assert any(b"storage" in data[s.start:s.end] for s in spans)


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


@given(st.integers(min_value=0, max_value=11),
       st.sampled_from([" ", "\n", "\t", " /* pad */ ", " // pad\n"]))
def test_whitespace_between_tokens_preserves_shape(gap_index, filler):
    # Splicing whitespace or comments between two tokens never changes the
    # parsed statement kinds.
    base = "contract A { uint x; function f() public { x = 1; if (x > 0) { x = 2; } } }"
    from solbugsmith.front import tokenize
    toks = tokenize(base)
    idx = min(gap_index + 4, len(toks) - 1)
    cut = toks[idx].span.start
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
    stmt = parse_statement_fragment(stmt_text)[0]
    again = parse_statement_fragment(stmt.text)[0]
    assert again.kind == stmt.kind
