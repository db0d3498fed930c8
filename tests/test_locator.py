"""Site discovery: boundary counts, guard shapes, token matching, and a
brute-force insert-probe oracle for statement-level completeness."""

import pytest

from solbugsmith.front import TokenKind, parse, tokenize, validate
from solbugsmith.locator import (SnippetSite, TransformSite, WeakenSite,
                                 dump_profile, find_all_potential_locations,
                                 find_security_mechanisms,
                                 find_transformable_code)
from solbugsmith.model import BugType, SnippetForm


def _sites(src, pool, bug_type=BugType.REENTRANCY):
    return find_all_potential_locations(parse(src), bug_type, pool).sites


def _weakening(pool):
    (rule,) = pool.weakenings_for(BugType.UNHANDLED_EXCEPTION)
    return rule


def _snippet_offsets(src, pool, form):
    return [s.offset for s in _sites(src, pool)
            if isinstance(s, SnippetSite) and s.form is form]


class TestBoundaryCounts:
    def test_empty_contract_has_one_member_site(self, pool):
        offsets = _snippet_offsets("contract A {}", pool,
                                   SnippetForm.FUNCTION_DEFINITION)
        assert len(offsets) == 1

    def test_two_members_give_three_sites(self, pool):
        src = "contract A { uint x; uint y; }"
        offsets = _snippet_offsets(src, pool,
                                   SnippetForm.FUNCTION_DEFINITION)
        assert len(offsets) == 3

    def test_statements_give_count_plus_one(self, pool):
        src = "contract A { function f() public { x = 1; x = 2; x = 3; } }"
        offsets = _snippet_offsets(src, pool, SnippetForm.SIMPLE_STATEMENT)
        assert len(offsets) == 4

    def test_block_form_shares_statement_boundaries(self, pool):
        src = "contract A { function f() public { x = 1; } }"
        simple = _snippet_offsets(src, pool, SnippetForm.SIMPLE_STATEMENT)
        block = _snippet_offsets(src, pool, SnippetForm.NON_FUNCTION_BLOCK)
        assert simple == block

    def test_nested_block_adds_inner_boundaries(self, pool):
        flat = "contract A { function f() public { x = 1; } }"
        nested = "contract A { function f() public { x = 1; { x = 2; } } }"
        assert len(_snippet_offsets(nested, pool,
                                    SnippetForm.SIMPLE_STATEMENT)) > \
            len(_snippet_offsets(flat, pool, SnippetForm.SIMPLE_STATEMENT))

    def test_braceless_arm_contributes_no_boundary(self, pool):
        # The then-arm end sits before "else", where no statement may be
        # spliced; only the whole if contributes a boundary.
        src = """contract A {
  uint x;
  function f(uint c) public {
    if (c > 0) x = 1; else x = 2;
    x = 3;
  }
}"""
        offsets = _snippet_offsets(src, pool, SnippetForm.SIMPLE_STATEMENT)
        arm_end = src.index("x = 1;") + len("x = 1;")
        if_end = src.index("x = 2;") + len("x = 2;")
        assert arm_end not in offsets
        assert if_end in offsets
        assert len(offsets) == 3  # body start, after if, after x = 3;

    def test_modifier_bodies_are_searched(self, pool):
        src = "contract A { modifier m() { require(x > 0); _; } }"
        offsets = _snippet_offsets(src, pool, SnippetForm.SIMPLE_STATEMENT)
        assert len(offsets) == 3

    def test_sites_sorted_and_unique(self, corpus_sources, pool):
        for name, src in corpus_sources.items():
            unit = parse(src)
            for bug_type in BugType:
                profile = find_all_potential_locations(unit, bug_type, pool,
                                                       source_id=name)
                keyed = [(getattr(s, "offset", None), s.kind)
                         for s in profile.sites]
                snippet_keys = [(s.form, s.offset) for s in profile.sites
                                if isinstance(s, SnippetSite)]
                assert len(snippet_keys) == len(set(snippet_keys)), name
                offsets = [s.offset for s in profile.sites
                           if isinstance(s, SnippetSite)]
                assert offsets == sorted(offsets), (name, bug_type)
                del keyed


class TestGuardShapes:
    def test_braced_if_guard_found(self, pool):
        src = """contract A {
  function w(uint amount) public {
    if (!msg.sender.send(amount)) {
      revert();
    }
  }
}"""
        sites = find_security_mechanisms(parse(src), _weakening(pool))
        assert len(sites) == 1
        assert isinstance(sites[0], WeakenSite)
        assert sites[0].rule.guard_shape == "guardedSendRevert"

    def test_else_arm_guard_found(self, pool):
        src = """contract A {
  function w(uint amount) public {
    if (msg.sender.send(amount)) {
      counter += 1;
    } else {
      revert();
    }
  }
}"""
        sites = find_security_mechanisms(parse(src), _weakening(pool))
        assert len(sites) == 1

    def test_require_form_found(self, pool):
        src = """contract A {
  function w(address to, uint amount) public {
    require(to.send(amount));
  }
}"""
        sites = find_security_mechanisms(parse(src), _weakening(pool))
        assert len(sites) == 1
        site = sites[0]
        assert site.guard_span == site.revert_stmt_span
        assert site.rule.guard_shape == "guardedSendRevert"

    def test_throw_carrier_found(self, pool):
        src = """contract A {
  function w(uint amount) public {
    if (!msg.sender.send(amount)) { throw; }
  }
}"""
        sites = find_security_mechanisms(parse(src), _weakening(pool))
        assert len(sites) == 1
        assert sites[0].rule.guard_shape == "guardedSendRevert"

    def test_braceless_carrier_excluded(self, pool):
        # Commenting out the whole arm of a braceless if would orphan the
        # condition, so this shape must not be offered.
        src = """contract A {
  function w(uint amount) public {
    if (!msg.sender.send(amount)) revert();
  }
}"""
        assert find_security_mechanisms(parse(src), _weakening(pool)) == []

    def test_throw_is_a_failure_carrier_up_to_whitespace(self, throw_guards,
                                                         pool):
        # ``throw`` counts with any whitespace before its ';', but not with
        # a comment there
        unit = parse(throw_guards)
        sites = find_security_mechanisms(unit, _weakening(pool))
        carriers = [unit.data[s.revert_stmt_span.start:s.revert_stmt_span.end]
                    for s in sites]
        assert carriers == [b"throw;", b"throw ;", b"throw\n            ;",
                            b"revert();", b"require(to.send(6));"]
        assert b"throw /* not bare */ ;" in unit.data
        assert {s.rule.guard_shape for s in sites} == {"guardedSendRevert"}

    def test_send_in_unrelated_guard_ignored(self, pool):
        src = """contract A {
  function w(uint amount) public {
    if (amount > 0) {
      revert();
    }
  }
}"""
        assert find_security_mechanisms(parse(src), _weakening(pool)) == []

    def test_corpus_has_weaken_sites(self, corpus_sources, pool):
        rule = _weakening(pool)
        total = 0
        for src in corpus_sources.values():
            total += len(find_security_mechanisms(parse(src), rule))
        assert total >= 5


class TestTransformMatching:
    def test_matches_across_whitespace_and_comments(self, pool):
        src = ("contract A { function f() public {\n"
               "  require(msg.sender /* owner check */ ==\n"
               "      owner);\n} }")
        unit = parse(src)
        sites = find_transformable_code(unit, BugType.TX_ORIGIN, pool)
        assert len(sites) == 1
        start, end = sites[0].match_span.start, sites[0].match_span.end
        assert src.encode()[start:start + 3] == b"msg"
        assert src.encode()[end - 5:end] == b"owner"

    def test_no_match_inside_opaque_regions(self, pool):
        src = ("contract A { struct S { uint256 w; }\n"
               "  function f() public { uint256 q = 1; } }")
        unit = parse(src)
        sites = find_transformable_code(
            unit, BugType.INTEGER_OVERFLOW_UNDERFLOW, pool)
        texts = [src.encode()[s.match_span.start:s.match_span.end]
                 for s in sites if s.pattern.match == "uint256"]
        assert texts == [b"uint256"]

    def test_greedy_non_overlapping(self, pool):
        src = ("contract A { function f() public {"
               " require(msg.sender == owner); require(msg.sender == owner);"
               " } }")
        unit = parse(src)
        sites = find_transformable_code(unit, BugType.TX_ORIGIN, pool)
        assert len(sites) == 2
        assert sites[0].match_span.end <= sites[1].match_span.start

    def test_strings_do_not_match(self, pool):
        src = ('contract A { function f() public {'
               ' log("msg.sender == owner"); } }')
        unit = parse(src)
        assert find_transformable_code(unit, BugType.TX_ORIGIN, pool) == []


class TestProfiles:
    def test_profile_json_shape(self, pool):
        src = "contract A { uint x; }"
        profile = find_all_potential_locations(
            parse(src), BugType.TX_ORIGIN, pool, source_id="a.sol")
        doc = dump_profile(profile)
        assert '"sourceId": "a.sol"' in doc
        assert '"bugType": "TxOrigin"' in doc
        assert '"sites"' in doc

    def test_deterministic_across_runs(self, corpus_sources, pool):
        for name, src in corpus_sources.items():
            for bug_type in (BugType.REENTRANCY, BugType.UNHANDLED_EXCEPTION):
                one = dump_profile(find_all_potential_locations(
                    parse(src), bug_type, pool, source_id=name))
                two = dump_profile(find_all_potential_locations(
                    parse(src), bug_type, pool, source_id=name))
                assert one == two


# ---------------------------------------------------------------------------
# Brute-force completeness oracle. A byte offset is a genuine statement
# boundary iff splicing a marker statement there yields a source that still
# lexes, balances, and parses, with the marker landing as exactly one
# ordinary assignment statement. Candidate offsets are the ends of ';', '{',
# '}', and pragma tokens; everywhere else insertion is either equivalent to
# one of those points modulo whitespace or breaks the parse.

PROBE = "__prb += 1;"


def _probe_lands_once(text: str) -> bool:
    try:
        unit = parse(text)
    except Exception:
        return False
    if validate(text):
        return False
    count = 0

    def walk(stmts):
        nonlocal count
        for stmt in stmts:
            if stmt.opaque:
                continue
            if stmt.kind == "assignment":
                source = unit.data[stmt.span.start:stmt.span.end]
                toks = [t.text for t in tokenize(source.decode("utf-8"))
                        if t.kind is not TokenKind.COMMENT]
                if toks == ["__prb", "+=", "1", ";"]:
                    count += 1
            walk(stmt.children)

    for contract in unit.contracts:
        for member in contract.members:
            walk(getattr(member, "statements", []))
    return count == 1


def probe_oracle_offsets(src: str) -> set[int]:
    data = src.encode("utf-8")
    candidates = set()
    for tok in tokenize(src):
        if tok.kind is TokenKind.PUNCTUATOR and tok.text in (";", "{", "}"):
            candidates.add(tok.end)
        elif tok.kind is TokenKind.PRAGMA:
            candidates.add(tok.end)
    accepted = set()
    for offset in sorted(candidates):
        spliced = (data[:offset] + b" " + PROBE.encode() + b" "
                   + data[offset:]).decode("utf-8")
        if _probe_lands_once(spliced):
            accepted.add(offset)
    return accepted


def _locator_statement_offsets(src: str, pool) -> set[int]:
    return set(_snippet_offsets(src, pool, SnippetForm.SIMPLE_STATEMENT))


TRICKY = [
    """contract A {
  uint x;
  function f(uint c) public {
    if (c > 0) x = 1; else x = 2;
    if (c > 1) x = 3;
    x = 4;
  }
}""",
    """contract B {
  uint t;
  function g() public {
    for (uint i = 0; i < 3; i++) { t += i; }
    while (t > 0) t -= 1;
  }
}""",
    """contract C {
  struct S { uint a; }
  uint y;
  function h() public {
    assembly { let q := 1 }
    y = 2;
  }
  function empty() public {}
}""",
    """contract D {
  string s = "fake; } {";
  uint z; // also fake; }
  function k() public {
    z = 1; /* nothing { here */ z = 2;
  }
}""",
]


@pytest.mark.parametrize("src", TRICKY)
def test_probe_oracle_agrees_on_tricky_shapes(src, pool):
    assert validate(src) == []
    assert probe_oracle_offsets(src) == _locator_statement_offsets(src, pool)


def test_probe_oracle_agrees_on_small_corpus(corpus_sources, pool):
    small = {name: src for name, src in corpus_sources.items()
             if src.count("\n") <= 50}
    assert len(small) >= 3
    for name, src in small.items():
        oracle = probe_oracle_offsets(src)
        located = _locator_statement_offsets(src, pool)
        assert oracle == located, (name, sorted(oracle ^ located))


def test_probe_oracle_agrees_on_fixture(egame, pool):
    assert probe_oracle_offsets(egame) == _locator_statement_offsets(egame,
                                                                     pool)
