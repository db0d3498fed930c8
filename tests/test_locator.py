"""Site discovery: boundary counts, guard shapes, token matching, and
brute-force insert-probe oracles for statement and member completeness."""

import pytest

from solbugsmith.errors import LexError, ParseError
from solbugsmith.front import TokenKind, parse, tokenize, validate
from solbugsmith.locator import (SnippetSite, TransformSite, WeakenSite,
                                 dump_profile, find_all_potential_locations,
                                 find_security_mechanisms,
                                 find_transformable_code, site_facts)
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
# one of those points modulo whitespace or breaks the parse. An offset
# strictly inside an opaque statement of the source is no boundary, as the
# locator documents: a marker can parse there only by splitting the opaque
# statement in two, as between `a.call{value: 1}` and `("")`.

PROBE = "__prb += 1;"


def _probe_lands_once(text: str) -> bool:
    try:
        unit = parse(text)
    except Exception:
        return False
    if validate(text):
        return False
    count = 0
    for stmt in _statements(unit):
        if not stmt.opaque and stmt.kind == "assignment":
            source = unit.data[stmt.span.start:stmt.span.end]
            toks = [t.text for t in tokenize(source.decode("utf-8"))
                    if t.kind is not TokenKind.COMMENT]
            if toks == ["__prb", "+=", "1", ";"]:
                count += 1
    return count == 1


def _statements(unit):
    """Every statement in the functions of ``unit``, nested ones included."""
    stack = [stmt for contract in unit.contracts
             for member in contract.members
             for stmt in getattr(member, "statements", [])]
    while stack:
        stmt = stack.pop()
        yield stmt
        stack += stmt.children


def probe_oracle_offsets(src: str) -> set[int]:
    data = src.encode("utf-8")
    opaque = [stmt.span for stmt in _statements(parse(src)) if stmt.opaque]
    candidates = set()
    for tok in tokenize(src):
        if tok.kind is TokenKind.PUNCTUATOR and tok.text in (";", "{", "}"):
            candidates.add(tok.end)
        elif tok.kind is TokenKind.PRAGMA:
            candidates.add(tok.end)
    accepted = set()
    for offset in sorted(candidates):
        if any(span.start < offset < span.end for span in opaque):
            continue
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
    """contract E {
  uint x;
  function f(address a) public {
    (bool ok, ) = a.call{value: 1}("");
    x = 1;
  }
}""",
    """contract F {
  uint x;
  function f(F c) public {
    try c.f() returns (uint v) { x = v; } catch { x = 0; }
    x = 1;
  }
}""",
    """contract G {
  uint x;
  function f() public {
    do { x += 1; } while (x < 10);
    x = 1;
  }
}""",
    """contract H {
  uint x;
  function f(bytes32 s) public {
    C c = new C{salt: s}(1);
    x = 1;
  }
}""",
    """contract I {
  uint x;
  function f() public {
    unchecked { x += 1; }
    x = 1;
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


# ---------------------------------------------------------------------------
# The same oracle for member sites. A byte offset is a genuine member
# boundary iff splicing a marker function there yields a source that
# parses, with the marker landing as exactly one direct member of one
# contract. The candidates are the ends of ';', '{' and '}' tokens.

MEMBER_PROBE = "function __prb() public {}"


def member_probe_offsets(src: str) -> set[int]:
    data = src.encode("utf-8")
    accepted = set()
    for tok in tokenize(src):
        if tok.kind is not TokenKind.PUNCTUATOR or \
                tok.text not in (";", "{", "}"):
            continue
        spliced = (data[:tok.end] + b" " + MEMBER_PROBE.encode() + b" "
                   + data[tok.end:]).decode("utf-8")
        try:
            unit = parse(spliced)
        except (LexError, ParseError):
            continue
        marker = (tok.end + 1, tok.end + 1 + len(MEMBER_PROBE))
        landed = [member for contract in unit.contracts
                  for member in contract.members
                  if (member.span.start, member.span.end) == marker]
        if len(landed) == 1 and landed[0].kind == "function":
            accepted.add(tok.end)
    return accepted


def test_member_probe_agrees_on_every_bundled_contract_and_fixture(
        corpus_sources, egame, throw_guards):
    sources = dict(corpus_sources, **{"EGame.sol": egame,
                                      "ThrowGuards.sol": throw_guards})
    assert len(sources) == 14
    for name, src in sources.items():
        oracle = member_probe_offsets(src)
        located = {offset for offset, _, _ in site_facts(
            parse(src)).points[SnippetForm.FUNCTION_DEFINITION]}
        assert oracle == located, (name, sorted(oracle ^ located))


# ---------------------------------------------------------------------------
# Soundness probe for snippet sites. At every site, a marker of the site's
# form is spliced in (with a space on either side, so no line moves); the
# output must parse, the marker must be exactly one node of that form
# spanning the marker, and without it the tree must be the source's, spans
# included, once offsets past the site are shifted back.

SITE_MARKERS = {
    SnippetForm.SIMPLE_STATEMENT: ("__prb();", "expressionStmt"),
    SnippetForm.NON_FUNCTION_BLOCK: ("{ __prb(); }", "block"),
    SnippetForm.FUNCTION_DEFINITION: ("function __prb() public {}",
                                      "function"),
}


def _without_marker(tree: dict, start: int, end: int, kind: str,
                     width: int) -> tuple[dict, int]:
    """``tree`` less every node of ``kind`` spanning [start, end), with
    offsets at or past ``end`` + 1 shifted back by ``width``; and how many
    nodes were taken out."""
    found = 0

    def shift(offset: int) -> int:
        return offset - width if offset >= start - 1 + width else offset

    def rebuild(node: dict) -> dict:
        nonlocal found
        children = []
        for child in node["children"]:
            span = child["span"]
            if (child["kind"], span["start"], span["end"]) == \
                    (kind, start, end) and not child.get("opaque"):
                found += 1
            else:
                children.append(rebuild(child))
        span = dict(node["span"], start=shift(node["span"]["start"]),
                    end=shift(node["span"]["end"]))
        return dict(node, span=span, children=children)

    return rebuild(tree), found


def probe_disagreements(src: str, pool, shift: int = 0
                        ) -> list[tuple[str, int]]:
    """The (form, offset) of every snippet site, moved by ``shift`` bytes,
    where the marker does not land as one node of its form and leave every
    other node as it was."""
    unit = parse(src)
    expected = unit.to_json()
    bad = []
    for site in find_all_potential_locations(unit, BugType.REENTRANCY,
                                             pool).sites:
        if not isinstance(site, SnippetSite):
            continue
        marker, kind = SITE_MARKERS[site.form]
        offset = site.offset + shift
        spliced = (unit.data[:offset] + b" " + marker.encode()
                   + b" " + unit.data[offset:]).decode("utf-8")
        try:
            tree = parse(spliced).to_json()
        except (LexError, ParseError):
            bad.append((site.form.value, offset))
            continue
        rest, found = _without_marker(tree, offset + 1,
                                      offset + 1 + len(marker), kind,
                                      len(marker) + 2)
        if found != 1 or rest != expected:
            bad.append((site.form.value, offset))
    return bad


def test_marker_probe_rejects_every_site_moved_off_its_boundary(pool):
    src = "contract A {\n  function f() public {\n    x = 1;\n  }\n}\n"
    sites = [s for s in _sites(src, pool) if isinstance(s, SnippetSite)]
    assert len(sites) == 6
    assert probe_disagreements(src, pool) == []
    assert len(probe_disagreements(src, pool, shift=-1)) == len(sites)


def test_marker_lands_as_one_node_at_every_snippet_site(
        corpus_sources, egame, throw_guards, pool):
    sources = dict(corpus_sources, **{"EGame.sol": egame,
                                      "ThrowGuards.sol": throw_guards})
    for name, src in sources.items():
        assert probe_disagreements(src, pool) == [], name
