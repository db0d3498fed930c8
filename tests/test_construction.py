"""Outputs valid by construction: whenever ``inject_all`` vouches for an
output, ``validate`` accepts it, and ``inject_file`` returns what an
injector that validates every output returns, or raises its message."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith import locator
from solbugsmith.errors import PoolError, SolBugSmithError
from solbugsmith.front import parse, validate
from solbugsmith.injector import inject_all, inject_file
from solbugsmith.locator import SnippetSite, TransformSite
from solbugsmith.model import BugType
from solbugsmith.pool import load_pool

COUNTERS = (0, 1, 8, 32, 255, 10000)

# Shapes an edit can trip over: opaque statements that end with a brace
# group (one of them a `do` without its `while`), `address payable`,
# adjacent braces, and pattern texts inside strings and comments.
HAZARDS = """pragma solidity ^0.5.0;
contract H {
    address payable owner;
    uint256 total; /* a
    comment */ bytes32 tag;
    mapping(address => uint256) balances;
    struct S { uint256 a; }
    function f(uint256 a) public {
        if (msg.sender == owner) { total = a; } else { revert(); }
        do { total += 1; } while (total < 10);
        do { total += 1; } total = 3;
        unchecked { total = total; }
        owner.transfer{value: 1};
        for (uint256 i = 0; i < a; i++) { total += uint256(i); }
        if (!owner.send(1)) { revert(); } require(owner.send(2)); total = 1;
        string memory s = "msg.sender == owner; uint256";
        {{ total = 2; }}
    }
    function g() public {}}
"""


_FAULTS = (SolBugSmithError, UnicodeDecodeError)


def assert_sound(unit, bug_type, pool, counter_start=0) -> bool:
    """Check the property for one output, and say whether it was vouched
    for. What ``inject_file`` returns or raises is compared with an
    injector that validates every output."""
    profile = locator.find_all_potential_locations(unit, bug_type, pool,
                                                   source_id="X.sol")
    vouched = False
    try:
        result = inject_all(profile, pool, counter_start=counter_start)
    except _FAULTS as err:
        expected = type(err).__name__, str(err)
    else:
        vouched = result.vouched
        diagnostics = validate(result.text)
        if vouched:
            assert diagnostics == []
        expected = (result.text, result.entries) if not diagnostics else (
            "SolBugSmithError", f"output failed validation at line "
            f"{diagnostics[0].line}: {diagnostics[0].message}")
    try:
        result = inject_file(unit, bug_type, pool, "X.sol", counter_start)
    except _FAULTS as err:
        assert (type(err).__name__, str(err)) == expected
    else:
        assert (result.text, result.entries) == expected
    return vouched


def test_bundled_outputs_are_vouched_for_and_valid(
        corpus_sources, egame, throw_guards, pool):
    sources = dict(corpus_sources, **{"EGame.sol": egame,
                                      "ThrowGuards.sol": throw_guards})
    for name, src in sources.items():
        unit = parse(src)
        for bug_type in BugType:
            for counter in COUNTERS:
                assert assert_sound(unit, bug_type, pool, counter), \
                    (name, bug_type, counter)


def test_hazard_source_outputs_are_sound(pool):
    unit = parse(HAZARDS)
    for bug_type in BugType:
        assert_sound(unit, bug_type, pool)


def _pool(snippets=(), transforms=(), weakenings=False):
    """A TOD pool (UnhandledException for the weakening) of SimpleStatement
    snippets given as (template, context) and (match, replace) rewrites."""
    return load_pool(json.dumps({
        "snippets": [{"id": f"s{i}", "bugType": "TOD",
                      "form": "SimpleStatement", "template": template,
                      "requiredContext": list(context)}
                     for i, (template, context) in enumerate(snippets)],
        "transforms": [{"bugType": "TOD", "match": match, "replace": replace}
                       for match, replace in transforms],
        "weakenings": [{"bugType": "UnhandledException",
                        "guardShape": "guardedSendRevert"}] if weakenings
        else []}))


FUNCTION = "    function f() public {\n        x = 1;\n    }\n"


@pytest.mark.parametrize("src, pool_args", [
    pytest.param("contract A {\n    uint x; /* c\n\u00a0 */ uint y;\n}\n",
                 None, id="snippet-indent-not-whitespace"),
    pytest.param("/* c\n\u00a0*/ contract A {\n" + FUNCTION + "}\n",
                 {"snippets": [("x = 2;", ["uint x;"])]},
                 id="context-indent-not-whitespace"),
])
def test_an_indent_stops_at_a_no_break_space(src, pool_args, pool):
    """A line that a block comment leaves led by a no-break space gives an
    indent of the spaces before it, so the output is vouched for."""
    pool = pool if pool_args is None else _pool(**pool_args)
    unit = parse(src)
    result = inject_all(locator.find_all_potential_locations(
        unit, BugType.TOD, pool), pool)
    assert result.entries
    assert result.text.count("\u00a0") == src.count("\u00a0")
    assert assert_sound(unit, BugType.TOD, pool)


@pytest.mark.parametrize("src, bug_type, pool_args, counter", [
    pytest.param("contract A {\n" + FUNCTION + "}\n", BugType.TOD, None, -3,
                 id="negative-counter"),
    pytest.param("contract A {\n    uint256 fee = 1ether;\n}\n",
                 BugType.TOD, {"transforms": [("1", "0x1")]}, 0,
                 id="rewrite-joins-the-next-token"),
    pytest.param("contract A {\n    function f(address payable a) public {\n"
                 "        do { x = 1; } require(a.send(1));\n"
                 "        while (x > 0) if (x == 1) x = 0; else x -= 1;\n"
                 "    }\n}\n", BugType.UNHANDLED_EXCEPTION,
                 {"weakenings": True}, 0, id="weakening-lets-do-run-on"),
])
def test_each_check_declines_an_edit_that_breaks_the_output(
        src, bug_type, pool_args, counter, pool):
    """Without the check that declines it, each of these outputs would be
    vouched for, and it does not validate."""
    pool = pool if pool_args is None else _pool(**pool_args)
    unit = parse(src)
    result = inject_all(locator.find_all_potential_locations(
        unit, bug_type, pool), pool, counter_start=counter)
    assert validate(result.text) != []
    assert not assert_sound(unit, bug_type, pool, counter)


def test_an_unbalancing_rewrite_is_not_vouched_for(
        corpus_sources, unbalancing_pool_text):
    pool = load_pool(unbalancing_pool_text)
    unit = parse(corpus_sources["Counter.sol"])
    assert not assert_sound(unit, BugType.INTEGER_OVERFLOW_UNDERFLOW, pool)
    assert assert_sound(unit, BugType.TOD, pool)


# -- generated pools ----------------------------------------------------------

TYPE = BugType.UNHANDLED_EXCEPTION.value
HAZARD_REASON = ("{N} after int, uint or bytes, or before x, lexes as "
                 "another token for some counters")

STATEMENTS = [
    "owner = int{N}(total);",
    "total = bytes{N}(tag).length;",
    "total = {N}x1;",
    "total = {N} + a{N}x;",
    'total = "a\\\n      b".length;',
    "/* one\n     two */ total = 1;",
    "// note\ntotal = 2;",
    "(total, owner) = (1, owner);",
    "catch(total);",
    "total = uint8(x{N});",
]
BLOCKS = [
    "if (total == {N}) {\n    /* c\n  */ total = 1;}",
    "while (total > 0) if (total == 1) total = 0; else total -= 1;",
    "{ total = {N}; }",
    'if (x{N}) {\n  total = "q\\\n  r";}',
    "for (uint{N} i = 0; i < 2; i++) { total += i; }",
]
MEMBERS = [
    "function bytes{N}() public {\n    total = 1;\n}",
    "function f_{N}() public {\n    /* c\n  */ total = {N};\n}",
    "uint256 v{N} = {N}x1;\nfunction h{N}() public {}",
    "function k{N}() public {}\n/* tail\n   comment */",
    "function myint{N}(uint256 a{N}) public {\n  total = a{N};}",
]
CONTEXT = ["uint256 ctx_total;", "/* c\n d */ address payable ctx_owner;",
           "bytes32 ctx_tag;"]
TRANSFORMS = [
    ("msg.sender == owner", "tx.origin == owner"),
    ("uint256", "uint8"),
    ("uint256", "uint256 ("),
    ("uint256", "address"),
    ("address", "uint256"),
    ("owner", "require"),
    ("owner", "owner /* x */"),
    ("uint256", "myType"),
    ("msg.sender", "msg.sender.x"),
    ("total", "do"),
    ("1", "0x1"),
]


@st.composite
def pool_documents(draw):
    snippets = []
    for form, choices in (("SimpleStatement", STATEMENTS),
                          ("NonFunctionBlock", BLOCKS),
                          ("FunctionDefinition", MEMBERS)):
        for template in draw(st.lists(st.sampled_from(choices), max_size=2)):
            snippets.append({
                "id": f"s{len(snippets)}", "bugType": TYPE, "form": form,
                "template": template,
                "requiredContext": draw(st.lists(st.sampled_from(CONTEXT),
                                                 max_size=2, unique=True))})
    transforms = draw(st.lists(st.sampled_from(TRANSFORMS), max_size=2,
                               unique=True))
    return json.dumps({
        "snippets": snippets,
        "transforms": [{"bugType": TYPE, "match": match, "replace": replace}
                       for match, replace in transforms],
        "weakenings": [{"bugType": TYPE, "guardShape": "guardedSendRevert"}]})


@settings(max_examples=60, deadline=None)
@given(doc=pool_documents(), counter=st.sampled_from(COUNTERS))
def test_generated_pools_are_sound_or_rejected_for_their_counters(
        doc, counter):
    try:
        pool = load_pool(doc)
    except PoolError as err:
        assert err.reason == HAZARD_REASON
        return
    for src in (HAZARDS, GUARDED):
        assert_sound(parse(src), BugType.UNHANDLED_EXCEPTION, pool, counter)


GUARDED = """contract Guarded {
    address payable owner;
    uint256 total;
    function drain(uint256 amount) public {
        if (owner.send(amount)) { total = 0; } else { revert(); }
        require(msg.sender == owner);
    }
}
"""


# -- sites moved off their boundaries -----------------------------------------


def _moved(site, delta: int, which: int):
    """``site`` with one of its edit offsets moved by ``delta`` bytes:
    ``which`` picks the start (0) or the end (1) of a span."""
    if isinstance(site, SnippetSite):
        return dataclasses.replace(site, offset=site.offset + delta)
    field = "match_span" if isinstance(site, TransformSite) \
        else "revert_stmt_span"
    span = getattr(site, field)
    span = span._replace(start=span.start + delta) if which == 0 \
        else span._replace(end=span.end + delta)
    return dataclasses.replace(site, **{field: span})


def _ends_of_each_kind(sites):
    """The indexes of the first and the last site of each kind and form."""
    first, last = {}, {}
    for index, site in enumerate(sites):
        key = (type(site), getattr(site, "form", None))
        first.setdefault(key, index)
        last[key] = index
    return sorted({*first.values(), *last.values()})


@pytest.mark.parametrize("delta", [-1, 1])
def test_a_site_moved_by_one_byte_gives_the_validating_outcome(
        corpus_sources, egame, throw_guards, pool, monkeypatch, delta):
    real = locator.find_all_potential_locations
    sources = [HAZARDS, egame, throw_guards, corpus_sources["Counter.sol"]]
    cases = [(src, bug_type, pool) for src in sources for bug_type in BugType]
    # with no snippet planted after it, a moved weakening breaks the output
    cases += [(src, BugType.UNHANDLED_EXCEPTION, _pool(weakenings=True))
              for src in sources]
    moved = 0
    for src, bug_type, case_pool in cases:
        unit = parse(src)
        sites = real(unit, bug_type, case_pool).sites
        for index in _ends_of_each_kind(sites):
            offsets = 1 if isinstance(sites[index], SnippetSite) else 2
            for which in range(offsets):
                def shifted(*args, **kwargs):
                    profile = real(*args, **kwargs)
                    changed = list(profile.sites)
                    changed[index] = _moved(changed[index], delta, which)
                    return dataclasses.replace(profile, sites=tuple(changed))

                monkeypatch.setattr(locator, "find_all_potential_locations",
                                    shifted)
                assert_sound(unit, bug_type, case_pool)
                moved += 1
                monkeypatch.undo()
    assert moved > 100
