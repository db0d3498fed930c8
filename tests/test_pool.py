"""Bug pool loading, validation, template instantiation, round-trips."""

import json

import pytest
from hypothesis import given, strategies as st

from solbugsmith.errors import PoolError
from solbugsmith.model import BugType, SnippetForm
from solbugsmith.pool import (BugSnippet, TransformPattern, instantiate,
                              load_pool, vouched)


class TestDefaultPool:
    def test_every_type_has_every_form(self, pool):
        for bug_type in BugType:
            forms = {s.form for s in pool.snippets_for(bug_type)}
            assert forms == set(SnippetForm), bug_type

    def test_snippet_ids_unique(self, pool):
        ids = [s.id for s in pool.snippets]
        assert len(ids) == len(set(ids))

    def test_five_snippets_per_type(self, pool):
        for bug_type in BugType:
            assert len(pool.snippets_for(bug_type)) == 5

    def test_transforms_cover_guard_and_width_swaps(self, pool):
        pairs = {(t.bug_type, " ".join(t.match.split())) for t in pool.transforms}
        assert (BugType.TX_ORIGIN, "msg.sender == owner") in pairs
        assert (BugType.INTEGER_OVERFLOW_UNDERFLOW, "uint256") in pairs
        assert (BugType.INTEGER_OVERFLOW_UNDERFLOW, "bytes32") in pairs

    def test_weakening_targets_guarded_send(self, pool):
        rules = pool.weakenings_for(BugType.UNHANDLED_EXCEPTION)
        assert len(rules) == 1
        assert rules[0].guard_shape == "guardedSendRevert"

    def test_timestamp_snippet_body(self, pool):
        snippets = pool.snippets_for(BugType.TIMESTAMP_DEPENDENCY)
        bodies = [s.template for s in snippets]
        assert any("block.timestamp >= 1546300" in b for b in bodies)


class TestInstantiate:
    def test_counter_is_substituted(self, pool):
        snippet = [s for s in pool.snippets_for(BugType.REENTRANCY)
                   if s.form is SnippetForm.FUNCTION_DEFINITION][0]
        text = instantiate(snippet, 36)
        assert "{N}" not in text
        assert "bug_reEntrancy36" in text

    def test_lead_identifier_names_the_entry_point(self, pool):
        snippet = pool.snippets_for(BugType.REENTRANCY)[0]
        assert snippet.lead_name == "bug_reEntrancy"
        assert f"function {snippet.lead_name}7(" in instantiate(snippet, 7)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_counters_resolve_all_markers(self, pool, counter):
        for snippet in pool.snippets:
            text = instantiate(snippet, counter)
            assert "{N}" not in text
            if snippet.lead_name:
                assert f"{snippet.lead_name}{counter}" in text

    @given(st.lists(st.integers(min_value=0, max_value=9999), min_size=2,
                    max_size=6, unique=True))
    def test_distinct_counters_give_distinct_leads(self, pool, counters):
        snippet = pool.snippets_for(BugType.TIMESTAMP_DEPENDENCY)[0]
        leads = {f"{snippet.lead_name}{c}" for c in counters}
        assert len(leads) == len(counters)


class TestLoadErrors:
    def _pool_doc(self, **overrides):
        doc = {
            "snippets": [{
                "id": "ok-snippet",
                "bugType": "TxOrigin",
                "form": "SimpleStatement",
                "template": "owner = tx.origin;",
                "requiredContext": [],
            }],
            "transforms": [],
            "weakenings": [],
        }
        doc.update(overrides)
        return doc

    def test_bad_json(self):
        with pytest.raises(PoolError):
            load_pool("not json at all {")

    def test_duplicate_ids(self):
        doc = self._pool_doc()
        doc["snippets"].append(dict(doc["snippets"][0]))
        with pytest.raises(PoolError) as err:
            load_pool(json.dumps(doc))
        assert "ok-snippet" in str(err.value)

    def test_unknown_bug_type(self):
        doc = self._pool_doc()
        doc["snippets"][0]["bugType"] = "Gremlins"
        with pytest.raises(PoolError):
            load_pool(json.dumps(doc))

    def test_simple_statement_template_must_be_one_statement(self):
        doc = self._pool_doc()
        doc["snippets"][0]["template"] = "x = 1; y = 2;"
        with pytest.raises(PoolError):
            load_pool(json.dumps(doc))

    def test_function_template_must_parse(self):
        doc = self._pool_doc()
        doc["snippets"][0]["form"] = "FunctionDefinition"
        doc["snippets"][0]["template"] = "function broken( public {}"
        with pytest.raises(PoolError):
            load_pool(json.dumps(doc))

    def test_block_form_requires_compound_statement(self):
        doc = self._pool_doc()
        doc["snippets"][0]["form"] = "NonFunctionBlock"
        doc["snippets"][0]["template"] = "x = 1;"
        with pytest.raises(PoolError):
            load_pool(json.dumps(doc))

    def test_context_declaration_must_not_carry_marker(self):
        doc = self._pool_doc()
        doc["snippets"][0]["requiredContext"] = ["uint ctx_{N};"]
        with pytest.raises(PoolError):
            load_pool(json.dumps(doc))

    def test_transform_sides_must_lex(self):
        doc = self._pool_doc(transforms=[{
            "bugType": "TxOrigin",
            "match": 'msg.sender == "unterminated',
            "replace": "tx.origin == owner",
        }])
        with pytest.raises(PoolError):
            load_pool(json.dumps(doc))


COUNTER_HAZARD = ("{N} after int, uint or bytes, or before x, lexes as "
                  "another token for some counters")


def _snippet(**fields):
    return {"snippets": [{"id": "ok-snippet", "bugType": "TxOrigin",
                          "form": "SimpleStatement",
                          "template": "owner = tx.origin;", **fields}]}


def _transform(**fields):
    return {"transforms": [{"bugType": "TxOrigin", "match": "msg.sender",
                            "replace": "tx.origin", **fields}]}


def _weakening(**fields):
    return {"weakenings": [{"bugType": "UnhandledException",
                            "guardShape": "guardedSendRevert", **fields}]}


@pytest.mark.parametrize("doc, message", [
    pytest.param([], "<document>: top level must be an object",
                 id="top-level-list"),
    pytest.param({"snippets": [3]},
                 "<snippet>: snippet entry must be an object",
                 id="snippet-not-object"),
    pytest.param(_snippet(template=" \n"),
                 "ok-snippet: missing or empty template", id="empty-template"),
    pytest.param(_snippet(requiredContext="uint ctx;"),
                 "ok-snippet: requiredContext must be a list of strings",
                 id="context-not-list"),
    pytest.param(_snippet(requiredContext=[3]),
                 "ok-snippet: requiredContext must be a list of strings",
                 id="context-not-strings"),
    pytest.param(_snippet(form="FunctionDefinition",
                          template="struct S{N} { uint a; }"),
                 "ok-snippet: template has an opaque member",
                 id="member-template-opaque"),
    pytest.param(_snippet(form="FunctionDefinition", template="uint x{N};"),
                 "ok-snippet: template declares no function",
                 id="member-template-without-function"),
    pytest.param(_snippet(form="FunctionDefinition", template="// none"),
                 "ok-snippet: template declares no members",
                 id="member-template-empty"),
    pytest.param(_snippet(template="delete stash{N};"),
                 "ok-snippet: template contains opaque code",
                 id="statement-template-opaque"),
    pytest.param(_snippet(form="FunctionDefinition",
                          template="function bytes{N}() public { }"),
                 f"ok-snippet: {COUNTER_HAZARD}", id="counter-after-bytes"),
    pytest.param(_snippet(template="owner = int{N}(owner);"),
                 f"ok-snippet: {COUNTER_HAZARD}", id="counter-after-int"),
    pytest.param(_snippet(template="owner = uint2{N}(owner);"),
                 f"ok-snippet: {COUNTER_HAZARD}",
                 id="counter-after-uint-digits"),
    pytest.param(_snippet(template="owner = address({N}x1);"),
                 f"ok-snippet: {COUNTER_HAZARD}", id="counter-before-x"),
    pytest.param(_snippet(template='owner = f("int{N}", /* " */ int{N});'),
                 f"ok-snippet: {COUNTER_HAZARD}",
                 id="counter-after-int-past-a-string"),
    pytest.param({"transforms": [3]},
                 "<transform #0>: transform entry must be an object",
                 id="transform-not-object"),
    pytest.param(_transform(bugType="Gremlins"),
                 "<transform #0>: 'Gremlins' is not a valid BugType",
                 id="transform-bad-type"),
    pytest.param(_transform(match=" "),
                 "<transform #0>: missing or empty match pattern",
                 id="transform-empty-match"),
    pytest.param(_transform(replace=""),
                 "<transform #0>: missing or empty replacement",
                 id="transform-empty-replacement"),
    pytest.param(_transform(match="// msg.sender"),
                 "<transform #0>: match pattern has no tokens",
                 id="transform-comment-only-match"),
    pytest.param(_transform(match='msg.sender == "open'),
                 "<transform #0>: match pattern does not lex: 1:15: "
                 "unterminated string literal",
                 id="transform-match-unlexable"),
    pytest.param(_transform(replace='tx.origin == "open'),
                 "<transform #0>: replacement does not lex: 1:14: "
                 "unterminated string literal",
                 id="transform-replacement-unlexable"),
    pytest.param({"weakenings": [3]},
                 "<weakening #0>: weakening entry must be an object",
                 id="weakening-not-object"),
    pytest.param(_weakening(bugType="Gremlins"),
                 "<weakening #0>: 'Gremlins' is not a valid BugType",
                 id="weakening-bad-type"),
    pytest.param(_weakening(action="delete"),
                 "<weakening #0>: unknown action: 'delete'",
                 id="weakening-unknown-action"),
])
def test_rejection_names_the_entry_and_the_reason(doc, message):
    with pytest.raises(PoolError) as err:
        load_pool(json.dumps(doc))
    assert str(err.value) == message


def test_transform_carries_its_tokens_and_collapsed_replacement():
    (pattern,) = load_pool(json.dumps(_transform(
        match="msg.sender /* who */ ==\n owner",
        replace="tx.origin\n   == owner"))).transforms
    assert pattern.needle == ("msg", ".", "sender", "==", "owner")
    assert pattern.insert == "tx.origin == owner"


def test_variants_group_a_types_snippets_by_form_in_pool_order(pool):
    for bug_type in BugType:
        snippets = pool.snippets_for(bug_type)
        groups = pool.variants(bug_type)
        assert list(groups) == list(dict.fromkeys(s.form for s in snippets))
        for form, members in groups.items():
            assert members == [s for s in snippets if s.form is form]


@pytest.mark.parametrize("template", [
    "owner = myint{N};", "owner = bytes_{N};", "owner = a{N}x;",
    "owner = {N} + 1;", "owner = 0x{N};", 'owner = "int{N} {N}x";',
    "owner = 'bytes{N}';", "owner = /* uint{N}\n {N}x */ 1; // int{N}"])
def test_a_counter_that_cannot_change_token_kinds_loads(template):
    (snippet,) = load_pool(json.dumps(_snippet(template=template))).snippets
    assert vouched(snippet)


def test_bundled_entries_are_vetted_and_keep_roles(pool,
                                                   unbalancing_pool_text):
    assert all(map(vouched, pool.snippets))
    assert all(map(vouched, pool.transforms))
    bad = load_pool(unbalancing_pool_text).transforms
    assert [t.insert for t in bad if not vouched(t)] == ["uint256 ("]


def test_only_load_pool_vouches_for_an_entry(pool):
    """The loader keeps the entries it checked by value: an equal copy of
    one is vouched for, an entry it never loaded is not, and no
    constructor takes a word of trust."""
    snippet, pattern = pool.snippets[0], pool.transforms[0]
    copy = BugSnippet(snippet.id, snippet.bug_type, snippet.form,
                      snippet.template, snippet.required_context)
    assert copy == snippet and copy is not snippet and vouched(copy)
    assert vouched(TransformPattern(*pattern))
    assert not vouched(copy._replace(id="never-loaded"))
    assert not vouched(copy._replace(template="never loaded"))
    assert not vouched(pattern._replace(insert="never loaded"))
    with pytest.raises(TypeError):
        BugSnippet(snippet.id, snippet.bug_type, snippet.form,
                   snippet.template, vetted=True)
    with pytest.raises(TypeError):
        TransformPattern(BugType.TOD, "a", "b", ("a",), "b", keeps_roles=True)


@pytest.mark.parametrize("template", [
    "(owner, spender) = (tx.origin, 1);",
    "/* lead */ while (owner == tx.origin) { owner = tx.origin; }",
    "catch(owner);",
    "// comment\nif (owner == tx.origin) { owner = tx.origin; }",
    "owner = tx.origin;",
])
def test_a_snippet_that_could_continue_an_opaque_statement_is_vetted(
        template):
    """An opaque statement that the first token carries on ends where the
    instance ends, and with ``do`` needing its ``while``, a ``while`` carries
    nothing on."""
    form = "SimpleStatement" if template.endswith(";") else "NonFunctionBlock"
    (snippet,) = load_pool(json.dumps(_snippet(
        template=template, form=form))).snippets
    assert vouched(snippet)


@pytest.mark.parametrize("match, replace, keeps", [
    ("msg.sender", "tx.origin", True),
    ("uint256", "uint8", True),
    ("bytes32 x", "bool x", True),
    ("1 ether", "2 ether", True),
    ("uint256", "address", False),
    ("address", "uint256", False),
    ("uint256", "myType", False),
    ("owner", "require", False),
    ("do", "go", False),
    ("msg.sender", "msg . sender", True),
    ("msg.sender", "msg[sender]", False),
    ("msg.sender", "msg.sender // note", False),
    ("msg.sender", "msg.sender.x", False),
    ("1 ether", "1 wei", False),
])
def test_a_transform_keeps_roles_when_the_parser_reads_it_alike(
        match, replace, keeps):
    (pattern,) = load_pool(json.dumps(_transform(
        match=match, replace=replace))).transforms
    assert vouched(pattern) is keeps
