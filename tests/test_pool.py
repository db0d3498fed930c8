"""Bug pool loading, validation, template instantiation, round-trips."""

import json

import pytest
from hypothesis import given, strategies as st

from solbugsmith.errors import PoolError
from solbugsmith.model import BugType, SnippetForm
from solbugsmith.pool import instantiate, lead_identifier, load_pool


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
        lead = lead_identifier(snippet, 7)
        assert lead is not None
        assert lead.endswith("7")
        assert lead in instantiate(snippet, 7)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_counters_resolve_all_markers(self, pool, counter):
        for snippet in pool.snippets:
            text = instantiate(snippet, counter)
            assert "{N}" not in text
            if lead_identifier(snippet, counter):
                assert str(counter) in text

    @given(st.lists(st.integers(min_value=0, max_value=9999), min_size=2,
                    max_size=6, unique=True))
    def test_distinct_counters_give_distinct_leads(self, pool, counters):
        snippet = pool.snippets_for(BugType.TIMESTAMP_DEPENDENCY)[0]
        leads = {lead_identifier(snippet, c) for c in counters}
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
