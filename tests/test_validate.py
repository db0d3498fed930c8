"""Diagnostics: bracket balance, lex failures, and parse error surfacing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solbugsmith.front import tokenize, validate


def test_clean_sources_have_no_diagnostics(corpus_sources, egame):
    for name, src in corpus_sources.items():
        assert validate(src) == [], name
    assert validate(egame) == []


@pytest.mark.parametrize("src, fragment", [
    ("contract A { function f() public { }", "unclosed '{'"),
    ("contract A { uint x; } }", "unmatched '}'"),
    ("contract A { function f(uint a } public {} }", "'(' closed by '}'"),
    ("contract A { uint x; } )", "unmatched ')'"),
    ("contract A { uint x; ) }", "'{' closed by ')'"),
    # mismatched pairs inside an opaque member, an opaque statement and a
    # skipped modifier argument list, all of which the parser consumes
    # without modelling them
    ("contract A { struct S { uint a; ) } }", "'{' closed by ')'"),
    ("contract A { function f() public { (bool ok, ) = a.call(1 ]; } }",
     "'(' closed by ']'"),
    ("contract A { function f() public only(a] {} }", "'(' closed by ']'"),
])
def test_balance_diagnostics(src, fragment):
    diags = validate(src)
    assert diags
    assert any(fragment in d.message for d in diags), diags


def test_diagnostic_positions_are_one_based():
    diags = validate("contract A {\n  uint x;\n")
    assert diags
    assert diags[0].line >= 1
    assert diags[0].column >= 1


def test_lex_error_is_a_single_diagnostic():
    diags = validate('contract A { string s = "open; }')
    assert len(diags) == 1
    assert diags[0].line == 1


def test_parse_error_reports_expected_and_found():
    diags = validate("contract A { function f() public { if } }")
    assert len(diags) == 1
    assert "expected" in diags[0].message
    assert "found" in diags[0].message


def test_balance_check_runs_before_parse():
    # An unclosed brace inside an opaque region must surface as a balance
    # diagnostic, not as a confusing downstream parse error.
    diags = validate("contract A { struct S { uint a; }")
    assert any("unclosed" in d.message for d in diags)


_PAIRS = {"(": ")", "[": "]", "{": "}"}


def _balanced(texts):
    """Reference check: each closer closes the innermost open bracket and
    none is left open."""
    stack = []
    for text in texts:
        if text in _PAIRS:
            stack.append(_PAIRS[text])
        elif text in (")", "]", "}"):
            if not stack or stack.pop() != text:
                return False
    return not stack


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unbalanced_bracket_edits_never_validate(corpus_sources, data):
    # One bracket token inserted before a token, deleted, or swapped for
    # another bracket, in a bundled contract.
    source = corpus_sources[data.draw(st.sampled_from(sorted(corpus_sources)))]
    raw = source.encode("utf-8")
    tokens = tokenize(source)
    edit = data.draw(st.sampled_from(["insert", "delete", "swap"]))
    bracket = data.draw(st.sampled_from(sorted("()[]{}")))
    if edit == "insert":
        at = data.draw(st.sampled_from(tokens)).start
        raw = raw[:at] + bracket.encode() + b" " + raw[at:]
    else:
        tok = data.draw(st.sampled_from(
            [t for t in tokens if t.text in _PAIRS or t.text in ")]}"]))
        if edit == "swap":
            bracket = data.draw(st.sampled_from(
                [b for b in sorted("()[]{}") if b != tok.text]))
        else:
            bracket = ""
        raw = raw[:tok.start] + bracket.encode() + raw[tok.end:]
    mutant = raw.decode("utf-8")
    if not _balanced([t.text for t in tokenize(mutant)]):
        assert validate(mutant), (edit, mutant)
