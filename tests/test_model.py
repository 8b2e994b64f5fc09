import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from bibkit.model import (
    BibEntry,
    BibParseError,
    FieldSlot,
    parse_bib_file,
    parse_entry,
    sanitize_citation_key,
    serialize_entry,
    slot_of,
    split_entries,
)

from conftest import load_fixture
from reference_impls import (
    DuplicateField,
    EmptyKey,
    MultipleEntries,
    UnbalancedBraces,
    UnsupportedConcatenation,
    parent_parse_entry,
    parent_split_entries,
    reference_parse,
)

#: The error classes ``grammar_cases.json`` names: the parent parser's.
ERROR_CLASSES = {
    "BibParseError": BibParseError,
    "DuplicateField": DuplicateField,
    "EmptyKey": EmptyKey,
    "MultipleEntries": MultipleEntries,
    "UnbalancedBraces": UnbalancedBraces,
    "UnsupportedConcatenation": UnsupportedConcatenation,
}

GRAMMAR_CASES = load_fixture("grammar_cases.json")["cases"]


@pytest.mark.parametrize("case", GRAMMAR_CASES, ids=[c["id"] for c in GRAMMAR_CASES])
def test_grammar_fixture(case):
    if "error" in case:
        # the parent parser raises the class the case names; parse_entry, its message
        with pytest.raises(ERROR_CLASSES[case["error"]]) as parent:
            parent_parse_entry(case["text"])
        with pytest.raises(BibParseError) as raised:
            parse_entry(case["text"])
        assert str(raised.value) == str(parent.value)
    else:
        entry = parse_entry(case["text"])
        assert entry.entry_type == case["expect"]["entry_type"]
        assert entry.citation_key == case["expect"]["citation_key"]
        assert entry.fields == case["expect"]["fields"]


@pytest.mark.parametrize(
    "case",
    [c for c in GRAMMAR_CASES if "expect" in c],
    ids=[c["id"] for c in GRAMMAR_CASES if "expect" in c],
)
def test_grammar_agrees_with_reference_parser(case):
    entry_type, key, fields = reference_parse(case["text"])
    entry = parse_entry(case["text"])
    assert (entry.entry_type, entry.citation_key, entry.fields) == (entry_type, key, fields)


@pytest.mark.parametrize(
    "case",
    [c for c in GRAMMAR_CASES if "expect" in c],
    ids=[c["id"] for c in GRAMMAR_CASES if "expect" in c],
)
def test_round_trip_fixpoint(case):
    first = parse_entry(case["text"])
    second = parse_entry(serialize_entry(first))
    assert second == first
    # serialization is a fixpoint after one round
    assert serialize_entry(second) == serialize_entry(first)


def test_serialize_minimal_shape():
    entry = BibEntry("article", "k1", {"title": "A"})
    assert serialize_entry(entry) == "@article{k1,\n  title = {A},\n}"


def test_serialize_preserves_unicode():
    entry = parse_entry("@article{k, author={Sánchez, María}}")
    assert "Sánchez, María" in serialize_entry(entry)


def test_field_name_case_folding():
    entry = parse_entry("@article{k, TITLE={A}}")
    assert entry.get("title") == "A"
    assert entry.get("TITLE") == "A"


@pytest.mark.parametrize(
    "raw,expected",
    [("mcauley:2012", "mcauley2012"), ("ref-1_a", "ref1a"), ("!!!", "ref"), ("", "ref")],
)
def test_sanitize_citation_key(raw, expected):
    assert sanitize_citation_key(raw) == expected


@given(st.text(max_size=40))
def test_sanitize_idempotent(key):
    once = sanitize_citation_key(key)
    assert sanitize_citation_key(once) == once
    assert once and all(c.isalnum() for c in once)


def test_slot_of_venue_journal_wins():
    entry = parse_entry("@article{k, journal={NeurIPS}, booktitle={ICML}}")
    assert slot_of(entry, FieldSlot.VENUE) == "NeurIPS"


def test_slot_of_venue_booktitle_fallback():
    entry = parse_entry("@inproceedings{k, booktitle={ICML}}")
    assert slot_of(entry, FieldSlot.VENUE) == "ICML"


def test_slot_of_never_invents_values():
    entry = parse_entry(
        "@article{k, title={A}, journal={J}, year={2020}, pages={1--2}, doi={10.1/x}}"
    )
    stored = set(entry.fields.values()) | {entry.entry_type, entry.citation_key}
    for slot in FieldSlot:
        value = slot_of(entry, slot)
        if value is not None:
            assert value in stored


def test_slot_of_absent_is_none():
    entry = parse_entry("@misc{k, title={A}}")
    for slot in (FieldSlot.VENUE, FieldSlot.DOI, FieldSlot.PAGES):
        assert slot_of(entry, slot) is None


def test_parse_bib_file_multiple_entries():
    text = "@article{a, title={A}}\n\n@inproceedings{b, booktitle={B}}\n"
    entries = parse_bib_file(text)
    assert [e.citation_key for e in entries] == ["a", "b"]


def test_parse_bib_file_nested_braces_and_at_signs():
    text = "@article{a, title={A {B} c@d}, note={{x}}}\n\n@misc{b, title={E}}\n"
    entries = parse_bib_file(text)
    assert [e.citation_key for e in entries] == ["a", "b"]
    assert entries[0].fields == {"title": "A {B} c@d", "note": "{x}"}


def test_parse_bib_file_unbalanced():
    with pytest.raises(BibParseError, match="^unbalanced braces in .bib input$"):
        parse_bib_file("@article{a, title={A}")


# -- error branches the grammar fixture does not reach --------------------------


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("@{k, a={b}}", BibParseError, "malformed entry header"),
        ("@article{k, a={b}} x", BibParseError, "trailing content after entry"),
        ('@article{k, a="b" # c}', BibParseError, "'#' concatenation"),
        ('@article{k, a="b" c}', BibParseError, "junk after quoted value"),
    ],
)
def test_parse_entry_error_branches(text, error, message):
    with pytest.raises(error, match=message):
        parse_entry(text)


def test_parse_entry_empty_value_is_empty_string():
    assert parse_entry("@article{k, a=}").fields == {"a": ""}


_name = st.sampled_from(["title", "author", "year", "journal", "note", "pages"])
_value = st.text(
    alphabet=st.characters(blacklist_characters="{}\"#@\\", blacklist_categories=("Cs", "Cc")),
    max_size=30,
).map(lambda s: " ".join(s.split()))


@given(st.dictionaries(_name, _value, max_size=5))
def test_round_trip_property(fields):
    entry = BibEntry("article", "key1", fields)
    assert parse_entry(serialize_entry(entry)) == entry


# -- one scan against the parent parser ------------------------------------------


def test_split_entries_stops_at_an_at_sign_without_a_brace():
    assert split_entries("@article{a, t={x}}\n@ stray (no brace)") == ["@article{a, t={x}}"]


def test_split_entries_second_entry_unbalanced():
    with pytest.raises(BibParseError, match="unbalanced braces in .bib input"):
        split_entries("@article{a, t={x}}\n@misc{b, t={y}")


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its error message, or its result."""
    try:
        result = parse(text)
    except BibParseError as exc:
        return "error", str(exc)
    if isinstance(result, BibEntry):
        return result.entry_type, result.citation_key, list(result.fields.items())
    return result


_HEADERS = st.sampled_from(["", "@article{", "@misc{k,", " @Book { key, t = ", "@string{"])
_BIB_PIECES = st.lists(
    st.sampled_from([*'{}",=#@ \n\taZk1', "{x}", '"y"', "k=", " and ", "{a{b}c}", "{{", "}}", "\u3000"]),
    max_size=20,
)


@settings(max_examples=1000)
@given(st.tuples(_HEADERS, _BIB_PIECES.map("".join), st.sampled_from(["", "}"])).map("".join))
@example("no entry here")
@example("@{k, a={b}}")  # malformed entry header
@example("@string{a = {b}}")
@example("@article{k, a={b}")  # entry braces are not balanced
@example("@article{k} @misc{j}")  # more than one entry
@example("@article{k} x")  # trailing content
@example("@article{, a={b}}")  # no citation key
@example("@article{k,, a={b}}")  # empty field segment
@example("@article{k, a}")  # field without '='
@example("@article{k, ={b}}")  # field with empty name
@example('@article{k, a="b}')  # unterminated quoted value
@example("@article{k, a=b # c}")  # '#' in a bare value
@example('@article{k, a="b" # c}')  # '#' after a quoted value
@example("@article{k, a={b} c}")  # junk after braced value
@example('@article{k, a="b" c}')  # junk after quoted value
@example("@article{k, a=1, A=2}")  # duplicate field
@example('@article{k"x,y", a={"}, b="{,}"}')  # quotes toggle at depth 0 only
@example("@article{k, a={b}, }")  # trailing comma
@example("@article{k,,}")  # an empty segment before the trailing comma
@example("@article{k, {x}={y}}")  # a brace closes before the '='
@example("@article{a, t={x}}\n@misc{b, t={y}")  # second entry unbalanced
@example("@a{k, {x=y}z = {v}}")  # an '=' inside a brace-free group before the real one
@example("@a{k{a{b}c}, t = {v}}")  # a nested group in the key
@example('@a{k, t = "{x}{y{z}}", u = {v}}')  # a quote holding braces
@example('@a{k, t = "x}y"}')  # a stray '}' inside quotes closes the entry
@example("@a{k, t =\t\u3000{v}, u=\u3000x\u3000}")  # a tab and an ideographic space around values
@example("@a{k, a = {x}, t = {x{y}z}, b = {w}}")  # one nested value among brace-free ones
@example("@a{k, t = {a}{b}}")  # a brace-free group, then junk
@example('@a{k, t = "v"   , u = {w}}')  # a quoted value followed by spaces
@example("@a{k, t =")  # '=' is the last character
@example("@a{k, {n{m}}x = {v}}")  # a nested group before the '='
def test_parse_agrees_with_parent_parser(text):
    assert _outcome(parse_entry, text) == _outcome(parent_parse_entry, text)
    assert _outcome(split_entries, text) == _outcome(masked_parent_split_entries, text)


@pytest.mark.parametrize(
    "text",
    [
        "@misc{k, title = {" + "{a}" * 70_000 + "}}",  # about 200 KB of brace-free groups
        "@misc{k, title = {" + "{" * 50_000,  # 50,000 unclosed groups
        "@misc{k, title = " + "{" * 50 + "x" + "}" * 50 + "}",  # 50 groups deep
    ],
    ids=["brace_free_groups", "unclosed_groups", "deep_nest"],
)
def test_parse_takes_linear_time(text):
    for parse in (parse_entry, split_entries):
        started = time.perf_counter()
        _outcome(parse, text)
        # a brace matcher that recounts from the opening brace takes some 10 times as long
        assert time.perf_counter() - started < 2.0


_NAME_END = set('"#%\'(),={}@')  # and whitespace


def _text_ats(text):
    """Each ``@`` followed by a name and then, after any whitespace, by neither ``{`` nor ``(``."""
    for at, c in enumerate(text):
        if c != "@":
            continue
        start = at + 1
        while start < len(text) and text[start].isspace():
            start += 1
        end = start
        while end < len(text) and not text[end].isspace() and text[end] not in _NAME_END:
            end += 1
        while end < len(text) and text[end].isspace():
            end += 1
        if end > start and text[end : end + 1] not in ("{", "("):
            yield at


def masked_parent_split_entries(text):
    """The parent splitter, blind to each ``@`` that is text (masked as ``\\0``, mapped back)."""
    masked = list(text)
    for at in _text_ats(text):
        masked[at] = "\0"
    return [chunk.replace("\0", "@") for chunk in parent_split_entries("".join(masked))]


@pytest.mark.parametrize(
    "text",
    [
        "% contact: me@example.org\n@article{a, title={X}}\n",
        "Follow @bibkit on Mastodon.\n@article{a, title={X}}\nuser@host",
        "@ bibkit\n@article{a, title={X}}",
    ],
)
def test_parse_bib_file_reads_an_at_sign_in_text_as_text(text):
    assert parse_bib_file(text) == [BibEntry("article", "a", {"title": "X"})]


def test_parse_bib_file_skips_comment_blocks():
    text = (
        "@Comment{jabref-meta: databaseType:bibtex;}\n"
        "@article{a, title={X}}\n"
        "@COMMENT { @misc{b, title={Y}} }\n"
        "@comment{jabref-meta: grouping:\n0 AllEntriesGroup:;\n}\n"
    )
    assert parse_bib_file(text) == [BibEntry("article", "a", {"title": "X"})]


@pytest.mark.parametrize("text", ["@{k, a={b}}", "@article(k, a={b})", "@comment(x) @article{a, t={x}}"])
def test_parse_bib_file_rejects_an_entry_without_a_brace_header(text):
    with pytest.raises(BibParseError, match="malformed entry header"):
        parse_bib_file(text)


def test_parse_bib_file_rejects_preamble():
    with pytest.raises(BibParseError, match="^@preamble is not supported$"):
        parse_bib_file('@preamble{"\\newcommand{\\noop}[1]{}"}\n@article{a, title={X}}')
    with pytest.raises(BibParseError, match="^@string macros are not supported$"):
        parse_bib_file("@string{acm = {ACM}}")
