import re

import pytest
from hypothesis import example, given, settings, strategies as st

from bibkit.normalize import (
    _split_and,
    STOPWORDS,
    VenueSynonymTable,
    author_lastname_list,
    fold_diacritics,
    jaccard,
    normalize_author,
    normalize_doi,
    normalize_pages,
    normalize_title,
    normalize_venue,
    normalize_year,
    tokenize_filtered,
)

from conftest import load_fixture
from reference_impls import (
    EmptyAuthor,
    MalformedPages,
    MalformedYear,
    brute_jaccard,
    parent_author_lastname_list,
    parent_fold_diacritics,
    parent_normalize_author,
    parent_normalize_pages,
    parent_normalize_year,
    parent_split_and,
    parent_tokenize_filtered,
    reference_split_top_level_and,
)

TABLE = VenueSynonymTable.default()

NORMALIZERS = {
    "author": normalize_author,
    "title": normalize_title,
    "venue": lambda v: TABLE.canonical(normalize_venue(v)),
    "doi": normalize_doi,
    "pages": normalize_pages,
    "year": normalize_year,
}

CASES = load_fixture("normalization_cases.json")["cases"]
NAME_CASES = load_fixture("author_names.json")["cases"]


def test_fixture_has_200_cases():
    assert len(CASES) == 200


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['op']}-{i}" for i, c in enumerate(CASES)]
)
def test_normalizer_idempotence(case):
    fn = NORMALIZERS[case["op"]]
    once = fn(case["input"])
    assert fn(once) == once


# -- golden values -----------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Julian J. McAuley and Jure Leskovec", "mcauley"),
        ("Vaswani, Ashish and Shazeer, Noam", "vaswani"),
        ("Sánchez, María", "sanchez"),
        ("Julian McAuley, Jure Leskovec", "mcauley"),
    ],
)
def test_normalize_author(raw, expected):
    assert normalize_author(raw) == expected


def test_braced_corporate_author_with_inner_group_matches_its_plain_form():
    # the surname ends at the brace closing the outer group, not at the first '}'
    assert normalize_author("{The {ACM} Group}") == normalize_author("{The ACM Group}") == "theacmgroup"
    assert author_lastname_list("{The {ACM} Group} and Smith, J.") == ["theacmgroup", "smith"]


def test_normalize_author_empty():
    assert normalize_author("   ") is None


@pytest.mark.parametrize("case", NAME_CASES, ids=[c["input"][:25] for c in NAME_CASES])
def test_author_lastname_list(case):
    assert author_lastname_list(case["input"]) == case["lastnames"]


def test_author_lastname_list_with_dotted_capital_i():
    # "İ".lower() is two characters long, which must not shift the separators
    assert author_lastname_list("İnan, Ali and Smith, John") == ["inan", "smith"]
    assert author_lastname_list("{İnan and Co} and Smith, John") == ["inanandco", "smith"]


AUTHOR_PIECES = st.sampled_from(["{", "}", " and ", " AND ", " And ", " an", "d ", "a", "n", " ", ","])


@settings(max_examples=1000)
@given(
    st.lists(AUTHOR_PIECES | st.text(max_size=3), max_size=12)
    .map("".join)
    .filter(lambda s: len(s.lower()) == len(s))
)
@example("}a and b{ and c")  # unbalanced: depth below zero
@example("a and and b")  # two separators share a space
@example("{a and b} and c")
def test_split_top_level_and_agrees_with_character_loop(value):
    assert _split_and(value) == reference_split_top_level_and(value)


@settings(max_examples=1000)
@given(
    st.lists(AUTHOR_PIECES | st.sampled_from(["{{", "}}", "\u0130", "\u3000"]) | st.text(max_size=3), max_size=12)
    .map("".join)
)
@example("A} and {B and C")  # below depth 0 until the '{', then an " and " at depth 0
@example("}} and {x{ and y")  # two below, back to 0 only at the second '{'
@example("{A and B")  # an unclosed group hides every later " and "
@example("A } and B")  # never back to depth 0
def test_split_and_agrees_with_parent_brace_scan(value):
    assert _split_and(value) == parent_split_and(value)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("{Learning} to {Discover} Social Circles", "learning to discover social circles"),
        ("Attention {I}s {A}ll {Y}ou {N}eed", "attention is all you need"),
        ("\\textit{Deep} Learning", "deep learning"),
    ],
)
def test_normalize_title(raw, expected):
    assert normalize_title(raw) == expected


def test_normalize_venue_synonym_hit():
    assert TABLE.canonical(normalize_venue("Proc. NeurIPS")) == (
        "advances in neural information processing systems"
    )


def test_normalize_venue_canonical_self_map():
    assert TABLE.canonical(normalize_venue("Advances in Neural Information Processing Systems")) == (
        "advances in neural information processing systems"
    )


def test_normalize_venue_miss_folds_input():
    assert TABLE.canonical(normalize_venue("BMJ: British Medical Journal")) == (
        "bmj: british medical journal"
    )


def test_venue_table_every_canonical_maps_to_itself():
    canonicals = set(TABLE._canonical_of.values())
    for canonical in canonicals:
        assert TABLE.canonical(normalize_venue(canonical)) == canonical


def test_venue_table_variant_uniqueness_enforced(tmp_path):
    path = tmp_path / "venues.tsv"
    path.write_text("Journal A\tJA\nJournal B\tJA\n", "utf-8")
    with pytest.raises(ValueError, match="already maps to"):
        VenueSynonymTable.from_file(path)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("https://doi.org/10.1038/s41586-020-1234-5", "10.1038/s41586-020-1234-5"),
        ("10.48550/arXiv.2510.16227", "10.48550/arxiv.2510.16227"),
        ("https://doi.org/10.1162/TACL.a.611", "10.1162/tacl.a.611"),
        ("doi:10.1000/X", "10.1000/x"),
        ("https://dx.doi.org/doi:10.1/a", "10.1/a"),
    ],
)
def test_normalize_doi(raw, expected):
    assert normalize_doi(raw) == expected


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("539-547", "539--547"),
        ("548 – 556", "548--556"),
        ("426", "426"),
        ("426--426", "426"),
        ("378—384", "378--384"),
    ],
)
def test_normalize_pages(raw, expected):
    assert normalize_pages(raw) == expected


@pytest.mark.parametrize("raw", ["", "a b c", "--", "1--2--3"])
def test_normalize_pages_malformed(raw):
    assert normalize_pages(raw) is None


@pytest.mark.parametrize("raw,expected", [("2012", "2012"), (" 2016 ", "2016")])
def test_normalize_year(raw, expected):
    assert normalize_year(raw) == expected


@pytest.mark.parametrize("raw", ["16", "20123", "MMXII", ""])
def test_normalize_year_malformed(raw):
    assert normalize_year(raw) is None


def test_stopword_list_is_30_words():
    assert len(STOPWORDS) == 30


def test_tokenize_filtered():
    assert tokenize_filtered("Learning to Discover Social Circles in Ego Networks") == (
        frozenset({"learning", "discover", "social", "circles", "ego", "networks"})
    )
    assert tokenize_filtered("") == frozenset()
    assert tokenize_filtered("A B C") == frozenset()


def test_fold_diacritics():
    assert fold_diacritics("Sánchez") == "Sanchez"
    assert fold_diacritics("Müller") == "Muller"


# any character, lone surrogates, combining marks and letters that decompose
FOLDABLE = st.text(
    st.characters()
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.characters(min_codepoint=0x0300, max_codepoint=0x036F)
    | st.sampled_from("ÀéîõüÇñØßæﬁ①Å㎏ǅ"),
    max_size=12,
)


@settings(max_examples=300)
@given(FOLDABLE)
@example("\ud800e\u0301\udfff")
@example("Ǆ\u00a0ﬃ")
def test_fold_diacritics_agrees_with_parent(value):
    assert fold_diacritics(value) == parent_fold_diacritics(value)


@pytest.mark.parametrize(
    "normalizer,raw,absent",
    [
        (normalize_author, "{}", None),
        (author_lastname_list, "{} and {}", []),
        (normalize_pages, "a b--c d", None),
    ],
    ids=["normalize_author", "author_lastname_list", "normalize_pages"],
)
def test_normalizer_no_normal_form_branches(normalizer, raw, absent):
    assert normalizer(raw) == absent


#: Each normalizer, its parent that raised for a value with no normal form,
#: and what it returns for such a value now.
NO_NORMAL_FORM = [
    (normalize_author, parent_normalize_author, None),
    (author_lastname_list, parent_author_lastname_list, []),
    (normalize_pages, parent_normalize_pages, None),
    (normalize_year, parent_normalize_year, None),
]


def _examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test

    return decorate


@settings(max_examples=500)
@given(st.text(max_size=20) | st.text(alphabet=" -\u2013\u2014,{}.:a1", max_size=12))
@_examples([c["input"] for c in CASES] + [c["input"] for c in NAME_CASES] + ["et al.", "{}, et al"])
def test_no_normal_form_is_none_exactly_where_the_parent_raised(value):
    for normalizer, parent, absent in NO_NORMAL_FORM:
        try:
            expected = parent(value)
        except (EmptyAuthor, MalformedPages, MalformedYear):
            expected = absent
        else:
            assert expected != absent  # so ``absent`` marks exactly the values the parent raised for
        assert normalizer(value) == expected, normalizer.__name__


def test_venue_file_skips_comment_lines(tmp_path):
    path = tmp_path / "venues.tsv"
    path.write_text("# Comment Venue\tCV\nAlpha Conference\tAC\n", "utf-8")
    table = VenueSynonymTable.from_file(path)
    assert table.canonical(normalize_venue("AC")) == "alpha conference"
    assert table.canonical(normalize_venue("CV")) == "cv"
    assert set(table._canonical_of.values()) == {"alpha conference"}


def test_venue_file_byte_order_mark_is_not_data(tmp_path):
    text = "NeurIPS\tNIPS|Neural Information Processing Systems\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, "utf-8")
    marked.write_text(text, "utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    tables = [VenueSynonymTable.from_file(path) for path in (plain, marked)]
    for name in ("NeurIPS", "NIPS", "Neural Information Processing Systems"):
        assert [table.canonical(normalize_venue(name)) for table in tables] == ["neurips", "neurips"]


@pytest.mark.parametrize("char", ["\u2028", "\x85"])
def test_venue_file_line_holding_a_unicode_line_break_is_one_line(tmp_path, char):
    path = tmp_path / "venues.tsv"
    path.write_bytes(f"Alpha{char}Conference\tAC|Alpha Conf\r\n".encode())
    table = VenueSynonymTable.from_file(path)
    assert table.canonical(normalize_venue("Alpha Conf")) == "alpha conference"
    assert table.canonical(normalize_venue("AC")) == "alpha conference"


# -- jaccard properties ------------------------------------------------------


def test_jaccard_golden():
    assert jaccard(frozenset({"x1", "y2"}), frozenset({"x1", "y2"})) == 1.0
    assert jaccard(frozenset({"x1"}), frozenset({"y2"})) == 0.0
    assert jaccard(frozenset({"a1", "b2"}), frozenset({"b2", "c3", "d4"})) == 0.25
    assert jaccard(frozenset(), frozenset()) == 1.0


#: Tokens of 1-4 characters, letters only (pairs often share tokens) or letters and digits.
_token = st.text(alphabet="abcdefgh", min_size=1, max_size=4) | st.text(
    alphabet="abcdefgh0123456789", min_size=1, max_size=4
)
_token_set = st.frozensets(_token, max_size=8)


@settings(max_examples=1000, deadline=None)
@given(_token_set, _token_set)
def test_jaccard_against_brute_force(a, b):
    value = jaccard(a, b)
    assert value == brute_jaccard(a, b)
    assert value == jaccard(b, a)
    assert 0.0 <= value <= 1.0
    assert (value == 1.0) == (a == b)


@given(st.text(max_size=60))
def test_tokenize_invariants(text):
    tokens = tokenize_filtered(text)
    for t in tokens:
        assert len(t) > 1
        assert t not in STOPWORDS
        assert re.fullmatch(r"[a-z0-9]+", t)
    assert tokenize_filtered(" ".join(sorted(tokens))) == tokens


# digits, 1-char tokens, stopwords, upper case, and U+212A (Kelvin), which lowercases to an ASCII k
_TOKEN_PIECES = [*"abkxyzAKXYZ0189 -.\u212a\u00e9", "the", "of", "and", "The", "OF", "ab", "K1"]
_TOKEN_TEXT = st.lists(st.sampled_from(_TOKEN_PIECES), max_size=20).map("".join) | st.text(max_size=40)


@settings(max_examples=500)
@given(_TOKEN_TEXT)
@example("A Study of the K-Means and 3 Other Methods in 2 Parts")  # stopwords, 1-char letters and digits
@example("\u212a means")  # the Kelvin sign lowercases to an ASCII k
@example("x1 y 7 42 a I")
def test_tokenize_filtered_agrees_with_parent(text):
    assert tokenize_filtered(text) == parent_tokenize_filtered(text)


@given(st.text(max_size=60))
def test_normalize_doi_properties(value):
    once = normalize_doi(value)
    assert normalize_doi(once) == once
    assert "://" not in once or "doi.org" not in once.lower()


_page_part = st.from_regex(r"[A-Za-z0-9_.:]{1,6}", fullmatch=True)


@given(_page_part, _page_part, st.sampled_from(["-", "--", "–", "—", " - "]))
def test_normalize_pages_shape(start, end, sep):
    out = normalize_pages(f"{start}{sep}{end}")
    assert re.fullmatch(r"[A-Za-z0-9_.:]+(--[A-Za-z0-9_.:]+)?", out)
    assert normalize_pages(out) == out
