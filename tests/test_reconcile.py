import pytest
from hypothesis import given, strategies as st

from bibkit import reconcile as reconcile_module
from bibkit.model import BibEntry, FieldSlot, parse_entry, serialize_entry, slot_of
from bibkit.reconcile import (
    PaperMeta,
    RECONCILE_GATE_THRESHOLD,
    build_query,
    merge_fields,
    reconcile,
    title_gate,
)
from bibkit.resolve import ResolutionResult

from conftest import load_fixture
from reference_impls import reference_merge

PAIRS = load_fixture("reconcile_pairs.json")["pairs"]


def make_meta(doc) -> PaperMeta:
    return PaperMeta(
        doc["paper_id"],
        url=doc["meta"]["url"],
        doi=doc["meta"]["doi"],
        title=doc["meta"]["title"],
    )


def make_resolver(pair):
    calls = []

    def resolver(query: str) -> ResolutionResult:
        calls.append(query)
        resolution = pair["resolution"]
        assert resolution is not None, "resolver called for a no-query pair"
        assert query == pair["expect_query"]
        bibtex = resolution.get("bibtex")
        return ResolutionResult(
            status=resolution["status"],
            bibtex=parse_entry(bibtex) if bibtex else None,
        )

    return resolver, calls


def test_fixture_has_20_pairs():
    assert len(PAIRS) == 20


@pytest.mark.parametrize("pair", PAIRS, ids=[p["id"] for p in PAIRS])
def test_reconcile_pair(pair):
    meta = make_meta(pair)
    baseline = parse_entry(pair["baseline"])
    resolver, calls = make_resolver(pair)
    outcome = reconcile(meta, baseline, resolver)
    expect = pair["expect"]

    assert outcome.action == expect["action"]
    if "gate_score" in expect:
        if expect["gate_score"] is None:
            assert outcome.gate_score is None
        else:
            assert outcome.gate_score == pytest.approx(expect["gate_score"])

    if outcome.action != "merged":
        # strict no-op: byte-identical serialization, same field order
        assert outcome.result == baseline
        assert serialize_entry(outcome.result) == serialize_entry(baseline)
        assert outcome.replaced_slots == frozenset()
        if pair["expect_query"] is None:
            assert calls == []
        return

    authoritative = parse_entry(pair["resolution"]["bibtex"])
    # replaced/retained slot equations
    for slot in FieldSlot:
        if slot is FieldSlot.ENTRY_KEY:
            assert outcome.result.citation_key == baseline.citation_key
            continue
        if slot in outcome.replaced_slots:
            assert slot_of(outcome.result, slot) == slot_of(authoritative, slot), slot
        else:
            assert slot_of(outcome.result, slot) == slot_of(baseline, slot), slot
    # explicit retained expectations from the fixture
    for name, value in expect.get("retained", {}).items():
        assert outcome.result.get(name) == value
    # non-standard baseline fields always survive
    standard = {"author", "title", "year", "volume", "number", "pages", "doi", "journal", "booktitle"}
    for name, value in baseline.fields.items():
        if name not in standard:
            assert outcome.result.get(name) == value


@pytest.mark.parametrize(
    "pair", [p for p in PAIRS if p["expect"]["action"] == "merged"], ids=lambda p: p["id"]
)
def test_reconcile_idempotent(pair):
    meta = make_meta(pair)
    baseline = parse_entry(pair["baseline"])
    resolver, _ = make_resolver(pair)
    once = reconcile(meta, baseline, resolver)
    resolver2, _ = make_resolver(pair)
    twice = reconcile(meta, once.result, resolver2)
    assert twice.result == once.result
    assert serialize_entry(twice.result) == serialize_entry(once.result)


# -- build_query ----------------------------------------------------------------


def test_build_query_priority():
    assert build_query(PaperMeta("p", url="U", doi="D", title="T")) == "U"
    assert build_query(PaperMeta("p", url=None, doi="D", title="T")) == "D"
    assert build_query(PaperMeta("p", url="  ", doi=None, title="T")) == "T"
    assert build_query(PaperMeta("p")) is None


@pytest.mark.parametrize("title", ["", "   "])
def test_blank_meta_title_reads_as_absent(title):
    """A blank title is no query and no gate input: the DOI's record merges unchecked."""
    baseline = parse_entry("@article{mine, title={Some Working Title}, year={2015}}")
    found = ResolutionResult(status="found", bibtex=parse_entry("@article{a, title={Relapse Sites}, doi={10.1000/x}}"))
    assert build_query(PaperMeta("p", title=title)) is None
    blank = reconcile(PaperMeta("p", doi="10.1000/x", title=title), baseline, lambda q: found)
    absent = reconcile(PaperMeta("p", doi="10.1000/x"), baseline, lambda q: found)
    assert (blank.action, blank.gate_score) == ("merged", None)
    assert blank == absent


# -- title gate -----------------------------------------------------------------


def test_title_gate_identical():
    passed, score = title_gate("Same Title Here", "same title here")
    assert passed and score == 1.0


def test_title_gate_disjoint():
    passed, score = title_gate("underwater acoustics", "volcanic plumes")
    assert not passed and score == 0.0


def test_title_gate_boundary_inclusive():
    # 3 shared tokens of 10 distinct -> exactly 0.3, which must pass
    passed, score = title_gate(
        "red orange yellow green blue violet",
        "red orange yellow cyan magenta umber teal",
    )
    assert score == pytest.approx(RECONCILE_GATE_THRESHOLD)
    assert passed


def test_title_gate_just_below_boundary_fails():
    # 3 shared tokens of 11 distinct -> 0.2727... < 0.3
    passed, score = title_gate(
        "red orange yellow green blue violet",
        "red orange yellow cyan magenta umber teal slate",
    )
    assert score < RECONCILE_GATE_THRESHOLD
    assert not passed


# -- merge_fields ----------------------------------------------------------------


def test_merge_pages_database_wins():
    baseline = parse_entry("@inproceedings{b, title={T}, pages={539--547}}")
    authoritative = parse_entry("@inproceedings{a, title={T}, pages={548--556}}")
    merged, replaced = merge_fields(baseline, authoritative)
    assert merged.get("pages") == "548--556"
    assert FieldSlot.PAGES in replaced


def test_merge_keeps_baseline_value_when_authoritative_silent():
    baseline = parse_entry("@article{b, title={T}, doi={10.1/keep}}")
    authoritative = parse_entry("@article{a, title={T}}")
    merged, replaced = merge_fields(baseline, authoritative)
    assert merged.get("doi") == "10.1/keep"
    assert FieldSlot.DOI not in replaced


def test_merge_is_idempotent_on_equal_entries():
    baseline = parse_entry("@article{b, title={T}, journal={J}, year={2019}}")
    merged, _ = merge_fields(baseline, baseline)
    assert merged.fields == baseline.fields
    assert merged.entry_type == baseline.entry_type


def test_merge_keeps_baseline_citation_key():
    baseline = parse_entry("@article{mykey, title={T}}")
    authoritative = parse_entry("@article{theirkey, title={T2}}")
    merged, _ = merge_fields(baseline, authoritative)
    assert merged.citation_key == "mykey"


def test_merge_venue_field_name_follows_authoritative():
    baseline = parse_entry("@inproceedings{b, title={T}, booktitle={Old Proc}}")
    authoritative = parse_entry("@article{a, title={T}, journal={New Journal}}")
    merged, replaced = merge_fields(baseline, authoritative)
    assert merged.get("journal") == "New Journal"
    assert merged.get("booktitle") is None
    assert FieldSlot.VENUE in replaced
    assert merged.entry_type == "article"


_FIELD_NAMES = [
    "author", "title", "year", "journal", "booktitle", "volume", "number", "pages", "doi",
    "note", "publisher", "venue", "url",
]
_FIELDS = st.dictionaries(
    st.sampled_from(_FIELD_NAMES), st.sampled_from(["", "A", "B", "Some Title"]), max_size=10
)


@given(
    base_type=st.sampled_from(["article", "inproceedings", "misc"]),
    base_fields=_FIELDS,
    auth_type=st.sampled_from(["", "article", "inproceedings"]),
    auth_fields=_FIELDS,
)
def test_merge_fields_matches_reference(base_type, base_fields, auth_type, auth_fields):
    merged, replaced = merge_fields(
        BibEntry(base_type, "mine", dict(base_fields)), BibEntry(auth_type, "theirs", dict(auth_fields))
    )
    entry_type, fields, replaced_names = reference_merge(base_type, base_fields, auth_type, auth_fields)
    assert merged.entry_type == entry_type
    assert merged.citation_key == "mine"
    assert list(merged.fields.items()) == list(fields.items())
    assert {slot.value for slot in replaced} == replaced_names


def test_merge_places_venue_at_first_baseline_venue_field():
    baseline = parse_entry(
        "@inproceedings{b, booktitle={Old Proc}, title={T}, journal={Old J}, note={n}}"
    )
    authoritative = parse_entry("@article{a, journal={New J}, title={T2}, doi={10.1/x}}")
    merged, replaced = merge_fields(baseline, authoritative)
    assert list(merged.fields.items()) == [
        ("journal", "New J"), ("title", "T2"), ("note", "n"), ("doi", "10.1/x"),
    ]
    assert replaced == {FieldSlot.VENUE, FieldSlot.TITLE, FieldSlot.DOI, FieldSlot.ENTRY_TYPE}


def test_merge_upstream_error_never_modifies_baseline():
    baseline = parse_entry("@article{b, title={T}}")

    def failing_resolver(query):
        raise RuntimeError("network down")

    with pytest.raises(RuntimeError):
        reconcile(PaperMeta("p", title="T"), baseline, failing_resolver)
    assert baseline == parse_entry("@article{b, title={T}}")


def test_shared_result_is_not_mutated_by_merges():
    shared = ResolutionResult(
        status="found",
        bibtex=parse_entry(
            "@inproceedings{auth, author={Doe, John}, title={Shared Title}, "
            "booktitle={Proc. of Examples}, year={2020}, pages={1--9}}"
        ),
        candidates=[("Shared Title", 1.0)],
    )
    before = serialize_entry(shared.bibtex)
    baselines = [
        parse_entry("@article{one, title={Shared Title}, journal={J}, pages={3}, note={n}}"),
        parse_entry("@misc{two, author={Roe, R}, title={Shared title}, howpublished={web}}"),
    ]
    for baseline in baselines:
        outcome = reconcile(PaperMeta("p", doi="10.1000/x"), baseline, lambda q: shared)
        assert outcome.action == "merged"
        assert outcome.result.fields is not shared.bibtex.fields
    assert serialize_entry(shared.bibtex) == before
    assert shared.candidates == [("Shared Title", 1.0)]


# -- one run's lookup memo ------------------------------------------------------


AUTH_TITLE = "Deep Residual Learning for Image Recognition"


def counting_resolver(result: ResolutionResult):
    calls = []

    def resolver(query: str) -> ResolutionResult:
        calls.append(query)
        return result

    return resolver, calls


def found(title: str) -> ResolutionResult:
    entry = parse_entry(f"@article{{auth, title={{{title}}}, year={{2016}}}}")
    return ResolutionResult("found", bibtex=entry)


def test_memo_gates_each_meta_title_of_one_doi_query():
    resolver, calls = counting_resolver(found(AUTH_TITLE))
    baseline = parse_entry("@article{b, title={Working title}}")
    doi = "10.1109/cvpr.2016.90"
    metas = [
        PaperMeta("p1", doi=doi, title=AUTH_TITLE),
        PaperMeta("p2", doi=doi, title="Volcanic plume dispersal"),
        PaperMeta("p3", doi=doi, title="Residual learning of deep image models"),
        PaperMeta("p4", doi=doi, title="Volcanic plume dispersal"),
    ]
    memo = {}
    outcomes = [reconcile(meta, baseline, resolver, memo) for meta in metas]
    assert calls == [doi]
    mismatch = "kept_baseline_title_mismatch"
    assert [o.action for o in outcomes] == ["merged", mismatch, "merged", mismatch]
    assert [o.gate_score for o in outcomes] == [1.0, 0.0, title_gate(metas[2].title, AUTH_TITLE)[1], 0.0]
    assert outcomes == [reconcile(meta, baseline, resolver) for meta in metas]  # as without the memo


def test_memo_gates_a_title_query_against_the_query_once(monkeypatch):
    gated = []
    real_gate = reconcile_module.title_gate
    monkeypatch.setattr(reconcile_module, "title_gate", lambda *args: gated.append(args) or real_gate(*args))
    query = "Deep residual learning"
    resolver, calls = counting_resolver(found(AUTH_TITLE))
    memo = {}
    metas = [PaperMeta(f"p{i}", title=f"{space}{query} ") for i, space in enumerate(["", " ", "\t"])]
    baseline = parse_entry("@misc{b, note={n}}")
    outcomes = [reconcile(meta, baseline, resolver, memo) for meta in metas]
    assert calls == [query]
    assert gated == [(query, AUTH_TITLE)]
    assert [o.gate_score for o in outcomes] == [title_gate(query, AUTH_TITLE)[1]] * 3
    assert [o.action for o in outcomes] == ["merged"] * 3


def test_memo_keeps_no_failed_lookup():
    results = [RuntimeError("network down"), ResolutionResult("not_found")]

    def resolver(query):
        result = results.pop(0)
        if isinstance(result, Exception):
            raise result
        return result

    memo, meta = {}, PaperMeta("p", doi="10.1000/x")
    baseline = parse_entry("@article{b, title={T}}")
    with pytest.raises(RuntimeError):
        reconcile(meta, baseline, resolver, memo)
    assert memo == {}
    assert reconcile(meta, baseline, resolver, memo).action == "kept_baseline_not_found"
    assert reconcile(meta, baseline, resolver, memo).action == "kept_baseline_not_found"  # kept: not asked again
    assert results == []
