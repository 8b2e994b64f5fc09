import gc
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bibkit import harness, normalize, verify
from bibkit.harness import (
    CorpusParseError,
    _field_deltas,
    _labels_rows,
    bib_pieces,
    load_corpus,
    read_labels,
    read_tsv,
    run_benchmark,
    tsv_lines,
    write_bundle,
)
from bibkit.model import ALL_SLOTS, BibEntry, FieldLabel, parse_entry, serialize_entry
from bibkit.normalize import VenueSynonymTable
from bibkit.reconcile import PaperMeta
from bibkit.resolve import ResolutionResult, UpstreamUnavailable
from bibkit.verify import verify_entry

from conftest import FIXTURES, load_fixture, rows_then_fail, slot_labels
from reference_impls import (
    parent_field_deltas,
    parent_holds_separator,
    parent_labels_rows,
    parent_load_corpus,
)

CORPUS_PATH = FIXTURES / "golden_corpus.jsonl"
GOLDEN_LABELS = {(e["paper_id"], e["tag"]): e for e in load_fixture("golden_labels.json")["entries"]}
GOLDEN_AGGREGATE = load_fixture("golden_aggregate.json")


# -- corpus loading ------------------------------------------------------------


def test_load_golden_corpus():
    records = list(load_corpus(CORPUS_PATH))
    assert len(records) == 8
    assert sum(len(r.candidates) for r in records) == 20
    ids = [r.paper_id for r in records]
    assert len(set(ids)) == 8


def write_corpus(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path


HEADER = json.dumps({"format_version": 1, "kind": "bibkit-corpus"})


def record_line(**overrides):
    doc = {
        "paper_id": "p1",
        "domain": "ai",
        "tier": "popular",
        "description": "a test paper",
        "ground_truth": {
            "versions": [
                {
                    "version_type": "journal",
                    "fields": {"entry_type": "article", "title": "T", "year": "2020"},
                }
            ]
        },
        "candidates": [{"tag": "c1", "model": "m", "bibtex": "@article{k, title={T}, year={2020}}"}],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", "utf-8")
    with pytest.raises(CorpusParseError):
        next(load_corpus(path))


def test_load_bad_header_rejected(tmp_path):
    with pytest.raises(CorpusParseError):
        next(load_corpus(write_corpus(tmp_path, ["not json", record_line()])))


@pytest.mark.parametrize("version", [99, True, 1.0])  # True == 1 == 1.0, but only the integer 1 is the version
def test_load_wrong_format_version_rejected(tmp_path, version):
    header = json.dumps({"format_version": version, "kind": "bibkit-corpus"})
    with pytest.raises(CorpusParseError, match="^line 1: unsupported corpus format version$"):
        next(load_corpus(write_corpus(tmp_path, [header, record_line()])))


def test_load_opens_the_file_at_the_first_record(tmp_path):
    records = load_corpus(tmp_path / "missing.jsonl")  # raises nothing yet
    with pytest.raises(FileNotFoundError):
        next(records)


@pytest.mark.parametrize(
    "read, lines, error",
    [
        (lambda path: list(load_corpus(path)), [HEADER, record_line(), "{broken json"], CorpusParseError),
        (lambda path: next(load_corpus(path)), ["[1]", record_line()], CorpusParseError),
        (read_tsv, ["not a header", "a\tb"], ValueError),
        (VenueSynonymTable.from_file, ["A\tx", "B\tx", "C\ty"], ValueError),
    ],
    ids=["corpus-record", "corpus-header", "tsv-header", "venue-conflict"],
)
def test_an_error_closes_the_file_at_once(tmp_path, monkeypatch, read, lines, error):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(normalize, "open", recording_open, raising=False)
    with pytest.raises(error) as raised:
        read(write_corpus(tmp_path, lines))
    assert raised.value.__traceback__ is not None  # which holds the frames of the reader
    assert [file.closed for file in opened] == [True]


def test_load_duplicate_paper_id_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(), record_line()])
    with pytest.raises(CorpusParseError, match="duplicate paper_id"):
        list(load_corpus(path))


def test_load_missing_description_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(description="  ")])
    with pytest.raises(CorpusParseError, match="description"):
        list(load_corpus(path))


def test_load_unknown_tier_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(tier="viral")])
    with pytest.raises(CorpusParseError, match="tier"):
        list(load_corpus(path))


def test_load_versionless_ground_truth_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(ground_truth={"versions": []})])
    with pytest.raises(CorpusParseError, match="version"):
        list(load_corpus(path))


def test_load_bad_candidate_bibtex_rejected(tmp_path):
    bad = [{"tag": "c1", "model": "m", "bibtex": "@article{k, title={T}"}]
    path = write_corpus(tmp_path, [HEADER, record_line(candidates=bad)])
    with pytest.raises(CorpusParseError, match="candidate"):
        list(load_corpus(path))


def test_load_permissive_skips_bad_lines(tmp_path):
    good = record_line()
    bad_json = "{truncated"
    bad_record = record_line(paper_id="p2", tier="viral")
    path = write_corpus(tmp_path, [HEADER, good, bad_json, bad_record])
    records = list(load_corpus(path, permissive=True))
    assert [r.paper_id for r in records] == ["p1"]


def test_load_header_not_an_object_rejected(tmp_path):
    with pytest.raises(CorpusParseError, match="line 1"):
        next(load_corpus(write_corpus(tmp_path, ["[1]", record_line()])))


@pytest.mark.parametrize(
    "lines, error, domain",
    [
        # a record skipped for another fault does not reserve its paper_id
        ([record_line(tier="viral"), record_line(domain="later")], "line 2: unknown tier 'viral'", "later"),
        # a repeat of a loaded paper_id is skipped
        ([record_line(), record_line(domain="repeat")], "line 3: duplicate paper_id 'p1'", "ai"),
    ],
)
def test_load_permissive_reserves_only_loaded_paper_ids(tmp_path, lines, error, domain):
    path = write_corpus(tmp_path, [HEADER] + lines)
    with pytest.raises(CorpusParseError, match=f"^{re.escape(error)}$"):
        list(load_corpus(path))
    assert [(r.paper_id, r.domain) for r in load_corpus(path, permissive=True)] == [("p1", domain)]


#: Two versions: the first carries no DOI, the second a different title.
GT_VERSIONS = [
    {"version_type": "arxiv", "fields": {"entry_type": "misc", "title": "First"}},
    {"version_type": "journal", "fields": {"title": "Second", "doi": "10.1/second"}},
]


def _ground_truth(**overrides):
    gt = {"versions": [{"version_type": "journal", "fields": {"title": "T"}}]}
    gt.update(overrides)
    return gt


@pytest.mark.parametrize(
    "line",
    [
        pytest.param("5", id="record-number"),
        pytest.param("[1]", id="record-list"),
        pytest.param(record_line(paper_id=5), id="paper_id"),
        pytest.param(record_line(description=5), id="description"),
        pytest.param(record_line(tier=["popular"]), id="tier"),
        pytest.param(record_line(domain=5), id="domain"),
        pytest.param(record_line(ground_truth=[1]), id="ground_truth"),
        pytest.param(record_line(ground_truth=_ground_truth(versions=["x"])), id="version"),
        pytest.param(
            record_line(ground_truth=_ground_truth(versions=[{"version_type": "journal", "fields": 5}])),
            id="version-fields",
        ),
        pytest.param(
            record_line(ground_truth=_ground_truth(versions=[{"version_type": 5, "fields": {}}])),
            id="version-type",
        ),
        pytest.param(
            record_line(ground_truth=_ground_truth(versions=[{"fields": {"title": 5}}])),
            id="version-field-value",
        ),
        pytest.param(record_line(ground_truth=_ground_truth(known_aliases=["x"])), id="alias"),
        pytest.param(record_line(ground_truth=_ground_truth(known_aliases=[{"title": None}])), id="alias-value"),
        pytest.param(record_line(candidates=["x"]), id="candidate"),
        pytest.param(record_line(candidates=[{"tag": "c1", "bibtex": 5}]), id="candidate-bibtex"),
        pytest.param(record_line(candidates=[{"tag": 5, "bibtex": "@article{k, title={T}}"}]), id="candidate-tag"),
        pytest.param(record_line(meta=None), id="meta"),
        pytest.param(record_line(meta={"url": 5}), id="meta-url"),
    ],
)
def test_load_value_of_wrong_type_rejected(tmp_path, line):
    with pytest.raises(CorpusParseError, match="line 2"):
        list(load_corpus(write_corpus(tmp_path, [HEADER, line])))
    path = write_corpus(tmp_path, [HEADER, line, record_line(paper_id="ok")])
    assert [r.paper_id for r in load_corpus(path, permissive=True)] == ["ok"]


def _record_line_without(key: str) -> str:
    doc = json.loads(record_line())
    del doc[key]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "line, error",
    [
        pytest.param(_record_line_without("paper_id"), "missing paper_id", id="absent"),
        pytest.param(record_line(paper_id=""), "missing paper_id", id="empty"),
        pytest.param(record_line(paper_id=None), "missing paper_id", id="null"),
        pytest.param(record_line(paper_id=7), "paper_id: unexpected int value", id="int"),
    ],
)
def test_load_record_without_a_usable_paper_id_rejected(tmp_path, line, error):
    with pytest.raises(CorpusParseError, match=f"^line 2: {error}$"):
        list(load_corpus(write_corpus(tmp_path, [HEADER, line])))


def test_load_skips_blank_lines(tmp_path):
    path = write_corpus(tmp_path, [HEADER, "", record_line(), ""])
    assert len(list(load_corpus(path))) == 1


def test_load_repeated_candidate_tag_rejected(tmp_path):
    bibtex = "@article{k, title={T}}"
    untagged = record_line(candidates=[{"bibtex": bibtex}, {"bibtex": bibtex}])
    shared = record_line(paper_id="p2", candidates=[{"tag": "c1", "bibtex": bibtex}] * 2)
    for line, tag in ((untagged, "candidate"), (shared, "c1")):
        with pytest.raises(CorpusParseError, match=f"line 2: duplicate candidate tag '{tag}'"):
            list(load_corpus(write_corpus(tmp_path, [HEADER, line])))
    path = write_corpus(tmp_path, [HEADER, untagged, shared, record_line(paper_id="ok")])
    assert [r.paper_id for r in load_corpus(path, permissive=True)] == ["ok"]


@given(st.text(alphabet="\t\r\n\x0b\x0c\x1c\x85\u2028 a", max_size=6) | st.text(max_size=6))
@example("")
@example("\u2028")  # a Unicode line break, which splits no TSV row
@example("a\r\nb")
def test_holds_separator_agrees_with_parent(value):
    assert harness._holds_separator(value) == parent_holds_separator(value)


@pytest.mark.parametrize("char", ["\t", "\r", "\n"])
@pytest.mark.parametrize("field", ["paper_id", "tag"])
def test_load_separator_in_an_id_rejected(tmp_path, field, char):
    """An id is a field of its labels.tsv row, so it cannot hold a tab or line break."""
    value = f"a{char}b"
    if field == "paper_id":
        line = record_line(paper_id=value)
    else:
        line = record_line(candidates=[{"tag": value, "model": "m", "bibtex": "@article{k, title={T}}"}])
    with pytest.raises(CorpusParseError, match=f"line 2: .*{re.escape(repr(value))} holds a tab or line break"):
        list(load_corpus(write_corpus(tmp_path, [HEADER, line])))
    path = write_corpus(tmp_path, [HEADER, line, record_line(paper_id="ok")])
    assert [r.paper_id for r in load_corpus(path, permissive=True)] == ["ok"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("char", ["\u2028", "\u0085"])
def test_load_splits_only_at_newlines(tmp_path, char, newline):
    """A raw U+2028 or U+0085 in a JSON string reads as its escape does."""
    doc = json.loads(record_line(paper_id=f"p{char}1", description=f"a{char}b"))
    doc["ground_truth"]["versions"][0]["fields"]["title"] = f"Ti{char}tle"
    doc["candidates"][0]["bibtex"] = f"@article{{k, title={{Ti{char}tle}}, year={{2021}}}}"
    escaped, raw = tmp_path / "escaped.jsonl", tmp_path / "raw.jsonl"
    escaped.write_text(f"{HEADER}\n{json.dumps(doc)}\n", "utf-8")
    raw.write_bytes(f"{HEADER}{newline}{json.dumps(doc, ensure_ascii=False)}{newline}".encode())
    assert char in raw.read_text("utf-8")
    labels = [run_benchmark(load_corpus(path))["labels"] for path in (escaped, raw)]
    assert labels[0] == labels[1]
    assert {row[0] for row in labels[1]} == {f"p{char}1"}


def corpus_line(paper_id, text, tier="popular"):
    """A record whose description and title hold ``text``, written as raw UTF-8."""
    doc = json.loads(record_line(paper_id=paper_id, tier=tier, description=f"d{text}"))
    doc["ground_truth"]["versions"][0]["fields"]["title"] = f"T{text}"
    return json.dumps(doc, ensure_ascii=False)


#: Corpus lines: blank, bad JSON (one ends where its error is), a record of
#: an unknown tier, and records whose strings hold Unicode line breaks, with
#: paper_ids that repeat.
CORPUS_LINES = st.one_of(
    st.sampled_from(["", "  ", "\t", "{bad json", '{"paper_id": ']),
    st.builds(
        corpus_line, st.sampled_from(["p1", "p2", "p3"]), st.sampled_from(["", "\u2028", "\u0085", "a\u2028b"])
    ),
    st.builds(corpus_line, st.sampled_from(["p1", "p4"]), st.just(""), st.just("viral")),
)
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r"])


@given(
    bom=st.booleans(),
    header=st.sampled_from([HEADER] * 4 + ["", '{"format_version": ']),
    lines=st.lists(st.tuples(LINE_BREAKS, CORPUS_LINES), max_size=6),
    tail=st.sampled_from(["", "\n", "\r", "\n\n", "\r\n \r\n"]),
    permissive=st.booleans(),
)
@example(bom=True, header="", lines=[], tail="", permissive=False)  # a BOM alone is an empty file
def test_load_corpus_agrees_with_the_list_based_loader(bom, header, lines, tail, permissive):
    text = ("\ufeff" if bom else "") + header + "".join(end + line for end, line in lines) + tail

    def outcome(load, path):
        try:
            return list(load(path, permissive=permissive))
        except CorpusParseError as exc:
            return f"CorpusParseError: {exc}"

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_corpus, path) == outcome(parent_load_corpus, path)


# -- reconcile metadata -------------------------------------------------------------


def load_one(tmp_path, **overrides):
    (record,) = load_corpus(write_corpus(tmp_path, [HEADER, record_line(**overrides)]))
    return record


def test_load_meta_passes_through_explicit_meta(tmp_path):
    record = load_one(tmp_path, meta={"title": "Given"}, ground_truth=_ground_truth(versions=GT_VERSIONS))
    assert record.meta == PaperMeta("p1", title="Given")


def test_load_meta_falls_back_to_first_ground_truth_doi_and_title(tmp_path):
    record = load_one(tmp_path, ground_truth=_ground_truth(versions=GT_VERSIONS))
    assert record.meta == PaperMeta("p1", url=None, doi="10.1/second", title="First")


def test_load_meta_handles_missing_slots(tmp_path):
    versions = [{"version_type": "journal", "fields": {"entry_type": "misc", "author": "A"}}]
    record = load_one(tmp_path, ground_truth=_ground_truth(versions=versions))
    assert record.meta == PaperMeta("p1")


@pytest.mark.parametrize("title", ["", "   "])
def test_blank_meta_title_merges_like_a_missing_one(tmp_path, title):
    found = ResolutionResult("found", bibtex=parse_entry("@article{a, title={Relapse Sites}, doi={10.1000/x}}"))
    actions = [
        run_benchmark([load_one(tmp_path, meta=meta)], lambda q: found)["actions"]
        for meta in ({"doi": "10.1000/x", "title": title}, {"doi": "10.1000/x"})
    ]
    assert [row[2] for row in actions[0]] == ["merged"]
    assert actions[0] == actions[1]


@pytest.mark.parametrize(
    "gt_extra,extra",
    [
        pytest.param({"canonical": {"doi": {}}}, {}, id="canonical-no-value"),
        pytest.param({"canonical": {"doi": "10.1/x"}}, {}, id="canonical-entry"),
        pytest.param({"canonical": {"doi": {"value": "10.1/c", "source": "s"}}}, {}, id="canonical-doi"),
        pytest.param({}, {"locations": [{"url": 5, "source_type": "journal"}]}, id="location-url"),
        pytest.param({}, {"locations": [{"url": "https://doi.org/10.1/c", "source_type": "journal"}]}, id="location"),
    ],
)
def test_load_ignores_locations_and_canonical(tmp_path, gt_extra, extra):
    """Keys the loader does not read, of any shape, change neither meta nor labels."""
    gt = _ground_truth(versions=GT_VERSIONS)
    plain = load_one(tmp_path, ground_truth=gt)
    record = load_one(tmp_path, ground_truth={**gt, **gt_extra}, **extra)
    assert record.meta == plain.meta
    assert run_benchmark([record])["labels"] == run_benchmark([plain])["labels"]


# -- verify-mode benchmark vs hand labels ------------------------------------------


def labels_by_entry(bundle):
    out = {}
    for paper_id, tag, slot, label, stage in bundle["labels"]:
        entry = out.setdefault((paper_id, tag), {"labels": {}, "stage2": set()})
        entry["labels"][slot] = label
        if stage == "2":
            entry["stage2"].add(slot)
    return out


def test_golden_corpus_labels_match_hand_labels():
    bundle = run_benchmark(load_corpus(CORPUS_PATH))
    got = labels_by_entry(bundle)
    assert set(got) == set(GOLDEN_LABELS)
    for key, expected in GOLDEN_LABELS.items():
        assert got[key]["labels"] == expected["labels"], key
        assert sorted(got[key]["stage2"]) == expected["stage2_slots"], key


def test_golden_corpus_error_modes_match_hand_labels():
    records = {r.paper_id: r for r in load_corpus(CORPUS_PATH)}
    for (paper_id, tag), expected in GOLDEN_LABELS.items():
        record = records[paper_id]
        entry = next(e for t, _, e in record.candidates if t == tag)
        vector = verify_entry(entry, record.ground_truth, VenueSynonymTable.default())
        assert verify.classify_error_mode(vector) == expected["error_mode"], (paper_id, tag)


def test_golden_corpus_aggregate_matches_hand_tally():
    bundle = run_benchmark(load_corpus(CORPUS_PATH))
    assert bundle["aggregate"] == GOLDEN_AGGREGATE["aggregate"]
    assert bundle["error_modes"] == GOLDEN_AGGREGATE["error_modes"]
    assert bundle["incomplete"] == []


def test_empty_corpus_benchmark():
    bundle = run_benchmark([])
    assert bundle["aggregate"]["entries"] == 0
    assert bundle["labels"] == []
    assert bundle["co_error"] == {}


# -- reconcile-then-verify with perfect authoritative records -----------------------

_VERSION_RANK = {"journal": 0, "proceedings": 1, "arxiv": 2}


def authoritative_entry(record) -> BibEntry:
    version = min(record.ground_truth.versions, key=lambda v: _VERSION_RANK[v.version_type])
    fields = {}
    entry_type = version.fields.get("entry_type", "misc")
    venue_field = "journal" if entry_type in ("article", "misc") else "booktitle"
    for name, value in version.fields.items():
        if name == "entry_type":
            continue
        fields["journal" if name == "venue" else name] = value
    if "journal" in fields and venue_field != "journal":
        fields[venue_field] = fields.pop("journal")
    return BibEntry(entry_type=entry_type, citation_key="auth", fields=fields)


def perfect_resolver(corpus):
    by_title = {r.meta.title: r for r in corpus}

    def resolver(query: str) -> ResolutionResult:
        record = by_title[query]
        return ResolutionResult(status="found", bibtex=authoritative_entry(record))

    return resolver


def test_perfect_reconciliation_has_zero_regressions():
    corpus = list(load_corpus(CORPUS_PATH))
    bundle = run_benchmark(corpus, resolver=perfect_resolver(corpus))
    assert all(row[2] == "merged" for row in bundle["actions"])
    for field, delta in bundle["deltas"].items():
        assert delta["regressions"] == 0, field
    # with a perfect source every evaluable field ends up correct
    assert bundle["aggregate"]["overall"]["correct"] == bundle["aggregate"]["overall"]["evaluable"]
    assert bundle["aggregate_before"]["overall"] == GOLDEN_AGGREGATE["aggregate"]["overall"]


def test_delta_accounting_invariant():
    corpus = list(load_corpus(CORPUS_PATH))
    bundle = run_benchmark(corpus, resolver=perfect_resolver(corpus))
    for field, delta in bundle["deltas"].items():
        assert (
            delta["corrections"] - delta["regressions"] == delta["after_c"] - delta["before_c"]
        ), field


_LABELS = st.fixed_dictionaries({slot: st.sampled_from(list(FieldLabel)) for slot in ALL_SLOTS})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_LABELS, _LABELS), max_size=12), st.integers(0, 12), st.randoms(use_true_random=False))
@example([], 0, random.Random(0))
@example([({slot: FieldLabel.X for slot in ALL_SLOTS}, {slot: FieldLabel.C for slot in ALL_SLOTS})], 1, random.Random(0))
def test_counted_deltas_equal_the_parent_over_shuffled_pairs(pairs, repeats, rnd):
    """Counting each distinct (vector before, vector after) once, weighted, gives the aligned walk's deltas."""
    pairs = pairs + pairs[:repeats]  # repeated pairs of vectors
    rnd.shuffle(pairs)
    before, after = [b for b, _ in pairs], [a for _, a in pairs]
    counted = Counter((tuple(map(b.__getitem__, ALL_SLOTS)), tuple(map(a.__getitem__, ALL_SLOTS))) for b, a in pairs)
    assert _field_deltas(counted) == parent_field_deltas(before, after)


def test_failing_record_is_recorded_not_fatal():
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus)

    def flaky(query):
        if query == corpus[0].meta.title:
            raise RuntimeError("boom")
        return resolver(query)

    bundle = run_benchmark(sorted(corpus, key=lambda r: r.paper_id), resolver=flaky)
    failed = sorted(corpus, key=lambda r: r.paper_id)
    assert [d["paper_id"] for d in bundle["incomplete"]] == [corpus[0].paper_id]
    assert bundle["aggregate"]["entries"] == 20 - len(corpus[0].candidates)


def test_each_distinct_query_is_resolved_once():
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus)
    calls = []

    def counting(query):
        calls.append(query)
        return resolver(query)

    bundle = run_benchmark(corpus, resolver=counting)
    assert len(bundle["actions"]) == 20
    assert sorted(calls) == sorted(r.meta.title for r in corpus)  # 8 distinct queries


def test_failing_records_are_listed_in_paper_id_order_and_add_no_rows(tmp_path):
    lines = [HEADER] + [
        record_line(paper_id=p, meta={"doi": f"10.1000/{p}"}) for p in ("p1", "p2", "p3")
    ]
    corpus = list(load_corpus(write_corpus(tmp_path, lines)))

    def resolver(query):
        if query != "10.1000/p2":
            raise UpstreamUnavailable(f"no answer for {query}")
        entry = parse_entry("@article{a, title={T}, year={2020}, doi={10.1000/p2}}")
        return ResolutionResult(status="found", bibtex=entry)

    bundle = run_benchmark(corpus[::-1], resolver=resolver)
    assert bundle["incomplete"] == [
        {"paper_id": "p1", "error": "no answer for 10.1000/p1"},
        {"paper_id": "p3", "error": "no answer for 10.1000/p3"},
    ]
    for key in ("labels", "labels_before", "actions"):
        assert {row[0] for row in bundle[key]} == {"p2"}, key
    assert bundle["aggregate"]["entries"] == bundle["aggregate_before"]["entries"] == 1


def test_failed_lookup_is_not_reused(tmp_path):
    lines = [HEADER] + [record_line(paper_id=p, meta={"doi": "10.1000/shared"}) for p in ("p1", "p2")]
    corpus = list(load_corpus(write_corpus(tmp_path, lines)))
    calls = []

    def resolver(query):
        calls.append(query)
        if len(calls) == 1:
            raise UpstreamUnavailable("upstream returned 503")
        entry = parse_entry("@article{a, title={T}, year={2020}, doi={10.1000/shared}}")
        return ResolutionResult(status="found", bibtex=entry)

    bundle = run_benchmark(corpus, resolver=resolver)
    assert bundle["incomplete"] == [{"paper_id": "p1", "error": "upstream returned 503"}]
    assert [list(row[:3]) for row in bundle["actions"]] == [["p2", "c1", "merged"]]
    assert calls == ["10.1000/shared", "10.1000/shared"]


@pytest.mark.parametrize(
    "mode, fails",
    [("verify", "verify_entry"), ("reconcile_then_verify", "verify_entry"), ("reconcile_then_verify", "reconcile")],
)
def test_record_failing_at_a_later_candidate_adds_no_rows(monkeypatch, mode, fails):
    corpus = list(load_corpus(CORPUS_PATH))
    failed = next(r for r in corpus if r.paper_id == "goodfellow2014")
    assert len(failed.candidates) >= 2  # its first candidate succeeds
    second = failed.candidates[1][2]
    resolver = perfect_resolver(corpus) if mode == "reconcile_then_verify" else None
    rest = [r for r in corpus if r is not failed]
    expected = run_benchmark(rest, resolver=resolver)

    real = getattr(harness, fails)

    def failing(*args):
        if any(arg is second for arg in args):  # verify_entry's first argument, reconcile's second
            raise RuntimeError("boom")
        return real(*args)

    monkeypatch.setattr(harness, fails, failing)
    bundle = run_benchmark(corpus, resolver=resolver)
    assert bundle["incomplete"] == [{"paper_id": "goodfellow2014", "error": "boom"}]
    assert bundle == {**expected, "incomplete": bundle["incomplete"]}  # every row and aggregate as without it


@pytest.mark.parametrize("mode", ["verify", "reconcile_then_verify"])
def test_bundle_does_not_depend_on_record_order(tmp_path, monkeypatch, mode):
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus) if mode == "reconcile_then_verify" else None
    failing = {"attention2017", "goodfellow2014"}  # two, so the order of "incomplete" shows
    real = harness.verify_entry

    def verify_or_fail(entry, gt, table):
        if gt.paper_id in failing:
            raise RuntimeError(f"boom {gt.paper_id}")
        return real(entry, gt, table)

    monkeypatch.setattr(harness, "verify_entry", verify_or_fail)
    by_id = sorted(corpus, key=lambda r: r.paper_id)
    for name, records in (("by_id", by_id), ("reversed", by_id[::-1])):
        bundle = run_benchmark(iter(records), resolver=resolver)
        assert [d["paper_id"] for d in bundle["incomplete"]] == sorted(failing)
        write_bundle(bundle, tmp_path / name)
    assert read_tree(tmp_path / "reversed") == read_tree(tmp_path / "by_id")


@pytest.mark.parametrize("mode", ["verify", "reconcile_then_verify"])
def test_a_run_holds_no_record_it_has_labelled(mode):
    class Tracked:
        """A record's candidates, weakly referenceable; only that record holds it."""

        def __init__(self, candidates):
            self.candidates = candidates

        def __iter__(self):
            return iter(self.candidates)

    refs = []

    def records():
        for record in load_corpus(CORPUS_PATH):
            gc.collect()
            assert [ref() for ref in refs] == [None] * len(refs), "an earlier record is alive"
            record = record._replace(candidates=Tracked(record.candidates))
            refs.append(weakref.ref(record.candidates))
            yield record

    resolver = (lambda query: ResolutionResult("not_found")) if mode == "reconcile_then_verify" else None
    bundle = run_benchmark(records(), resolver=resolver)
    assert len(refs) == 8
    assert bundle["aggregate"]["entries"] == 20


# -- normalization memo -------------------------------------------------------------


def memo_size() -> int:
    return verify._normalized.cache_info().currsize


def test_memo_is_filled_during_a_run_and_empty_after(monkeypatch):
    sizes = []

    def recording(*args):
        vector = verify_entry(*args)
        sizes.append(memo_size())
        return vector

    monkeypatch.setattr(harness, "verify_entry", recording)
    bundle = run_benchmark(load_corpus(CORPUS_PATH))
    assert bundle["aggregate"] == GOLDEN_AGGREGATE["aggregate"]
    assert max(sizes) > 0
    assert memo_size() == 0


def test_memo_is_empty_after_a_failing_record():
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus)

    def flaky(query):
        if query == corpus[0].meta.title:
            raise RuntimeError("boom")
        return resolver(query)

    bundle = run_benchmark(corpus, resolver=flaky)
    assert [d["paper_id"] for d in bundle["incomplete"]] == [corpus[0].paper_id]
    assert memo_size() == 0


class Abort(BaseException):
    pass


def test_memo_is_empty_after_a_run_that_raises():
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus)
    first = min(corpus, key=lambda r: r.paper_id)

    def aborting(query):
        if query != first.meta.title:
            raise Abort()  # not an Exception, so it ends the run
        return resolver(query)

    with pytest.raises(Abort):
        run_benchmark(corpus, resolver=aborting)
    assert memo_size() == 0


def test_corpus_file_is_closed_when_a_run_stops_early(tmp_path, monkeypatch):
    unraisable = []  # an unclosed file warns as it is collected; "error" makes that an unraisable error
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    lines = CORPUS_PATH.read_text("utf-8").splitlines()
    broken = write_corpus(tmp_path, lines + ["{broken json"])

    def aborting(query):
        raise Abort()

    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(CorpusParseError, match=f"^line {len(lines) + 1}: bad JSON"):
            run_benchmark(load_corpus(broken))  # a strict error on the last line
        with pytest.raises(Abort):
            run_benchmark(load_corpus(CORPUS_PATH), resolver=aborting)  # the run stops at its first record
        records = load_corpus(CORPUS_PATH)
        next(records)
        del records  # the consumer stops after one record
        load_corpus(CORPUS_PATH)  # and before the first
        gc.collect()
    assert [hook.exc_type for hook in unraisable] == []


# -- bundle writing -----------------------------------------------------------------


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_write_bundle_deterministic(tmp_path):
    corpus = list(load_corpus(CORPUS_PATH))
    bundle1 = run_benchmark(corpus)
    bundle2 = run_benchmark(corpus)
    write_bundle(bundle1, tmp_path / "a")
    write_bundle(bundle2, tmp_path / "b")
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_write_bundle_files(tmp_path):
    corpus = list(load_corpus(CORPUS_PATH))
    bundle = run_benchmark(corpus, resolver=perfect_resolver(corpus))
    write_bundle(bundle, tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"report.json", "labels.tsv", "labels_before.tsv", "actions.tsv"}
    # no stray temporaries from atomic writes
    assert not [n for n in names if n.startswith(".")]
    report = json.loads((tmp_path / "report.json").read_text("utf-8"))
    assert "labels" not in report
    assert report["aggregate"]["overall"]["pct_c"] == 100.0
    labels = (tmp_path / "labels.tsv").read_text("utf-8").splitlines()
    assert labels[0] == "format_version\t1"
    assert len(labels) == 1 + 20 * 10


@pytest.mark.parametrize("mode", ["verify", "reconcile_then_verify"])
def test_write_bundle_matches_the_golden_snapshot(tmp_path, mode):
    # tests/fixtures/golden_bundle/<mode> holds the bytes an earlier release
    # wrote for these calls; a refactor must leave every file unchanged
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus) if mode == "reconcile_then_verify" else None
    write_bundle(run_benchmark(corpus, resolver=resolver), tmp_path)
    assert read_tree(tmp_path) == read_tree(FIXTURES / "golden_bundle" / mode)


#: Writes the golden-snapshot bundles of both modes, as the test above builds them, under argv[1].
GOLDEN_BUNDLES_SCRIPT = """
import sys
from pathlib import Path
from test_harness import CORPUS_PATH, load_corpus, perfect_resolver, run_benchmark, write_bundle
corpus = list(load_corpus(CORPUS_PATH))
for mode, resolver in (("verify", None), ("reconcile_then_verify", perfect_resolver(corpus))):
    write_bundle(run_benchmark(corpus, resolver=resolver), Path(sys.argv[1]) / mode)
"""


def test_golden_bundles_do_not_depend_on_the_hash_seed(tmp_path):
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    trees = {}
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", GOLDEN_BUNDLES_SCRIPT, str(tmp_path / seed)], env=env, check=True)
        trees[seed] = {mode: read_tree(tmp_path / seed / mode) for mode in ("verify", "reconcile_then_verify")}
    golden = {mode: read_tree(FIXTURES / "golden_bundle" / mode) for mode in trees["0"]}
    assert trees["0"] == trees["4242"] == golden


@pytest.mark.parametrize(
    "name", ["verify/labels.tsv", "reconcile_then_verify/labels.tsv", "reconcile_then_verify/labels_before.tsv"]
)
def test_golden_labels_files_read_back_to_their_rows(name):
    """``read_labels`` gives the triples ``_labels_rows`` takes: writing them back gives the file's rows."""
    path = FIXTURES / "golden_bundle" / name
    assert _labels_rows(read_labels(path)) == [tuple(row) for row in read_tsv(path)]


def test_verify_bundle_over_a_reconcile_bundle_leaves_only_its_own_files(tmp_path):
    corpus = list(load_corpus(CORPUS_PATH))
    write_bundle(run_benchmark(corpus, resolver=perfect_resolver(corpus)), tmp_path)
    write_bundle(run_benchmark(corpus), tmp_path)
    assert read_tree(tmp_path) == read_tree(FIXTURES / "golden_bundle" / "verify")


def test_write_bundle_overwrites_atomically(tmp_path):
    bundle = run_benchmark(load_corpus(CORPUS_PATH))
    write_bundle(bundle, tmp_path)
    first = read_tree(tmp_path)
    write_bundle(bundle, tmp_path)
    assert read_tree(tmp_path) == first


def test_read_tsv_round_trips_tsv_text(tmp_path):
    rows = [("p1", "", "10.1111/iju.13054", ""), ("p2", "https://arxiv.org/abs/1", "", "A Title")]
    path = tmp_path / "rows.tsv"
    path.write_text("".join(tsv_lines(rows)), "utf-8")
    assert read_tsv(path) == [list(row) for row in rows]
    path.write_text(path.read_text("utf-8") + "\n \t \n", "utf-8")  # blank lines are skipped
    assert read_tsv(path) == [list(row) for row in rows]


@pytest.mark.parametrize("text", ["", "p1\t\t10.1111/iju.13054\t\n", "format_version\t2\np1\n"])
def test_read_tsv_rejects_a_missing_header(tmp_path, text):
    path = tmp_path / "rows.tsv"
    path.write_text(text, "utf-8")
    with pytest.raises(ValueError, match="format_version"):
        read_tsv(path)


def test_bib_text_separates_entries_by_a_blank_line():
    entries = [
        parse_entry("@article{a, title={First}, year={2020}}"),
        parse_entry("@misc{b, title={Second}}"),
    ]
    text = "".join(bib_pieces(entries))
    assert text == serialize_entry(entries[0]) + "\n\n" + serialize_entry(entries[1]) + "\n"
    assert "".join(bib_pieces([])) == "\n"


@pytest.mark.parametrize("mode", ["verify", "reconcile_then_verify"])
def test_label_rows_are_plain_strings_the_collector_untracks(mode):
    corpus = list(load_corpus(CORPUS_PATH))
    resolver = perfect_resolver(corpus) if mode == "reconcile_then_verify" else None
    bundle = run_benchmark(corpus, resolver=resolver)
    gc.collect()
    rows = bundle["labels"] + bundle.get("labels_before", [])
    assert len(rows) == (1 if resolver is None else 2) * 20 * 10
    for row in rows:
        assert type(row) is tuple and {type(cell) for cell in row} == {str}, row
        assert gc.is_tracked(row) is False, row
    table = VenueSynonymTable.default()
    entries = [
        (r.paper_id, tag, slot_labels(verify_entry(entry, r.ground_truth, table)))
        for r in sorted(corpus, key=lambda r: r.paper_id)
        for tag, _, entry in r.candidates
    ]
    assert bundle["labels" if resolver is None else "labels_before"] == parent_labels_rows(entries)


def test_write_bundle_holds_rows_not_their_text(tmp_path):
    slots = [slot.value for slot in ALL_SLOTS]
    rows = [(f"paper{i // 10:05d}", "cand1", slots[i % 10], "C", "1") for i in range(60_000)]
    bundle = {"format_version": 1, "mode": "verify", "incomplete": [], "labels": rows}
    tracemalloc.start()
    try:
        write_bundle(bundle, tmp_path)
        added = tracemalloc.get_traced_memory()[1]  # the peak above the bundle, traced from here
    finally:
        tracemalloc.stop()
    assert (tmp_path / "labels.tsv").stat().st_size > 1_500_000
    assert added < 2**20  # holding the labels text, or its lines, would take more


@pytest.mark.parametrize("key", sorted(harness.TSV_FILES))
def test_write_bundle_that_fails_mid_file_keeps_the_earlier_bundle(tmp_path, key):
    corpus = list(load_corpus(CORPUS_PATH))
    write_bundle(run_benchmark(corpus), tmp_path)
    files = read_tree(tmp_path)
    bundle = run_benchmark(corpus, resolver=perfect_resolver(corpus))
    bundle[key] = rows_then_fail(bundle[key], 5)
    with pytest.raises(OSError, match="No space left on device"):
        write_bundle(bundle, tmp_path)
    assert read_tree(tmp_path) == files  # and no temporary file is left
