import json

import pytest

from bibkit import harness, verify
from bibkit.harness import (
    CorpusParseError,
    bib_text,
    load_corpus,
    read_tsv,
    run_benchmark,
    tsv_text,
    write_bundle,
)
from bibkit.model import BibEntry, parse_entry, serialize_entry
from bibkit.normalize import VenueSynonymTable
from bibkit.reconcile import PaperMeta
from bibkit.resolve import ResolutionResult, UpstreamUnavailable
from bibkit.verify import verify_entry

from conftest import FIXTURES, load_fixture

CORPUS_PATH = FIXTURES / "golden_corpus.jsonl"
GOLDEN_LABELS = {(e["paper_id"], e["tag"]): e for e in load_fixture("golden_labels.json")["entries"]}
GOLDEN_AGGREGATE = load_fixture("golden_aggregate.json")


# -- corpus loading ------------------------------------------------------------


def test_load_golden_corpus():
    records = load_corpus(CORPUS_PATH)
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
        load_corpus(path)


def test_load_bad_header_rejected(tmp_path):
    with pytest.raises(CorpusParseError):
        load_corpus(write_corpus(tmp_path, ["not json", record_line()]))


def test_load_wrong_format_version_rejected(tmp_path):
    header = json.dumps({"format_version": 99, "kind": "bibkit-corpus"})
    with pytest.raises(CorpusParseError):
        load_corpus(write_corpus(tmp_path, [header, record_line()]))


def test_load_duplicate_paper_id_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(), record_line()])
    with pytest.raises(CorpusParseError, match="duplicate paper_id"):
        load_corpus(path)


def test_load_missing_description_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(description="  ")])
    with pytest.raises(CorpusParseError, match="description"):
        load_corpus(path)


def test_load_unknown_tier_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(tier="viral")])
    with pytest.raises(CorpusParseError, match="tier"):
        load_corpus(path)


def test_load_versionless_ground_truth_rejected(tmp_path):
    path = write_corpus(tmp_path, [HEADER, record_line(ground_truth={"versions": []})])
    with pytest.raises(CorpusParseError, match="version"):
        load_corpus(path)


def test_load_bad_candidate_bibtex_rejected(tmp_path):
    bad = [{"tag": "c1", "model": "m", "bibtex": "@article{k, title={T}"}]
    path = write_corpus(tmp_path, [HEADER, record_line(candidates=bad)])
    with pytest.raises(CorpusParseError, match="candidate"):
        load_corpus(path)


def test_load_permissive_skips_bad_lines(tmp_path):
    good = record_line()
    bad_json = "{truncated"
    bad_record = record_line(paper_id="p2", tier="viral")
    path = write_corpus(tmp_path, [HEADER, good, bad_json, bad_record])
    records = load_corpus(path, permissive=True)
    assert [r.paper_id for r in records] == ["p1"]


def test_load_header_not_an_object_rejected(tmp_path):
    with pytest.raises(CorpusParseError, match="line 1"):
        load_corpus(write_corpus(tmp_path, ["[1]", record_line()]))


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
        load_corpus(write_corpus(tmp_path, [HEADER, line]))
    path = write_corpus(tmp_path, [HEADER, line, record_line(paper_id="ok")])
    assert [r.paper_id for r in load_corpus(path, permissive=True)] == ["ok"]


def test_load_skips_blank_lines(tmp_path):
    path = write_corpus(tmp_path, [HEADER, "", record_line(), ""])
    assert len(load_corpus(path)) == 1


def test_load_repeated_candidate_tag_rejected(tmp_path):
    bibtex = "@article{k, title={T}}"
    untagged = record_line(candidates=[{"bibtex": bibtex}, {"bibtex": bibtex}])
    shared = record_line(paper_id="p2", candidates=[{"tag": "c1", "bibtex": bibtex}] * 2)
    for line, tag in ((untagged, "candidate"), (shared, "c1")):
        with pytest.raises(CorpusParseError, match=f"line 2: duplicate candidate tag '{tag}'"):
            load_corpus(write_corpus(tmp_path, [HEADER, line]))
    path = write_corpus(tmp_path, [HEADER, untagged, shared, record_line(paper_id="ok")])
    assert [r.paper_id for r in load_corpus(path, permissive=True)] == ["ok"]


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
    bundle = run_benchmark(load_corpus(CORPUS_PATH), mode="verify")
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
        verdict = verify_entry(entry, record.ground_truth, VenueSynonymTable.default())
        assert verdict.error_mode == expected["error_mode"], (paper_id, tag)


def test_golden_corpus_aggregate_matches_hand_tally():
    bundle = run_benchmark(load_corpus(CORPUS_PATH), mode="verify")
    assert bundle["aggregate"] == GOLDEN_AGGREGATE["aggregate"]
    assert bundle["error_modes"] == GOLDEN_AGGREGATE["error_modes"]
    assert bundle["incomplete"] == []


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_benchmark([], mode="nonsense")


def test_reconcile_mode_requires_resolver():
    with pytest.raises(ValueError):
        run_benchmark([], mode="reconcile_then_verify")


def test_empty_corpus_benchmark():
    bundle = run_benchmark([], mode="verify")
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
    corpus = load_corpus(CORPUS_PATH)
    bundle = run_benchmark(
        corpus, mode="reconcile_then_verify", resolver=perfect_resolver(corpus)
    )
    assert all(row[2] == "merged" for row in bundle["actions"])
    for field, delta in bundle["deltas"].items():
        assert delta["regressions"] == 0, field
    # with a perfect source every evaluable field ends up correct
    assert bundle["aggregate"]["overall"]["correct"] == bundle["aggregate"]["overall"]["evaluable"]
    assert bundle["aggregate_before"]["overall"] == GOLDEN_AGGREGATE["aggregate"]["overall"]


def test_delta_accounting_invariant():
    corpus = load_corpus(CORPUS_PATH)
    bundle = run_benchmark(
        corpus, mode="reconcile_then_verify", resolver=perfect_resolver(corpus)
    )
    for field, delta in bundle["deltas"].items():
        assert (
            delta["corrections"] - delta["regressions"] == delta["after_c"] - delta["before_c"]
        ), field


def test_failing_record_is_recorded_not_fatal():
    corpus = load_corpus(CORPUS_PATH)
    resolver = perfect_resolver(corpus)

    def flaky(query):
        if query == corpus[0].meta.title:
            raise RuntimeError("boom")
        return resolver(query)

    bundle = run_benchmark(sorted(corpus, key=lambda r: r.paper_id), mode="reconcile_then_verify", resolver=flaky)
    failed = sorted(corpus, key=lambda r: r.paper_id)
    assert [d["paper_id"] for d in bundle["incomplete"]] == [corpus[0].paper_id]
    assert bundle["aggregate"]["entries"] == 20 - len(corpus[0].candidates)


def test_each_distinct_query_is_resolved_once():
    corpus = load_corpus(CORPUS_PATH)
    resolver = perfect_resolver(corpus)
    calls = []

    def counting(query):
        calls.append(query)
        return resolver(query)

    bundle = run_benchmark(corpus, mode="reconcile_then_verify", resolver=counting)
    assert len(bundle["actions"]) == 20
    assert sorted(calls) == sorted(r.meta.title for r in corpus)  # 8 distinct queries


def test_failing_records_are_listed_in_paper_id_order_and_add_no_rows(tmp_path):
    lines = [HEADER] + [
        record_line(paper_id=p, meta={"doi": f"10.1000/{p}"}) for p in ("p1", "p2", "p3")
    ]
    corpus = load_corpus(write_corpus(tmp_path, lines))

    def resolver(query):
        if query != "10.1000/p2":
            raise UpstreamUnavailable(f"no answer for {query}")
        entry = parse_entry("@article{a, title={T}, year={2020}, doi={10.1000/p2}}")
        return ResolutionResult(status="found", bibtex=entry)

    bundle = run_benchmark(corpus[::-1], mode="reconcile_then_verify", resolver=resolver)
    assert bundle["incomplete"] == [
        {"paper_id": "p1", "error": "no answer for 10.1000/p1"},
        {"paper_id": "p3", "error": "no answer for 10.1000/p3"},
    ]
    for key in ("labels", "labels_before", "actions"):
        assert {row[0] for row in bundle[key]} == {"p2"}, key
    assert bundle["aggregate"]["entries"] == bundle["aggregate_before"]["entries"] == 1


def test_failed_lookup_is_not_reused(tmp_path):
    lines = [HEADER] + [record_line(paper_id=p, meta={"doi": "10.1000/shared"}) for p in ("p1", "p2")]
    corpus = load_corpus(write_corpus(tmp_path, lines))
    calls = []

    def resolver(query):
        calls.append(query)
        if len(calls) == 1:
            raise UpstreamUnavailable("upstream returned 503")
        entry = parse_entry("@article{a, title={T}, year={2020}, doi={10.1000/shared}}")
        return ResolutionResult(status="found", bibtex=entry)

    bundle = run_benchmark(corpus, mode="reconcile_then_verify", resolver=resolver)
    assert bundle["incomplete"] == [{"paper_id": "p1", "error": "upstream returned 503"}]
    assert [list(row[:3]) for row in bundle["actions"]] == [["p2", "c1", "merged"]]
    assert calls == ["10.1000/shared", "10.1000/shared"]


# -- normalization memo -------------------------------------------------------------


def memo_size() -> int:
    return verify._table_free_normalized.cache_info().currsize


def test_memo_is_filled_during_a_run_and_empty_after(monkeypatch):
    sizes = []

    def recording(*args):
        verdict = verify_entry(*args)
        sizes.append(memo_size())
        return verdict

    monkeypatch.setattr(harness, "verify_entry", recording)
    bundle = run_benchmark(load_corpus(CORPUS_PATH), mode="verify")
    assert bundle["aggregate"] == GOLDEN_AGGREGATE["aggregate"]
    assert max(sizes) > 0
    assert memo_size() == 0


def test_memo_is_empty_after_a_failing_record():
    corpus = load_corpus(CORPUS_PATH)
    resolver = perfect_resolver(corpus)

    def flaky(query):
        if query == corpus[0].meta.title:
            raise RuntimeError("boom")
        return resolver(query)

    bundle = run_benchmark(corpus, mode="reconcile_then_verify", resolver=flaky)
    assert [d["paper_id"] for d in bundle["incomplete"]] == [corpus[0].paper_id]
    assert memo_size() == 0


class Abort(BaseException):
    pass


def test_memo_is_empty_after_a_run_that_raises():
    corpus = load_corpus(CORPUS_PATH)
    resolver = perfect_resolver(corpus)
    first = min(corpus, key=lambda r: r.paper_id)

    def aborting(query):
        if query != first.meta.title:
            raise Abort()  # not an Exception, so it ends the run
        return resolver(query)

    with pytest.raises(Abort):
        run_benchmark(corpus, mode="reconcile_then_verify", resolver=aborting)
    assert memo_size() == 0


# -- bundle writing -----------------------------------------------------------------


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_write_bundle_deterministic(tmp_path):
    corpus = load_corpus(CORPUS_PATH)
    bundle1 = run_benchmark(corpus, mode="verify")
    bundle2 = run_benchmark(corpus, mode="verify")
    write_bundle(bundle1, tmp_path / "a")
    write_bundle(bundle2, tmp_path / "b")
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_write_bundle_files(tmp_path):
    corpus = load_corpus(CORPUS_PATH)
    bundle = run_benchmark(
        corpus, mode="reconcile_then_verify", resolver=perfect_resolver(corpus)
    )
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


def test_write_bundle_overwrites_atomically(tmp_path):
    bundle = run_benchmark(load_corpus(CORPUS_PATH), mode="verify")
    write_bundle(bundle, tmp_path)
    first = read_tree(tmp_path)
    write_bundle(bundle, tmp_path)
    assert read_tree(tmp_path) == first


def test_read_tsv_round_trips_tsv_text(tmp_path):
    rows = [("p1", "", "10.1111/iju.13054", ""), ("p2", "https://arxiv.org/abs/1", "", "A Title")]
    path = tmp_path / "rows.tsv"
    path.write_text(tsv_text(rows), "utf-8")
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
    text = bib_text(entries)
    assert text == serialize_entry(entries[0]) + "\n\n" + serialize_entry(entries[1]) + "\n"
