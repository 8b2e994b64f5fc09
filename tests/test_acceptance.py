"""End-to-end acceptance gate for the toolkit.

Each test here pins one externally meaningful behavior: the verdict
mapping table, the calibration fixtures, normalizer idempotence, the
jaccard gate, reconciliation slot equations, version-aware scoring,
co-error counting, offline resolver replay, live rate limiting, and
benchmark determinism against a hand-tallied golden report.
"""

import http.server
import json
import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from bibkit.harness import load_corpus, run_benchmark, write_bundle
from bibkit.model import FieldLabel, FieldSlot, parse_entry, serialize_entry
from bibkit.normalize import (
    VenueSynonymTable,
    jaccard,
    normalize_author,
    normalize_doi,
    normalize_pages,
    normalize_title,
    normalize_venue,
    normalize_year,
    tokenize_filtered,
)
from bibkit.reconcile import RECONCILE_GATE_THRESHOLD, PaperMeta, reconcile, title_gate
from bibkit.resolve import (
    HttpTransport,
    RateLimiter,
    ReplayTransport,
    Resolver,
    ResolverConfig,
)
from bibkit.verify import (
    CANNOT_ASSESS,
    CriterionVerdict,
    EntryVerdict,
    MET,
    UNMET,
    classify_stage2,
    co_error_matrix,
    verdict_from_criteria,
    verify_entry,
)

from conftest import FIXTURES, load_fixture
from reference_impls import brute_co_error, brute_jaccard
from test_reconcile import PAIRS, make_meta, make_resolver
from test_verify import (
    ARXIV_MATCHING_ENTRY,
    ISOLATED_ENTRY,
    WHOLESALE_ENTRY,
    calibration_ground_truth,
    isolated_ground_truth,
    two_version_ground_truth,
    wholesale_ground_truth,
)

TABLE = VenueSynonymTable.default()


# 1. verdict mapping: all seven rows of the criteria-to-label table -------------


@pytest.mark.parametrize(
    "partial,different,label",
    [
        (MET, "any", FieldLabel.P),
        (UNMET, MET, FieldLabel.S),
        (UNMET, UNMET, FieldLabel.F),
        (UNMET, CANNOT_ASSESS, FieldLabel.F),
        (CANNOT_ASSESS, MET, FieldLabel.S),
        (CANNOT_ASSESS, UNMET, FieldLabel.F),
        (CANNOT_ASSESS, CANNOT_ASSESS, FieldLabel.F),
    ],
)
def test_verdict_mapping_table(partial, different, label):
    differents = (MET, UNMET, CANNOT_ASSESS) if different == "any" else (different,)
    for d in differents:
        assert verdict_from_criteria(CriterionVerdict(partial, d)) is label


# 2. failure-mode fixture entries ------------------------------------------------


def test_isolated_fixture_labels_and_mode():
    verdict = verify_entry(ISOLATED_ENTRY, isolated_ground_truth(), TABLE)
    expected = {
        FieldSlot.TITLE: FieldLabel.C,
        FieldSlot.AUTHOR: FieldLabel.C,
        FieldSlot.YEAR: FieldLabel.C,
        FieldSlot.VENUE: FieldLabel.C,
        FieldSlot.PAGES: FieldLabel.F,
    }
    for slot, label in expected.items():
        assert verdict.labels[slot] is label, slot
    assert verdict.error_mode == "isolated"


def test_wholesale_fixture_labels_and_mode():
    verdict = verify_entry(WHOLESALE_ENTRY, wholesale_ground_truth(), TABLE)
    substituted = [s for s, l in verdict.labels.items() if l is FieldLabel.S]
    assert len(substituted) >= 3
    assert verdict.error_mode == "wholesale"


# 3. calibration triple ------------------------------------------------------------


def test_calibration_triple():
    gt = calibration_ground_truth()
    truncated = classify_stage2("Vaswani, A. et al.", FieldSlot.AUTHOR, gt)
    assert verdict_from_criteria(truncated) is FieldLabel.P

    context = {FieldSlot.TITLE: FieldLabel.S, FieldSlot.YEAR: FieldLabel.F}
    crossed = classify_stage2("ICML 2020", FieldSlot.VENUE, gt, context)
    assert verdict_from_criteria(crossed) is FieldLabel.S

    fabricated = classify_stage2("10.1234/fake.5678", FieldSlot.DOI, gt)
    assert verdict_from_criteria(fabricated) is FieldLabel.F


# 4. normalization suite -------------------------------------------------------------

NORMALIZERS = {
    "author": normalize_author,
    "title": normalize_title,
    "venue": lambda v: normalize_venue(v, TABLE),
    "doi": normalize_doi,
    "pages": normalize_pages,
    "year": normalize_year,
}


def test_normalizers_idempotent_over_200_cases():
    cases = load_fixture("normalization_cases.json")["cases"]
    assert len(cases) == 200
    for case in cases:
        fn = NORMALIZERS[case["op"]]
        once = fn(case["input"])
        assert fn(once) == once, case


def test_doi_pair_normalization():
    # preprint and published DOIs of the same paper stay distinct but clean
    assert normalize_doi("https://doi.org/10.48550/arXiv.2510.16227") == "10.48550/arxiv.2510.16227"
    assert normalize_doi("doi:10.1162/TACL.a.611") == "10.1162/tacl.a.611"
    assert normalize_doi("10.48550/arXiv.2510.16227") != normalize_doi("10.1162/TACL.a.611")


def test_page_string_normalization():
    assert normalize_pages("539-547") == "539--547"
    assert normalize_pages("548 – 556") == "548--556"
    assert normalize_pages("378--384") == "378--384"
    assert normalize_pages("426--426") == "426"


# 5. jaccard and gate boundary ---------------------------------------------------------

tokens = st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=3), max_size=8)


@settings(max_examples=1000, deadline=None)
@given(tokens, tokens)
def test_jaccard_against_brute_force(a, b):
    score = jaccard(frozenset(a), frozenset(b))
    assert score == brute_jaccard(a, b)
    assert score == jaccard(frozenset(b), frozenset(a))
    assert 0.0 <= score <= 1.0
    assert (score == 1.0) == (a == b)


def test_gate_boundary_inclusive_at_0_3():
    passed, score = title_gate(
        "red orange yellow green blue violet",
        "red orange yellow cyan magenta umber teal",
    )
    assert score == pytest.approx(RECONCILE_GATE_THRESHOLD)
    assert passed
    below, score_below = title_gate(
        "red orange yellow green blue violet",
        "red orange yellow cyan magenta umber teal slate",
    )
    assert score_below < RECONCILE_GATE_THRESHOLD
    assert not below


# 6. reconciliation over the 20-pair fixture set ------------------------------------------


def test_reconciliation_pair_fixture_contract():
    assert len(PAIRS) == 20
    for pair in PAIRS:
        meta = make_meta(pair)
        baseline = parse_entry(pair["baseline"])
        resolver, _ = make_resolver(pair)
        outcome = reconcile(meta, baseline, resolver)
        if outcome.action != "merged":
            assert serialize_entry(outcome.result) == serialize_entry(baseline), pair["id"]
            continue
        authoritative = parse_entry(pair["resolution"]["bibtex"])
        for slot in FieldSlot:
            if slot is FieldSlot.ENTRY_KEY:
                assert outcome.result.citation_key == baseline.citation_key
            elif slot in outcome.replaced_slots:
                from bibkit.model import slot_of

                assert slot_of(outcome.result, slot) == slot_of(authoritative, slot), (pair["id"], slot)
            else:
                from bibkit.model import slot_of

                assert slot_of(outcome.result, slot) == slot_of(baseline, slot), (pair["id"], slot)


def test_reconciliation_with_ground_truth_source_has_zero_regressions():
    from test_harness import perfect_resolver

    corpus = load_corpus(FIXTURES / "golden_corpus.jsonl")
    bundle = run_benchmark(corpus, mode="reconcile_then_verify", resolver=perfect_resolver(corpus))
    for field, delta in bundle["deltas"].items():
        assert delta["regressions"] == 0, field


# 7. version awareness ------------------------------------------------------------------


def test_arxiv_version_entry_scores_all_correct():
    verdict = verify_entry(ARXIV_MATCHING_ENTRY, two_version_ground_truth(), TABLE)
    for slot, label in verdict.labels.items():
        assert label in (FieldLabel.C, FieldLabel.X), (slot, label)
    assert verdict.fully_correct


# 8. co-error matrix vs brute force --------------------------------------------------------


def test_co_error_matrix_on_50_synthetic_verdicts():
    rng = random.Random(50)
    labels = [FieldLabel.C, FieldLabel.M, FieldLabel.F, FieldLabel.P, FieldLabel.S, FieldLabel.X]
    verdicts = []
    for _ in range(50):
        picked = {slot: rng.choice(labels) for slot in FieldSlot}
        picked[FieldSlot.ENTRY_KEY] = FieldLabel.X
        verdicts.append(
            EntryVerdict(labels=picked, fully_correct=False, error_mode="mixed")
        )
    matrix = co_error_matrix(verdicts)
    rows = [{s.value: v.value for s, v in verdict.labels.items()} for verdict in verdicts]
    expected = brute_co_error(rows)
    for i, row in matrix.items():
        for j, value in row.items():
            want = expected[i.value][j.value]
            if want is None:
                assert value is None, (i, j)
            else:
                assert value == pytest.approx(want), (i, j)


# 9. resolver replay ---------------------------------------------------------------------


def replay_resolver(fixture_name: str) -> Resolver:
    config = ResolverConfig(base_url="http://server.test")
    limiter = RateLimiter(rate_per_sec=2.0, clock=lambda: 0.0, sleep=lambda s: None)
    return Resolver(
        config,
        transport=ReplayTransport(FIXTURES / fixture_name),
        rate_limiter=limiter,
        sleep=lambda s: None,
    )


def test_replay_doi_query_found_with_one_candidate():
    result = replay_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    assert result.status == "found"
    assert len(result.candidates) == 1
    assert result.bibtex is not None


def test_replay_empty_search_falls_back_capped_at_10():
    result = replay_resolver("replay_fallback_many.json").resolve("10.9999/unknown.1")
    assert result.source == "crossref_fallback"
    assert len(result.candidates) <= 10
    assert result.status == "not_found"


def test_replay_low_scoring_title_is_mismatch():
    result = replay_resolver("replay_title_mismatch.json").resolve("alpha beta gamma delta")
    assert result.status == "title_mismatch"
    assert result.candidates[0][1] == pytest.approx(0.4)


# 10. rate limiter against a local live stub -------------------------------------------------


class _StubHandler(http.server.BaseHTTPRequestHandler):
    def _reply(self):
        body = b"[]"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._reply()

    def do_GET(self):
        self._reply()

    def log_message(self, *args):
        pass


def test_rate_limiter_live_spacing():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        config = ResolverConfig(base_url=f"http://127.0.0.1:{server.server_port}")
        resolver = Resolver(config, transport=HttpTransport(timeout=5.0))
        starts = []
        acquire = resolver.rate_limiter.acquire

        def timed_acquire():
            acquire()
            starts.append(time.monotonic())

        resolver.rate_limiter.acquire = timed_acquire
        begin = time.monotonic()
        for i in range(6):
            resolver._server_lookup("search", f"10.9999/q{i}")
        elapsed = time.monotonic() - begin
    finally:
        server.shutdown()
        server.server_close()

    assert elapsed >= 2.5 - 0.05
    assert len(starts) == 6
    for t in starts:
        in_window = [s for s in starts if t <= s < t + 1.0 - 0.05]
        assert len(in_window) <= 2, in_window


# 11. benchmark determinism vs the hand-tallied golden report ---------------------------------


def test_benchmark_determinism_and_golden_aggregate(tmp_path):
    corpus = load_corpus(FIXTURES / "golden_corpus.jsonl")
    golden = load_fixture("golden_aggregate.json")

    bundles = []
    for name in ("run1", "run2"):
        bundle = run_benchmark(corpus, mode="verify")
        write_bundle(bundle, tmp_path / name)
        bundles.append(bundle)

    files = sorted(p.name for p in (tmp_path / "run1").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "run2").iterdir())
    for name in files:
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

    report = json.loads((tmp_path / "run1" / "report.json").read_text("utf-8"))
    assert report["aggregate"] == golden["aggregate"]
    assert report["error_modes"] == golden["error_modes"]
