import json

import pytest
from hypothesis import given, settings, strategies as st

from bibkit.resolve import (
    CROSSREF_ENTRY_TYPES,
    CROSSREF_URL,
    RETRY_DELAY,
    EmptyQuery,
    MalformedUrl,
    NoCandidates,
    RateLimiter,
    ReplayTransport,
    Resolver,
    ResolverConfig,
    TransportError,
    TransportResponse,
    UpstreamUnavailable,
    classify_query,
    normalize_url,
    rank_candidates,
)

from bibkit.model import BibEntry, FieldSlot, parse_entry
from bibkit.reconcile import PaperMeta, reconcile

from conftest import FIXTURES


def make_resolver(fixture: str | dict) -> Resolver:
    """Offline resolver replaying a fixture file (by name) or an in-memory fixture."""
    config = ResolverConfig(base_url="http://server.test")
    transport = ReplayTransport(fixture if isinstance(fixture, dict) else FIXTURES / fixture)
    limiter = RateLimiter(rate_per_sec=2.0, clock=lambda: 0.0, sleep=lambda s: None)
    return Resolver(config, transport=transport, rate_limiter=limiter, sleep=lambda s: None)


# -- query classification ----------------------------------------------------


@pytest.mark.parametrize(
    "raw,kind,value",
    [
        ("10.1111/iju.13054", "doi", "10.1111/iju.13054"),
        ("doi:10.1111/IJU.13054", "doi", "10.1111/iju.13054"),
        ("https://doi.org/10.1162/TACL.a.611", "doi", "10.1162/tacl.a.611"),
        ("https://dx.doi.org/10.1038/s41586-020-1234-5", "doi", "10.1038/s41586-020-1234-5"),
        ("2510.16227", "arxiv_id", "2510.16227"),
        ("arXiv:2510.16227v2", "arxiv_id", "2510.16227v2"),
        ("cs.LG/0701001", "arxiv_id", "cs.LG/0701001"),
        ("12345678", "pmid", "12345678"),
        ("pmid:998877", "pmid", "998877"),
        ("978-0-13-468599-1", "isbn", "9780134685991"),
        ("0-13-468599-5", "isbn", "0134685995"),
        ("https://arxiv.org/pdf/2510.16227", "url", "https://arxiv.org/abs/2510.16227"),
        ("Learning to Discover Social Circles in Ego Networks", "title", "Learning to Discover Social Circles in Ego Networks"),
    ],
)
def test_classify_query(raw, kind, value):
    q = classify_query(raw)
    assert (q.kind, q.value) == (kind, value)
    assert q.original == raw


def test_classify_query_empty():
    with pytest.raises(EmptyQuery):
        classify_query("   ")


@pytest.mark.parametrize(
    "raw", ["https://doi.org/", "https://dx.doi.org/", "http://www.doi.org", "https://doi.org/doi:"]
)
def test_classify_query_doi_url_without_doi(raw):
    with pytest.raises(EmptyQuery):
        classify_query(raw)


def test_classify_query_precedence_doi_over_title():
    assert classify_query("10.1000/some words here").kind == "title"  # DOI has no spaces
    assert classify_query("10.1000/j.123").kind == "doi"


# -- URL normalization -------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("https://arxiv.org/pdf/2510.16227", "https://arxiv.org/abs/2510.16227"),
        ("https://arxiv.org/pdf/2510.16227.pdf", "https://arxiv.org/abs/2510.16227"),
        ("https://arxiv.org/html/2510.16227", "https://arxiv.org/abs/2510.16227"),
        ("https://www.alphaxiv.org/abs/2510.16227", "https://arxiv.org/abs/2510.16227"),
        ("https://beta.alphaxiv.org/abs/2101.00001", "https://arxiv.org/abs/2101.00001"),
        ("https://notalphaxiv.org/abs/2101.00001", "https://notalphaxiv.org/abs/2101.00001"),
        ("https://huggingface.co/papers/2510.16227", "https://arxiv.org/abs/2510.16227"),
        ("https://huggingface.co/papers/not-an-id", "https://huggingface.co/papers/not-an-id"),
        ("https://example.org/paper/42", "https://example.org/paper/42"),
    ],
)
def test_normalize_url(raw, expected):
    assert normalize_url(raw) == expected


def test_normalize_url_malformed():
    with pytest.raises(MalformedUrl):
        normalize_url("not a url")


# -- candidate ranking -------------------------------------------------------


def test_rank_exact_match_first():
    ranked = rank_candidates(
        "graph neural networks survey",
        ["Unrelated Title Entirely", "Graph Neural Networks Survey"],
    )
    assert ranked[0] == ("Graph Neural Networks Survey", 1.0)


def test_rank_substring_tiebreak():
    # both candidates share the same token set with the query; only one
    # contains the query verbatim
    query = "social circles"
    # stopwords keep both token sets identical to the query's, so the
    # jaccard scores tie; only the second contains the query verbatim
    candidates = ["circles by social", "the social circles"]
    ranked = rank_candidates(query, candidates)
    scores = [s for _, s in ranked]
    assert scores[0] == scores[1]
    assert ranked[0][0] == "the social circles"


def test_rank_stable_order_on_full_tie():
    ranked = rank_candidates("query tokens", ["first candidate", "second candidate"])
    assert [t for t, _ in ranked] == ["first candidate", "second candidate"]


def test_rank_single_candidate_pass_through():
    ranked = rank_candidates("anything at all", ["Completely Different"])
    assert len(ranked) == 1
    assert ranked[0][0] == "Completely Different"


def test_rank_empty_raises():
    with pytest.raises(NoCandidates):
        rank_candidates("q", [])


# -- replay resolution -------------------------------------------------------


def test_doi_query_found_via_search():
    result = make_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    assert result.status == "found"
    assert result.source == "search_endpoint"
    assert len(result.candidates) == 1
    assert result.bibtex is not None
    assert result.bibtex.citation_key == "yamashita2016"  # sanitized
    assert result.bibtex.get("doi") == "10.1111/iju.13054"


def test_doi_query_fallback_many_hits_not_found():
    result = make_resolver("replay_fallback_many.json").resolve("10.9999/unknown.1")
    assert result.status == "not_found"
    assert result.source == "crossref_fallback"
    assert len(result.candidates) == 10  # 12 hits capped to 10
    assert result.bibtex is None


def test_doi_query_fallback_empty_not_found():
    result = make_resolver("replay_fallback_empty.json").resolve("10.9999/unknown.2")
    assert result.status == "not_found"
    assert result.candidates == []
    assert result.bibtex is None


def test_doi_query_fallback_single_hit_found():
    result = make_resolver("replay_fallback_single.json").resolve("10.9999/unknown.3")
    assert result.status == "found"
    assert result.source == "crossref_fallback"
    assert result.bibtex.get("journal") == "Journal of Clinical Oncology"
    assert result.bibtex.get("year") == "2016"
    assert result.bibtex.get("author") == "Yamashita, Shinichi"


def test_title_query_mismatch_gate():
    result = make_resolver("replay_title_mismatch.json").resolve("alpha beta gamma delta")
    assert result.status == "title_mismatch"
    assert result.bibtex is None
    assert result.candidates[0] == ("alpha beta epsilon", 0.4)


def test_title_query_found():
    result = make_resolver("replay_title_found.json").resolve(
        "Learning to Discover Social Circles in Ego Networks"
    )
    assert result.status == "found"
    assert result.bibtex.entry_type == "inproceedings"
    assert result.bibtex.get("pages") == "548--556"


def test_url_query_uses_web_endpoint():
    result = make_resolver("replay_web_found.json").resolve("https://arxiv.org/pdf/2510.16227")
    assert result.status == "found"
    assert result.source == "web_endpoint"
    assert result.bibtex.get("doi") == "10.48550/arXiv.2510.16227"


def test_determinism_same_fixture_same_result():
    first = make_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    second = make_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    assert first == second


# -- retry and failure handling ---------------------------------------------


class FlakyTransport:
    def __init__(self, failures: int, response: TransportResponse):
        self.failures = failures
        self.response = response
        self.calls = 0

    def request(self, method, url, *, params=None, body=None, headers=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("connection refused")
        return self.response

    def reset(self):
        self.calls = 0


def quiet_resolver(transport) -> Resolver:
    config = ResolverConfig(base_url="http://server.test")
    limiter = RateLimiter(rate_per_sec=2.0, clock=lambda: 0.0, sleep=lambda s: None)
    return Resolver(config, transport=transport, rate_limiter=limiter, sleep=lambda s: None)


def test_one_retry_then_success():
    transport = FlakyTransport(1, TransportResponse(200, "[]"))
    resolver = quiet_resolver(transport)
    assert resolver._server_lookup("search", "anything") == []
    assert transport.calls == 2


def test_two_failures_raise_upstream_unavailable():
    transport = FlakyTransport(2, TransportResponse(200, "[]"))
    resolver = quiet_resolver(transport)
    with pytest.raises(UpstreamUnavailable):
        resolver._server_lookup("search", "anything")


class AlwaysStatus:
    def __init__(self, status):
        self.status = status

    def request(self, method, url, *, params=None, body=None, headers=None):
        return TransportResponse(self.status, "oops")


def test_5xx_twice_raises_upstream_unavailable():
    with pytest.raises(UpstreamUnavailable):
        quiet_resolver(AlwaysStatus(503))._server_lookup("search", "x")


def test_404_returns_no_items():
    assert quiet_resolver(AlwaysStatus(404))._server_lookup("search", "x") == []


class ScriptedTransport:
    """Answers each endpoint from its own queue; the last answer repeats."""

    def __init__(self, script: dict[str, list[TransportResponse]]):
        self.script = {endpoint: list(answers) for endpoint, answers in script.items()}
        self.calls: list[str] = []

    def request(self, method, url, *, params=None, body=None, headers=None):
        endpoint = url.rsplit("/", 1)[-1]
        self.calls.append(endpoint)
        answers = self.script[endpoint]
        return answers.pop(0) if len(answers) > 1 else answers[0]


def throttle_resolver(script) -> tuple[Resolver, ScriptedTransport, list[float]]:
    transport = ScriptedTransport(script)
    sleeps: list[float] = []
    config = ResolverConfig(base_url="http://server.test")
    limiter = RateLimiter(rate_per_sec=2.0, clock=lambda: 0.0, sleep=lambda s: None)
    return Resolver(config, transport, limiter, sleep=sleeps.append), transport, sleeps


THROTTLED = TransportResponse(429, "")
NO_ITEMS = TransportResponse(200, "[]")
ONE_ITEM = TransportResponse(200, json.dumps([{"title": "A Paper"}]))


@pytest.mark.parametrize(
    "throttled,script",
    [
        ("search", {"search": [THROTTLED]}),
        ("works", {"search": [NO_ITEMS], "works": [THROTTLED]}),
        ("export", {"search": [ONE_ITEM], "export": [THROTTLED]}),
    ],
)
def test_429_is_upstream_unavailable_not_an_answer(throttled, script):
    resolver, transport, sleeps = throttle_resolver(script)
    with pytest.raises(UpstreamUnavailable, match="429"):
        resolver.resolve("10.9999/throttled")
    assert transport.calls.count(throttled) == 2
    assert transport.calls[-1] == throttled  # nothing asked after giving up
    assert sleeps == [RETRY_DELAY]  # no Retry-After


@pytest.mark.parametrize(
    "headers,expected_sleep",
    [
        ({"Retry-After": "7"}, 7.0),
        ({"retry-after": "2.5"}, 2.5),
        ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, RETRY_DELAY),
        ({"Retry-After": "-3"}, RETRY_DELAY),
        ({}, RETRY_DELAY),
    ],
)
def test_429_retries_once_after_retry_after(headers, expected_sleep):
    throttled = TransportResponse(429, "", headers)
    resolver, transport, sleeps = throttle_resolver({"search": [throttled, ONE_ITEM]})
    assert resolver._server_lookup("search", "x") == [{"title": "A Paper"}]
    assert transport.calls == ["search", "search"]
    assert sleeps == [expected_sleep]


def test_429_with_retry_after_beyond_limit_gives_up_at_once():
    throttled = TransportResponse(429, "", {"Retry-After": "3600"})
    resolver, transport, sleeps = throttle_resolver({"search": [throttled, ONE_ITEM]})
    with pytest.raises(UpstreamUnavailable, match="3600"):
        resolver._server_lookup("search", "x")
    assert transport.calls == ["search"]
    assert sleeps == []


# -- rate limiter ------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def acquire_starts(limiter, clock, n):
    """Start time of each of n acquires: the fake clock stands at it on return."""
    starts = []
    for _ in range(n):
        limiter.acquire()
        starts.append(clock.now)
    return starts


def test_rate_limiter_spacing():
    clock = FakeClock()
    limiter = RateLimiter(rate_per_sec=2.0, clock=clock, sleep=clock.sleep)
    starts = acquire_starts(limiter, clock, 6)
    assert len(starts) == 6
    for a, b in zip(starts, starts[1:]):
        assert b - a >= 0.5 - 1e-9
    assert starts[-1] - starts[0] >= 2.5 - 1e-9


def test_rate_limiter_window_bound():
    clock = FakeClock()
    limiter = RateLimiter(rate_per_sec=2.0, clock=clock, sleep=clock.sleep)
    starts = acquire_starts(limiter, clock, 10)
    for i, t in enumerate(starts):
        in_window = [s for s in starts if t <= s < t + 1.0]
        assert len(in_window) <= 2, (i, in_window)


def test_rate_limiter_no_delay_when_idle():
    clock = FakeClock()
    limiter = RateLimiter(rate_per_sec=2.0, clock=clock, sleep=clock.sleep)
    limiter.acquire()
    clock.now = 10.0
    assert acquire_starts(limiter, clock, 1) == [10.0]


# -- crossref candidate mapping ----------------------------------------------


def test_crossref_candidate_shape():
    resolver = make_resolver("replay_fallback_many.json")
    resolver._server_lookup("search", "10.9999/unknown.1")  # consume exchange 1
    candidates = resolver.crossref_fallback("10.9999/unknown.1")
    assert len(candidates) == 10
    first = candidates[0]
    assert isinstance(first, BibEntry)
    assert first.get("title") == "Candidate Paper Number 00 on Record Linkage"
    assert first.get("year") == "2015"
    assert first.get("doi") == "10.5555/cand.00"
    assert first.get("journal") == "Journal of Examples"
    assert first.get("author") == "Example, Writer 00"


def single_hit_fallback(doi: str, hit: dict) -> Resolver:
    """Resolver whose server finds nothing for ``doi`` and CrossRef returns one hit."""
    return crossref_body_fallback(doi, {"message": {"items": [hit]}})


def crossref_body_fallback(doi: str, body) -> Resolver:
    """Resolver whose server finds nothing for ``doi`` and CrossRef answers ``body``."""
    exchanges = [
        {
            "request": {"method": "POST", "url": "http://server.test/search", "body": doi},
            "response": {"status": 200, "body": "[]"},
        },
        {
            "request": {
                "method": "GET",
                "url": f"{CROSSREF_URL}/works",
                "params": {"query": doi, "rows": "10"},
            },
            "response": {"status": 200, "body": json.dumps(body)},
        },
    ]
    return make_resolver({"format_version": 1, "exchanges": exchanges})


def test_crossref_blank_title_gets_fallback_key():
    hit = {"title": [""], "DOI": "10.9999/blank.1", "issued": {"date-parts": [[2015]]}}
    result = single_hit_fallback("10.9999/blank.1", hit).resolve("10.9999/blank.1")
    assert result.status == "found"
    assert result.bibtex.citation_key == "ref"
    assert result.bibtex.get("doi") == "10.9999/blank.1"


def test_crossref_blank_author_names_get_fallback_key():
    hit = {"title": ["A Title"], "author": [{"family": " ", "given": " "}], "DOI": "10.9999/blank.2"}
    result = single_hit_fallback("10.9999/blank.2", hit).resolve("10.9999/blank.2")
    assert result.status == "found"
    # blank names are dropped, so the entry is that of a hit without authors
    no_author = {k: v for k, v in hit.items() if k != "author"}
    assert result.bibtex == single_hit_fallback("10.9999/blank.2", no_author).resolve(
        "10.9999/blank.2"
    ).bibtex
    assert result.bibtex.get("author") is None
    assert result.bibtex.get("title") == "A Title"


def test_crossref_blank_author_names_never_replace_baseline_author():
    hit = {
        "title": ["Record Linkage at Scale"],
        "author": [{"family": " ", "given": " "}, {"given": "Ann"}],
        "DOI": "10.9999/blank.3",
    }
    resolver = single_hit_fallback("10.9999/blank.3", hit)
    baseline = parse_entry("@article{k, author={Smith, Jane}, title={Record Linkage at Scale}}")
    meta = PaperMeta("p", doi="10.9999/blank.3", title="Record Linkage at Scale")
    outcome = reconcile(meta, baseline, resolver.resolve)
    assert outcome.action == "merged"
    assert outcome.result.get("author") == "Smith, Jane"
    assert FieldSlot.AUTHOR not in outcome.replaced_slots
    assert outcome.result.get("doi") == "10.9999/blank.3"


def test_crossref_author_names_are_stripped():
    hit = {
        "title": ["Record Linkage at Scale"],
        "author": [{"family": " Doe ", "given": " John"}, {"family": "Roe ", "given": "  "}],
        "DOI": "10.9999/blank.4",
    }
    result = single_hit_fallback("10.9999/blank.4", hit).resolve("10.9999/blank.4")
    assert result.bibtex.get("author") == "Doe, John and Roe"


# -- upstream JSON of the wrong shape -------------------------------------------


@pytest.mark.parametrize("body", ["null", "5", '"a string"', "true"])
def test_search_body_of_wrong_shape_has_no_items(body):
    resolver, transport, _ = throttle_resolver(
        {"search": [TransportResponse(200, body)], "works": [TransportResponse(200, "{}")]}
    )
    result = resolver.resolve("10.9999/shape.0")
    assert result.status == "not_found"
    assert transport.calls == ["search", "works"]


SHAPE_TITLE = "Record Linkage at Scale"


@pytest.mark.parametrize(
    "body",
    [
        [1, 2],
        {"message": []},
        {"message": {"items": {"title": [SHAPE_TITLE]}}},
        {"message": {"items": [SHAPE_TITLE]}},
        {"message": {"items": [{"title": [5]}]}},
        {"message": {"items": [{"title": SHAPE_TITLE}]}},
    ],
    ids=["top-level-list", "message-list", "items-object", "string-hit", "title-number", "title-string"],
)
def test_crossref_body_of_wrong_shape_has_no_candidates(body):
    for query in ("10.9999/shape.1", SHAPE_TITLE):
        result = crossref_body_fallback(query, body).resolve(query)
        assert result.status == "not_found", query
        assert result.candidates == []


GOOD_HIT = {
    "title": [SHAPE_TITLE],
    "author": [{"family": "Doe", "given": "Jane"}],
    "issued": {"date-parts": [[2020, 5]]},
    "container-title": ["Journal of Examples"],
    "DOI": "10.9999/shape.2",
}


@pytest.mark.parametrize(
    "name,value",
    [
        ("author", "Doe"),
        ("author", ["Doe", 5, None]),
        ("author", [{"family": 5, "given": ["Jane"]}]),
        ("issued", "2020"),
        ("issued", {"date-parts": [2020]}),
        ("issued", {"date-parts": [[None, 5]]}),
        ("issued", {"date-parts": [["2020"]]}),
        ("container-title", "Journal of Examples"),
        ("container-title", [7]),
        ("DOI", 10.5),
    ],
    ids=[
        "author-string",
        "author-non-objects",
        "name-parts-non-strings",
        "issued-string",
        "date-parts-flat",
        "year-null",
        "year-string",
        "container-title-string",
        "container-title-number",
        "doi-number",
    ],
)
def test_crossref_field_of_wrong_type_is_absent(name, value):
    def entry(hit):
        return single_hit_fallback("10.9999/shape.2", hit).resolve("10.9999/shape.2").bibtex

    without = {k: v for k, v in GOOD_HIT.items() if k != name}
    assert entry(dict(GOOD_HIT, **{name: value})) == entry(without)
    assert entry(GOOD_HIT) != entry(without)


# -- CrossRef work type ------------------------------------------------------------

ABSENT = object()


@pytest.mark.parametrize(
    "work_type,entry_type,venue_field",
    [
        ("journal-article", "article", "journal"),
        ("proceedings-article", "inproceedings", "booktitle"),
        ("book-chapter", "incollection", "booktitle"),
        ("posted-content", "misc", "journal"),
        ("dataset", "", "journal"),
        (ABSENT, "", "journal"),
        (["journal-article"], "", "journal"),
        (5, "", "journal"),
    ],
    ids=["journal", "proceedings", "chapter", "posted", "dataset", "absent", "list", "number"],
)
def test_crossref_type_table(work_type, entry_type, venue_field):
    hit = dict(GOOD_HIT) if work_type is ABSENT else dict(GOOD_HIT, type=work_type)
    entry = single_hit_fallback("10.9999/shape.2", hit).resolve("10.9999/shape.2").bibtex
    assert entry.entry_type == entry_type
    assert entry.get(venue_field) == "Journal of Examples"
    assert entry.get({"journal": "booktitle", "booktitle": "journal"}[venue_field]) is None
    # the rest of the entry does not depend on the type
    assert entry.citation_key == "Doe2020"
    assert list(entry.fields) == ["title", "author", venue_field, "year", "doi"]


def test_fallback_merge_of_untyped_work_keeps_baseline_type():
    resolver = single_hit_fallback("10.9999/shape.2", GOOD_HIT)
    baseline = parse_entry(
        "@inproceedings{k, author={Doe, J.}, title={Record Linkage at Scale}, booktitle={RLS}}"
    )
    outcome = reconcile(PaperMeta("p", doi="10.9999/shape.2"), baseline, resolver.resolve)
    assert outcome.action == "merged"
    assert outcome.result.entry_type == "inproceedings"
    assert FieldSlot.ENTRY_TYPE not in outcome.replaced_slots
    assert outcome.result.get("author") == "Doe, Jane"
    # an untyped work names its venue a journal, and merge_fields follows that name
    assert outcome.result.get("journal") == "Journal of Examples"
    assert outcome.result.get("booktitle") is None


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
TEXT = st.text(max_size=8) | JSON_VALUES
# besides any JSON value, each key gets values of about the right shape, so
# that works do reach the entry
SHAPED = {
    "type": st.sampled_from([*CROSSREF_ENTRY_TYPES, "dataset", " journal-article "]),
    "title": st.lists(TEXT, min_size=1, max_size=2),
    "author": st.lists(st.fixed_dictionaries({}, optional={"family": TEXT, "given": TEXT})),
    "issued": st.fixed_dictionaries({"date-parts": st.lists(st.lists(JSON_VALUES))}),
    "container-title": st.lists(TEXT, max_size=2),
    "DOI": TEXT,
}
WORKS = st.fixed_dictionaries({}, optional={k: JSON_VALUES | v for k, v in SHAPED.items()})


@settings(max_examples=200, deadline=None)
@given(works=st.lists(WORKS | JSON_VALUES, max_size=4))
def test_crossref_fallback_never_raises_on_arbitrary_json(works):
    query = "10.9999/fuzz.1"
    entries = crossref_body_fallback(query, {"message": {"items": works}}).crossref_fallback(query)
    assert len(entries) <= sum(isinstance(w, dict) for w in works)
    for entry in entries:
        assert entry.entry_type in ("", "article", "inproceedings", "incollection", "misc")
        assert isinstance(entry.fields["title"], str)
        assert all(isinstance(v, str) for v in entry.fields.values())
