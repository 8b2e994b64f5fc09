import base64
import json
import socket
from urllib.parse import urlparse

import pytest
from hypothesis import example, given, settings, strategies as st

from bibkit import resolve
from bibkit.resolve import (
    CROSSREF_ENTRY_TYPES,
    CROSSREF_URL,
    RETRY_DELAY,
    ExportFailure,
    HttpTransport,
    QueryError,
    RateLimiter,
    ReplayTransport,
    Resolver,
    ResolverConfig,
    TransportError,
    TransportResponse,
    UpstreamUnavailable,
    classify_query,
    http_url,
    rank_candidates,
    _entry_from_work,
    _text,
)

from bibkit.model import BibEntry, FieldSlot, parse_entry, serialize_entry
from bibkit.reconcile import PaperMeta, reconcile

from conftest import load_fixture, reply, stub_server
from reference_impls import parent_text


def make_resolver(fixture: str | list) -> Resolver:
    """Offline resolver replaying a fixture file (by name) or a list of exchanges."""
    config = ResolverConfig(base_url="http://server.test")
    transport = ReplayTransport(fixture if isinstance(fixture, list) else load_fixture(fixture)["exchanges"])
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
        # a link's host is tested by its name, without a port or userinfo
        ("https://doi.org:443/10.1111/iju.13054", "doi", "10.1111/iju.13054"),
        ("https://user@arxiv.org/pdf/2510.16227", "url", "https://arxiv.org/abs/2510.16227"),
    ],
)
def test_classify_query(raw, kind, value):
    q = classify_query(raw)
    assert (q.kind, q.value) == (kind, value)
    assert q.original == raw


def test_classify_query_empty():
    with pytest.raises(QueryError):
        classify_query("   ")


@pytest.mark.parametrize(
    "raw", ["https://doi.org/", "https://dx.doi.org/", "http://www.doi.org", "https://doi.org/doi:"]
)
def test_classify_query_doi_url_without_doi(raw):
    with pytest.raises(QueryError):
        classify_query(raw)


def test_classify_query_precedence_doi_over_title():
    assert classify_query("10.1000/some words here").kind == "title"  # DOI has no spaces
    assert classify_query("10.1000/j.123").kind == "doi"


# -- URL normalization: the value classify_query gives an http(s) query --------


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
        # every URL comes back stripped, rewritten or not
        (" https://example.org/x ", "https://example.org/x"),
        ("\thttps://huggingface.co/papers/not-an-id\n", "https://huggingface.co/papers/not-an-id"),
        (" https://arxiv.org/pdf/2510.16227 ", "https://arxiv.org/abs/2510.16227"),
    ],
)
def test_normalize_url(raw, expected):
    assert classify_query(raw) == resolve.Query("url", expected, raw)


def test_normalize_url_malformed():
    # after the first: an unclosed bracket, a host in brackets that is not IPv6, host text after the
    # brackets, no host, two bad ports
    for raw in [
        "https://", "http://[::1", "https://[x]/", "http://[::1]x/paper", "http://:1969", "http://h:0",
        "http://h:99999",
    ]:
        with pytest.raises(QueryError, match=r"^not an absolute http\(s\) URL: "):
            classify_query(raw)


@pytest.mark.parametrize(
    "url",
    [
        "http://h", "HTTPS://h:1/p?q#f", "http://u:p@h:65535", "http://[::1]:80/", "http://[v1.x]/", "http://h:/",
        "http://u@[::1]:80/",
    ],
)
def test_http_url_accepts(url):
    assert http_url(url) == urlparse(url)


@pytest.mark.parametrize(
    "url",
    [
        "h", "ftp://h", "http:/h", "http://", "http://:1969", "http://@/", "http://u@:1/",
        "http://h:0", "http://h:65536", "http://h:x", "http://h:+80", "http://[x]", "http://[]/", "http://[::1",
        # host text beside the brackets, which urlsplit drops from hostname
        "http://[::1]x/", "http://[::1]x:80/", "http://x[::1]/", "http://u@x[::1]:80/",
    ],
)
def test_http_url_rejects(url):
    assert http_url(url) is None


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
    assert rank_candidates("q", []) == []


def test_rank_untitled_candidate_gets_no_substring_tiebreak():
    # "" is a substring of every query, yet an untitled candidate contains nothing of it
    ranked = rank_candidates("https://arxiv.org/abs/2401.00001", ["Attention Is All You Need", ""])
    assert ranked == [("Attention Is All You Need", 0.0), ("", 0.0)]


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


def test_web_300_is_not_found_and_exports_nothing():
    # a 300 lists the page's items to choose from; the replay holds no /export, so one sent would raise
    result = make_resolver("replay_web_choices.json").resolve("https://example.org/page")
    assert (result.status, result.source, result.candidates, result.bibtex) == (
        "not_found", "web_endpoint", (), None
    )


def test_search_300_reads_as_no_server_answer_and_asks_crossref():
    result = make_resolver("replay_search_choices.json").resolve("10.1234/abc")
    assert (result.status, result.source) == ("found", "crossref_fallback")
    assert result.bibtex.get("doi") == "10.1234/abc"


def test_a_server_url_with_a_trailing_slash_joins_endpoints_with_one():
    # the fixture records http://server.test/search; a second "/" would miss it
    exchanges = load_fixture("replay_doi_found.json")["exchanges"]
    limiter = RateLimiter(rate_per_sec=2.0, clock=lambda: 0.0, sleep=lambda s: None)
    config = ResolverConfig(base_url="http://server.test/")
    resolver = Resolver(config, transport=ReplayTransport(exchanges), rate_limiter=limiter, sleep=lambda s: None)
    assert resolver.config.base_url == "http://server.test"
    result = resolver.resolve("10.1111/iju.13054")
    assert result == make_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    assert result.status == "found"


def test_a_title_query_of_no_content_tokens_matches_no_item():
    # "On the" is all stopwords: its empty token set scores 1.0 against an untitled item
    untitled, other = {"itemType": "journalArticle", "DOI": "10.9999/other"}, {"title": "Something Else Entirely"}
    exchanges = [
        server_exchange("search", "On the", [untitled, other]),
        export_exchange(untitled, body="@article{other2020, doi = {10.9999/other}}"),
    ]
    result = make_resolver(exchanges).resolve("On the")
    assert (result.status, result.bibtex) == ("title_mismatch", None)
    assert result.candidates == [("", 1.0), ("Something Else Entirely", 0.0)]
    baseline = BibEntry("article", "k", {"title": "On the", "doi": "10.1111/mine"})
    outcome = reconcile(PaperMeta("p", title="On the"), baseline, make_resolver(exchanges).resolve)
    assert (outcome.action, outcome.result) == ("kept_baseline_title_mismatch", baseline)


def test_determinism_same_fixture_same_result():
    first = make_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    second = make_resolver("replay_doi_found.json").resolve("10.1111/iju.13054")
    assert first == second


def test_replay_answers_one_request_in_recorded_order_each_once():
    request = {"method": "POST", "url": "http://server.test/search", "body": "10.1111/iju.13054"}
    transport = ReplayTransport([
        {"request": request, "response": {"status": 200, "body": "first"}},
        {"request": dict(request, body="other"), "response": {"status": 200, "body": "other"}},
        {"request": request, "response": {"status": 200, "body": "second"}},
    ])

    def send(body=request["body"]):
        return transport.request("POST", request["url"], body=body).body

    assert [send(), send()] == ["first", "second"]
    with pytest.raises(TransportError):
        send()
    assert send("other") == "other"


# -- export memo -------------------------------------------------------------


ITEM = {"title": "Attention Is All You Need", "DOI": "10.9999/memo.1", "key": "ABCD1234"}
ITEM_BIBTEX = "@inproceedings{vaswani2017, title = {Attention Is All You Need}, doi = {10.9999/memo.1}}"
MEMO_URL = "https://arxiv.org/abs/2401.00001"


def server_exchange(endpoint: str, query: str, items: list[dict]) -> dict:
    return {
        "request": {"method": "POST", "url": f"http://server.test/{endpoint}", "body": query},
        "response": {"status": 200, "body": json.dumps(items)},
    }


def export_exchange(item: dict, status: int = 200, body: str = ITEM_BIBTEX) -> dict:
    return {
        "request": {
            "method": "POST",
            "url": "http://server.test/export",
            "params": {"format": "bibtex"},
            "body": json.dumps([item], sort_keys=True),
        },
        "response": {"status": status, "body": body},
    }


def test_an_item_two_queries_reach_is_exported_once():
    # one /export is recorded, and the replay answers it once: a second export would raise
    resolver = make_resolver([
        server_exchange("search", "10.9999/memo.1", [ITEM]),
        server_exchange("web", MEMO_URL, [dict(reversed(ITEM.items()))]),  # key order does not matter
        export_exchange(ITEM),
    ])
    by_doi = resolver.resolve("10.9999/memo.1")
    by_url = resolver.resolve(MEMO_URL)
    assert (by_doi.status, by_url.status) == ("found", "found")
    assert by_doi.bibtex == by_url.bibtex == parse_entry(ITEM_BIBTEX)


@pytest.mark.parametrize(
    "failed,error",
    [
        ([export_exchange(ITEM, 404, "@misc{k, title={Not found}}")], ExportFailure),
        ([export_exchange(ITEM, 200, "this is not bibtex")], ExportFailure),
        ([export_exchange(ITEM, 503, ""), export_exchange(ITEM, 503, "")], UpstreamUnavailable),
    ],
    ids=["non-200", "unparseable", "unavailable"],
)
def test_a_failed_export_is_not_kept(failed, error):
    resolver = make_resolver([
        server_exchange("search", "10.9999/memo.1", [ITEM]),
        server_exchange("web", MEMO_URL, [ITEM]),
        *failed,
        export_exchange(ITEM),  # the next query that reaches the item asks again
    ])
    with pytest.raises(error):
        resolver.resolve("10.9999/memo.1")
    assert resolver.resolve(MEMO_URL).bibtex == parse_entry(ITEM_BIBTEX)


def test_web_reply_exports_its_titled_item_before_an_untitled_one():
    # only the titled item's /export is recorded: exporting the untitled one would raise
    untitled = {"itemType": "webpage", "url": MEMO_URL}
    resolver = make_resolver([server_exchange("web", MEMO_URL, [ITEM, untitled]), export_exchange(ITEM)])
    result = resolver.resolve(MEMO_URL)
    assert result.candidates == [("Attention Is All You Need", 0.0), ("", 0.0)]
    assert result.bibtex == parse_entry(ITEM_BIBTEX)


@pytest.mark.parametrize("endpoint, query", [("search", "10.9999/memo.1"), ("web", MEMO_URL)])
def test_a_reply_of_one_object_reads_as_one_item(endpoint, query):
    reply = server_exchange(endpoint, query, [])
    reply["response"]["body"] = json.dumps(ITEM)  # the object itself, not an array of it
    result = make_resolver([reply, export_exchange(ITEM)]).resolve(query)
    assert result.status == "found"
    assert [title for title, _ in result.candidates] == [ITEM["title"]]
    assert result.bibtex == parse_entry(ITEM_BIBTEX)


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


def acquire_starts(limiter, clock, n, upstream="http://server.test"):
    """Start time of each of n acquires: the fake clock stands at it on return."""
    starts = []
    for _ in range(n):
        limiter.acquire(upstream)
        starts.append(clock.now)
    return starts


def assert_window_bound(starts):
    for i, t in enumerate(starts):
        in_window = [s for s in starts if t <= s < t + 1.0]
        assert len(in_window) <= 2, (i, in_window)


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
    assert_window_bound(acquire_starts(limiter, clock, 10))


def test_rate_limiter_no_delay_when_idle():
    clock = FakeClock()
    limiter = RateLimiter(rate_per_sec=2.0, clock=clock, sleep=clock.sleep)
    limiter.acquire("http://server.test")
    clock.now = 10.0
    assert acquire_starts(limiter, clock, 1) == [10.0]


def test_rate_limiter_spaces_each_upstream_on_its_own():
    clock = FakeClock()
    limiter = RateLimiter(rate_per_sec=2.0, clock=clock, sleep=clock.sleep)
    starts = {"http://server.test": [], CROSSREF_URL: []}
    for _ in range(6):
        for upstream, seen in starts.items():
            limiter.acquire(upstream)
            seen.append(clock.now)
    # the CrossRef start right after each server start waits for no slot
    spaced = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    assert starts == {"http://server.test": spaced, CROSSREF_URL: spaced}
    for seen in starts.values():
        assert_window_bound(seen)


class ClockedTransport:
    """Answers every request with an empty list and records (endpoint, start time)."""

    def __init__(self, clock):
        self.clock = clock
        self.starts: list[tuple[str, float]] = []

    def request(self, method, url, *, params=None, body=None, headers=None):
        endpoint = url.rsplit("/", 1)[-1]
        self.starts.append((endpoint, self.clock.now))
        return TransportResponse(200, '{"message": {"items": []}}' if endpoint == "works" else "[]")


def test_crossref_fallback_does_not_wait_for_the_server_slot():
    clock = FakeClock()
    transport = ClockedTransport(clock)
    limiter = RateLimiter(ResolverConfig.rate_per_sec, clock=clock, sleep=clock.sleep)
    resolver = Resolver(ResolverConfig(base_url="http://server.test"), transport, limiter, sleep=lambda s: None)
    assert resolver.resolve("A Paper Nobody Indexed").source == "crossref_fallback"
    resolver.resolve("Another Paper")
    assert transport.starts == [("search", 0.0), ("works", 0.0), ("search", 0.5), ("works", 0.5)]


# -- crossref candidate mapping ----------------------------------------------


def test_crossref_candidate_shape():
    resolver = make_resolver("replay_fallback_many.json")
    resolver._server_lookup("search", "10.9999/unknown.1")  # consume exchange 1
    candidates = resolver.crossref_fallback("10.9999/unknown.1")
    assert len(candidates) == 10
    title, work = candidates[0]
    first = _entry_from_work(title, work)
    assert isinstance(first, BibEntry)
    assert first.get("title") == title == "Candidate Paper Number 00 on Record Linkage"
    assert first.get("year") == "2015"
    assert first.get("doi") == "10.5555/cand.00"
    assert first.get("journal") == "Journal of Examples"
    assert first.get("author") == "Example, Writer 00"


def test_crossref_fallback_builds_the_winning_work_only(monkeypatch):
    query = "Record Linkage at Scale"
    junk = {"author": [{"family": "Doe}"}, 7], "issued": {"date-parts": [["x"]]}, "DOI": "{", "type": []}
    works = [dict(junk, title=[f"Unrelated Work {i}"], **{"container-title": [i]}) for i in range(9)]
    winner = {
        "title": [query],
        "type": "journal-article",
        "author": [{"family": "Doe", "given": "Jane"}],
        "issued": {"date-parts": [[2019]]},
        "container-title": ["Journal of Examples"],
        "DOI": "10.5555/winner",
    }
    works.insert(4, winner)
    built = []
    monkeypatch.setattr(
        resolve, "_entry_from_work", lambda title, work: built.append(work) or _entry_from_work(title, work)
    )
    result = crossref_body_fallback(query, {"message": {"items": works}}).resolve(query)
    assert result.status == "found"
    assert result.source == "crossref_fallback"
    assert len(result.candidates) == 10
    assert result.bibtex == _entry_from_work(query, winner)
    assert built == [winner]


class RecordingTransport:
    """Answers every request with an empty 200 and records what was sent."""

    def __init__(self):
        self.calls: list[tuple[str, str, dict | None]] = []

    def request(self, method, url, *, params=None, body=None, headers=None):
        self.calls.append((method, url, headers))
        return TransportResponse(200, "{}")


@pytest.mark.parametrize(
    "env,user_agent",
    [({"BIBKIT_CONTACT": "me@example.org"}, "bibkit/0.1 (mailto:me@example.org)"), ({}, None)],
)
def test_crossref_request_names_the_contact(monkeypatch, env, user_agent):
    monkeypatch.delenv("BIBKIT_CONTACT", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    transport = RecordingTransport()
    limiter = RateLimiter(ResolverConfig.rate_per_sec, clock=lambda: 0.0, sleep=lambda s: None)
    resolver = Resolver(ResolverConfig.from_env(), transport, limiter, sleep=lambda s: None)
    assert resolver.crossref_fallback("A Paper") == []
    [(method, url, headers)] = transport.calls
    assert (method, url) == ("GET", f"{CROSSREF_URL}/works")
    assert (headers or {}).get("User-Agent") == user_agent


def test_http_transport_connection_refused_is_transport_error(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # a proxy setting must not reroute the request
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # the socket is closed and never listened, so nothing accepts on the port
    with pytest.raises(TransportError):
        HttpTransport().request("GET", f"http://127.0.0.1:{port}/")


@pytest.mark.parametrize(
    "content_type,encoding",
    [
        ("text/plain", "utf-8"),
        ("application/json", "utf-8"),
        ("text/plain; charset=ISO-8859-1", "latin-1"),
    ],
)
def test_http_transport_reads_a_body_without_a_charset_as_utf8(monkeypatch, content_type, encoding):
    text = '"Sánchez, María"'
    _, response = transport_answer(
        monkeypatch, reply(200, text.encode(encoding), {"Content-Type": content_type}), "POST", "/export", body="[]"
    )
    assert response.body == text


# The transport's contract, as the resolver reads it: every status is a
# response, and a reply that cannot be read whole is a TransportError.


def transport_answer(monkeypatch, send, method="GET", path="/search", **kwargs):
    """The paths a stub that answers each with ``send`` was asked, and the transport's response to one request."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # a proxy setting must not reroute the request
    with stub_server(lambda asked: send) as (url, paths):
        response = HttpTransport().request(method, url + path, **kwargs)
    return paths, response


def test_http_transport_returns_a_redirect_without_following_it(monkeypatch):
    paths, response = transport_answer(monkeypatch, reply(302, headers={"Location": "/elsewhere"}))
    assert paths == ["/search"]
    assert response.status == 302
    assert response.headers["Location"] == "/elsewhere"


def test_http_transport_returns_an_error_status_with_its_body(monkeypatch):
    busy = reply(503, b"busy", {"Content-Type": "text/plain"})
    _, response = transport_answer(monkeypatch, busy, "POST", body="10.1234/x")
    assert (response.status, response.body) == (503, "busy")


def test_http_transport_passes_a_429s_retry_after_to_the_resolver(monkeypatch):
    _, response = transport_answer(monkeypatch, reply(429, headers={"Retry-After": "7"}))
    assert response.status == 429
    assert resolve._retry_after(response.headers) == 7.0


def test_http_transport_reads_an_unknown_charset_as_utf8_with_replacements(monkeypatch):
    body = "Sánchez".encode("latin-1") + " María".encode("utf-8")
    _, response = transport_answer(monkeypatch, reply(200, body, {"Content-Type": "text/plain; charset=x-unknown"}))
    assert response.body == "S\ufffdnchez María"


def test_http_transport_reply_cut_short_of_its_content_length_is_transport_error(monkeypatch):
    with pytest.raises(TransportError):
        transport_answer(monkeypatch, reply(200, b"[]", {"Content-Length": "100"}))


def test_http_transport_encodes_params_into_the_query_string(monkeypatch):
    params = {"query": "Déjà vu: a/b & c+d", "rows": "10"}
    paths, _ = transport_answer(monkeypatch, reply(200, b"{}"), path="/works", params=params)
    assert paths == ["/works?query=D%C3%A9j%C3%A0+vu%3A+a%2Fb+%26+c%2Bd&rows=10"]


@pytest.mark.parametrize(
    "userinfo,authorization",
    [("u:p%40ss@", "Basic " + base64.b64encode(b"u:p@ss").decode()), ("u@", None)],  # no password: no auth
)
def test_http_transport_sends_the_urls_credentials_as_basic_auth(monkeypatch, userinfo, authorization):
    asked = []

    def send(handler):
        asked.append(handler.headers.get("Authorization"))
        reply(200, b"[]")(handler)

    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with stub_server(lambda path: send) as (url, paths):
        response = HttpTransport().request("GET", url.replace("//", "//" + userinfo) + "/search")
    assert (response.status, paths, asked) == (200, ["/search"], [authorization])


def test_http_transport_percent_encodes_a_space_and_non_ascii_in_the_path(monkeypatch):
    paths, response = transport_answer(monkeypatch, reply(200, b"[]"), path="/a b/%20é/search", params={"q": "x"})
    assert (response.status, paths) == (200, ["/a%20b/%20%C3%A9/search?q=x"])


def test_http_transport_reads_a_body_up_to_its_bound(monkeypatch):
    monkeypatch.setattr(resolve, "MAX_BODY_BYTES", 8)
    _, response = transport_answer(monkeypatch, reply(200, b"12345678"))
    assert response.body == "12345678"
    with pytest.raises(TransportError, match="longer than 8 bytes"):
        transport_answer(monkeypatch, reply(200, b"123456789"))
    with pytest.raises(TransportError, match="longer than 8 bytes"):  # an error status's body too
        transport_answer(monkeypatch, reply(503, b"123456789"))


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
    return make_resolver(exchanges)


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


@pytest.mark.parametrize("source", ["export", "crossref"])
def test_blank_authoritative_field_never_replaces_a_baseline_value(source):
    doi = "10.9999/blank.5"
    if source == "export":
        hit = {"title": "Real Title", "DOI": doi}
        export = {"method": "POST", "url": "http://server.test/export", "params": {"format": "bibtex"}}
        resolver = make_resolver([
            {
                "request": {"method": "POST", "url": "http://server.test/search", "body": doi},
                "response": {"status": 200, "body": json.dumps([hit])},
            },
            {
                "request": dict(export, body=json.dumps([hit], sort_keys=True)),
                "response": {"status": 200, "body": f"@article{{x, title = {{}}, pages = {{ }}, doi = {{{doi}}}}}"},
            },
        ])
    else:
        resolver = single_hit_fallback(doi, {"title": ["   "], "DOI": doi})
    baseline = parse_entry("@article{k, title={Real Title}, pages={1--2}}")
    outcome = reconcile(PaperMeta("p", doi=doi), baseline, resolver.resolve)
    assert outcome.action == "merged"
    assert outcome.result.fields == {"title": "Real Title", "pages": "1--2", "doi": doi}
    assert not {FieldSlot.TITLE, FieldSlot.PAGES} & outcome.replaced_slots


@pytest.mark.parametrize("title", [["Attention Is All You Need"], None], ids=["list", "null"])
def test_search_title_of_wrong_type_ranks_as_untitled(title):
    query = "Attention Is All You Need"
    # the replay holds no /export: a found result would fail asking for one
    resolver = make_resolver([
        {
            "request": {"method": "POST", "url": "http://server.test/search", "body": query},
            "response": {"status": 200, "body": json.dumps([{"title": title}])},
        },
    ])
    result = resolver.resolve(query)
    assert result.status == "title_mismatch"
    assert result.candidates == [("", 0.0)]


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
# strings whose braces nest and strings whose braces do not
BRACED = st.text(alphabet="{}a ,", max_size=8) | st.sampled_from(["Robust {Set cover", "Doe}", "}{", "{A}"])
TEXT = st.text(max_size=8) | BRACED | JSON_VALUES
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


@settings(max_examples=1000)
@given(st.text(alphabet="{}a ,", max_size=12) | TEXT)
@example("A} and {B and C")  # equal counts, but a '}' comes before its '{'
@example("{a}}{")  # a '}' at depth 0 after a closed group
@example("{{a}{b}}c{d}")  # nested groups
@example("Robust {Set cover")  # an unclosed brace
def test_text_agrees_with_parent_brace_scan(value):
    assert _text(value) == parent_text(value)


@settings(max_examples=200, deadline=None)
@given(works=st.lists(WORKS | JSON_VALUES, max_size=4))
@example(works=[{"title": ["Robust {Set cover"]}])  # an unclosed brace
@example(works=[{"title": ["Robust {Set cover"], "author": [{"family": "Doe}"}]}])
@example(works=[{"title": ["A"], "container-title": ["}{"], "DOI": "10.1/{"}])
def test_crossref_fallback_never_raises_on_arbitrary_json(works):
    query = "10.9999/fuzz.1"
    candidates = crossref_body_fallback(query, {"message": {"items": works}}).crossref_fallback(query)
    assert len(candidates) <= sum(isinstance(w, dict) for w in works)
    for title, work in candidates:
        entry = _entry_from_work(title, work)
        assert entry.fields["title"] == title
        assert entry.entry_type in ("", "article", "inproceedings", "incollection", "misc")
        assert isinstance(entry.fields["title"], str)
        assert all(isinstance(v, str) for v in entry.fields.values())
        # as ``lookup`` prints it, and as a merge writes it into a .bib file
        printed = entry._replace(entry_type=entry.entry_type or "misc")
        assert parse_entry(serialize_entry(printed)) == printed
