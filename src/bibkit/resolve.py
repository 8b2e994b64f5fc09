"""Deterministic query resolution against a translation server.

Queries are classified (DOI > arXiv ID > PMID > ISBN > URL > title) and
routed: URLs to the server's /web endpoint, everything else to /search.
An empty /search response falls back to the CrossRef works API (up to 10
candidates). Identifier queries must yield exactly one record; title
queries are validated against the winner with a 0.85 token-overlap gate.

All upstream traffic goes through a transport seam so the module can be
exercised offline against recorded fixtures. A network error, a 5xx or a
429 is retried once (a 429 after its numeric ``Retry-After``) and then
raises ``UpstreamUnavailable``: an upstream that could not be asked never
reads as "not found".
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol
from urllib.parse import urlparse, urlunparse

from .model import BibEntry, BibParseError, parse_entry, sanitize_citation_key
from .normalize import jaccard, normalize_doi, tokenize_filtered

#: Jaccard threshold validating a title-query winner against the query.
TITLE_MATCH_THRESHOLD = 0.85

#: Maximum candidates taken from the CrossRef fallback.
CROSSREF_MAX_CANDIDATES = 10

#: Entry types of the CrossRef work types (https://api.crossref.org/types)
#: that name one; a work of any other type claims no entry type.
CROSSREF_ENTRY_TYPES = {
    "journal-article": "article",
    "proceedings-article": "inproceedings",
    "book-chapter": "incollection",
    "posted-content": "misc",
}

#: The CrossRef API the fallback asks.
CROSSREF_URL = "https://api.crossref.org"

#: Seconds waited before the one retry of a failed request without ``Retry-After``.
RETRY_DELAY = 1.0

#: Longest ``Retry-After`` (seconds) a 429 is waited out for; a longer one
#: means the upstream cannot be asked within this run.
MAX_RETRY_AFTER = 60.0


class ResolveError(Exception):
    pass


class EmptyQuery(ResolveError):
    pass


class MalformedUrl(ResolveError):
    pass


class NoCandidates(ResolveError):
    pass


class UpstreamUnavailable(ResolveError):
    pass


class ExportFailure(ResolveError):
    """Server export produced unparseable BibTeX; raw text is retained."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


@dataclass(frozen=True)
class Query:
    kind: str  # doi | arxiv_id | isbn | pmid | url | title
    value: str
    original: str


IDENTIFIER_KINDS = frozenset({"doi", "arxiv_id", "isbn", "pmid"})


@dataclass
class ResolutionResult:
    status: str  # found | not_found | title_mismatch
    candidates: list[tuple[str, float]] = field(default_factory=list)
    bibtex: BibEntry | None = None
    source: str | None = None  # search_endpoint | web_endpoint | crossref_fallback


_DOI_RE = re.compile(r"^(?:doi:\s*)?(10\.\d{4,9}/\S+)$", re.IGNORECASE)
_ARXIV_NEW_RE = re.compile(r"^(?:arxiv:\s*)?(\d{4}\.\d{4,5}(?:v\d+)?)$", re.IGNORECASE)
_ARXIV_OLD_RE = re.compile(r"^(?:arxiv:\s*)?([a-z-]+(?:\.[A-Za-z]{2})?/\d{7}(?:v\d+)?)$")
_PMID_RE = re.compile(r"^(?:pmid:?\s*)?(\d{1,8})$", re.IGNORECASE)
_ISBN_RE = re.compile(r"^(?:isbn:?\s*)?([\d -]{9,16}[\dXx])$", re.IGNORECASE)
_ARXIV_ID_SHAPE_RE = re.compile(r"^\d{4}\.\d{4,5}(?:v\d+)?$")


def classify_query(raw: str) -> Query:
    """Classify raw input; DOI-style URLs are rerouted as DOI queries."""
    s = raw.strip()
    if not s:
        raise EmptyQuery("empty query")
    m = _DOI_RE.match(s)
    if m:
        return Query("doi", normalize_doi(m.group(1)), raw)
    if s.lower().startswith(("http://", "https://")):
        parsed = urlparse(s)
        host = parsed.netloc.lower().removeprefix("www.")
        if host in ("doi.org", "dx.doi.org"):
            doi = normalize_doi(parsed.path.lstrip("/"))
            if not doi:
                raise EmptyQuery(f"no DOI in {s!r}")
            return Query("doi", doi, raw)
        return Query("url", normalize_url(s), raw)
    m = _ARXIV_NEW_RE.match(s) or _ARXIV_OLD_RE.match(s)
    if m:
        return Query("arxiv_id", m.group(1), raw)
    m = _PMID_RE.match(s)
    if m:
        return Query("pmid", m.group(1), raw)
    m = _ISBN_RE.match(s)
    if m:
        digits = re.sub(r"[ -]", "", m.group(1))
        if len(digits) in (10, 13):
            return Query("isbn", digits.upper(), raw)
    return Query("title", s, raw)


_ARXIV_PDF_RE = re.compile(r"^/pdf/(.+?)(?:\.pdf)?$")
_ARXIV_HTML_RE = re.compile(r"^/html/(.+)$")
_HF_PAPER_RE = re.compile(r"^/papers/([^/]+)/?$")


def normalize_url(url: str) -> str:
    """Rewrite arXiv PDF/HTML, alphaxiv, and HuggingFace paper links.

    All rewrites are pure string transformations; no network calls.
    """
    parsed = urlparse(url.strip())
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        raise MalformedUrl(f"not an absolute http(s) URL: {url!r}")
    host = parsed.netloc.lower().removeprefix("www.")

    if host == "alphaxiv.org" or host.endswith(".alphaxiv.org"):
        parsed = parsed._replace(netloc="arxiv.org")
        host = "arxiv.org"
    if host == "huggingface.co":
        m = _HF_PAPER_RE.match(parsed.path)
        if m and _ARXIV_ID_SHAPE_RE.match(m.group(1)):
            return f"https://arxiv.org/abs/{m.group(1)}"
        return url
    if host == "arxiv.org":
        m = _ARXIV_PDF_RE.match(parsed.path) or _ARXIV_HTML_RE.match(parsed.path)
        if m:
            parsed = parsed._replace(path=f"/abs/{m.group(1)}", query="", fragment="")
        return urlunparse(parsed._replace(netloc="arxiv.org"))
    return url


def rank_candidates(query_text: str, candidates: list[str]) -> list[tuple[str, float]]:
    """Jaccard-scored ranking with a substring tiebreaker."""
    if not candidates:
        raise NoCandidates("no candidates to rank")
    query_tokens = tokenize_filtered(query_text)
    q_lower = query_text.lower()
    scored = []
    for index, title in enumerate(candidates):
        score = jaccard(query_tokens, tokenize_filtered(title))
        t_lower = title.lower()
        substring = q_lower in t_lower or t_lower in q_lower
        scored.append((title, score, substring, index))
    scored.sort(key=lambda item: (-item[1], not item[2], item[3]))
    return [(title, score) for title, score, _, _ in scored]


# --------------------------------------------------------------------------
# transport seam


@dataclass
class TransportResponse:
    status: int
    body: str
    headers: dict[str, str] = field(default_factory=dict)


class TransportError(Exception):
    """Network-level failure (connection refused, timeout)."""


class Transport(Protocol):
    def request(
        self,
        method: str,
        url: str,
        *,
        params: dict[str, str] | None = None,
        body: str | None = None,
        headers: dict[str, str] | None = None,
    ) -> TransportResponse: ...


class HttpTransport:
    """Live transport backed by requests."""

    def __init__(self, timeout: float = 30.0):
        import requests

        self._session = requests.Session()
        self._timeout = timeout

    def request(self, method, url, *, params=None, body=None, headers=None):
        import requests

        try:
            resp = self._session.request(
                method,
                url,
                params=params,
                data=body.encode("utf-8") if body is not None else None,
                headers=headers,
                timeout=self._timeout,
                allow_redirects=False,
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        return TransportResponse(resp.status_code, resp.text, dict(resp.headers))


def _exchange_key(method, url, params, body):
    return (method.upper(), url, tuple(sorted((params or {}).items())), body or "")


class ReplayTransport:
    """Replays recorded exchanges from a fixture file, each at most once.

    An exchange without a string request method and url and an int response
    status, or with a part of another type, is a ``ValueError``.
    """

    def __init__(self, source: str | Path | dict):
        doc = source if isinstance(source, dict) else json.loads(Path(source).read_text("utf-8"))
        self._unused: list[tuple[tuple, TransportResponse]] = []
        for i, exchange in enumerate(doc["exchanges"]):
            req, resp = _get(exchange, "request"), _get(exchange, "response")
            if not (
                isinstance(_get(req, "method"), str)
                and isinstance(_get(req, "url"), str)
                and isinstance(req.get("params") or {}, dict)
                and isinstance(req.get("body") or "", str)
                and type(_get(resp, "status")) is int  # not a bool
                and isinstance(resp.get("body", ""), str)
                and isinstance(resp.get("headers", {}), dict)
            ):
                raise ValueError(f"exchange {i} is not a well-formed request and response")
            key = _exchange_key(req["method"], req["url"], req.get("params"), req.get("body"))
            response = TransportResponse(resp["status"], resp.get("body", ""), resp.get("headers", {}))
            self._unused.append((key, response))

    def request(self, method, url, *, params=None, body=None, headers=None):
        key = _exchange_key(method, url, params, body)
        for i, (recorded, _) in enumerate(self._unused):
            if recorded == key:
                return self._unused.pop(i)[1]
        raise TransportError(f"no recorded exchange for {method} {url} body={body!r}")


class RateLimiter:
    """Serializes request starts at a fixed minimum spacing.

    Strict spacing (1/rate seconds between consecutive starts) guarantees
    both properties the client promises: at most ``rate`` starts in any
    one-second window, and N sequential requests take at least
    (N-1)/rate seconds. A bursty bucket would violate the window bound.
    """

    def __init__(
        self,
        rate_per_sec: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] | None = None,
    ):
        self.min_interval = 1.0 / rate_per_sec
        self._clock = clock
        self._sleep = sleep or time.sleep  # looked up per instance, so a patched one is seen
        self._lock = threading.Lock()
        self._next_start: float | None = None

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            start = now if self._next_start is None else max(now, self._next_start)
            self._next_start = start + self.min_interval
            delay = start - now
        if delay > 0:
            self._sleep(delay)


@dataclass
class ResolverConfig:
    base_url: str
    contact: str | None = None
    rate_per_sec: float = 2.0

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "ResolverConfig":
        env = os.environ if env is None else env
        base = env.get("BIBKIT_SERVER_URL", "http://127.0.0.1:1969")
        return cls(base_url=base, contact=env.get("BIBKIT_CONTACT"))


class Resolver:
    """Shareable client; the rate limiter is the only cross-call state."""

    def __init__(
        self,
        config: ResolverConfig,
        transport: Transport | None = None,
        rate_limiter: RateLimiter | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        self.config = config
        self.transport = transport or HttpTransport()
        self.rate_limiter = rate_limiter or RateLimiter(config.rate_per_sec)
        self._sleep = sleep or time.sleep

    # -- low-level ---------------------------------------------------------

    def _request(self, method, url, *, params=None, body=None, headers=None) -> TransportResponse:
        attempts = 0
        while True:
            attempts += 1
            self.rate_limiter.acquire()
            try:
                resp = self.transport.request(method, url, params=params, body=body, headers=headers)
            except TransportError as exc:
                if attempts >= 2:
                    raise UpstreamUnavailable(str(exc)) from exc
                self._sleep(RETRY_DELAY)
                continue
            if resp.status >= 500 or resp.status == 429:
                # a throttled or failing upstream could not be asked; its
                # body is never read as an answer
                if attempts >= 2:
                    raise UpstreamUnavailable(f"upstream returned {resp.status}")
                delay = RETRY_DELAY
                if resp.status == 429:
                    delay = _retry_after(resp.headers, delay)
                    if delay > MAX_RETRY_AFTER:
                        raise UpstreamUnavailable(f"upstream asked to retry after {delay:g} s")
                self._sleep(delay)
                continue
            return resp

    def _server_lookup(self, endpoint: str, payload: str) -> list[dict]:
        """POST to /search or /web; returns candidate items ([] when none)."""
        resp = self._request(
            "POST",
            f"{self.config.base_url}/{endpoint}",
            body=payload,
            headers={"Content-Type": "text/plain"},
        )
        if resp.status not in (200, 300):
            return []
        items = _json(resp.body)
        if isinstance(items, dict):
            items = [items]
        return [item for item in _list(items) if isinstance(item, dict)]

    def _export_bibtex(self, items: list[dict]) -> BibEntry:
        resp = self._request(
            "POST",
            f"{self.config.base_url}/export",
            params={"format": "bibtex"},
            body=json.dumps(items, sort_keys=True),
            headers={"Content-Type": "application/json"},
        )
        raw = resp.body
        try:
            entry = parse_entry(raw)
        except BibParseError as exc:
            raise ExportFailure(f"unparseable BibTeX from export: {exc}", raw=raw) from exc
        return BibEntry(entry.entry_type, sanitize_citation_key(entry.citation_key), entry.fields)

    # -- public ------------------------------------------------------------

    def crossref_fallback(self, text: str) -> list[BibEntry]:
        """Entries of up to 10 CrossRef works with a title, in API order."""
        headers = {}
        if self.config.contact:
            headers["User-Agent"] = f"bibkit/0.1 (mailto:{self.config.contact})"
        resp = self._request(
            "GET",
            f"{CROSSREF_URL}/works",
            params={"query": text, "rows": str(CROSSREF_MAX_CANDIDATES)},
            headers=headers or None,
        )
        if resp.status != 200:
            return []
        works = _get(_get(_json(resp.body), "message"), "items")
        entries = [_entry_from_work(work) for work in _list(works)[:CROSSREF_MAX_CANDIDATES]]
        return [entry for entry in entries if entry is not None]

    def resolve_query(self, q: Query) -> ResolutionResult:
        endpoint = "web" if q.kind == "url" else "search"
        source = "web_endpoint" if q.kind == "url" else "search_endpoint"
        items = self._server_lookup(endpoint, q.value)

        if items:
            titles = [str(item.get("title", "")) for item in items]
            return _select(q, titles, lambda i: self._export_bibtex([items[i]]), source)

        if endpoint == "web":
            return ResolutionResult(status="not_found", source=source)

        fallback = self.crossref_fallback(q.original)
        titles = [entry.fields["title"] for entry in fallback]
        return _select(q, titles, fallback.__getitem__, "crossref_fallback")

    def resolve(self, raw: str) -> ResolutionResult:
        return self.resolve_query(classify_query(raw))


# Upstream JSON is outside input: a value of the wrong type reads as absent
# (None, [] or "").


def _json(body: str):
    """The JSON value of an upstream body, or None when it is not JSON."""
    try:
        return json.loads(body)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deeply
        return None


def _get(value, key):
    return value.get(key) if isinstance(value, dict) else None


def _list(value) -> list:
    return value if isinstance(value, list) else []


def _str(value) -> str:
    return value.strip() if isinstance(value, str) else ""


def _first_str(value) -> str | None:
    """The first element of a JSON array when it is a string, else None."""
    first = _list(value)[:1]
    return first[0] if first and isinstance(first[0], str) else None


def _issued_year(issued) -> str:
    """The year of a CrossRef ``issued`` value ``{"date-parts": [[2020, 5]]}``, else ""."""
    dates = _list(_get(issued, "date-parts"))
    date = _list(dates[0]) if dates else []
    return str(date[0]) if date and type(date[0]) is int else ""  # not a bool or null


def _retry_after(headers: dict[str, str], default: float) -> float:
    """Seconds a 429 asks the client to wait, or ``default`` if not a number."""
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                seconds = float(value)
            except (TypeError, ValueError):  # an HTTP-date, or not a value at all
                return default
            return seconds if seconds >= 0 else default  # also rejects NaN
    return default


def _select(
    q: Query, titles: list[str], build: Callable[[int], BibEntry], source: str
) -> ResolutionResult:
    """Pick one candidate and build its entry with ``build(index)``.

    No candidate is ``not_found``. Identifier queries need exactly one;
    other queries take the top of the ranking, and title queries must also
    pass the title gate.
    """
    if q.kind in IDENTIFIER_KINDS or not titles:
        if len(titles) != 1:
            # deterministic resolution never picks among alternatives
            return ResolutionResult(
                status="not_found", candidates=[(t, 1.0) for t in titles], source=source
            )
        ranked, index = [(titles[0], 1.0)], 0
    else:
        ranked = rank_candidates(q.value, titles)
        if q.kind == "title" and ranked[0][1] < TITLE_MATCH_THRESHOLD:
            return ResolutionResult(status="title_mismatch", candidates=ranked, source=source)
        index = titles.index(ranked[0][0])
    return ResolutionResult(status="found", candidates=ranked, bibtex=build(index), source=source)


def _entry_from_work(work) -> BibEntry | None:
    """The entry a CrossRef work states, or None when it has no string title.

    A ``type`` outside ``CROSSREF_ENTRY_TYPES`` claims no entry type (""). The
    venue is the ``booktitle`` of an inproceedings or incollection entry,
    else the ``journal``.
    """
    title = _first_str(_get(work, "title"))
    if title is None:  # also a work that is not an object
        return None
    entry_type = CROSSREF_ENTRY_TYPES.get(_str(work.get("type")), "")
    names = [(_str(_get(a, "family")), _str(_get(a, "given"))) for a in _list(work.get("author"))]
    parts = [f"{family}, {given}" if given else family for family, given in names if family]
    authors = " and ".join(parts)
    year = _issued_year(work.get("issued"))
    venue_field = "booktitle" if entry_type in ("inproceedings", "incollection") else "journal"
    venue = _first_str(work.get("container-title"))
    stated = [("author", authors), (venue_field, venue), ("year", year), ("doi", work.get("DOI"))]
    fields = {"title": title} | {name: v for name, v in stated if isinstance(v, str) and v}
    words = (authors or title).split(",")[0].split()
    key_seed = words[-1] + year if words else ""
    return BibEntry(entry_type, sanitize_citation_key(key_seed), fields)
