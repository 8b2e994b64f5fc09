"""Deterministic query resolution against a translation server.

Queries are classified (DOI > arXiv ID > PMID > ISBN > URL > title) and
routed: URLs to the server's /web endpoint, everything else to /search.
An empty /search response falls back to the CrossRef works API (up to 10
candidates). Identifier queries must yield exactly one record; title
queries are validated against the winner with a 0.85 token-overlap gate.

All upstream traffic goes through a transport seam so the module can be
exercised offline against recorded fixtures. Request starts are spaced per
upstream (the translation server, CrossRef) at the one rate: each sees at
most ``ResolverConfig.rate_per_sec`` starts in any one-second window, and N
requests to one upstream take at least (N-1)/rate seconds. A network
error, a 5xx other than 501 or a 429 is retried once (a 429 after its
numeric ``Retry-After``) and then raises ``UpstreamUnavailable``: an
upstream that could not be asked never reads as "not found". A 501 is an
answer: the translation server has no translator for the payload or finds
no identifier in it. Only a 200 from /search or /web is read as items; a
300 lists choices, so it reads like an empty reply.

A ``Resolver`` keeps the entry ``/export`` gave each item for its lifetime (the
CLI builds one per command run), so no item is exported twice; a long-lived
library ``Resolver`` keeps one entry per distinct exported item.
"""

from __future__ import annotations

import ipaddress
import json
import os
import re
import time
from collections import deque
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence
from urllib.parse import ParseResult, quote, unquote, urlencode, urlparse, urlsplit, urlunparse, urlunsplit

from .model import BibEntry, BibParseError, _close, parse_entry, sanitize_citation_key
from .normalize import ARXIV_NEW_ID, ARXIV_OLD_ID, jaccard, normalize_doi, tokenize_filtered

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

#: Seconds the live transport waits to connect and for each read.
HTTP_TIMEOUT = 30.0
#: Longest response body (bytes) the live transport reads; a longer one is a ``TransportError``.
MAX_BODY_BYTES = 16 * 1024 * 1024


class QueryError(Exception):
    """A query that is empty, names no DOI, or is a URL that is not absolute http(s)."""


class UpstreamUnavailable(Exception):
    pass


class ExportFailure(Exception):
    """Server export answered other than 200, or with unparseable BibTeX."""


class Query(NamedTuple):
    kind: str  # doi | arxiv_id | isbn | pmid | url | title
    value: str
    original: str


IDENTIFIER_KINDS = frozenset({"doi", "arxiv_id", "isbn", "pmid"})


class ResolutionResult(NamedTuple):
    status: str  # found | not_found | title_mismatch
    candidates: Sequence[tuple[str, float]] = ()
    bibtex: BibEntry | None = None
    source: str | None = None  # search_endpoint | web_endpoint | crossref_fallback


_DOI_RE = re.compile(r"^(?:doi:\s*)?(10\.\d{4,9}/\S+)$", re.IGNORECASE)
_ARXIV_NEW_RE = re.compile(rf"^(?:arxiv:\s*)?({ARXIV_NEW_ID}(?:v\d+)?)$", re.IGNORECASE)
_ARXIV_OLD_RE = re.compile(rf"^(?:arxiv:\s*)?({ARXIV_OLD_ID}(?:v\d+)?)$")
_PMID_RE = re.compile(r"^(?:pmid:?\s*)?(\d{1,8})$", re.IGNORECASE)
_ISBN_RE = re.compile(r"^(?:isbn:?\s*)?([\d -]{9,16}[\dXx])$", re.IGNORECASE)
_ISBN_SEPARATOR_RE = re.compile(r"[ -]")
_ARXIV_ID_SHAPE_RE = re.compile(rf"^{ARXIV_NEW_ID}(?:v\d+)?$")


def classify_query(raw: str) -> Query:
    """Classify raw input; DOI-style URLs are rerouted as DOI queries."""
    s = raw.strip()
    if not s:
        raise QueryError("empty query")
    m = _DOI_RE.match(s)
    if m:
        return Query("doi", normalize_doi(m.group(1)), raw)
    if s.lower().startswith(("http://", "https://")):
        parsed = http_url(s)  # None: _rewrite_url below raises the QueryError
        if parsed and parsed.hostname.removeprefix("www.") in ("doi.org", "dx.doi.org"):
            doi = normalize_doi(parsed.path.lstrip("/"))
            if not doi:
                raise QueryError(f"no DOI in {s!r}")
            return Query("doi", doi, raw)
        return Query("url", _rewrite_url(s, parsed), raw)
    m = _ARXIV_NEW_RE.match(s) or _ARXIV_OLD_RE.match(s)
    if m:
        return Query("arxiv_id", m.group(1), raw)
    m = _PMID_RE.match(s)
    if m:
        return Query("pmid", m.group(1), raw)
    m = _ISBN_RE.match(s)
    if m:
        digits = _ISBN_SEPARATOR_RE.sub("", m.group(1))
        if len(digits) in (10, 13):
            return Query("isbn", digits.upper(), raw)
    return Query("title", s, raw)


_ARXIV_PDF_RE = re.compile(r"^/pdf/(.+?)(?:\.pdf)?$")
_ARXIV_HTML_RE = re.compile(r"^/html/(.+)$")
_HF_PAPER_RE = re.compile(r"^/papers/([^/]+)/?$")


def http_url(url: str) -> ParseResult | None:
    """The parse of ``url`` when it is an absolute http(s) URL, else None.

    That is: the scheme is http or https, the host name is not empty, a
    port (if one is given) is 1-65535, and a host in brackets is an IPv6 or
    IPvFuture address with no other host text around the brackets. This is
    the one test of a server URL and a query URL.
    """
    try:
        parsed = urlparse(url)
        before, bracket, rest = parsed.netloc.partition("[")
        bracketed, _, after = rest.partition("]")
        if bracket:
            # urlsplit reads the host inside the brackets and drops text around them
            if before[-1:] not in ("", "@") or after[:1] not in ("", ":"):
                return None
            if not bracketed.startswith("v"):  # v: an IPvFuture address
                ipaddress.IPv6Address(bracketed)  # urlsplit checks it from Python 3.11.4
        port = parsed.port
    except ValueError:  # an unclosed bracket, a bracketed host not IPv6, or a port not a number up to 65535
        return None
    return parsed if parsed.scheme in ("http", "https") and parsed.hostname and port != 0 else None


def _rewrite_url(url: str, parsed: ParseResult | None) -> str:
    """Rewrite arXiv PDF/HTML, alphaxiv, and HuggingFace paper links in a stripped ``url``; others come back as is.

    ``parsed`` is ``url``'s ``http_url`` parse; None is a ``QueryError``. No network calls.
    """
    if parsed is None:
        raise QueryError(f"not an absolute http(s) URL: {url!r}")
    host = parsed.hostname.removeprefix("www.")

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
    query_tokens = tokenize_filtered(query_text)
    q_lower = query_text.lower()
    scored = []
    for index, title in enumerate(candidates):
        score = jaccard(query_tokens, tokenize_filtered(title))
        t_lower = title.lower()
        substring = bool(t_lower) and (q_lower in t_lower or t_lower in q_lower)  # "" is in every string
        scored.append((title, score, substring, index))
    scored.sort(key=lambda item: (-item[1], not item[2], item[3]))
    return [(title, score) for title, score, _, _ in scored]


# --------------------------------------------------------------------------
# transport seam


class TransportResponse(NamedTuple):
    status: int
    body: str
    headers: Mapping[str, str] = MappingProxyType({})  # read-only, so the one default is never changed


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
    """Live transport on ``urllib.request``: every status is a response, and no redirect is followed."""

    def __init__(self):
        import urllib.request

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):
                return None  # so the 3xx is raised as an HTTPError, which ``request`` reads

        self._open = urllib.request.build_opener(NoRedirect).open

    def request(self, method, url, *, params=None, body=None, headers=None):
        import base64
        import http.client
        import urllib.error
        import urllib.request

        data = body.encode("utf-8") if body is not None else None
        headers = dict(headers or {})
        try:
            parts = urlsplit(url)
            if parts.password is not None:  # credentials in the URL are sent as Basic auth, as requests sent them
                pair = f"{unquote(parts.username)}:{unquote(parts.password)}".encode("latin-1")
                headers["Authorization"] = "Basic " + base64.b64encode(pair).decode("ascii")
            # a space or non-ASCII is percent-encoded as requests did; params are form-encoded, a space as "+"
            path, query = (quote(part, safe="!#$%&'()*+,/:;=?@[]~") for part in (parts.path, parts.query))
            query = "&".join(q for q in (query, urlencode(params or {})) if q)
            url = urlunsplit((parts.scheme, parts.netloc.rpartition("@")[2], path, query, ""))
            req = urllib.request.Request(url, data, headers, method=method)
            try:
                resp = self._open(req, timeout=HTTP_TIMEOUT)
            except urllib.error.HTTPError as exc:  # any status but 2xx
                resp = exc
            with resp:
                raw, charset = resp.read(MAX_BODY_BYTES + 1), resp.headers.get_content_charset()
                if len(raw) > MAX_BODY_BYTES:
                    raise TransportError(f"response body longer than {MAX_BODY_BYTES} bytes")
                resp.read()  # b"" after a whole body; one cut short of its length raises IncompleteRead
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            text = raw.decode(charset or "utf-8", errors="replace")
        except LookupError:  # a charset Python does not know
            text = raw.decode("utf-8", errors="replace")
        return TransportResponse(resp.status, text, dict(resp.headers))


def _exchange_key(method, url, params, body):
    return (method.upper(), url, tuple(sorted((params or {}).items())), body or "")


class ReplayTransport:
    """Replays recorded exchanges (a fixture file's ``exchanges`` list), each at most once.

    Of the exchanges recorded for one request, the first recorded answers
    first. An exchange without a string request method and url and an int
    response status, or with a part of another type, is a ``ValueError``.
    """

    def __init__(self, exchanges: list[dict]):
        self._unused: dict[tuple, deque[TransportResponse]] = {}  # per key, first recorded first
        for i, exchange in enumerate(exchanges):
            req, resp = _get(exchange, "request"), _get(exchange, "response")
            if not (
                isinstance(_get(req, "method"), str)
                and isinstance(_get(req, "url"), str)
                and isinstance(params := req.get("params") or {}, dict)
                and all(isinstance(v, str) for v in params.values())
                and isinstance(req.get("body") or "", str)
                and type(_get(resp, "status")) is int  # not a bool
                and isinstance(resp.get("body", ""), str)
                and isinstance(resp.get("headers", {}), dict)
            ):
                raise ValueError(f"exchange {i} is not a well-formed request and response")
            key = _exchange_key(req["method"], req["url"], req.get("params"), req.get("body"))
            response = TransportResponse(resp["status"], resp.get("body", ""), resp.get("headers", {}))
            self._unused.setdefault(key, deque()).append(response)

    def request(self, method, url, *, params=None, body=None, headers=None):
        unused = self._unused.get(_exchange_key(method, url, params, body))
        if unused:
            return unused.popleft()
        raise TransportError(f"no recorded exchange for {method} {url} body={body!r}")


class RateLimiter:
    """Serializes request starts to each upstream at a fixed minimum spacing.

    An upstream is named by its base URL. Strict spacing (1/rate seconds
    between consecutive starts to one upstream) guarantees both properties
    the client promises, per upstream: at most ``rate`` starts in any
    one-second window, and N sequential requests take at least (N-1)/rate
    seconds. A bursty bucket would violate the window bound. Requests to
    different upstreams never wait on each other.
    """

    def __init__(
        self,
        rate_per_sec: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] | None = None,
    ):
        self.min_interval = 1.0 / rate_per_sec
        self._clock = clock
        self._sleep = sleep or time.sleep  # looked up per instance, so a patched one is seen
        self._next_start: dict[str, float] = {}  # upstream -> earliest start of its next request

    def acquire(self, upstream: str) -> None:
        now = self._clock()
        start = max(now, self._next_start.get(upstream, now))
        self._next_start[upstream] = start + self.min_interval
        if start > now:
            self._sleep(start - now)


class ResolverConfig(NamedTuple):
    base_url: str
    contact: str | None = None
    rate_per_sec = 2.0  # requests per second, the one rate; not annotated, so not a field

    @classmethod
    def from_env(cls) -> "ResolverConfig":
        base = os.environ.get("BIBKIT_SERVER_URL", "http://127.0.0.1:1969")
        return cls(base_url=base, contact=os.environ.get("BIBKIT_CONTACT"))


class Resolver:
    """Client for one thread at a time; across calls it keeps the limiter and each item's export."""

    def __init__(
        self,
        config: ResolverConfig,
        transport: Transport | None = None,
        rate_limiter: RateLimiter | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        self.config = config._replace(base_url=config.base_url.rstrip("/"))  # endpoints are joined with a "/"
        self.transport = transport or HttpTransport()
        self.rate_limiter = rate_limiter or RateLimiter(config.rate_per_sec)
        self._sleep = sleep or time.sleep
        self._exported: dict[str, BibEntry] = {}  # encoded item -> its /export entry; no failure is kept

    # -- low-level ---------------------------------------------------------

    def _request(self, method, base, path, *, params=None, body=None, headers=None) -> TransportResponse:
        """Send ``method`` to ``base + path``, spaced on ``base``'s slot of the rate limiter."""
        url = base + path
        for attempt in (1, 2):
            self.rate_limiter.acquire(base)
            try:
                resp = self.transport.request(method, url, params=params, body=body, headers=headers)
            except TransportError as exc:
                reason, cause, delay = str(exc), exc, RETRY_DELAY
            else:
                # a 501 is an answer; a throttled or failing upstream could
                # not be asked, and its body is never read as an answer
                if resp.status != 429 and (resp.status < 500 or resp.status == 501):
                    return resp
                reason, cause = f"upstream returned {resp.status}", None
                delay = _retry_after(resp.headers) if resp.status == 429 else RETRY_DELAY
            if attempt == 2:
                raise UpstreamUnavailable(reason) from cause
            if delay > MAX_RETRY_AFTER:
                raise UpstreamUnavailable(f"upstream asked to retry after {delay:g} s")
            self._sleep(delay)

    def _server_lookup(self, endpoint: str, payload: str) -> list[dict]:
        """POST to /search or /web; returns the items of a 200 ([] when none, or for any other status)."""
        resp = self._request(
            "POST",
            self.config.base_url,
            f"/{endpoint}",
            body=payload,
            headers={"Content-Type": "text/plain"},
        )
        if resp.status != 200:  # a 300 lists choices, and deterministic resolution never picks among them
            return []
        items = _json(resp.body)
        if isinstance(items, dict):
            items = [items]
        return [item for item in _list(items) if isinstance(item, dict)]

    def _export_bibtex(self, encoded_item: str) -> BibEntry:
        """The entry ``/export`` makes of one item, given as ``json.dumps(item, sort_keys=True)``."""
        if (entry := self._exported.get(encoded_item)) is not None:
            return entry
        resp = self._request(
            "POST",
            self.config.base_url,
            "/export",
            params={"format": "bibtex"},
            body="[" + encoded_item + "]",
            headers={"Content-Type": "application/json"},
        )
        if resp.status != 200:
            raise ExportFailure(f"export returned {resp.status}")
        try:
            entry = parse_entry(resp.body)
        except BibParseError as exc:
            raise ExportFailure(f"unparseable BibTeX from export: {exc}") from exc
        entry = BibEntry(entry.entry_type, sanitize_citation_key(entry.citation_key), entry.fields)
        self._exported[encoded_item] = entry
        return entry

    # -- public ------------------------------------------------------------

    def crossref_fallback(self, text: str) -> list[tuple[str, object]]:
        """(title, work) of up to 10 CrossRef works with a title, in API order.

        ``_entry_from_work`` builds a work's entry; ``resolve_query`` builds
        only the one it picks.
        """
        headers = {}
        if self.config.contact:
            headers["User-Agent"] = f"bibkit/0.1 (mailto:{self.config.contact})"
        resp = self._request(
            "GET",
            CROSSREF_URL,
            "/works",
            params={"query": text, "rows": str(CROSSREF_MAX_CANDIDATES)},
            headers=headers or None,
        )
        if resp.status != 200:
            return []
        works = _list(_get(_get(_json(resp.body), "message"), "items"))[:CROSSREF_MAX_CANDIDATES]
        return [(title, work) for work in works if (title := _first_str(_get(work, "title"))) is not None]

    def resolve_query(self, q: Query) -> ResolutionResult:
        endpoint = "web" if q.kind == "url" else "search"
        source = "web_endpoint" if q.kind == "url" else "search_endpoint"
        items = []  # (item, its encoding for /export)
        for item in self._server_lookup(endpoint, q.value):
            try:
                items.append((item, json.dumps(item, sort_keys=True)))
            except RecursionError:  # nested too deeply to send back: reads as absent
                pass

        if items:
            titles = [t if isinstance(t := item.get("title"), str) else "" for item, _ in items]
            return _select(q, titles, lambda i: self._export_bibtex(items[i][1]), source)

        if endpoint == "web":
            return ResolutionResult(status="not_found", source=source)

        fallback = self.crossref_fallback(q.original)
        titles = [title for title, _ in fallback]
        return _select(q, titles, lambda i: _entry_from_work(*fallback[i]), "crossref_fallback")

    def resolve(self, raw: str) -> ResolutionResult:
        return self.resolve_query(classify_query(raw))


# Upstream JSON is outside input: a value of the wrong type reads as absent
# (None, [] or "").


def _json(body: str):
    """The JSON value of an upstream body, or None when it is not JSON."""
    try:
        return json.loads(body)
    except (ValueError, RecursionError):  # also an integer of over 4300 digits, or nesting too deep
        return None


def _get(value, key):
    return value.get(key) if isinstance(value, dict) else None


def _list(value) -> list:
    return value if isinstance(value, list) else []


def _text(value) -> str | None:
    """``value`` when it is a string whose braces nest, else None.

    A ``}`` before its ``{`` or an unclosed ``{`` would end or swallow the
    braced BibTeX value the string is serialized into.
    """
    if not isinstance(value, str) or value.count("{") != value.count("}"):
        return None
    end = 0
    while (start := value.find("{", end)) >= 0:
        if value.find("}", end, start) >= 0:
            return None  # a '}' at depth 0
        end = _close(value, start) + 1  # it closes: what is left holds as many '}' as '{'
    return value


def _str(value) -> str:
    return (_text(value) or "").strip()


def _first_str(value) -> str | None:
    """The first element of a JSON array when it is a string whose braces nest, else None."""
    first = _list(value)[:1]
    return _text(first[0]) if first else None


def _issued_year(issued) -> str:
    """The year of a CrossRef ``issued`` value ``{"date-parts": [[2020, 5]]}``, else ""."""
    dates = _list(_get(issued, "date-parts"))
    date = _list(dates[0]) if dates else []
    return str(date[0]) if date and type(date[0]) is int else ""  # not a bool or null


def _retry_after(headers: Mapping[str, str]) -> float:
    """Seconds a 429 asks the client to wait, or ``RETRY_DELAY`` if not a number."""
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                seconds = float(value)
            except (TypeError, ValueError):  # an HTTP-date, or not a value at all
                return RETRY_DELAY
            return seconds if seconds >= 0 else RETRY_DELAY  # also rejects NaN
    return RETRY_DELAY


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
        # a query of no content tokens scores 1.0 against an untitled item, yet matches no title
        if q.kind == "title" and (ranked[0][1] < TITLE_MATCH_THRESHOLD or not tokenize_filtered(q.value)):
            return ResolutionResult(status="title_mismatch", candidates=ranked, source=source)
        index = titles.index(ranked[0][0])
    return ResolutionResult(status="found", candidates=ranked, bibtex=build(index), source=source)


def _entry_from_work(title: str, work: dict) -> BibEntry:
    """The entry a CrossRef work states, given the title ``crossref_fallback`` read from it.

    A string whose braces do not nest reads as absent, like a value of
    another type, so the entry serializes to text that parses back to it.
    A ``type`` outside ``CROSSREF_ENTRY_TYPES`` claims no entry type (""). The
    venue is the ``booktitle`` of an inproceedings or incollection entry,
    else the ``journal``.
    """
    entry_type = CROSSREF_ENTRY_TYPES.get(_str(work.get("type")), "")
    names = [(_str(_get(a, "family")), _str(_get(a, "given"))) for a in _list(work.get("author"))]
    parts = [f"{family}, {given}" if given else family for family, given in names if family]
    authors = " and ".join(parts)
    year = _issued_year(work.get("issued"))
    venue_field = "booktitle" if entry_type in ("inproceedings", "incollection") else "journal"
    venue = _first_str(work.get("container-title"))
    stated = [("author", authors), (venue_field, venue), ("year", year), ("doi", _text(work.get("DOI")))]
    fields = {"title": title} | {name: v for name, v in stated if v}
    words = (authors or title).split(",")[0].split()
    key_seed = words[-1] + year if words else ""
    return BibEntry(entry_type, sanitize_citation_key(key_seed), fields)
