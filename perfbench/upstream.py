"""In-memory fake upstream and the resolver the benchmark swaps into the CLI.

The fake answers from tables the generator built from the workload's own
corpus or ``.bib``. The resolver it backs is the program's own
``Resolver``; only its seams are replaced: the transport, the
``RateLimiter`` clock/sleep, and the retry sleep. The clock is real time
plus a virtual offset, and both sleeps only advance that offset, so limiter
waits and retry delays cost no real time but are still counted.
"""

from __future__ import annotations

import json
import time

from bibkit.resolve import RateLimiter, Resolver, TransportError, TransportResponse


class VirtualClock:
    def __init__(self):
        self.offset = 0.0
        self.limiter_wait = 0.0
        self.retries = 0

    def now(self) -> float:
        return time.monotonic() + self.offset

    def limiter_sleep(self, seconds: float) -> None:
        self.offset += seconds
        self.limiter_wait += seconds

    def retry_sleep(self, seconds: float) -> None:
        self.offset += seconds
        self.retries += 1


class FakeTransport:
    """Answers /search, /web, /export and CrossRef /works from the tables.

    A payload listed as flaky gets a 503 on every other request, so each
    lookup of it sees one 5xx followed by a successful retry. A request the
    tables have no answer for is counted as a miss and fails.
    """

    def __init__(self, tables: dict):
        self._t = tables
        self._flaky_armed = {p: True for p in tables["flaky"]}
        self.requests = {"search": 0, "web": 0, "export": 0, "crossref": 0}
        self.misses: list[str] = []

    def request(self, method, url, *, params=None, body=None, headers=None):
        endpoint = url.rsplit("/", 1)[-1]
        if endpoint == "works":
            self.requests["crossref"] += 1
            answer = self._t["crossref"].get((params or {}).get("query", ""))
        elif endpoint in ("search", "web"):
            self.requests[endpoint] += 1
            if self._flaky_armed.get(body):
                self._flaky_armed[body] = False
                return TransportResponse(503, "")
            if body in self._flaky_armed:
                self._flaky_armed[body] = True
            answer = self._t[endpoint].get(body)
        elif endpoint == "export":
            self.requests["export"] += 1
            items = json.loads(body)
            answer = self._t["export"].get(items[0].get("key", "")) if len(items) == 1 else None
        else:
            answer = None
        if answer is None:
            self.misses.append(f"{method} {url} {body or params!r}")
            raise TransportError(f"fake upstream has no answer for {method} {url}")
        return TransportResponse(200, answer)


class Session:
    """Collects every resolver the CLI builds during one command pass."""

    def __init__(self, tables: dict):
        self.tables = tables
        self.resolvers: list = []

    def reset(self) -> None:
        self.resolvers = []

    def totals(self) -> dict:
        requests = {"search": 0, "web": 0, "export": 0, "crossref": 0}
        out = {
            "virtual_s": 0.0,
            "limiter_wait_s": 0.0,
            "retries": 0,
            "misses": [],
            "lookups": [],
            "queries": [],
            "statuses": {"found": 0, "not_found": 0, "title_mismatch": 0},
        }
        for r in self.resolvers:
            for k, v in r.fake.requests.items():
                requests[k] += v
            out["virtual_s"] += r.clock.offset
            out["limiter_wait_s"] += r.clock.limiter_wait
            out["retries"] += r.clock.retries
            out["misses"] += r.fake.misses
            out["lookups"] += r.lookup_s
            out["queries"] += r.queries
            for k, v in r.statuses.items():
                out["statuses"][k] = out["statuses"].get(k, 0) + v
        out["requests"] = requests
        return out


def resolver_class(session: Session) -> type:
    """A ``Resolver`` subclass to patch in as ``bibkit.cli.Resolver``."""

    class BenchResolver(Resolver):
        def __init__(self, config, transport=None, rate_limiter=None, sleep=None):
            self.clock = VirtualClock()
            self.fake = FakeTransport(session.tables)
            self.lookup_s: list[float] = []
            self.queries: list[str] = []
            self.statuses: dict[str, int] = {}
            limiter = RateLimiter(
                config.rate_per_sec, clock=self.clock.now, sleep=self.clock.limiter_sleep
            )
            super().__init__(
                config, transport=self.fake, rate_limiter=limiter, sleep=self.clock.retry_sleep
            )
            session.resolvers.append(self)

        def resolve(self, raw):
            t0, v0 = time.perf_counter(), self.clock.offset
            result = super().resolve(raw)
            self.lookup_s.append(time.perf_counter() - t0 + self.clock.offset - v0)
            self.queries.append(raw)
            self.statuses[result.status] = self.statuses.get(result.status, 0) + 1
            return result

    return BenchResolver
