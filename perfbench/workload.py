"""One workload's measured process: repeated full CLI passes, checked.

Run by ``run.py`` in a fresh interpreter with ``src`` on the path, so its
peak RSS is the workload's own. Each pass calls ``bibkit.cli.main`` with the
generated inputs; the resolver the command builds is the benchmark's
``BenchResolver`` (fake upstream, virtual limiter clock). After every pass
the outputs are checked. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import bibkit.cli as cli

from calibrate import NOMINAL_S, reference_seconds
from checks import CHECKS
from spans import Tracer
from upstream import FakeTransport, Session, resolver_class


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=10)
    return statistics.median(values), q[8]


class Runner:
    def __init__(self, plan: dict):
        self.plan = plan
        self.session = Session(plan["upstream"])
        cli.Resolver = resolver_class(self.session)
        self.check = CHECKS[plan["workload"]]
        self.failures: list[str] = []
        self.failed = 0
        self.passes = 0
        self._ref_s = reference_seconds()

    def run_pass(self) -> dict:
        ref_before = self._ref_s
        self.session.reset()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.plan["argv"])
        except (Exception, SystemExit) as exc:  # a typed error or usage exit is a failure
            code, error = None, repr(exc)
        real = time.perf_counter() - t0
        self._ref_s = reference_seconds()
        calibrated = real * NOMINAL_S * 2 / (ref_before + self._ref_s)
        totals = self.session.totals()
        failures = [f"exit code {code}: {error}"] if code != 0 else []
        failures += [f"fake upstream has no answer: {m}" for m in totals["misses"]]
        info = {"incomplete": 0, "actions": {}}
        if code == 0:
            try:
                failed_checks, info = self.check(self.plan)
                failures += failed_checks
            except (OSError, ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
                failures.append(f"output check could not read the outputs: {exc!r}")
        self.failures += failures
        self.failed += min(len(failures), self.plan["entries"])
        self.passes += 1
        lookups = totals["lookups"]
        p50, p90 = _quantiles(lookups)
        return {
            "real_s": real,
            "calibrated_s": calibrated,
            "sim_s": calibrated + totals["virtual_s"],
            "limiter_wait_s": totals["limiter_wait_s"],
            "lookup_p50_s": p50,
            "lookup_p90_s": p90,
            "incomplete": info["incomplete"],
            "counts": {
                "requests": totals["requests"],
                "retries": totals["retries"],
                "statuses": totals["statuses"],
                "lookups": len(lookups),
                "distinct_queries": len(set(totals["queries"])),
                "actions": dict(sorted(info["actions"].items())),
                "fallback_type_regressions": info.get("fallback_type_regressions", 0),
            },
        }

    def loop(self, seconds: float, min_passes: int, tracer: Tracer | None = None) -> list[dict]:
        out = []
        start = time.perf_counter()
        while len(out) < min_passes or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.clear()
                tracer.install(FakeTransport)
                try:
                    result = self.run_pass()
                finally:
                    tracer.uninstall()
                result["trace"] = tracer.summary()
            else:
                result = self.run_pass()
            out.append(result)
        return out


def _med(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def entries_per_s(passes: list[dict], entries: int) -> float:
    return entries / _med(passes, "calibrated_s")


def end_to_end(passes: list[dict], entries: int) -> dict:
    return {
        "entries_per_s": entries_per_s(passes, entries),
        "sim_wall_s": _med(passes, "sim_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(s: dict, counts: dict, incomplete: int) -> dict:
    by = s["by_name"]

    def calls(name: str) -> int:
        return by.get(name, {}).get("calls", 0)

    def secs(name: str, key: str = "s") -> float:
        return by.get(name, {}).get(key, 0.0)

    normalize_calls = sum(v["calls"] for k, v in by.items() if k.startswith("normalize."))
    stage1 = calls("verify.classify_stage1")
    resolve_calls = counts["lookups"]
    actions = counts["actions"]
    return {
        "cli.self_s": s["layer_self_s"].get("cli", 0.0),
        "harness.load_corpus_s": secs("harness.load_corpus"),
        "harness.run_benchmark_self_s": secs("harness.run_benchmark", "self_s"),
        "harness.write_bundle_s": secs("harness.write_bundle"),
        "harness.incomplete_records": incomplete,
        "model.parse_entry_calls": calls("model.parse_entry"),
        "model.parse_entry_s": secs("model.parse_entry"),
        "model.parse_bib_file_s": secs("model.parse_bib_file"),
        "model.serialize_entry_s": secs("model.serialize_entry"),
        "normalize.calls": normalize_calls,
        "normalize.s": s["layer_s"].get("normalize", 0.0),
        "normalize.distinct_input_ratio": (
            s["normalize_distinct_inputs"] / normalize_calls if normalize_calls else 0.0
        ),
        "normalize.tokenize_filtered_calls": calls("normalize.tokenize_filtered"),
        "normalize.jaccard_calls": calls("normalize.jaccard"),
        "verify.verify_entry_calls": calls("verify.verify_entry"),
        "verify.verify_entry_s": secs("verify.verify_entry"),
        "verify.stage1_calls": stage1,
        "verify.stage1_s": secs("verify.classify_stage1"),
        "verify.stage2_calls": calls("verify.classify_stage2"),
        "verify.stage2_s": secs("verify.classify_stage2"),
        "verify.stage2_share": calls("verify.classify_stage2") / stage1 if stage1 else 0.0,
        "verify.aggregate_s": secs("verify.aggregate_stats"),
        "verify.co_error_s": secs("verify.co_error_matrix"),
        "resolve.calls": resolve_calls,
        "resolve.distinct_queries": counts["distinct_queries"],
        "resolve.distinct_query_ratio": (
            counts["distinct_queries"] / resolve_calls if resolve_calls else 0.0
        ),
        "resolve.requests.search": counts["requests"]["search"],
        "resolve.requests.web": counts["requests"]["web"],
        "resolve.requests.export": counts["requests"]["export"],
        "resolve.requests.crossref": counts["requests"]["crossref"],
        "resolve.retries": counts["retries"],
        "resolve.fallbacks": calls("resolve.Resolver.crossref_fallback"),
        "resolve.cpu_s": s["resolve_cpu_s"],
        "resolve.found": counts["statuses"].get("found", 0),
        "resolve.not_found": counts["statuses"].get("not_found", 0),
        "resolve.title_mismatch": counts["statuses"].get("title_mismatch", 0),
        "reconcile.calls": calls("reconcile.reconcile"),
        "reconcile.self_s": s["layer_self_s"].get("reconcile", 0.0),
        "reconcile.merged": actions.get("merged", 0),
        "reconcile.kept_not_found": actions.get("kept_baseline_not_found", 0),
        "reconcile.kept_title_mismatch": actions.get("kept_baseline_title_mismatch", 0),
        "reconcile.kept_no_query": actions.get("kept_baseline_no_query", 0),
        "reconcile.fallback_type_regressions": counts["fallback_type_regressions"],
    }


def per_layer(untraced: list[dict], traced: list[dict], entries: int) -> dict:
    rows = [_layer_metrics(p["trace"], p["counts"], p["incomplete"]) for p in traced]
    metrics = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
    requests = sum(untraced[0]["counts"]["requests"].values())
    eps_untraced = entries_per_s(untraced, entries)
    eps_traced = entries_per_s(traced, entries)
    metrics.update(
        {
            "resolve.limiter_wait_s": _med(untraced, "limiter_wait_s"),
            "resolve.lookup_p50_s": _med(untraced, "lookup_p50_s"),
            "resolve.lookup_p90_s": _med(untraced, "lookup_p90_s"),
            "resolve.lookup_samples": untraced[0]["counts"]["lookups"],
            "upstream_requests_per_entry": requests / entries,
            "trace.entries_per_s_untraced": eps_untraced,
            "trace.entries_per_s_traced": eps_traced,
            "trace.overhead_ratio": 1.0 - eps_traced / eps_untraced,
            "trace.spans": traced[-1]["trace"]["spans"],
        }
    )
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced run's spans are written to")
    args = ap.parse_args()

    plan = json.loads(Path(args.plan).read_text("utf-8"))
    entries = plan["entries"]
    runner = Runner(plan)
    warmup = runner.loop(0.0, 1)
    if args.trace:
        untraced = runner.loop(args.seconds / 2, 2)
        tracer = Tracer()
        traced = runner.loop(args.seconds / 2, 1, tracer)
        measured, timed = untraced + traced, untraced
        metrics = per_layer(untraced, traced, entries)
        if args.spans:
            tracer.write(Path(args.spans))
    else:
        measured = timed = runner.loop(args.seconds, 3)
        metrics = end_to_end(measured, entries)

    counts = [p["counts"] for p in warmup + measured]
    if any(c != counts[0] for c in counts):
        runner.failures.append("request, status or action counts differ between passes")
        runner.failed += 1
    attempted = entries * runner.passes
    failed = runner.failed
    if args.trace:
        metrics["error_ratio"] = failed / attempted
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": failed,
                "passes": len(measured),
                "failures": runner.failures[:20],
                "counts": counts[0],
                "metrics": metrics,
                "raw_entries_per_s": entries / _med(timed, "real_s"),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
