"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 corpus/input error,
3 upstream unavailable.

- ``lookup``: an empty or malformed query (``EmptyQuery``, ``MalformedUrl``)
  is a usage error, 1; ``UpstreamUnavailable`` and ``ExportFailure`` are 3.
- ``reconcile``: unreadable ``.bib``/meta files, and a meta row whose query
  is empty or malformed, are input errors, 2; ``UpstreamUnavailable`` and
  ``ExportFailure`` are 3. No output is written on any of them.
- ``verify``, ``bench``, ``report``: an unreadable corpus or labels file
  is 2. ``bench`` records a paper whose processing fails (say, its
  resolution) under ``incomplete``, still writes or prints the bundle,
  and then exits 3 when ``incomplete`` is not empty.
- Any command: a ``--venues`` or ``--fixtures`` file that is missing,
  unreadable or malformed is an input error, 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    TSV_HEADER,
    CorpusParseError,
    action_row,
    load_corpus,
    read_labels,
    report_text,
    run_benchmark,
    tagged_from_labels,
    write_bundle,
    write_revised_bib,
    write_tsv,
)
from .model import BibParseError, parse_bib_file, serialize_entry
from .normalize import VenueSynonymTable
from .reconcile import PaperMeta, reconcile
from .resolve import (
    EmptyQuery,
    ExportFailure,
    MalformedUrl,
    ReplayTransport,
    Resolver,
    ResolverConfig,
    UpstreamUnavailable,
)
from .verify import aggregate_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CORPUS = 2
EXIT_UPSTREAM = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class InputError(Exception):
    """An input file that cannot be read or is malformed; ``main`` exits 2."""


def _replay_transport(path: str) -> ReplayTransport:
    fixtures = Path(path)
    try:
        if fixtures.is_dir():
            exchanges = []
            for p in sorted(fixtures.glob("*.json")):
                exchanges.extend(json.loads(p.read_text("utf-8"))["exchanges"])
            return ReplayTransport({"format_version": 1, "exchanges": exchanges})
        return ReplayTransport(fixtures)
    except (KeyError, TypeError):
        raise InputError(f"--fixtures {path}: no 'exchanges' list") from None
    except (OSError, ValueError) as exc:
        raise InputError(f"--fixtures {path}: {exc}") from None


def _build_resolver(args) -> Resolver:
    config = ResolverConfig.from_env()
    if getattr(args, "server", None):
        config.base_url = args.server
    transport = None
    if getattr(args, "fixtures", None):
        transport = _replay_transport(args.fixtures)
        config.retry_delay = 0.0
    return Resolver(config, transport=transport)


def _load_table(args) -> VenueSynonymTable:
    if not getattr(args, "venues", None):
        return VenueSynonymTable.default()
    try:
        return VenueSynonymTable.from_file(args.venues)
    except (OSError, ValueError) as exc:  # a conflicting variant is a ValueError
        raise InputError(f"--venues {args.venues}: {exc}") from None


def cmd_lookup(args) -> int:
    resolver = _build_resolver(args)
    try:
        result = resolver.resolve(args.query)
    except EmptyQuery:
        print("error: empty query", file=sys.stderr)
        return EXIT_USAGE
    except MalformedUrl as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UpstreamUnavailable as exc:
        print(f"error: upstream unavailable: {exc}", file=sys.stderr)
        return EXIT_UPSTREAM
    except ExportFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UPSTREAM
    if result.status == "found":
        entry = result.bibtex  # an untyped CrossRef record prints as @misc, which parses
        print(serialize_entry(replace(entry, entry_type=entry.entry_type or "misc")))
        return EXIT_OK
    print(result.status)
    return EXIT_OK


def _emit_bundle(bundle: dict, out: str | None) -> None:
    """Write the bundle to ``out``, or print what its report.json would hold."""
    if out:
        write_bundle(bundle, out)
        print(f"wrote report bundle to {out}")
    else:
        sys.stdout.write(report_text(bundle))


def _read_meta_file(path: str) -> list[PaperMeta]:
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines or lines[0] != TSV_HEADER:
        raise ValueError("unrecognized metadata file format")
    metas = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = (line.split("\t") + ["", "", "", ""])[:4]
        paper_id, url, doi, title = parts
        metas.append(PaperMeta(paper_id, url=url or None, doi=doi or None, title=title or None))
    return metas


def cmd_reconcile(args) -> int:
    try:
        entries = parse_bib_file(Path(args.bib).read_text("utf-8"))
        metas = _read_meta_file(args.meta)
    except (OSError, BibParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    if len(entries) != len(metas):
        print(
            f"input error: {len(entries)} entries but {len(metas)} metadata lines",
            file=sys.stderr,
        )
        return EXIT_CORPUS
    # one lookup per distinct query string, as in harness.run_benchmark
    resolve = functools.cache(_build_resolver(args).resolve)
    revised = []
    log_rows = []
    for meta, baseline in zip(metas, entries):
        try:
            outcome = reconcile(meta, baseline, resolve)
        except (EmptyQuery, MalformedUrl) as exc:
            print(f"input error: meta row {meta.paper_id!r}: {exc}", file=sys.stderr)
            return EXIT_CORPUS
        except UpstreamUnavailable as exc:
            print(f"error: upstream unavailable: {exc}", file=sys.stderr)
            return EXIT_UPSTREAM
        except ExportFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UPSTREAM
        revised.append(outcome.result)
        log_rows.append(action_row(meta.paper_id, baseline.citation_key, outcome))
    out = args.out or args.bib + ".revised.bib"
    write_revised_bib(revised, out)
    if args.log:
        write_tsv(args.log, log_rows)
    print(f"wrote {len(revised)} entries to {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        corpus = load_corpus(args.corpus, permissive=args.permissive)
    except CorpusParseError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"--corpus {args.corpus}: {exc}") from None
    resolver = None
    if args.mode == "reconcile_then_verify":
        resolver = _build_resolver(args).resolve
    bundle = run_benchmark(corpus, mode=args.mode, resolver=resolver, table=_load_table(args))
    _emit_bundle(bundle, args.out)
    if bundle["incomplete"]:
        print(f"error: {len(bundle['incomplete'])} incomplete record(s)", file=sys.stderr)
        return EXIT_UPSTREAM
    return EXIT_OK


def cmd_report(args) -> int:
    """The bundle aggregate of a labels file; it carries no model, tier or domain."""
    try:
        tagged = tagged_from_labels(read_labels(args.labels))
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    report = aggregate_stats(tagged)
    for kind in ("model", "tier", "domain"):
        del report[f"per_{kind}"]
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bibkit", description="Deterministic bibliographic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lookup", help="resolve an identifier, URL, or title to BibTeX")
    p.add_argument("query")
    p.add_argument("--server", help="translation server base URL")
    p.add_argument("--fixtures", help="replay fixture file or directory (offline)")
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("verify", help="label candidate entries against ground truth")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="report bundle directory")
    p.add_argument("--venues", help="venue synonym table file")
    p.add_argument("--permissive", action="store_true", help="skip malformed records")
    p.set_defaults(func=cmd_bench, mode="verify")

    p = sub.add_parser("reconcile", help="merge baseline entries with authoritative records")
    p.add_argument("--bib", required=True, help=".bib file of baseline entries")
    p.add_argument("--meta", required=True, help="sidecar metadata file (paper_id/url/doi/title)")
    p.add_argument("--out", help="revised .bib output path")
    p.add_argument("--log", help="per-entry action log path")
    p.add_argument("--server")
    p.add_argument("--fixtures")
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("bench", help="run the benchmark pipeline over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=["verify", "reconcile_then_verify"], default="verify")
    p.add_argument("--fixtures")
    p.add_argument("--server")
    p.add_argument("--out")
    p.add_argument("--venues")
    p.add_argument("--permissive", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="recompute aggregates from a labels file")
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CORPUS


if __name__ == "__main__":
    raise SystemExit(main())
