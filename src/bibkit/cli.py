"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 corpus/input error,
3 upstream unavailable. Commands raise; ``main`` turns the exception into
its exit code and one stderr line by the first matching row of ``FAILURES``:

    InputError                  2  "input error: "
    CorpusParseError            2  "corpus error: "
    QueryError                  1  "error: "
    UpstreamUnavailable         3  "error: upstream unavailable: "
    ExportFailure               3  "error: "

Any other exception propagates, so a program bug stays a traceback. The
argument parser reports a usage error and exits 1, and so does ``main`` for
a ``bench`` in verify mode (its default) given ``--server`` or ``--fixtures``,
which that mode would not read.

- A ``--corpus``, ``--bib``, ``--meta``, ``--labels``, ``--venues`` or
  ``--fixtures`` file that cannot be read or parsed, and an ``--out`` or
  ``--log`` path that cannot be written, is an ``InputError`` naming the
  option and the path; a corpus header or record that is not valid is a
  ``CorpusParseError`` naming the line.
- ``reconcile``: a meta row whose query is empty or malformed or that has
  more than four fields, a ``.bib`` key holding a tab or line break, and a
  ``.bib`` and meta file of different lengths, are input errors too, and
  so is an ``--out`` or ``--log`` that names an input file or the other
  output, or lies inside an input (``--fixtures``) directory; an ``--out``
  that names ``--bib`` revises it in place. It writes nothing on any error.
- ``bench`` and ``verify`` list a paper whose processing fails under
  ``incomplete``, still write or print the bundle, and then exit 3 when
  ``incomplete`` is not empty.
- A ``--server`` or ``BIBKIT_SERVER_URL`` value that ``resolve.http_url``
  rejects (the rule a query URL passes too), or that holds a query or
  fragment (a ``?`` or ``#``), is an input error, raised before any request,
  and so is a ``BIBKIT_CONTACT`` that an HTTP header cannot carry.
- A ``--fixtures`` replay waits neither for the rate limiter nor a retry.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from .harness import (
    CorpusParseError,
    _holds_separator,
    _write_atomic,
    action_row,
    bib_pieces,
    load_corpus,
    read_labels,
    read_tsv,
    report_text,
    run_benchmark,
    tsv_lines,
    write_bundle,
)
from .model import parse_bib_file, serialize_entry
from .normalize import VenueSynonymTable
from .reconcile import PaperMeta, reconcile
from .resolve import (
    ExportFailure,
    QueryError,
    RateLimiter,
    ReplayTransport,
    Resolver,
    ResolverConfig,
    UpstreamUnavailable,
    http_url,
)
from .verify import aggregate_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CORPUS = 2
EXIT_UPSTREAM = 3


class InputError(Exception):
    """An input file that cannot be read or is malformed, or an output it cannot write."""


#: Exit code and stderr prefix per exception type; the first type that matches wins.
FAILURES = {
    InputError: (EXIT_CORPUS, "input error: "),
    CorpusParseError: (EXIT_CORPUS, "corpus error: "),
    QueryError: (EXIT_USAGE, "error: "),
    UpstreamUnavailable: (EXIT_UPSTREAM, "error: upstream unavailable: "),
    ExportFailure: (EXIT_UPSTREAM, "error: "),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _use_file(flag: str, path: str, use: Callable[[str], object]):
    """``use(path)``, with a file it cannot read, parse or write as an ``InputError``."""
    try:
        return use(path)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and BibParseError are ValueErrors
        raise InputError(f"{flag} {path}: {exc}") from None


def _replay_transport(path: str) -> ReplayTransport:
    fixtures = Path(path)
    try:
        exchanges = []  # of the file, or of each *.json file of the directory in name order
        for file in sorted(fixtures.glob("*.json")) if fixtures.is_dir() else [fixtures]:
            exchanges.extend(json.loads(file.read_text("utf-8"))["exchanges"])
        return ReplayTransport(exchanges)
    except (KeyError, TypeError):
        raise ValueError("no 'exchanges' list") from None
    except RecursionError as exc:  # JSON nested too deeply
        raise ValueError(str(exc)) from None


def _build_resolver(args) -> Resolver:
    config, source = ResolverConfig.from_env(), "BIBKIT_SERVER_URL"
    if args.server:
        config, source = config._replace(base_url=args.server), "--server"
    if http_url(config.base_url) is None:
        raise InputError(f"{source} {config.base_url!r}: not an absolute http(s) URL")
    if "?" in config.base_url or "#" in config.base_url:  # an endpoint path would follow it
        raise InputError(f"{source} {config.base_url!r}: holds a query or fragment")
    if any(c in "\r\n" or ord(c) > 0xFF for c in config.contact or ""):  # it goes in the User-Agent
        raise InputError(f"BIBKIT_CONTACT {config.contact!r}: holds a line break or a non-Latin-1 character")
    if not args.fixtures:
        return Resolver(config)
    transport = _use_file("--fixtures", args.fixtures, _replay_transport)
    limiter = RateLimiter(config.rate_per_sec, sleep=lambda seconds: None)
    return Resolver(config, transport=transport, rate_limiter=limiter, sleep=lambda seconds: None)


def cmd_lookup(args) -> int:
    result = _build_resolver(args).resolve(args.query)
    if result.status == "found":
        entry = result.bibtex  # an untyped CrossRef record prints as @misc, which parses
        print(serialize_entry(entry._replace(entry_type=entry.entry_type or "misc")))
    else:
        print(result.status)
    return EXIT_OK


def _read_meta_file(path: str) -> list[PaperMeta]:
    """One ``PaperMeta`` per row of at most 4 fields; ``reconcile`` reads a blank field as absent."""
    rows = read_tsv(path)
    for row in rows:
        if len(row) > 4:
            raise ValueError(f"meta row {row[0]!r} has {len(row)} fields, more than 4")
    return [PaperMeta(*row) for row in rows]


def cmd_reconcile(args) -> int:
    """Revise each ``--bib`` entry against the record its ``--meta`` row's query resolves to.

    A run resolves and title-gates each distinct query once and reuses both
    for every entry that sends it; a failed lookup is not kept. The CrossRef
    fallback builds an entry for the work it picks only.
    """
    out = args.out or args.bib + ".revised.bib"
    files = {"--log": args.log, "--out": out, "--bib": args.bib, "--meta": args.meta, "--fixtures": args.fixtures}
    paths = {flag: Path(path).resolve() for flag, path in files.items() if path}
    # an output may be neither an input nor the other output, nor lie in an input directory; --out may be --bib
    for flag, other in itertools.permutations(paths, 2):
        if flag in ("--log", "--out") and (flag, other) != ("--out", "--bib"):
            if paths[flag].is_relative_to(paths[other]):
                where = "the same file as" if paths[flag] == paths[other] else "inside"
                raise InputError(f"{flag} {files[flag]}: {where} {other} {files[other]}")
    entries = _use_file("--bib", args.bib, lambda p: parse_bib_file(Path(p).read_text("utf-8")))
    for entry in entries:  # the key is a field of its --log row
        if _holds_separator(entry.citation_key):
            raise InputError(f"--bib {args.bib}: key {entry.citation_key!r} holds a tab or line break")
    metas = _use_file("--meta", args.meta, _read_meta_file)
    if len(entries) != len(metas):
        raise InputError(f"{len(entries)} entries but {len(metas)} metadata lines")
    resolve, lookups = _build_resolver(args).resolve, {}  # one lookup and gate per distinct query
    revised, log_rows = [], []
    for meta, baseline in zip(metas, entries):
        try:
            outcome = reconcile(meta, baseline, resolve, lookups)
        except QueryError as exc:  # a bad row is bad input, not a usage error
            raise InputError(f"meta row {meta.paper_id!r}: {exc}") from None
        revised.append(outcome.result)
        log_rows.append(action_row(meta.paper_id, baseline.citation_key, outcome))
    with _write_atomic() as stage:  # both files or neither
        _use_file("--out", out, lambda p: stage(p, bib_pieces(revised)))
        if args.log:
            _use_file("--log", args.log, lambda p: stage(p, tsv_lines(log_rows)))
    print(f"wrote {len(revised)} entries to {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    records = load_corpus(args.corpus, permissive=args.permissive)
    # the records, read as the run asks for each; a file error, also at the open, is an input error
    corpus = iter(lambda: _use_file("--corpus", args.corpus, lambda p: next(records, None)), None)
    resolver = _build_resolver(args).resolve if args.mode == "reconcile_then_verify" else None
    table = VenueSynonymTable.default()
    if args.venues:
        table = _use_file("--venues", args.venues, VenueSynonymTable.from_file)
    bundle = run_benchmark(corpus, resolver=resolver, table=table)
    if args.out:
        _use_file("--out", args.out, lambda p: write_bundle(bundle, p))
        print(f"wrote report bundle to {args.out}")
    else:
        sys.stdout.write(report_text(bundle))
    if bundle["incomplete"]:
        print(f"error: {len(bundle['incomplete'])} incomplete record(s)", file=sys.stderr)
        return EXIT_UPSTREAM
    return EXIT_OK


def cmd_report(args) -> int:
    """The bundle aggregate of a labels file; it carries no model, tier or domain."""
    triples = _use_file("--labels", args.labels, read_labels)
    report = aggregate_stats(Counter((vector, "", "", "") for _, _, vector in triples))["aggregate"]
    for kind in ("model", "tier", "domain"):
        del report[f"per_{kind}"]
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", required=True)
    corpus.add_argument("--out", help="report bundle directory")
    corpus.add_argument("--venues", help="venue synonym table file")
    corpus.add_argument("--permissive", action="store_true", help="skip malformed records")
    upstream = argparse.ArgumentParser(add_help=False)
    upstream.add_argument("--server", help="translation server base URL")
    upstream.add_argument("--fixtures", help="replay fixture file or directory (offline)")

    parser = _Parser(prog="bibkit", description="Deterministic bibliographic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lookup", parents=[upstream], help="resolve an identifier, URL, or title to BibTeX")
    p.add_argument("query")
    p.set_defaults(func=cmd_lookup)

    p = sub.add_parser("verify", parents=[corpus], help="label candidate entries against ground truth")
    p.set_defaults(func=cmd_bench, mode="verify")

    p = sub.add_parser(
        "reconcile", parents=[upstream], help="merge baseline entries with authoritative records"
    )
    p.add_argument("--bib", required=True, help=".bib file of baseline entries")
    p.add_argument("--meta", required=True, help="sidecar metadata file (paper_id/url/doi/title)")
    p.add_argument("--out", help="revised .bib output path")
    p.add_argument("--log", help="per-entry action log path")
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("bench", parents=[corpus, upstream], help="run the benchmark pipeline over a corpus")
    p.add_argument("--mode", choices=["verify", "reconcile_then_verify"], default="verify")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="recompute aggregates from a labels file")
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.mode == "verify" and (args.server, args.fixtures) != (None, None):
        parser.error("--server and --fixtures need --mode reconcile_then_verify")
    try:
        return args.func(args)
    except tuple(FAILURES) as exc:
        code, prefix = next(row for kind, row in FAILURES.items() if isinstance(exc, kind))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
