"""Corpus ingestion, benchmarks, and report files.

The corpus is line-delimited JSON (one paper per line) behind a leading
format-version header, so reports are diffable and a run streams its
records: ``load_corpus`` is a generator that reads a line as the run asks
for its record. An entry's labels are its label vector (its labels in
``ALL_SLOTS`` order), as ``verify_entry`` returns them. ``run_benchmark``
holds vectors, never records or rows: it counts distinct vectors and builds
rows when the run ends. ``read_labels`` reads a labels file back into the
``(paper_id, tag, vector)`` triples that ``_labels_rows`` writes. Output
files are written identically and atomically, each streamed row by row, so
memory holds rows, not their text.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .model import (
    ALL_SLOTS,
    BibEntry,
    BibParseError,
    FieldLabel,
    FieldSlot,
    parse_entry,
    serialize_entry,
)
from .normalize import VENUES, VenueSynonymTable, _read_lines
from .reconcile import PaperMeta, ReconcileOutcome, reconcile
from .resolve import ResolutionResult
from .verify import (
    EVALUABLE_SLOTS,
    GroundTruth,
    GroundTruthVersion,
    STAGE2_LABELS,
    aggregate_stats,
    clear_memo,
    verify_entry,
)

TIERS = frozenset({"popular", "low_citation", "recent"})


class CorpusParseError(Exception):
    """A corpus header or record that is not valid; the message starts with ``line N: ``."""


class PaperRecord(NamedTuple):
    """One corpus paper."""

    paper_id: str
    domain: str
    tier: str
    ground_truth: GroundTruth
    candidates: tuple[tuple[str, str, BibEntry], ...]  # (tag, model, entry)
    meta: PaperMeta  # what a reconcile run resolves the paper by


# --------------------------------------------------------------------------
# corpus I/O


def _holds_separator(value: str) -> bool:
    """Whether ``value`` holds a tab or a line break, which would split its TSV row."""
    return "\t" in value or "\r" in value or "\n" in value


def _parse_record(line: str, line_no: int, seen_ids: set[str]) -> PaperRecord:
    """The record on corpus line ``line_no``; once it is valid, its ``paper_id`` joins ``seen_ids``."""

    def fail(reason: str):
        raise CorpusParseError(f"line {line_no}: {reason}")

    def typed(obj: dict, key: str, kind, default):
        value = obj.get(key, default)
        if not isinstance(value, kind):
            fail(f"{key}: unexpected {type(value).__name__} value")
        return value

    def objects(obj: dict, key: str) -> list[dict]:
        items = typed(obj, key, list, [])
        for item in items:
            if not isinstance(item, dict):
                fail(f"{key}: every item must be an object")
        return items

    def strings(obj: dict, what: str) -> dict[str, str]:
        for v in obj.values():
            if not isinstance(v, str):
                fail(f"{what}: every value must be a string")
        return dict(obj)

    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an integer of over 4300 digits, or nesting too deep
        fail(f"bad JSON: {exc}")
    if not isinstance(doc, dict):
        fail("record is not a JSON object")
    paper_id = typed(doc, "paper_id", (str, type(None)), None)
    if not paper_id:
        fail("missing paper_id")
    if paper_id in seen_ids:
        fail(f"duplicate paper_id {paper_id!r}")
    if _holds_separator(paper_id):
        fail(f"paper_id {paper_id!r} holds a tab or line break")
    if not typed(doc, "description", str, "").strip():
        fail("missing description")
    tier = typed(doc, "tier", str, "")
    if tier not in TIERS:
        fail(f"unknown tier {tier!r}")

    gt_doc = typed(doc, "ground_truth", (dict, type(None)), None) or {}
    versions = tuple(
        GroundTruthVersion(
            version_type=typed(v, "version_type", str, ""),
            fields=strings(typed(v, "fields", dict, {}), "version fields"),
        )
        for v in objects(gt_doc, "versions")
    )
    if not versions:
        fail("ground truth needs at least one version")
    gt = GroundTruth(
        paper_id=paper_id,
        versions=versions,
        known_aliases=tuple(strings(a, "known alias") for a in objects(gt_doc, "known_aliases")),
    )

    candidates = []
    for c in objects(doc, "candidates"):
        tag = typed(c, "tag", str, "candidate")
        if any(tag == seen for seen, _, _ in candidates):
            fail(f"duplicate candidate tag {tag!r}")
        if _holds_separator(tag):
            fail(f"candidate tag {tag!r} holds a tab or line break")
        try:
            entry = parse_entry(typed(c, "bibtex", str, ""))
        except BibParseError as exc:
            fail(f"candidate {tag!r}: {exc}")
        candidates.append((tag, typed(c, "model", str, ""), entry))

    if "meta" in doc:
        m = typed(doc, "meta", dict, {})
        url, doi, title = (typed(m, k, (str, type(None)), None) for k in ("url", "doi", "title"))
    else:  # the first ground-truth DOI and title
        url = None
        doi, title = (next(iter(gt.values_for(s)), None) for s in (FieldSlot.DOI, FieldSlot.TITLE))

    record = PaperRecord(
        paper_id=paper_id,
        domain=typed(doc, "domain", str, ""),
        tier=tier,
        ground_truth=gt,
        candidates=tuple(candidates),
        meta=PaperMeta(paper_id, url=url, doi=doi, title=title),
    )
    seen_ids.add(paper_id)
    return record


def load_corpus(path: str | Path, permissive: bool = False) -> Iterator[PaperRecord]:
    """The records of a corpus file, read a line at a time.

    The first ``next()`` opens the file and checks its header. The file is
    closed when the records run out, one raises, or the generator is dropped.
    """
    with contextlib.closing(_read_lines(path)) as lines:  # a raise closes the file at once
        header = next(lines, None)
        if header is None:
            raise CorpusParseError("line 1: empty corpus file")
        try:
            header = json.loads(header)
        except (ValueError, RecursionError) as exc:  # also an integer of over 4300 digits, or nesting too deep
            raise CorpusParseError(f"line 1: bad header: {exc}") from exc
        version = header.get("format_version") if isinstance(header, dict) else None
        if type(version) is not int or version != 1:  # not true, nor 1.0
            raise CorpusParseError("line 1: unsupported corpus format version")
        seen_ids: set[str] = set()
        for line_no, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            try:
                yield _parse_record(line, line_no, seen_ids)
            except CorpusParseError:
                if not permissive:
                    raise


# --------------------------------------------------------------------------
# benchmark


def _labels_rows(entries: Iterable[tuple[str, str, tuple[FieldLabel, ...]]]) -> list[tuple[str, ...]]:
    """The labels-file rows of each ``(paper_id, tag, label vector)``; a vector's ten row ends are built once."""
    ends, rows = {}, []  # each distinct vector's ten row ends, and the rows
    for paper_id, tag, vector in entries:
        if vector not in ends:  # plain-str cells, not members: the collector untracks a row of them
            ends[vector] = [
                (slot.value, label.value, "2" if label in STAGE2_LABELS else "1")
                for slot, label in zip(ALL_SLOTS, vector)
            ]
        rows.extend(map((paper_id, tag).__add__, ends[vector]))
    return rows


def _field_deltas(pairs: dict[tuple[tuple[FieldLabel, ...], tuple[FieldLabel, ...]], int]) -> dict:
    """Per-field correction/regression accounting, from counts of (vector before, vector after)."""
    C, X = FieldLabel.C, FieldLabel.X
    deltas: dict[str, dict] = {}
    for slot in EVALUABLE_SLOTS:
        i = ALL_SLOTS.index(slot)
        # (correct before, correct after, entries) of each pair evaluable in both
        correct = [(b[i] == C, a[i] == C, n) for (b, a), n in pairs.items() if X not in (b[i], a[i])]
        deltas[slot] = {
            "evaluable": sum(n for _, _, n in correct),
            "before_c": sum(cb * n for cb, _, n in correct),
            "after_c": sum(ca * n for _, ca, n in correct),
            "corrections": sum((ca and not cb) * n for cb, ca, n in correct),
            "regressions": sum((cb and not ca) * n for cb, ca, n in correct),
        }
    return deltas


def run_benchmark(
    corpus: Iterable[PaperRecord],
    resolver: Callable[[str], ResolutionResult] | None = None,
    table: VenueSynonymTable = VENUES,
) -> dict:
    """Label every candidate entry; reconcile it first when given a ``resolver``.

    Records run one by one in ``corpus`` order and are not held once their
    vectors are made. Returns the report bundle as a dict, rows and "incomplete"
    in ``paper_id`` order; a failing record adds no rows or counts, is listed
    under "incomplete" and never aborts the run. The run resolves and
    title-gates each distinct query once (``reconcile``'s memo) and reuses
    both for every candidate that sends the same query; an exception is not
    kept, so the next candidate with that query asks again. The normalization
    memo of ``verify`` is emptied when the run returns or raises.
    """
    lookups: dict = {}  # reconcile's memo, for this run

    # counted over complete records' entries: (vector, model, tier, domain) after and before, (before, after)
    counts, counts_before, pairs = Counter(), Counter(), Counter()
    chunks: list[tuple] = []  # (paper_id, [(tag, model, vector, vector before)], actions) of each complete record
    incomplete: list[dict] = []

    try:
        for record in corpus:
            pid, gt = record.paper_id, record.ground_truth
            # the record's vectors join the run's only if every candidate succeeds
            entries, record_actions = [], []
            try:
                for tag, model, entry in record.candidates:
                    vector = before = verify_entry(entry, gt, table)
                    if resolver is not None:
                        outcome = reconcile(record.meta, entry, resolver, lookups)
                        record_actions.append(action_row(pid, tag, outcome))
                        if outcome.result is not entry:  # a kept entry's labels stand: verify_entry is pure
                            vector = verify_entry(outcome.result, gt, table)
                    entries.append((tag, model, vector, before))
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                incomplete.append({"paper_id": pid, "error": str(exc)})
            else:
                chunks.append((pid, entries, record_actions))
                for _, model, vector, before in entries:
                    counts[vector, model, record.tier, record.domain] += 1
                    if resolver is not None:
                        counts_before[before, model, record.tier, record.domain] += 1
                        pairs[before, vector] += 1
            del record  # none is held while the next is read
    finally:
        clear_memo()  # the normalization memo lives for one run

    chunks.sort(key=lambda chunk: chunk[0])  # stable, and total over a loaded corpus's unique ids
    incomplete.sort(key=lambda row: row["paper_id"])
    bundle: dict = {
        "format_version": 1,
        "mode": "verify" if resolver is None else "reconcile_then_verify",
        **aggregate_stats(counts),  # "aggregate", "error_modes" and "co_error"
        "incomplete": incomplete,
        # rows are built once the run ends, not among each record's parse garbage
        "labels": _labels_rows((pid, tag, after) for pid, entries, _ in chunks for tag, _, after, _ in entries),
    }
    if resolver is not None:
        bundle["aggregate_before"] = aggregate_stats(counts_before)["aggregate"]
        befores = ((pid, tag, before) for pid, entries, _ in chunks for tag, _, _, before in entries)
        bundle["labels_before"] = _labels_rows(befores)
        bundle["deltas"] = _field_deltas(pairs)
        bundle["actions"] = [row for _, _, actions in chunks for row in actions]
    return bundle


# --------------------------------------------------------------------------
# report files: report.json plus tab-separated row files


TSV_HEADER = "format_version\t1"

#: Bundle keys holding rows written as TSV files; report.json carries the rest.
TSV_FILES = {"labels": "labels.tsv", "labels_before": "labels_before.tsv", "actions": "actions.tsv"}


def action_row(entry_id: str, key: str, outcome: ReconcileOutcome) -> tuple[str, ...]:
    """Actions-file row: entry id, citation key or tag, action, gate score, replaced slots."""
    score = "" if outcome.gate_score is None else f"{outcome.gate_score:.6f}"
    slots = ",".join(sorted(outcome.replaced_slots))
    return (entry_id, key, outcome.action, score, slots)


@contextlib.contextmanager
def _write_atomic():
    """Yield ``stage(path, pieces)``; staged files replace their targets when the block ends.

    Each file's pieces are written to a temporary file beside its target,
    and no target is replaced before every file is written. A temporary
    file is created with mode 0o666 less the process umask, as ``open``
    creates a new file, and ``os.replace`` keeps that mode. On an error,
    also one a piece raises, every temporary file is removed.
    """
    staged: list[tuple[Path, Path]] = []

    def stage(path: str | Path, pieces: Iterable[str]) -> None:
        path = Path(path)
        if path.is_dir():  # os.replace cannot put a file in its place
            raise IsADirectoryError("is a directory")
        # 64 random bits: a name already taken raises FileExistsError, never overwrites
        tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        staged.append((tmp, path))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def tsv_lines(rows: Iterable[tuple[str, ...]]) -> Iterator[str]:
    """The format-version header line, then each row tab-joined as one line."""
    yield TSV_HEADER + "\n"
    for row in rows:
        yield "\t".join(row) + "\n"


def read_tsv(path: str | Path) -> list[list[str]]:
    """The tab-split rows behind the format-version header; blank lines are skipped."""
    with contextlib.closing(_read_lines(path)) as lines:
        if next(lines, None) != TSV_HEADER:
            raise ValueError(f"unrecognized file format: first line is not {TSV_HEADER!r}")
        return [line.split("\t") for line in lines if line.strip()]


def read_labels(path: str | Path) -> list[tuple[str, str, tuple[FieldLabel, ...]]]:
    """The ``(paper_id, tag, label vector)`` of each entry ``_labels_rows`` wrote to a labels file.

    Each entry needs one label per slot, in any row order.
    """
    entries: dict[tuple[str, str], dict[FieldSlot, FieldLabel]] = {}
    for row in read_tsv(path):
        if len(row) != 5:
            line = "\t".join(row)
            raise ValueError(f"malformed labels row: {line!r}")
        paper_id, tag, slot_name, label_name, stage = row
        labels = entries.setdefault((paper_id, tag), {})
        slot = FieldSlot(slot_name)
        if slot in labels:
            raise ValueError(f"{paper_id}/{tag}: duplicate {slot_name} label")
        labels[slot] = label = FieldLabel(label_name)
        if stage not in ("1", "2"):
            raise ValueError(f"{paper_id}/{tag}: unknown stage {stage!r}")
        if (stage == "2") != (label in STAGE2_LABELS):
            raise ValueError(f"{paper_id}/{tag}: stage {stage} cannot give {slot_name} label {label_name}")
        if slot == FieldSlot.ENTRY_KEY and label != FieldLabel.X:  # verify never evaluates the key
            raise ValueError(f"{paper_id}/{tag}: entry_key label {label_name} is not X")
    triples = []
    for (paper_id, tag), labels in entries.items():
        if len(labels) != len(FieldSlot):
            raise ValueError(f"{paper_id}/{tag}: labels missing for some slots")
        triples.append((paper_id, tag, tuple(map(labels.__getitem__, ALL_SLOTS))))
    return triples


def report_text(bundle: dict) -> str:
    """The bundle without its TSV rows, as report.json holds it."""
    report = {k: v for k, v in bundle.items() if k not in TSV_FILES}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_bundle(bundle: dict, out_dir: str | Path) -> None:
    """Materialize a report bundle: report.json plus labels/actions files.

    A labels or actions file the bundle lacks is removed, once every file is staged.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _write_atomic() as stage:
        for key, name in TSV_FILES.items():
            if key in bundle:
                stage(out / name, tsv_lines(bundle[key]))
        stage(out / "report.json", [report_text(bundle)])
        for key, name in TSV_FILES.items():
            if key not in bundle:  # an earlier bundle of the other mode wrote it
                (out / name).unlink(missing_ok=True)


def bib_pieces(entries: Iterable[BibEntry]) -> Iterator[str]:
    """The entries serialized one at a time, separated by blank lines, then a line break."""
    for i, entry in enumerate(entries):
        yield ("\n\n" if i else "") + serialize_entry(entry)
    yield "\n"
