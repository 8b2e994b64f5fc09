"""Corpus ingestion, benchmarks, and report files.

The corpus is line-delimited JSON (one paper per line) behind a leading
format-version header, so runs are streamable and reports diffable. All
output files are written atomically and identically across repeat runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .model import (
    LABEL_NAMES,
    SLOT_NAMES,
    BibEntry,
    BibParseError,
    FieldLabel,
    FieldSlot,
    parse_entry,
    serialize_entry,
)
from .normalize import VenueSynonymTable
from .reconcile import PaperMeta, ReconcileOutcome, reconcile
from .resolve import ResolutionResult
from .verify import (
    EVALUABLE_SLOTS,
    EntryVerdict,
    GroundTruth,
    GroundTruthVersion,
    TaggedVerdict,
    aggregate_stats,
    clear_memo,
    co_error_matrix,
    verify_entry,
)

TIERS = frozenset({"popular", "low_citation", "recent"})


class CorpusParseError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    domain: str
    tier: str
    ground_truth: GroundTruth
    candidates: tuple[tuple[str, str, BibEntry], ...]  # (tag, model, entry)
    meta: PaperMeta  # what a reconcile run resolves the paper by


# --------------------------------------------------------------------------
# corpus I/O


def _parse_record(doc, line_no: int, seen_ids: set[str]) -> PaperRecord:
    def fail(reason: str):
        raise CorpusParseError(line_no, reason)

    def typed(obj: dict, key: str, kind, default):
        value = obj.get(key, default)
        if not isinstance(value, kind):
            fail(f"{key}: unexpected {type(value).__name__} value")
        return value

    def objects(obj: dict, key: str) -> list[dict]:
        items = typed(obj, key, list, [])
        if not all(isinstance(item, dict) for item in items):
            fail(f"{key}: every item must be an object")
        return items

    def strings(obj: dict, what: str) -> dict[str, str]:
        if not all(isinstance(v, str) for v in obj.values()):
            fail(f"{what}: every value must be a string")
        return dict(obj)

    if not isinstance(doc, dict):
        fail("record is not a JSON object")
    paper_id = typed(doc, "paper_id", (str, type(None)), None)
    if not paper_id:
        fail("missing paper_id")
    if paper_id in seen_ids:
        fail(f"duplicate paper_id {paper_id!r}")
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

    return PaperRecord(
        paper_id=paper_id,
        domain=typed(doc, "domain", str, ""),
        tier=tier,
        ground_truth=gt,
        candidates=tuple(candidates),
        meta=PaperMeta(paper_id, url=url, doi=doi, title=title),
    )


def load_corpus(path: str | Path, permissive: bool = False) -> list[PaperRecord]:
    records: list[PaperRecord] = []
    seen_ids: set[str] = set()
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines:
        raise CorpusParseError(1, "empty corpus file")
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CorpusParseError(1, f"bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format_version") != 1:
        raise CorpusParseError(1, "unsupported corpus format version")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            if permissive:
                continue
            raise CorpusParseError(line_no, f"bad JSON: {exc}") from None
        try:
            record = _parse_record(doc, line_no, seen_ids)
        except CorpusParseError:
            if permissive:
                continue
            raise
        seen_ids.add(record.paper_id)
        records.append(record)
    return records


# --------------------------------------------------------------------------
# benchmark


def _matrix_json(matrix) -> dict:
    return {
        i.value: {j.value: (None if v is None else round(v, 6)) for j, v in row.items()}
        for i, row in matrix.items()
    }


def _labels_rows(tagged: list[TaggedVerdict]) -> list[tuple[str, ...]]:
    return [
        (tv.paper_id, tv.entry_tag, name, LABEL_NAMES[labels[slot]], "2" if slot in stage2 else "1")
        for tv in tagged
        for labels, stage2 in [(tv.verdict.labels, tv.verdict.stage2_slots)]
        for slot, name in SLOT_NAMES
    ]


def _field_deltas(before: list[TaggedVerdict], after: list[TaggedVerdict]) -> dict:
    """Per-field correction/regression accounting between two aligned labelings."""
    C, X = FieldLabel.C, FieldLabel.X
    deltas: dict[str, dict] = {}
    for slot in EVALUABLE_SLOTS:
        pairs = [(b.verdict.labels[slot], a.verdict.labels[slot]) for b, a in zip(before, after)]
        # (correct before, correct after) of each entry evaluable in both
        correct = [(lb is C, la is C) for lb, la in pairs if X not in (lb, la)]
        deltas[slot.value] = {
            "evaluable": len(correct),
            "before_c": sum(cb for cb, _ in correct),
            "after_c": sum(ca for _, ca in correct),
            "corrections": sum(ca and not cb for cb, ca in correct),
            "regressions": sum(cb and not ca for cb, ca in correct),
        }
    return deltas


def run_benchmark(
    corpus: list[PaperRecord],
    mode: str = "verify",
    resolver: Callable[[str], ResolutionResult] | None = None,
    table: VenueSynonymTable | None = None,
) -> dict:
    """Label every candidate entry; optionally reconcile first.

    Records run one by one in ``paper_id`` order. Returns the report bundle
    as a dict; a failing record adds no rows, is listed under "incomplete"
    and never aborts the run. The run asks ``resolver`` once per distinct
    query and reuses its result for every candidate that sends the same
    query; an exception is not kept, so the next candidate with that query
    asks again. The normalization memo of ``verify`` is emptied when the
    run returns or raises.
    """
    if mode not in ("verify", "reconcile_then_verify"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "reconcile_then_verify":
        if resolver is None:
            raise ValueError("reconcile_then_verify requires a resolver")
        # Keyed on the exact query string build_query sends, not on the
        # classified query: the CrossRef fallback searches the original
        # string, so "10.1000/x" and "https://doi.org/10.1000/x" can differ.
        resolver = functools.cache(resolver)
    if table is None:
        table = VenueSynonymTable.default()

    def process(record: PaperRecord):
        out = []
        for tag, model, entry in record.candidates:
            before = verify_entry(entry, record.ground_truth, table)
            outcome = after = None
            if mode == "reconcile_then_verify":
                outcome = reconcile(record.meta, entry, resolver)
                after = verify_entry(outcome.result, record.ground_truth, table)
            out.append((tag, model, before, after, outcome))
        return out

    tagged: list[TaggedVerdict] = []
    tagged_before: list[TaggedVerdict] = []
    actions: list[tuple[str, ...]] = []
    incomplete: list[dict] = []

    try:
        for record in sorted(corpus, key=lambda r: r.paper_id):
            try:
                results = process(record)
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                incomplete.append({"paper_id": record.paper_id, "error": str(exc)})
                continue
            pid, tier, domain = record.paper_id, record.tier, record.domain
            for tag, model, before, after, outcome in results:
                final = after if after is not None else before
                tagged.append(TaggedVerdict(pid, tag, final, model, tier, domain))
                if after is not None:
                    tagged_before.append(TaggedVerdict(pid, tag, before, model, tier, domain))
                    actions.append(action_row(pid, tag, outcome))
    finally:
        clear_memo()  # the normalization memo lives for one run

    verdicts = [tv.verdict for tv in tagged]
    bundle: dict = {
        "format_version": 1,
        "mode": mode,
        "aggregate": aggregate_stats(tagged),
        "error_modes": dict(sorted(Counter(v.error_mode for v in verdicts).items())),
        "co_error": _matrix_json(co_error_matrix(verdicts)) if verdicts else {},
        "incomplete": incomplete,
        "labels": _labels_rows(tagged),
    }
    if mode == "reconcile_then_verify":
        bundle["aggregate_before"] = aggregate_stats(tagged_before)
        bundle["labels_before"] = _labels_rows(tagged_before)
        bundle["deltas"] = _field_deltas(tagged_before, tagged)
        bundle["actions"] = actions
    return bundle


# --------------------------------------------------------------------------
# report files: report.json plus tab-separated row files


TSV_HEADER = "format_version\t1"

#: Bundle keys holding rows written as TSV files; report.json carries the rest.
TSV_FILES = {"labels": "labels.tsv", "labels_before": "labels_before.tsv", "actions": "actions.tsv"}


def action_row(entry_id: str, key: str, outcome: ReconcileOutcome) -> tuple[str, ...]:
    """Actions-file row: entry id, citation key or tag, action, gate score, replaced slots."""
    score = "" if outcome.gate_score is None else f"{outcome.gate_score:.6f}"
    slots = ",".join(sorted(s.value for s in outcome.replaced_slots))
    return (entry_id, key, outcome.action, score, slots)


@contextlib.contextmanager
def _write_atomic():
    """Yield ``stage(path, content)``; staged files replace their targets when the block ends.

    Each file is written to a temporary file beside its target, and no
    target is replaced before every file is written. A temporary file is
    created with mode 0o666 less the process umask, as ``open`` creates a
    new file, and ``os.replace`` keeps that mode. On an error every
    temporary file is removed.
    """
    staged: list[tuple[Path, Path]] = []

    def stage(path: str | Path, content: str) -> None:
        path = Path(path)
        if path.is_dir():  # os.replace cannot put a file in its place
            raise IsADirectoryError("is a directory")
        # 64 random bits: a name already taken raises FileExistsError, never overwrites
        tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        staged.append((tmp, path))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def tsv_text(rows: list[tuple[str, ...]]) -> str:
    """Tab-joined rows behind the format-version header."""
    return "\n".join([TSV_HEADER] + ["\t".join(r) for r in rows]) + "\n"


def read_tsv(path: str | Path) -> list[list[str]]:
    """The tab-split rows behind the format-version header; blank lines are skipped."""
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines or lines[0] != TSV_HEADER:
        raise ValueError(f"unrecognized file format: first line is not {TSV_HEADER!r}")
    return [line.split("\t") for line in lines[1:] if line.strip()]


def read_labels(path: str | Path) -> list[tuple[str, str, str, str, str]]:
    """Label rows: paper_id, entry_tag, slot, label, stage."""
    rows = read_tsv(path)
    for row in rows:
        if len(row) != 5:
            line = "\t".join(row)
            raise ValueError(f"malformed labels row: {line!r}")
    return [tuple(row) for row in rows]


def tagged_from_labels(rows: list[tuple[str, str, str, str, str]]) -> list[TaggedVerdict]:
    """Entry verdicts rebuilt from label rows; each entry needs one label per slot."""
    entries: dict[tuple[str, str], tuple[dict[FieldSlot, FieldLabel], set[FieldSlot]]] = {}
    for paper_id, tag, slot_name, label, stage in rows:
        labels, stage2 = entries.setdefault((paper_id, tag), ({}, set()))
        slot = FieldSlot(slot_name)
        if slot in labels:
            raise ValueError(f"{paper_id}/{tag}: duplicate {slot_name} label")
        labels[slot] = FieldLabel(label)
        if stage not in ("1", "2"):
            raise ValueError(f"{paper_id}/{tag}: unknown stage {stage!r}")
        if stage == "2":
            stage2.add(slot)
    tagged = []
    for (paper_id, tag), (labels, stage2) in entries.items():
        if len(labels) != len(FieldSlot):
            raise ValueError(f"{paper_id}/{tag}: labels missing for some slots")
        tagged.append(TaggedVerdict(paper_id, tag, EntryVerdict(labels, frozenset(stage2))))
    return tagged


def report_text(bundle: dict) -> str:
    """The bundle without its TSV rows, as report.json holds it."""
    report = {k: v for k, v in bundle.items() if k not in TSV_FILES}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_bundle(bundle: dict, out_dir: str | Path) -> None:
    """Materialize a report bundle: report.json plus labels/actions files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _write_atomic() as stage:
        for key, name in TSV_FILES.items():
            if key in bundle:
                stage(out / name, tsv_text(bundle[key]))
        stage(out / "report.json", report_text(bundle))


def bib_text(entries: list[BibEntry]) -> str:
    """The entries serialized, separated by blank lines."""
    return "\n\n".join(serialize_entry(e) for e in entries) + "\n"
