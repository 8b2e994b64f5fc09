"""Field-level verification of candidate entries against version-aware ground truth.

Stage 1 is rule-based and produces C, M, or X (or leaves the slot pending).
Stage 2 is a deterministic overlap heuristic producing two binary criteria
(partial match / different paper) that map onto P, S, or F. Matching any
ground-truth version counts as correct: citing the arXiv preprint of a paper
that also has a journal version is not an error.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from difflib import SequenceMatcher

from .model import ALL_SLOTS, LABEL_NAMES, SLOT_NAMES, BibEntry, FieldLabel, FieldSlot, slot_of
from .normalize import (
    EmptyAuthor,
    MalformedPages,
    MalformedYear,
    VenueSynonymTable,
    author_lastname_list,
    jaccard,
    normalize_author,
    normalize_doi,
    normalize_pages,
    normalize_title,
    normalize_venue,
    normalize_year,
    tokenize_filtered,
)

#: Sentinel for slots Stage 1 could not resolve.
PENDING = "pending"

MET = "met"
UNMET = "unmet"
CANNOT_ASSESS = "cannot_assess"

ERROR_LABELS = frozenset({FieldLabel.M, FieldLabel.F, FieldLabel.P, FieldLabel.S})

#: Stage-2 frozen constants.
TOKEN_OVERLAP_THRESHOLD = 0.5
YEAR_SLACK = 1
DOI_SUFFIX_SIMILARITY = 0.8

#: Slots that are typically not applicable for a given entry type.
INAPPLICABLE: dict[str, frozenset[FieldSlot]] = {
    "inproceedings": frozenset({FieldSlot.VOLUME, FieldSlot.NUMBER}),
    "misc": frozenset({FieldSlot.VOLUME, FieldSlot.NUMBER, FieldSlot.PAGES}),
}

#: Slots where a "different paper" determination is meaningful. Numeric
#: metadata carries too little identity to trace to another specific work.
SUBSTITUTABLE_SLOTS = frozenset(
    {FieldSlot.AUTHOR, FieldSlot.TITLE, FieldSlot.VENUE, FieldSlot.DOI}
)

#: Context slots consulted as wrong-paper evidence, and the Stage-1 results
#: that are not such evidence.
IDENTITY_SLOTS = (FieldSlot.AUTHOR, FieldSlot.TITLE, FieldSlot.VENUE, FieldSlot.YEAR)
_NOT_SUSPECT = (None, FieldLabel.C, FieldLabel.X)

#: Entry types considered semantically related for partial-match purposes.
RELATED_ENTRY_TYPES = frozenset({"article", "inproceedings", "misc", "incollection"})

#: Entries the normalization memo holds at most; bounds it for callers that
#: never run ``harness.run_benchmark``, which empties it.
NORMALIZED_MEMO_SIZE = 1 << 16


@dataclass(frozen=True)
class GroundTruthVersion:
    version_type: str  # arxiv | proceedings | journal
    fields: dict[str, str]  # slot name -> value

    def get(self, slot: FieldSlot) -> str | None:
        return self.fields.get(slot.value)


@dataclass(frozen=True)
class GroundTruth:
    """All citable versions of one paper, and records it is confused with."""

    paper_id: str
    versions: tuple[GroundTruthVersion, ...]
    known_aliases: tuple[dict[str, str], ...] = ()  # confusable other-paper records

    def values_for(self, slot: FieldSlot) -> list[str]:
        values = []
        for version in self.versions:
            v = version.get(slot)
            if v is not None and v.strip():
                values.append(v)
        return values


@dataclass
class CriterionVerdict:
    partial_match: str  # met | unmet | cannot_assess
    different_paper: str


@dataclass
class EntryVerdict:
    labels: dict[FieldSlot, FieldLabel]
    stage2_slots: frozenset[FieldSlot] = frozenset()

    @property
    def fully_correct(self) -> bool:
        """Every evaluable slot is C."""
        return all(l is FieldLabel.C for l in self.labels.values() if l is not FieldLabel.X)

    @property
    def error_mode(self) -> str:
        """``none``, ``isolated``, ``wholesale`` or ``mixed``; see ``classify_error_mode``."""
        return classify_error_mode(self.labels)


@functools.lru_cache(maxsize=NORMALIZED_MEMO_SIZE)
def _table_free_normalized(slot: FieldSlot, value: str) -> str | None:
    """The part of ``_normalized`` that reads no venue table; memoized.

    Most values recur across candidates and ground-truth versions. A venue
    is only folded here, so the memo stays valid whatever the table holds.
    """
    try:
        if slot is FieldSlot.AUTHOR:
            return normalize_author(value)
        if slot is FieldSlot.TITLE:
            return normalize_title(value)
        if slot is FieldSlot.VENUE:
            return normalize_venue(value)
        if slot is FieldSlot.DOI:
            return normalize_doi(value)
        if slot is FieldSlot.PAGES:
            return normalize_pages(value)
        if slot is FieldSlot.YEAR:
            return normalize_year(value)
        if slot is FieldSlot.ENTRY_TYPE:
            return value.strip().lower()
        return value.strip()
    except (EmptyAuthor, MalformedPages, MalformedYear):
        return None


def clear_memo() -> None:
    """Empty the normalization memo; ``harness.run_benchmark`` does so when a run ends."""
    _table_free_normalized.cache_clear()


_VENUE = FieldSlot.VENUE  # read once: an enum attribute lookup is slow next to a memo hit


def _normalized(slot: FieldSlot, value: str, table: VenueSynonymTable | None) -> str | None:
    """Per-slot normalization; None when the value cannot be normalized."""
    norm = _table_free_normalized(slot, value)
    if slot is _VENUE and table is not None:
        return table.canonical(norm)  # the rest of normalize_venue(value, table)
    return norm


def classify_stage1(
    entry: BibEntry,
    slot: FieldSlot,
    gt: GroundTruth,
    table: VenueSynonymTable | None = None,
):
    """Rule-based labels: X, M, C, or PENDING, in that rule order."""
    if slot is FieldSlot.ENTRY_KEY:
        return FieldLabel.X
    if slot in INAPPLICABLE.get(entry.entry_type, frozenset()):
        return FieldLabel.X
    gt_values = gt.values_for(slot)
    if not gt_values:
        return FieldLabel.X
    value = slot_of(entry, slot)
    if value is None or not value.strip():
        return FieldLabel.M
    norm = _normalized(slot, value, table)
    if norm is not None:
        for gt_value in gt_values:
            gt_norm = _normalized(slot, gt_value, table)
            if gt_norm is not None and norm == gt_norm:
                return FieldLabel.C
    return PENDING


def _page_range(value: str) -> tuple[int, int] | None:
    nums = re.findall(r"\d+", value)
    if not nums:
        return None
    if len(nums) == 1:
        return int(nums[0]), int(nums[0])
    return int(nums[0]), int(nums[1])


_ARXIV_DOI_RE = re.compile(r"^10\.48550/arxiv\.(.+)$")


def _doi_partial(value: str, gt_values: list[str], gt: GroundTruth) -> bool:
    norm = normalize_doi(value)
    my_reg, _, my_suffix = norm.partition("/")
    for gt_value in gt_values:
        gt_doi = normalize_doi(gt_value)
        # verify_entry never sends an equal DOI here (stage 1 labels it C);
        # a direct call can, and a DOI without a suffix matches nothing else
        if norm == gt_doi:
            return True
        gt_reg, _, gt_suffix = gt_doi.partition("/")
        if my_reg == gt_reg and my_suffix and gt_suffix:
            if SequenceMatcher(None, my_suffix, gt_suffix).ratio() >= DOI_SUFFIX_SIMILARITY:
                return True
    # a preprint DOI encoding the same arXiv id as a ground-truth arXiv
    # version is a version variant of the same work, not a different paper
    m = _ARXIV_DOI_RE.match(norm)
    if m:
        arxiv_id = m.group(1)
        for version in gt.versions:
            if version.version_type == "arxiv" and any(
                arxiv_id in v.lower() for v in version.fields.values()
            ):
                return True
    return False


def classify_stage2(
    entry_value: str,
    slot: FieldSlot,
    gt: GroundTruth,
    context: dict[FieldSlot, object] | None = None,
    table: VenueSynonymTable | None = None,
) -> CriterionVerdict:
    """Deterministic overlap heuristic for slots Stage 1 left pending.

    ``context`` maps slots to their Stage-1 labels; ``slot``'s own is ignored.
    """
    context = context or {}
    gt_values = gt.values_for(slot)
    suspects = sum(1 for s in IDENTITY_SLOTS if s is not slot and context.get(s) not in _NOT_SUSPECT)
    tokens = tokenize_filtered(entry_value)
    overlaps: dict[str, float] = {}

    def overlap(gt_value: str) -> float:
        # computed when first read: the rules stop early, so most ground-truth
        # values never need their token set
        if gt_value not in overlaps:
            overlaps[gt_value] = jaccard(tokens, tokenize_filtered(gt_value))
        return overlaps[gt_value]

    if not gt_values:
        partial = CANNOT_ASSESS
    else:
        partial = MET if _partial_match(entry_value, slot, gt, gt_values, overlap, suspects) else UNMET

    different = UNMET
    if partial is not MET and slot in SUBSTITUTABLE_SLOTS and (
        _matches_alias(entry_value, tokens, slot, gt, table)
        or (suspects >= 2 and gt_values and all(overlap(v) == 0.0 for v in gt_values))
    ):
        different = MET
    return CriterionVerdict(partial_match=partial, different_paper=different)


def _partial_match(entry_value, slot, gt, gt_values, overlap, suspects) -> bool:
    if slot in (FieldSlot.TITLE, FieldSlot.VENUE, FieldSlot.AUTHOR):
        if any(overlap(v) >= TOKEN_OVERLAP_THRESHOLD for v in gt_values):
            return True
        if slot is FieldSlot.AUTHOR:
            try:
                mine = set(author_lastname_list(entry_value))
            except EmptyAuthor:
                return False
            for gt_value in gt_values:
                try:
                    theirs = set(author_lastname_list(gt_value))
                except EmptyAuthor:
                    continue
                smaller = min(len(mine), len(theirs))
                if smaller and len(mine & theirs) / smaller >= TOKEN_OVERLAP_THRESHOLD:
                    return True
        return False
    if slot is FieldSlot.PAGES:
        mine = _page_range(entry_value)
        if mine is None:
            return False
        for gt_value in gt_values:
            theirs = _page_range(gt_value)
            if theirs and mine[0] <= theirs[1] and theirs[0] <= mine[1]:
                return True
        return False
    if slot is FieldSlot.YEAR:
        my_years = re.findall(r"\d{4}", entry_value)
        if not my_years:
            return False
        for gt_value in gt_values:
            gt_years = re.findall(r"\d{4}", gt_value)
            if gt_years and abs(int(my_years[0]) - int(gt_years[0])) <= YEAR_SLACK:
                return True
        return False
    if slot is FieldSlot.DOI:
        return _doi_partial(entry_value, gt_values, gt)
    if slot in (FieldSlot.VOLUME, FieldSlot.NUMBER):
        # verify_entry never sends an equal value here (stage 1 labels it C)
        return any(entry_value.strip() == v.strip() for v in gt_values)
    if slot is FieldSlot.ENTRY_TYPE:
        mine = entry_value.strip().lower()
        related = mine in RELATED_ENTRY_TYPES and all(
            v.strip().lower() in RELATED_ENTRY_TYPES for v in gt_values
        )
        return related and suspects < 2
    return False


def _matches_alias(entry_value: str, tokens: frozenset[str], slot: FieldSlot, gt: GroundTruth, table) -> bool:
    """Value traces to a known confusable record for a different paper."""
    alias_values = [v for alias in gt.known_aliases if (v := alias.get(slot.value))]
    if not alias_values:
        return False
    mine = _normalized(slot, entry_value, table)
    for alias_value in alias_values:
        if mine is not None and mine == _normalized(slot, alias_value, table):
            return True
        # a DOI is an identifier: sharing tokens does not make it the alias's
        if slot is not FieldSlot.DOI and jaccard(tokens, tokenize_filtered(alias_value)) >= TOKEN_OVERLAP_THRESHOLD:
            return True
    return False


def verdict_from_criteria(cv: CriterionVerdict) -> FieldLabel:
    """The seven-row mapping from criteria to P/S/F."""
    if cv.partial_match == MET:
        return FieldLabel.P
    if cv.different_paper == MET:
        return FieldLabel.S
    return FieldLabel.F


def classify_error_mode(labels: dict[FieldSlot, FieldLabel]) -> str:
    error_slots = [s for s, l in labels.items() if l in ERROR_LABELS]
    if not error_slots:
        return "none"
    substituted = sum(1 for s in error_slots if labels[s] is FieldLabel.S)
    if substituted >= 3:
        return "wholesale"
    if len(error_slots) <= 2:
        return "isolated"
    return "mixed"


def verify_entry(
    entry: BibEntry,
    gt: GroundTruth,
    table: VenueSynonymTable | None = None,
) -> EntryVerdict:
    """Two-stage labeling of all ten slots."""
    stage1: dict[FieldSlot, object] = {
        slot: classify_stage1(entry, slot, gt, table) for slot in ALL_SLOTS
    }
    labels: dict[FieldSlot, FieldLabel] = {}
    stage2_slots = set()
    for slot, result in stage1.items():
        if result is PENDING:
            cv = classify_stage2(slot_of(entry, slot) or "", slot, gt, stage1, table)
            labels[slot] = verdict_from_criteria(cv)
            stage2_slots.add(slot)
        else:
            labels[slot] = result
    return EntryVerdict(labels, frozenset(stage2_slots))


# --------------------------------------------------------------------------
# corpus aggregates


EVALUABLE_SLOTS = tuple(s for s in ALL_SLOTS if s is not FieldSlot.ENTRY_KEY)
_EVALUABLE_NAMES = tuple((s, name) for s, name in SLOT_NAMES if s is not FieldSlot.ENTRY_KEY)


def co_error_matrix(
    verdicts: list[EntryVerdict],
) -> dict[FieldSlot, dict[FieldSlot, float | None]]:
    """Conditional probability P(slot j wrong | slot i wrong).

    Cells with zero denominator are None (undefined), never 0.
    """
    if not verdicts:
        raise ValueError("need at least one verdict")
    matrix: dict[FieldSlot, dict[FieldSlot, float | None]] = {}
    for i in EVALUABLE_SLOTS:
        row: dict[FieldSlot, float | None] = {}
        conditioning = [v for v in verdicts if v.labels[i] in ERROR_LABELS]
        for j in EVALUABLE_SLOTS:
            if not conditioning:
                row[j] = None
            else:
                wrong = sum(1 for v in conditioning if v.labels[j] in ERROR_LABELS)
                row[j] = wrong / len(conditioning)
        matrix[i] = row
    return matrix


@dataclass(frozen=True)
class TaggedVerdict:
    paper_id: str
    entry_tag: str
    verdict: EntryVerdict
    model: str = ""
    tier: str = ""
    domain: str = ""


def _bucket() -> dict:
    return {"evaluable": 0, "correct": 0}


def _pct(bucket: dict) -> dict:
    pct = round(100.0 * bucket["correct"] / bucket["evaluable"], 1) if bucket["evaluable"] else None
    return {**bucket, "pct_c": pct}


def aggregate_stats(tagged: list[TaggedVerdict]) -> dict:
    """Accuracy tables and label distribution; X slots never enter denominators."""
    C, X = FieldLabel.C, FieldLabel.X
    overall = _bucket()
    per_field: dict[str, dict] = {name: _bucket() for _, name in _EVALUABLE_NAMES}
    per_tag: dict[str, dict[str, dict]] = {"model": {}, "tier": {}, "domain": {}}
    labels_seen = {label: 0 for label in (C, FieldLabel.M, FieldLabel.F, FieldLabel.P, FieldLabel.S)}
    fully_correct = 0

    for tv in tagged:
        if tv.verdict.fully_correct:
            fully_correct += 1
        labels = tv.verdict.labels
        evaluable = correct = 0
        for slot, name in _EVALUABLE_NAMES:
            label = labels[slot]
            if label is X:
                continue
            labels_seen[label] += 1
            bucket = per_field[name]
            bucket["evaluable"] += 1
            evaluable += 1
            if label is C:
                bucket["correct"] += 1
                correct += 1
        if not evaluable:
            continue  # an all-X entry opens no model, tier or domain bucket
        for bucket in (
            overall,
            per_tag["model"].setdefault(tv.model, _bucket()),
            per_tag["tier"].setdefault(tv.tier, _bucket()),
            per_tag["domain"].setdefault(tv.domain, _bucket()),
        ):
            bucket["evaluable"] += evaluable
            bucket["correct"] += correct

    report = {
        "format_version": 1,
        "entries": len(tagged),
        "overall": _pct(overall),
        "fully_correct": {
            "count": fully_correct,
            "pct": round(100.0 * fully_correct / len(tagged), 1) if tagged else None,
        },
        "label_distribution": {LABEL_NAMES[label]: n for label, n in labels_seen.items()},
        "per_field": {name: _pct(b) for name, b in sorted(per_field.items())},
    }
    for kind, buckets in per_tag.items():
        report[f"per_{kind}"] = {tag: _pct(b) for tag, b in sorted(buckets.items())}
    return report
