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
import unicodedata
from difflib import SequenceMatcher
from typing import Iterable, NamedTuple

from .model import ALL_SLOTS, BibEntry, FieldLabel, FieldSlot, slot_of
from .normalize import (
    ARXIV_NEW_ID,
    ARXIV_OLD_ID,
    VENUES,
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

#: The labels stage 2 gives; stage 1 gives none of them.
STAGE2_LABELS = frozenset({FieldLabel.P, FieldLabel.S, FieldLabel.F})

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

# Members read on every call, bound once: reading an enum member is a class
# attribute lookup, several times the cost of reading a module global. They
# are compared with ==, never ``is``: a caller may pass a slot's name.
_ENTRY_TYPE, _ENTRY_KEY = FieldSlot.ENTRY_TYPE, FieldSlot.ENTRY_KEY
_AUTHOR, _TITLE, _YEAR, _VENUE = FieldSlot.AUTHOR, FieldSlot.TITLE, FieldSlot.YEAR, FieldSlot.VENUE
_PAGES, _DOI = FieldSlot.PAGES, FieldSlot.DOI
_C, _M, _S, _X = FieldLabel.C, FieldLabel.M, FieldLabel.S, FieldLabel.X
#: The slots whose partial match is a token overlap.
_TEXT_SLOTS = (_TITLE, _VENUE, _AUTHOR)


class GroundTruthVersion(NamedTuple):
    version_type: str  # arxiv | proceedings | journal
    fields: dict[str, str]  # slot name -> value


class GroundTruth(NamedTuple):
    """All citable versions of one paper, and records it is confused with."""

    paper_id: str
    versions: tuple[GroundTruthVersion, ...]
    known_aliases: tuple[dict[str, str], ...] = ()  # confusable other-paper records

    def values_for(self, slot: FieldSlot) -> list[str]:
        # a loop, not a comprehension: before Python 3.12 a comprehension
        # builds a function object on every call
        values = []
        for version in self.versions:
            v = version.fields.get(slot)
            if v and v.strip():
                values.append(v)
        return values


class CriterionVerdict(NamedTuple):
    partial_match: str  # met | unmet | cannot_assess
    different_paper: str


@functools.cache
def _normalized(slot: FieldSlot, value: str, table: VenueSynonymTable) -> str | None:
    """Per-slot normalization; None when the value cannot be normalized. Memoized until ``clear_memo``.

    Most values recur across candidates and ground-truth versions. A table
    is fixed once built and hashes by identity, so it is part of the key.
    A slot's name and its member are one key and get one normal form; call
    positionally, as a keyword call is a second key.
    """
    if slot == _AUTHOR:
        return normalize_author(value)
    if slot == _TITLE:
        return normalize_title(value)
    if slot == _VENUE:
        return table.canonical(normalize_venue(value))
    if slot == _DOI:
        return normalize_doi(value)
    if slot == _PAGES:
        return normalize_pages(value)
    if slot == _YEAR:
        return normalize_year(value)
    if slot == _ENTRY_TYPE:
        return value.strip().lower()
    return value.strip()


def clear_memo() -> None:
    """Empty the unbounded normalization memo; ``harness.run_benchmark`` does so when a run ends."""
    _normalized.cache_clear()


def classify_stage1(
    entry: BibEntry,
    slot: FieldSlot,
    gt: GroundTruth,
    table: VenueSynonymTable = VENUES,
):
    """Rule-based labels: X, M, C, or PENDING, in that rule order."""
    if slot == _ENTRY_KEY:
        return _X
    inapplicable = INAPPLICABLE.get(entry.entry_type)
    if inapplicable is not None and slot in inapplicable:
        return _X
    gt_values = gt.values_for(slot)
    if not gt_values:
        return _X
    value = slot_of(entry, slot)
    if value is None or not value.strip():
        return _M
    norm = _normalized(slot, value, table)
    if norm is not None:
        for gt_value in gt_values:
            if norm == _normalized(slot, gt_value, table):  # None never equals a string
                return _C
    return PENDING


def _page_range(value: str) -> tuple[tuple[int, str], tuple[int, str]] | None:
    """Keys of the first two digit runs (one run: itself twice), or None without digits.

    A key, (length without leading zeros, those digits in ASCII), orders runs
    as the numbers they write. A digit of any script counts as ``int()`` reads it.
    """
    keys = []
    for run in _DIGITS_RE.findall(value)[:2]:
        digits = "".join(str(unicodedata.decimal(c)) for c in run).lstrip("0")
        keys.append((len(digits), digits))
    return (keys[0], keys[-1]) if keys else None


_ARXIV_DOI_RE = re.compile(r"^10\.48550/arxiv\.(.+)$")
#: An arXiv id in lowercased text; group 1 is the id without its version suffix
_ARXIV_ID_RE = re.compile(rf"(?<![\w-])({ARXIV_NEW_ID}|{ARXIV_OLD_ID})(?:v\d+)?(?!\d)")
_DIGITS_RE = re.compile(r"\d+")
_FOUR_DIGITS_RE = re.compile(r"\d{4}")


def _doi_partial(value: str, gt_values: list[str], gt: GroundTruth) -> bool:
    norm = normalize_doi(value)
    my_reg, _, my_suffix = norm.partition("/")
    for gt_value in gt_values:
        gt_reg, _, gt_suffix = normalize_doi(gt_value).partition("/")
        if my_reg == gt_reg and my_suffix and gt_suffix:
            if SequenceMatcher(None, my_suffix, gt_suffix).ratio() >= DOI_SUFFIX_SIMILARITY:
                return True
    # a preprint DOI encoding the arXiv id a ground-truth arXiv version states
    # (either without its vN) is a version variant of the same work
    m = _ARXIV_DOI_RE.match(norm)
    arxiv_id = m and _ARXIV_ID_RE.fullmatch(m.group(1))
    if arxiv_id:
        for version in gt.versions:
            if version.version_type == "arxiv" and any(
                arxiv_id.group(1) in _ARXIV_ID_RE.findall(v.lower()) for v in version.fields.values()
            ):
                return True
    return False


def classify_stage2(
    entry_value: str,
    slot: FieldSlot,
    gt: GroundTruth,
    context: dict[FieldSlot, object] | None = None,
    table: VenueSynonymTable = VENUES,
) -> CriterionVerdict:
    """Deterministic overlap heuristic. Precondition: ``classify_stage1`` left ``slot`` pending.

    So no rule matches an equal DOI, volume or number: stage 1 labels it C.
    ``context`` maps slots to their labels so far; ``slot``'s own is ignored.
    """
    context = context or {}
    gt_values = gt.values_for(slot)
    suspects = sum(1 for s in IDENTITY_SLOTS if s != slot and context.get(s) not in _NOT_SUSPECT)
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
    if slot in _TEXT_SLOTS:
        if any(overlap(v) >= TOKEN_OVERLAP_THRESHOLD for v in gt_values):
            return True
        if slot == _AUTHOR:
            mine = set(author_lastname_list(entry_value))
            for gt_value in gt_values:
                theirs = set(author_lastname_list(gt_value))
                smaller = min(len(mine), len(theirs))
                if smaller and len(mine & theirs) / smaller >= TOKEN_OVERLAP_THRESHOLD:
                    return True
        return False
    if slot == _PAGES:
        mine = _page_range(entry_value)
        if mine is None:
            return False
        for gt_value in gt_values:
            theirs = _page_range(gt_value)
            if theirs and mine[0] <= theirs[1] and theirs[0] <= mine[1]:
                return True
        return False
    if slot == _YEAR:
        my_years = _FOUR_DIGITS_RE.findall(entry_value)
        if not my_years:
            return False
        for gt_value in gt_values:
            gt_years = _FOUR_DIGITS_RE.findall(gt_value)
            if gt_years and abs(int(my_years[0]) - int(gt_years[0])) <= YEAR_SLACK:
                return True
        return False
    if slot == _DOI:
        return _doi_partial(entry_value, gt_values, gt)
    if slot == _ENTRY_TYPE:
        mine = entry_value.strip().lower()
        related = mine in RELATED_ENTRY_TYPES and all(
            v.strip().lower() in RELATED_ENTRY_TYPES for v in gt_values
        )
        return related and suspects < 2
    return False


def _matches_alias(entry_value: str, tokens: frozenset[str], slot: FieldSlot, gt: GroundTruth, table) -> bool:
    """Value traces to a known confusable record for a different paper."""
    alias_values = [v for alias in gt.known_aliases if (v := alias.get(slot)) and v.strip()]
    if not alias_values:
        return False
    mine = _normalized(slot, entry_value, table)
    for alias_value in alias_values:
        if mine is not None and mine == _normalized(slot, alias_value, table):
            return True
        # a DOI is an identifier: sharing tokens does not make it the alias's
        if slot != _DOI and jaccard(tokens, tokenize_filtered(alias_value)) >= TOKEN_OVERLAP_THRESHOLD:
            return True
    return False


def verdict_from_criteria(cv: CriterionVerdict) -> FieldLabel:
    """The seven-row mapping from criteria to P/S/F."""
    if cv.partial_match == MET:
        return FieldLabel.P
    if cv.different_paper == MET:
        return FieldLabel.S
    return FieldLabel.F


def classify_error_mode(labels: Iterable[FieldLabel]) -> str:
    """The error mode of an entry's labels, given in any order (such as its label vector)."""
    errors = [label for label in labels if label in ERROR_LABELS]
    if not errors:
        return "none"
    if errors.count(_S) >= 3:
        return "wholesale"
    if len(errors) <= 2:
        return "isolated"
    return "mixed"


def verify_entry(
    entry: BibEntry,
    gt: GroundTruth,
    table: VenueSynonymTable = VENUES,
) -> tuple[FieldLabel, ...]:
    """Two-stage labeling of all ten slots: the entry's label vector, its labels in ``ALL_SLOTS`` order."""
    labels = {slot: classify_stage1(entry, slot, gt, table) for slot in ALL_SLOTS}
    for slot, result in labels.items():
        if result is PENDING:  # as stage 2's context, a pending slot and a P, S or F are alike suspect
            cv = classify_stage2(slot_of(entry, slot) or "", slot, gt, labels, table)
            labels[slot] = verdict_from_criteria(cv)
    return tuple(labels.values())


# --------------------------------------------------------------------------
# corpus aggregates


EVALUABLE_SLOTS = tuple(s for s in ALL_SLOTS if s != FieldSlot.ENTRY_KEY)


def _bucket() -> dict:
    return {"evaluable": 0, "correct": 0}


def _pct(bucket: dict) -> dict:
    pct = round(100.0 * bucket["correct"] / bucket["evaluable"], 1) if bucket["evaluable"] else None
    return {**bucket, "pct_c": pct}


def aggregate_stats(counts: dict[tuple[tuple[FieldLabel, ...], str, str, str], int]) -> dict:
    """The bundle's "aggregate", "error_modes" and "co_error" sections, from counted label vectors.

    ``counts`` maps (label vector: labels in ``ALL_SLOTS`` order, model, tier,
    domain) to its entries; each key is read once, weighted by its count.
    X slots never enter accuracy denominators. Every label is C, X or one of
    ``ERROR_LABELS``, so an entry is fully correct, every non-X slot C,
    exactly when its error mode is ``none``. ``co_error[i][j]`` is
    P(slot j wrong | slot i wrong), None when slot i is never wrong; no
    entries give an empty matrix.
    """
    C, X = FieldLabel.C, FieldLabel.X
    overall = _bucket()
    per_field: dict[FieldSlot, dict] = {slot: _bucket() for slot in EVALUABLE_SLOTS}
    per_tag: dict[str, dict[str, dict]] = {"model": {}, "tier": {}, "domain": {}}
    labels_seen = {label: 0 for label in (C, FieldLabel.M, FieldLabel.F, FieldLabel.P, FieldLabel.S)}
    modes: dict[str, int] = {}
    # co[i][j]: entries with slots i and j both wrong; co[i][i] is row i's denominator
    co = [[0] * len(EVALUABLE_SLOTS) for _ in EVALUABLE_SLOTS]
    entries = sum(counts.values())

    # (row of co, position in a vector, per-field bucket) of each evaluable slot
    fields = [(i, ALL_SLOTS.index(slot), per_field[slot]) for i, slot in enumerate(EVALUABLE_SLOTS)]

    for (vector, model, tier, domain), n in counts.items():
        mode = classify_error_mode(vector)
        modes[mode] = modes.get(mode, 0) + n
        evaluable = correct = 0
        errors = []
        for i, k, bucket in fields:
            label = vector[k]
            if label == X:
                continue
            labels_seen[label] += n
            bucket["evaluable"] += n
            evaluable += n
            if label == C:
                bucket["correct"] += n
                correct += n
            else:
                errors.append(i)
        for i in errors:
            row = co[i]
            for j in errors:
                row[j] += n
        if not evaluable:
            continue  # an all-X entry opens no model, tier or domain bucket
        for bucket in (
            overall,
            per_tag["model"].setdefault(model, _bucket()),
            per_tag["tier"].setdefault(tier, _bucket()),
            per_tag["domain"].setdefault(domain, _bucket()),
        ):
            bucket["evaluable"] += evaluable
            bucket["correct"] += correct

    fully_correct = modes.get("none", 0)
    aggregate = {
        "format_version": 1,
        "entries": entries,
        "overall": _pct(overall),
        "fully_correct": {
            "count": fully_correct,
            "pct": round(100.0 * fully_correct / entries, 1) if entries else None,
        },
        "label_distribution": labels_seen,
        "per_field": {slot: _pct(b) for slot, b in sorted(per_field.items())},
    }
    for kind, buckets in per_tag.items():
        aggregate[f"per_{kind}"] = {tag: _pct(b) for tag, b in sorted(buckets.items())}
    co_error = {
        si: {sj: round(co[i][j] / co[i][i], 6) if co[i][i] else None for j, sj in enumerate(EVALUABLE_SLOTS)}
        for i, si in enumerate(EVALUABLE_SLOTS)
    }
    return {
        "aggregate": aggregate,
        "error_modes": dict(sorted(modes.items())),
        "co_error": co_error if entries else {},
    }
