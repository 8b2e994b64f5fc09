"""Two-stage reconciliation: lookup, title gate, asymmetric field merge.

The authoritative record wins for every standard slot it carries; the
baseline value survives only where the authoritative record is silent.
Every non-merged path is a strict no-op on the baseline entry.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .model import BibEntry, FieldSlot, VALUE_SLOTS, slot_of
from .normalize import jaccard, tokenize_filtered
from .resolve import ResolutionResult, classify_query

#: Jaccard threshold for the reconciliation title gate (inclusive).
RECONCILE_GATE_THRESHOLD = 0.3

#: Plain field names replaced wholesale when the authoritative record has them.
_STANDARD_FIELD_NAMES = frozenset(VALUE_SLOTS) - {FieldSlot.VENUE}


class PaperMeta(NamedTuple):
    paper_id: str
    url: str | None = None
    doi: str | None = None
    title: str | None = None


class ReconcileOutcome(NamedTuple):
    result: BibEntry
    action: str  # merged | kept_baseline_no_query | kept_baseline_not_found | kept_baseline_title_mismatch
    gate_score: float | None = None
    replaced_slots: frozenset[FieldSlot] = frozenset()


def _nonblank(value: str | None) -> str | None:
    """``value`` stripped; None when it is missing, empty or only whitespace."""
    return (value.strip() or None) if value is not None else None


def build_query(meta: PaperMeta) -> str | None:
    """First non-blank of url, doi, title, stripped."""
    return next(filter(None, map(_nonblank, (meta.url, meta.doi, meta.title))), None)


def title_gate(query_or_title: str, authoritative_title: str) -> tuple[bool, float]:
    score = jaccard(tokenize_filtered(query_or_title), tokenize_filtered(authoritative_title))
    return score >= RECONCILE_GATE_THRESHOLD, score


def merge_fields(
    baseline: BibEntry, authoritative: BibEntry
) -> tuple[BibEntry, frozenset[FieldSlot]]:
    """Database-wins merge over the standard slots.

    Every value slot the authoritative record carries is replaced, and so is
    the entry type when it has one. Its venue keeps its field name (journal
    over booktitle) in place of the baseline's first journal/booktitle field
    and drops the others; slots the baseline lacked are appended in slot
    order. The citation key stays with the baseline (downstream documents
    already reference it); non-standard baseline fields pass through. An
    authoritative field that is empty or only whitespace is silence: it
    replaces nothing.
    """
    fields = {name: value for name, value in authoritative.fields.items() if value.strip()}
    authoritative = BibEntry(authoritative.entry_type, authoritative.citation_key, fields)
    auth = {s: v for s in VALUE_SLOTS if (v := slot_of(authoritative, s)) is not None}
    venue_field = "journal" if authoritative.get("journal") is not None else "booktitle"
    merged: dict[str, str] = {}
    for name, value in baseline.fields.items():
        if name in ("journal", "booktitle") and FieldSlot.VENUE in auth:
            merged.setdefault(venue_field, auth[FieldSlot.VENUE])
        elif name in _STANDARD_FIELD_NAMES:
            merged[name] = auth.get(name, value)
        else:
            merged[name] = value
    for slot, value in auth.items():
        merged.setdefault(venue_field if slot == FieldSlot.VENUE else slot, value)

    replaced = set(auth)
    if authoritative.entry_type:
        replaced.add(FieldSlot.ENTRY_TYPE)
    entry_type = authoritative.entry_type or baseline.entry_type
    return BibEntry(entry_type, baseline.citation_key, merged), frozenset(replaced)


def reconcile(
    meta: PaperMeta,
    baseline: BibEntry,
    resolver: Callable[[str], ResolutionResult],
    memo: dict | None = None,
) -> ReconcileOutcome:
    """End-to-end reconciliation of one baseline entry.

    The resolver is any callable mapping a query string to a
    ResolutionResult; upstream errors propagate and never modify the
    baseline. ``memo`` is one run's dict, passed to each of its calls. It
    maps a query to its result and whether it is a title query, and a
    (query, gate input) pair to that title gate's verdict, so a run resolves
    and gates each distinct query once. A query is the exact string, not
    the classified query: the CrossRef fallback searches the original
    string. An exception is not kept, so the next entry with that query
    asks again.
    """
    query = build_query(meta)
    if query is None:
        return ReconcileOutcome(result=baseline, action="kept_baseline_no_query")

    memo = {} if memo is None else memo
    answer = memo.get(query)
    if answer is None:
        result = resolver(query)
        found = result.status == "found" and result.bibtex is not None
        # identifier queries resolve deterministically, so the gate compares
        # title metadata when available and auto-passes otherwise
        answer = memo[query] = (result, found and classify_query(query).kind == "title")
    result, title_query = answer
    if result.status == "title_mismatch":
        return ReconcileOutcome(result=baseline, action="kept_baseline_title_mismatch")
    if result.status != "found" or result.bibtex is None:
        return ReconcileOutcome(result=baseline, action="kept_baseline_not_found")

    gate_input = query if title_query else _nonblank(meta.title)
    gate_score: float | None = None
    if gate_input is not None:
        gate = memo.get((query, gate_input))
        if gate is None:
            auth_title = slot_of(result.bibtex, FieldSlot.TITLE) or ""
            gate = memo[query, gate_input] = title_gate(gate_input, auth_title)
        passed, gate_score = gate
        if not passed:
            return ReconcileOutcome(
                result=baseline, action="kept_baseline_title_mismatch", gate_score=gate_score
            )

    merged, replaced = merge_fields(baseline, result.bibtex)
    return ReconcileOutcome(
        result=merged, action="merged", gate_score=gate_score, replaced_slots=replaced
    )
