"""Independent reference implementations used as test oracles.

Each routine here is deliberately written from scratch in the most obvious
way possible (explicit loops, no shared helpers with the package under
test) so agreement between the two is meaningful evidence. The two copies
are the earlier ``bibkit.model`` parser, kept as the oracle for its error
messages and for the error classes the grammar fixture names, the earlier
normalizers that raised for a value with no normal form, kept as the oracle
for where that is, the slot reader, stage-1 rules and separator test
from before their per-call lookups were bound at import, the corpus
loader from before it streamed, which read the whole file, split it at
"\n" and then parsed every record, ``verify_entry`` from before it
filled one dict of labels, the labels rows from before they held
plain strings in place of slot and label members, the aggregate and
field deltas from before they counted label vectors, which walked every
entry's labels, the error-mode classifier from before it took labels in
any order, which read a dict from slots to labels, and the author splitter
and upstream-string brace check from before they jumped over brace groups,
which stepped over every brace, the diacritic folder from before it
encoded to ASCII, which filtered the decomposed value one character at a
time, and the title tokenizer from before it dropped tokens with one set
difference, which tested each token's length and stopword membership.
"""

from __future__ import annotations

import json
import re
import unicodedata
from pathlib import Path

from bibkit.harness import CorpusParseError, _parse_record
from bibkit.model import ALL_SLOTS, BibEntry, BibParseError, FieldLabel, FieldSlot, slot_of
from bibkit.normalize import (
    STOPWORDS,
    VenueSynonymTable,
    _TOKEN_RE,
    _ET_AL_RE,
    _PAGE_PART_RE,
    _PAGE_SEP_RE,
    _YEAR_RE,
    _last_name,
    _split_and,
    normalize_author,
    normalize_doi,
    normalize_pages,
    normalize_title,
    normalize_venue,
    normalize_year,
)
from bibkit.verify import (
    ERROR_LABELS,
    EVALUABLE_SLOTS,
    INAPPLICABLE,
    PENDING,
    STAGE2_LABELS,
    GroundTruth,
    _bucket,
    _pct,
    classify_error_mode,
    classify_stage1,
    classify_stage2,
    verdict_from_criteria,
)


def reference_parse(text: str):
    """Token-level reference parser for one BibTeX entry.

    Returns (entry_type, key, fields) or raises ValueError. Grammar:
    '@' type '{' key (',' name '=' value)* ','? '}' with braced, quoted,
    or bare values and no '#' concatenation.
    """
    i = 0
    n = len(text)

    def skip_ws(j):
        while j < n and text[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    if i >= n or text[i] != "@":
        raise ValueError("expected @")
    i += 1
    i = skip_ws(i)
    start = i
    while i < n and text[i].isalpha():
        i += 1
    entry_type = text[start:i].lower()
    if not entry_type:
        raise ValueError("expected entry type")
    if entry_type == "string":
        raise ValueError("string macro")
    i = skip_ws(i)
    if i >= n or text[i] != "{":
        raise ValueError("expected {")
    i += 1
    i = skip_ws(i)
    start = i
    while i < n and text[i] not in ",}":
        i += 1
    key = text[start:i].strip()
    if not key:
        raise ValueError("empty key")

    fields = {}
    while True:
        i = skip_ws(i)
        if i >= n:
            raise ValueError("unbalanced")
        if text[i] == "}":
            i += 1
            break
        if text[i] != ",":
            raise ValueError("expected , or }")
        i += 1
        i = skip_ws(i)
        if i < n and text[i] == "}":
            i += 1
            break  # trailing comma
        start = i
        while i < n and text[i] not in "=," and text[i] != "}":
            i += 1
        name = text[start:i].strip().lower()
        if i >= n or text[i] != "=":
            raise ValueError("expected =")
        if not name:
            raise ValueError("empty field name")
        i += 1
        i = skip_ws(i)
        if i >= n:
            raise ValueError("unbalanced")
        if text[i] == "{":
            depth = 0
            start = i
            while i < n:
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if depth != 0:
                raise ValueError("unbalanced value")
            value = text[start + 1 : i]
            i += 1
        elif text[i] == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ValueError("unterminated quote")
            value = text[i + 1 : end]
            i = end + 1
        else:
            start = i
            while i < n and text[i] not in ",}" and text[i] != "#":
                i += 1
            value = text[start:i].strip()
        i_peek = skip_ws(i)
        if i_peek < n and text[i_peek] == "#":
            raise ValueError("concatenation")
        if name in fields:
            raise ValueError("duplicate field")
        fields[name] = value
        i = i_peek
    rest = text[i:].strip()
    if rest:
        raise ValueError("trailing content")
    return entry_type, key, fields


# -- the regex-scan BibTeX parser ------------------------------------------------
#
# ``bibkit.model`` before it parsed each entry in one scan, copied verbatim
# except for the two public names: four brace scans per entry, but the
# error messages every later parser must keep. Its five ``BibParseError``
# subclasses, which ``bibkit.model`` no longer has, are defined here.


class UnbalancedBraces(BibParseError):
    pass


class DuplicateField(BibParseError):
    pass


class EmptyKey(BibParseError):
    pass


class MultipleEntries(BibParseError):
    pass


class UnsupportedConcatenation(BibParseError):
    pass


def parent_parse_entry(text: str) -> BibEntry:
    """Parse exactly one ``@type{key, ...}`` block into a BibEntry."""
    s = text.strip()
    at = s.find("@")
    if at < 0:
        raise BibParseError("no entry found")

    m = re.match(r"@\s*([A-Za-z]+)\s*\{", s[at:])
    if not m:
        raise BibParseError("malformed entry header")
    entry_type = m.group(1).lower()
    if entry_type == "string":
        raise UnsupportedConcatenation("@string macros are not supported")
    body_start = at + m.end()
    i = _close_brace(s, body_start - 1)
    if i < 0:
        raise UnbalancedBraces("entry braces are not balanced")
    body = s[body_start:i]
    trailing = s[i + 1 :].strip()
    if trailing:
        if "@" in trailing:
            raise MultipleEntries("more than one entry in input")
        raise BibParseError(f"trailing content after entry: {trailing[:30]!r}")

    key, *rest = _split_top_level(body, _COMMA_RE, 1)
    key = key.strip()
    if not key:
        raise EmptyKey("entry has no citation key")

    fields: dict[str, str] = {}
    segments = _split_top_level(rest[0], _COMMA_RE) if rest else []
    for position, segment in enumerate(segments):
        seg = segment.strip()
        if not seg:
            if position == len(segments) - 1:
                continue  # tolerate a trailing comma
            raise BibParseError("empty field segment")
        name, *raw = _split_top_level(seg, _EQUALS_RE, 1)
        if not raw:
            raise BibParseError(f"field without '=': {seg[:30]!r}")
        name = name.strip().lower()
        if not name:
            raise BibParseError("field with empty name")
        value = _parse_value(raw[0].strip())
        if name in fields:
            raise DuplicateField(f"duplicate field {name!r}")
        fields[name] = value

    return BibEntry(entry_type=entry_type, citation_key=key, fields=fields)


def _parse_value(raw: str) -> str:
    if not raw:
        return ""
    if raw[0] == "{":
        end, kind = _close_brace(raw, 0), "braced"
        if end < 0:
            raise UnbalancedBraces("value braces are not balanced")
    elif raw[0] == '"':
        end, kind = raw.find('"', 1), "quoted"
        if end < 0:
            raise BibParseError("unterminated quoted value")
    elif "#" in raw:
        raise UnsupportedConcatenation("'#' concatenation is not supported")
    else:
        return raw.strip()
    rest = raw[end + 1 :].strip()
    if rest.startswith("#"):
        raise UnsupportedConcatenation("'#' concatenation is not supported")
    if rest:
        raise BibParseError(f"junk after {kind} value: {rest[:20]!r}")
    return raw[1:end]


_BRACE_RE = re.compile(r"[{}]")


def _close_brace(s: str, open_at: int) -> int:
    """Index of the brace closing the ``{`` at ``open_at``, or -1; quotes are not tracked."""
    depth = 0
    for m in _BRACE_RE.finditer(s, open_at):
        if m.group() == "{":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


#: The delimiters ``parse_entry`` splits at: braces, quotes and the separator.
_COMMA_RE = re.compile(r'[{}",]')
_EQUALS_RE = re.compile(r'[{}"=]')


def _split_top_level(s: str, delimiters: re.Pattern, maxsplit: int = -1) -> list[str]:
    """Split ``s`` at separators outside braces, like ``str.split``.

    ``delimiters`` matches ``{``, ``}`` and the separator. When it also
    matches ``"``, a quote toggles at depth 0 and hides the separators up
    to the next one; braces count inside quotes too.
    """
    parts: list[str] = []
    depth = 0
    in_quote = False
    start = 0
    for m in delimiters.finditer(s):
        c = m.group()
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth == 0:
            if c == '"':
                in_quote = not in_quote
            elif not in_quote:
                parts.append(s[start : m.start()])
                start = m.end()
                if len(parts) == maxsplit:
                    break
    parts.append(s[start:])
    return parts


def parent_split_entries(text: str) -> list[str]:
    """Split a .bib file into individual entry sources (brace-aware)."""
    chunks: list[str] = []
    i = 0
    while i < len(text):
        at = text.find("@", i)
        if at < 0:
            break
        open_brace = text.find("{", at)
        if open_brace < 0:
            break
        j = _close_brace(text, open_brace)
        if j < 0:
            raise UnbalancedBraces("unbalanced braces in .bib input")
        chunks.append(text[at : j + 1])
        i = j + 1
    return chunks


def parent_split_and(value: str) -> list[str]:
    """``normalize._split_and`` from before it jumped over brace groups.

    One scan over every brace and " and ": depth counts each brace and may
    go below 0, and an " and " splits only at depth 0.
    """
    parts, start, depth = [], 0, 0
    for m in re.finditer(r"[{}]| and ", value, re.IGNORECASE):
        if m.group() == "{":
            depth += 1
        elif m.group() == "}":
            depth -= 1
        elif depth == 0:
            parts.append(value[start : m.start()])
            start = m.end()
    return [p.strip() for p in [*parts, value[start:]] if p.strip()]


def parent_text(value) -> str | None:
    """``resolve._text`` from before it jumped over brace groups: a string whose braces nest, else None."""
    if not isinstance(value, str) or value.count("{") != value.count("}"):
        return None
    depth = 0
    for m in re.finditer(r"[{}]", value):
        depth += 1 if m.group() == "{" else -1
        if depth < 0:
            return None
    return value


def reference_split_top_level_and(value: str) -> list[str]:
    """The character-loop author splitter ``bibkit.normalize`` used before its regex scan.

    It indexes ``value.lower()`` with positions of ``value``, so it is only
    right for strings whose ``lower()`` keeps their length.
    """
    parts: list[str] = []
    depth = 0
    i = 0
    start = 0
    lowered = value.lower()
    while i < len(value):
        c = value[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth == 0 and lowered.startswith(" and ", i):
            parts.append(value[start:i])
            i += 5
            start = i
            continue
        i += 1
    parts.append(value[start:])
    return [p.strip() for p in parts if p.strip()]


# -- the raising normalizers --------------------------------------------------------
#
# ``bibkit.normalize`` before a value with no normal form became None (or
# ``[]``): the four public normalizers, the author splitter and the three
# exception classes, copied verbatim except for the public names. Helpers
# that did not change are imported.


class EmptyAuthor(ValueError):
    pass


class MalformedPages(ValueError):
    pass


class MalformedYear(ValueError):
    pass


def _split_authors(value: str) -> list[str]:
    """Author names from a raw field.

    The BibTeX convention separates authors with " and ". Generated entries
    sometimes use a plain comma-separated display list instead
    ("Julian McAuley, Jure Leskovec"); we detect that case by checking that
    every comma-separated segment looks like a full name (more than one word
    and no braces), since a single comma in "Last, First" has a one-word
    surname segment.
    """
    value = _ET_AL_RE.sub("", value).strip().rstrip(",")
    if not value:
        raise EmptyAuthor("empty author field")
    parts = _split_and(value)
    if len(parts) > 1:
        return parts
    segments = [s.strip() for s in value.split(",") if s.strip()]
    if len(segments) > 1 and all("{" not in s and len(s.split()) > 1 for s in segments):
        return segments
    return [value]


def parent_normalize_author(value: str) -> str:
    """First-author last name, lowercase, diacritics stripped."""
    names = _split_authors(value)
    last = _last_name(names[0])
    if not last:
        raise EmptyAuthor("could not extract a first-author last name")
    return last


def parent_author_lastname_list(value: str) -> list[str]:
    """Ordered lowercase last names, one per author."""
    names = _split_authors(value)
    result = [ln for ln in (_last_name(n) for n in names) if ln]
    if not result:
        raise EmptyAuthor("no author last names found")
    return result


def parent_normalize_pages(value: str) -> str:
    """Canonical "start--end" (or a single page), any dash style accepted."""
    s = value.strip()
    if not s:
        raise MalformedPages("empty pages value")
    parts = [p for p in _PAGE_SEP_RE.split(s)]
    if len(parts) == 1:
        if not _PAGE_PART_RE.match(parts[0]):
            raise MalformedPages(f"unparseable pages value: {value!r}")
        return parts[0]
    if len(parts) != 2 or not all(parts):
        raise MalformedPages(f"unparseable pages value: {value!r}")
    if not any(_PAGE_PART_RE.match(p) for p in parts):
        raise MalformedPages(f"unparseable pages value: {value!r}")
    if parts[0] == parts[1]:
        # degenerate ranges ("426--426") are the same citation as the bare page
        return parts[0]
    return f"{parts[0]}--{parts[1]}"


def parent_normalize_year(value: str) -> str:
    """The 4-digit year, or MalformedYear."""
    s = value.strip()
    if not _YEAR_RE.match(s):
        raise MalformedYear(f"not a 4-digit year: {value!r}")
    return s


def parent_fold_diacritics(value: str) -> str:
    """NFKD, then each character kept when it is not combining and is ASCII."""
    decomposed = unicodedata.normalize("NFKD", value)
    return "".join(c for c in decomposed if not unicodedata.combining(c) and ord(c) < 128)


def parent_tokenize_filtered(text: str) -> frozenset[str]:
    """Lowercase alphanumeric tokens minus stopwords and 1-char tokens, one token at a time."""
    tokens = _TOKEN_RE.findall(text.lower())
    return frozenset(t for t in tokens if len(t) > 1 and t not in STOPWORDS)


def brute_jaccard(a, b) -> float:
    """Membership-counting Jaccard, no set operators."""
    union = []
    for t in list(a) + list(b):
        if t not in union:
            union.append(t)
    if not union:
        return 1.0
    inter = 0
    for t in union:
        if t in a and t in b:
            inter += 1
    return inter / len(union)


WRONG = {"M", "F", "P", "S"}


def brute_co_error(label_rows: list[dict[str, str]]) -> dict[str, dict[str, float | None]]:
    """O(n * 81) pairwise conditional error counting over slot-name keyed rows."""
    slots = [
        "entry_type",
        "author",
        "title",
        "year",
        "venue",
        "volume",
        "number",
        "pages",
        "doi",
    ]
    out: dict[str, dict[str, float | None]] = {}
    for i in slots:
        row: dict[str, float | None] = {}
        denom = 0
        numer = {j: 0 for j in slots}
        for labels in label_rows:
            if labels[i] in WRONG:
                denom += 1
                for j in slots:
                    if labels[j] in WRONG:
                        numer[j] += 1
        for j in slots:
            row[j] = None if denom == 0 else numer[j] / denom
        out[i] = row
    return out


def brute_tally(label_rows: list[tuple[str, str, dict[str, str]]]) -> dict:
    """Spreadsheet-style aggregate and error-mode count over (paper_id, tag, slot->label) rows."""
    slots = [
        "entry_type",
        "author",
        "title",
        "year",
        "venue",
        "volume",
        "number",
        "pages",
        "doi",
    ]
    per_field = {s: {"evaluable": 0, "correct": 0} for s in slots}
    dist = {"C": 0, "M": 0, "F": 0, "P": 0, "S": 0}
    fully = 0
    modes: dict[str, int] = {}
    for _pid, _tag, labels in label_rows:
        wrong = sum(1 for s in slots if labels[s] in WRONG)
        substituted = sum(1 for s in slots if labels[s] == "S")
        if wrong == 0:
            mode = "none"
        elif substituted >= 3:
            mode = "wholesale"
        elif wrong <= 2:
            mode = "isolated"
        else:
            mode = "mixed"
        modes[mode] = modes.get(mode, 0) + 1
        entry_ok = True
        for s in slots:
            lab = labels[s]
            if lab == "X":
                continue
            dist[lab] += 1
            per_field[s]["evaluable"] += 1
            if lab == "C":
                per_field[s]["correct"] += 1
            else:
                entry_ok = False
        if entry_ok:
            fully += 1
    evaluable = sum(b["evaluable"] for b in per_field.values())
    correct = sum(b["correct"] for b in per_field.values())
    return {
        "entries": len(label_rows),
        "evaluable": evaluable,
        "correct": correct,
        "pct_c": round(100.0 * correct / evaluable, 1) if evaluable else None,
        "fully_correct": fully,
        "error_modes": dict(sorted(modes.items())),
        "label_distribution": dist,
        "per_field": {
            s: {
                **b,
                "pct_c": round(100.0 * b["correct"] / b["evaluable"], 1) if b["evaluable"] else None,
            }
            for s, b in per_field.items()
        },
    }


def reference_merge(
    base_type: str, base_fields: dict[str, str], auth_type: str, auth_fields: dict[str, str]
) -> tuple[str, dict[str, str], set[str]]:
    """Database-wins merge over plain field dicts, in two explicit phases.

    Returns (entry_type, fields, replaced slot names). The authoritative
    venue is its journal, else its booktitle, and keeps that field name.
    Phase 1 walks the baseline: its first venue field becomes the
    authoritative venue and later ones are dropped; a standard field takes
    the authoritative value when there is one; everything else is kept.
    Phase 2 appends, in slot order, each standard slot the baseline lacked.
    """
    auth_fields = {name: value for name, value in auth_fields.items() if value.strip()}  # blank is silence
    standard = ["author", "title", "year", "volume", "number", "pages", "doi"]
    slot_order = ["author", "title", "year", "venue", "volume", "number", "pages", "doi"]
    if "journal" in auth_fields:
        venue_field, venue = "journal", auth_fields["journal"]
    elif "booktitle" in auth_fields:
        venue_field, venue = "booktitle", auth_fields["booktitle"]
    else:
        venue_field, venue = None, None

    fields: dict[str, str] = {}
    venue_done = False
    for name, value in base_fields.items():
        if name == "journal" or name == "booktitle":
            if venue is None:
                fields[name] = value
            elif not venue_done:
                fields[venue_field] = venue
                venue_done = True
        elif name in standard and name in auth_fields:
            fields[name] = auth_fields[name]
        else:
            fields[name] = value

    for name in slot_order:
        if name == "venue":
            if venue is not None and not venue_done:
                fields[venue_field] = venue
                venue_done = True
        elif name not in fields and name in auth_fields:
            fields[name] = auth_fields[name]

    replaced = {name for name in standard if name in auth_fields}
    if venue is not None:
        replaced.add("venue")
    entry_type = base_type
    if auth_type:
        entry_type = auth_type
        replaced.add("entry_type")
    return entry_type, fields, replaced


# -- the stage-1 path before its lookups were bound -----------------------------------
#
# ``bibkit.model.slot_of``, ``bibkit.verify.classify_stage1`` with the helpers
# it calls (``GroundTruth.values_for`` as a function, ``_normalized`` and
# ``_table_free_normalized`` without the memo) and
# ``bibkit.harness._holds_separator`` as they were before each read of an
# enum member, each ``frozenset()`` default and each generator went from
# their per-call paths; copied verbatim except for the names. The constants
# they read did not change and are imported.

def parent_slot_of(entry: BibEntry, slot: FieldSlot) -> str | None:
    if slot is FieldSlot.ENTRY_TYPE:
        return entry.entry_type
    if slot is FieldSlot.ENTRY_KEY:
        return entry.citation_key
    if slot is FieldSlot.VENUE:
        journal = entry.get("journal")
        if journal is not None:
            return journal
        return entry.get("booktitle")
    return entry.get(slot)


def parent_values_for(gt, slot: FieldSlot) -> list[str]:
    return [v for version in gt.versions if (v := version.fields.get(slot)) and v.strip()]


def _parent_table_free_normalized(slot: FieldSlot, value: str) -> str | None:
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


def _parent_normalized(slot: FieldSlot, value: str, table) -> str | None:
    norm = _parent_table_free_normalized(slot, value)
    if slot is FieldSlot.VENUE and table is not None:
        return table.canonical(norm)
    return norm


def parent_classify_stage1(entry: BibEntry, slot: FieldSlot, gt, table=None):
    if slot is FieldSlot.ENTRY_KEY:
        return FieldLabel.X
    if slot in INAPPLICABLE.get(entry.entry_type, frozenset()):
        return FieldLabel.X
    gt_values = parent_values_for(gt, slot)
    if not gt_values:
        return FieldLabel.X
    value = parent_slot_of(entry, slot)
    if value is None or not value.strip():
        return FieldLabel.M
    norm = _parent_normalized(slot, value, table)
    if norm is not None:
        for gt_value in gt_values:
            gt_norm = _parent_normalized(slot, gt_value, table)
            if gt_norm is not None and norm == gt_norm:
                return FieldLabel.C
    return PENDING


# -- verify_entry with a second dict of stage-1 results ---------------------------------
#
# ``bibkit.verify.verify_entry`` as it was while it kept stage 1's results in a
# dict of their own, read as stage 2's context, and filled a second dict with
# the labels; copied verbatim except for the name.

def parent_verify_entry(
    entry: BibEntry,
    gt: GroundTruth,
    table: VenueSynonymTable | None = None,
) -> dict[FieldSlot, FieldLabel]:
    """Two-stage labeling of all ten slots."""
    stage1: dict[FieldSlot, object] = {
        slot: classify_stage1(entry, slot, gt, table) for slot in ALL_SLOTS
    }
    labels: dict[FieldSlot, FieldLabel] = {}
    for slot, result in stage1.items():
        if result is PENDING:
            cv = classify_stage2(slot_of(entry, slot) or "", slot, gt, stage1, table)
            result = verdict_from_criteria(cv)
        labels[slot] = result
    return labels


def parent_holds_separator(value: str) -> bool:
    return any(c in value for c in "\t\r\n")


def parent_load_corpus(path, permissive: bool = False) -> list:
    records = []
    seen_ids: set[str] = set()
    text = Path(path).read_text("utf-8-sig")  # the whole-file line rule, not bibkit's reader
    lines = text.removesuffix("\n").split("\n") if text else []
    if not lines:
        raise CorpusParseError("line 1: empty corpus file")
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
        raise CorpusParseError(f"line 1: bad header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if type(version) is not int or version != 1:
        raise CorpusParseError("line 1: unsupported corpus format version")
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(_parse_record(line, line_no, seen_ids))
        except CorpusParseError:
            if not permissive:
                raise
    return records


def parent_labels_rows(entries) -> list[tuple]:
    return [
        (paper_id, tag, slot, label, "2" if label in STAGE2_LABELS else "1")
        for paper_id, tag, labels in entries
        for slot in ALL_SLOTS
        for label in [labels[slot]]
    ]


def parent_aggregate_stats(tagged: list[tuple[dict, str, str, str]]) -> dict:
    """The bundle's "aggregate", "error_modes" and "co_error" sections, from one pass.

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

    for labels, model, tier, domain in tagged:
        mode = classify_error_mode(labels.values())
        modes[mode] = modes.get(mode, 0) + 1
        evaluable = correct = 0
        errors = []
        for i, slot in enumerate(EVALUABLE_SLOTS):
            label = labels[slot]
            if label == X:
                continue
            labels_seen[label] += 1
            bucket = per_field[slot]
            bucket["evaluable"] += 1
            evaluable += 1
            if label == C:
                bucket["correct"] += 1
                correct += 1
            else:
                errors.append(i)
        for i in errors:
            row = co[i]
            for j in errors:
                row[j] += 1
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
        "entries": len(tagged),
        "overall": _pct(overall),
        "fully_correct": {
            "count": fully_correct,
            "pct": round(100.0 * fully_correct / len(tagged), 1) if tagged else None,
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
        "co_error": co_error if tagged else {},
    }


# -- classify_error_mode on a dict from slots to labels --------------------------------
#
# ``bibkit.verify.classify_error_mode`` as it was while it took a dict from
# slots to labels; copied verbatim except for the name and ``FieldLabel.S``
# in place of the module's bound ``_S``.

def parent_classify_error_mode(labels: dict[FieldSlot, FieldLabel]) -> str:
    error_slots = [s for s, l in labels.items() if l in ERROR_LABELS]
    if not error_slots:
        return "none"
    substituted = sum(1 for s in error_slots if labels[s] == FieldLabel.S)
    if substituted >= 3:
        return "wholesale"
    if len(error_slots) <= 2:
        return "isolated"
    return "mixed"


def parent_field_deltas(before: list[dict], after: list[dict]) -> dict:
    """Per-field correction/regression accounting between two aligned labelings."""
    C, X = FieldLabel.C, FieldLabel.X
    deltas: dict[str, dict] = {}
    for slot in EVALUABLE_SLOTS:
        pairs = [(b[slot], a[slot]) for b, a in zip(before, after)]
        # (correct before, correct after) of each entry evaluable in both
        correct = [(lb == C, la == C) for lb, la in pairs if X not in (lb, la)]
        deltas[slot] = {
            "evaluable": len(correct),
            "before_c": sum(cb for cb, _ in correct),
            "after_c": sum(ca for _, ca in correct),
            "corrections": sum(ca and not cb for cb, ca in correct),
            "regressions": sum(cb and not ca for cb, ca in correct),
        }
    return deltas
