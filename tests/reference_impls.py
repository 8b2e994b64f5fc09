"""Independent reference implementations used as test oracles.

Each routine here is deliberately written from scratch in the most obvious
way possible (explicit loops, no shared helpers with the package under
test) so agreement between the two is meaningful evidence.
"""

from __future__ import annotations


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


def reference_split_top_level(s: str, sep: str, maxsplit: int) -> list[str]:
    """The character-loop field splitter ``bibkit.model`` used before its regex scan."""
    parts: list[str] = []
    depth = 0
    in_quote = False
    start = 0
    for i, c in enumerate(s):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif c == '"' and depth == 0:
            in_quote = not in_quote
        elif c == sep and depth == 0 and not in_quote:
            parts.append(s[start:i])
            start = i + 1
            if len(parts) == maxsplit:
                break
    parts.append(s[start:])
    return parts



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
    """Spreadsheet-style aggregate over (paper_id, tag, slot->label) rows."""
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
    for _pid, _tag, labels in label_rows:
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
