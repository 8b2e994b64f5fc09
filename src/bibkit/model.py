"""BibTeX entry model: parsing, serialization, field slots, and the label alphabet.

The parser handles exactly one entry per input string. Values may be
brace-delimited, quote-delimited, or bare tokens; string concatenation
with ``#`` and ``@string`` macros are rejected.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


class BibParseError(ValueError):
    """Base class for entry parse failures."""


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


class FieldSlot(str, enum.Enum):
    """The ten evaluated field positions of an entry."""

    ENTRY_TYPE = "entry_type"
    ENTRY_KEY = "entry_key"
    AUTHOR = "author"
    TITLE = "title"
    YEAR = "year"
    VENUE = "venue"
    VOLUME = "volume"
    NUMBER = "number"
    PAGES = "pages"
    DOI = "doi"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Slots evaluated against ground truth (entry_key is always X, but it is
#: still part of the slot set).
ALL_SLOTS = tuple(FieldSlot)

#: The eight ordinary value-bearing slots (everything except the entry type
#: and the citation key).
VALUE_SLOTS = (
    FieldSlot.AUTHOR,
    FieldSlot.TITLE,
    FieldSlot.YEAR,
    FieldSlot.VENUE,
    FieldSlot.VOLUME,
    FieldSlot.NUMBER,
    FieldSlot.PAGES,
    FieldSlot.DOI,
)


class FieldLabel(str, enum.Enum):
    C = "C"  # correct after normalization
    M = "M"  # missing from the entry, present in ground truth
    F = "F"  # fabricated, no verifiable source
    P = "P"  # partial overlap with ground truth
    S = "S"  # substituted from a real but wrong source
    X = "X"  # not applicable / not evaluable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Each slot with its name in slot order, and each label's name: the
#: per-label loops read these instead of an enum's ``.value``.
SLOT_NAMES = tuple((slot, slot.value) for slot in FieldSlot)
LABEL_NAMES = {label: label.value for label in FieldLabel}


@dataclass(frozen=True)
class BibEntry:
    """One parsed BibTeX record.

    ``entry_type`` and field names are stored lowercase; field order is
    preserved from the source so serialization is deterministic.
    """

    entry_type: str
    citation_key: str
    fields: dict[str, str] = field(default_factory=dict)

    def get(self, name: str) -> str | None:
        return self.fields.get(name.lower())


_KEY_RE = re.compile(r"[^A-Za-z0-9]+")


def sanitize_citation_key(key: str) -> str:
    """Strip a citation key down to alphanumerics; empty results become "ref"."""
    cleaned = _KEY_RE.sub("", key)
    return cleaned or "ref"


def parse_entry(text: str) -> BibEntry:
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


def serialize_entry(entry: BibEntry) -> str:
    """Render an entry deterministically: stored field order, braced values."""
    lines = [f"@{entry.entry_type}{{{entry.citation_key},"]
    for name, value in entry.fields.items():
        lines.append(f"  {name} = {{{value}}},")
    lines.append("}")
    return "\n".join(lines)


def split_entries(text: str) -> list[str]:
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


def parse_bib_file(text: str) -> list[BibEntry]:
    return [parse_entry(chunk) for chunk in split_entries(text)]


def slot_of(entry: BibEntry, slot: FieldSlot) -> str | None:
    """Raw field value backing a slot, or None.

    The venue slot is virtual: journal wins over booktitle when both exist.
    """
    if slot is FieldSlot.ENTRY_TYPE:
        return entry.entry_type
    if slot is FieldSlot.ENTRY_KEY:
        return entry.citation_key
    if slot is FieldSlot.VENUE:
        journal = entry.get("journal")
        if journal is not None:
            return journal
        return entry.get("booktitle")
    return entry.get(slot.value)
