"""BibTeX entry model: parsing, serialization, field slots, and the label alphabet.

The parser handles exactly one entry per input string. Values may be
brace-delimited, quote-delimited, or bare tokens; string concatenation
with ``#``, ``@string`` macros and ``@preamble`` are rejected. One
brace-depth scan, ``_scan``, finds every separator: braces count inside
quotes too, and a quote toggles only at depth 0.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator
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

    m = _HEADER_RE.match(s, at)
    if not m:
        raise BibParseError("malformed entry header")
    entry_type = m.group(1).lower()
    if entry_type == "string":
        raise UnsupportedConcatenation("@string macros are not supported")
    if entry_type == "preamble":
        raise BibParseError("@preamble is not supported")

    # One scan of the body. Each segment is [start, its first '=', the first
    # '}' after that '=' back at depth 0]; a comma outside quotes starts the next.
    segments = [[m.end(), -1, -1]]
    in_quote = False
    for sep, depth in _scan(s, _ENTRY_RE, m.end()):
        c, seg = sep.group(), segments[-1]
        if depth < 0:
            break
        if c == "}":
            if seg[1] >= 0 and seg[2] < 0:
                seg[2] = sep.start()
        elif c == '"':
            in_quote = not in_quote
        elif in_quote:
            continue
        elif c == ",":
            segments.append([sep.end(), -1, -1])
        elif seg[1] < 0:
            seg[1] = sep.start()
    else:
        raise UnbalancedBraces("entry braces are not balanced")
    end = sep.start()
    trailing = s[end + 1 :].strip()
    if trailing:
        if "@" in trailing:
            raise MultipleEntries("more than one entry in input")
        raise BibParseError(f"trailing content after entry: {trailing[:30]!r}")

    segments.append([end + 1])  # the closing brace ends the last segment
    key = s[m.end() : segments[1][0] - 1].strip()
    if not key:
        raise EmptyKey("entry has no citation key")

    fields: dict[str, str] = {}
    for (start, eq, close), (next_start, *_) in zip(segments[1:], segments[2:]):
        seg = s[start : next_start - 1].strip()
        if not seg:
            if next_start > end:
                continue  # tolerate a trailing comma
            raise BibParseError("empty field segment")
        if eq < 0:
            raise BibParseError(f"field without '=': {seg[:30]!r}")
        name = s[start:eq].strip().lower()
        if not name:
            raise BibParseError("field with empty name")
        value = _parse_value(s, eq + 1, next_start - 1, close)
        if name in fields:
            raise DuplicateField(f"duplicate field {name!r}")
        fields[name] = value

    return BibEntry(entry_type=entry_type, citation_key=key, fields=fields)


def _parse_value(s: str, start: int, stop: int, close: int) -> str:
    """The value in ``s[start:stop]``; ``close`` is its first ``}`` back at depth 0."""
    raw = s[start:stop].strip()
    if raw[:1] == "{":  # the segment ends at depth 0, so this brace closes at ``close``
        value, rest, kind = s[s.find("{", start) + 1 : close], s[close + 1 : stop], "braced"
    elif raw[:1] == '"':
        end = raw.find('"', 1)
        if end < 0:
            raise BibParseError("unterminated quoted value")
        value, rest, kind = raw[1:end], raw[end + 1 :], "quoted"
    elif "#" in raw:
        raise UnsupportedConcatenation("'#' concatenation is not supported")
    else:
        return raw  # bare, or empty
    rest = rest.strip()
    if rest.startswith("#"):
        raise UnsupportedConcatenation("'#' concatenation is not supported")
    if rest:
        raise BibParseError(f"junk after {kind} value: {rest[:20]!r}")
    return value


_HEADER_RE = re.compile(r"@\s*([A-Za-z]+)\s*\{")
#: What ``parse_entry`` scans for: braces, quotes and the two separators.
_ENTRY_RE = re.compile(r'[{}",=]')
_BRACE_RE = re.compile(r"[{}]")
#: The name after an ``@`` and the ``{`` or ``(`` that follows it, if one does.
_AT_NAME_RE = re.compile(r"@\s*([^\s\"#%'(),={}@]*)\s*([{(]?)")


def _scan(s: str, pattern: re.Pattern, pos: int = 0) -> Iterator[tuple[re.Match, int]]:
    """The one brace-depth scan: yield ``(match, depth)`` over ``s[pos:]``.

    ``pattern`` matches ``{``, ``}`` and the separators. Depth starts at 0
    and counts every brace; the scan yields each separator met at depth 0
    and each ``}`` that leaves the depth at 0 or below.
    """
    depth = 0
    for m in pattern.finditer(s, pos):
        c = m.group()
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth <= 0:
                yield m, depth
        elif depth == 0:
            yield m, 0


def serialize_entry(entry: BibEntry) -> str:
    """Render an entry deterministically: stored field order, braced values."""
    lines = [f"@{entry.entry_type}{{{entry.citation_key},"]
    for name, value in entry.fields.items():
        lines.append(f"  {name} = {{{value}}},")
    lines.append("}")
    return "\n".join(lines)


def split_entries(text: str) -> list[str]:
    """Split a .bib file into individual entry sources (brace-aware).

    An ``@`` whose name is followed by neither ``{`` nor ``(`` is text, as
    in ``me@example.org``; an ``@comment{...}`` block is skipped. Any other
    ``@`` starts an entry that runs to the brace closing its first ``{``.
    """
    chunks: list[str] = []
    i = 0
    while (at := text.find("@", i)) >= 0:
        name, opener = _AT_NAME_RE.match(text, at).groups()
        if name and not opener:
            i = at + 1
            continue
        open_brace = text.find("{", at)
        if open_brace < 0:
            break
        close = next(_scan(text, _BRACE_RE, open_brace), None)
        if close is None:
            raise UnbalancedBraces("unbalanced braces in .bib input")
        i = close[0].end()
        if not (opener == "{" and name.lower() == "comment"):
            chunks.append(text[at:i])
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
