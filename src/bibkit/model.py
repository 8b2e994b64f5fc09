"""BibTeX entry model: parsing, serialization, field slots, and the label alphabet.

The parser handles exactly one entry per input string. Values may be
brace-delimited, quote-delimited, or bare tokens; string concatenation
with ``#``, ``@string`` macros and ``@preamble`` are rejected. Its loop
takes one step per depth-0 segment of the body: one match of
``_SEGMENT_RE`` runs to the next ``,``, ``"`` or ``}`` and passes over
brace-free ``{...}`` groups inside the regex engine. The match also says
where a field's value starts and, when the value is one brace-free group,
where that group ends, so each value is read from those positions. A
``{`` whose group holds braces is passed over by ``_close``, the one brace
matcher, which finds each ``}`` and counts the ``{`` before it; it also
finds the end of a value whose group nests, and ``split_entries``, the
author splitter and the check on upstream strings use it too. Braces
count inside quotes, and a quote toggles only at depth 0.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple


class BibParseError(ValueError):
    """An entry or ``.bib`` text that does not parse; the message says why."""


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


class BibEntry(NamedTuple):
    """One parsed BibTeX record.

    ``entry_type`` and field names are stored lowercase; field order is
    preserved from the source so serialization is deterministic.
    """

    entry_type: str
    citation_key: str
    fields: dict[str, str]

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
        raise BibParseError("@string macros are not supported")
    if entry_type == "preamble":
        raise BibParseError("@preamble is not supported")

    # One step per depth-0 segment of the body. Each field is (start, its
    # first '=' outside quotes and groups, where its value starts, the end of
    # the value's brace-free group or -1); a comma outside quotes starts the next.
    start = pos = m.end()
    eq, segments, in_quote = -1, [], False
    while True:
        step = _SEGMENT_RE.match(s, pos)
        if eq < 0 and not in_quote:
            eq, at, group_end = step.start(1), step.end(1), step.end(2)
        pos = step.end()
        c = s[pos : pos + 1]
        if c == "}":
            break
        if c == ",":
            if not in_quote:
                segments.append((start, eq, at, group_end))
                start, eq = pos + 1, -1
        elif c == '"':
            in_quote = not in_quote
        elif c != "{" or (pos := _close(s, pos)) < 0:  # the text ended, or a group holding braces never closed
            raise BibParseError("entry braces are not balanced")
        pos += 1
    end = pos
    trailing = s[end + 1 :].strip()
    if trailing:
        if "@" in trailing:
            raise BibParseError("more than one entry in input")
        raise BibParseError(f"trailing content after entry: {trailing[:30]!r}")

    segments += (start, eq, at, group_end), (end + 1, -1, -1, -1)  # the closing brace ends the last segment
    key = s[m.end() : segments[1][0] - 1].strip()
    if not key:
        raise BibParseError("entry has no citation key")

    fields: dict[str, str] = {}
    for (start, eq, at, group_end), (next_start, _, _, _) in zip(segments[1:], segments[2:]):
        stop = next_start - 1
        if eq < 0:
            seg = s[start:stop].strip()
            if seg:
                raise BibParseError(f"field without '=': {seg[:30]!r}")
            if next_start > end:
                continue  # tolerate a trailing comma
            raise BibParseError("empty field segment")
        name = s[start:eq].strip().lower()
        if not name:
            raise BibParseError("field with empty name")
        c = s[at]  # the value's first character; the ',' or '}' at ``stop`` when it is empty
        if c == "{":  # the segment ends at depth 0, so this group closes inside it
            close = _close(s, at) if group_end < 0 else group_end - 1
            value, rest, kind = s[at + 1 : close], s[close + 1 : stop], "braced"
        elif c == '"':
            close = s.find('"', at + 1, stop)
            if close < 0:
                raise BibParseError("unterminated quoted value")
            value, rest, kind = s[at + 1 : close], s[close + 1 : stop], "quoted"
        else:
            value, rest = s[at:stop].rstrip(), ""  # bare, or empty
            if "#" in value:
                raise BibParseError("'#' concatenation is not supported")
        if rest and (rest := rest.strip()):
            if rest[0] == "#":
                raise BibParseError("'#' concatenation is not supported")
            raise BibParseError(f"junk after {kind} value: {rest[:20]!r}")
        if name in fields:
            raise BibParseError(f"duplicate field {name!r}")
        fields[name] = value

    return BibEntry(entry_type=entry_type, citation_key=key, fields=fields)


_HEADER_RE = re.compile(r"@\s*([A-Za-z]+)\s*\{")
#: One step of ``parse_entry``: text up to the next ``,``, ``"``, ``}`` or a
#: ``{`` whose group holds braces (or is unclosed), passing over brace-free
#: groups. Group 1 runs from its first ``=`` outside those groups to where
#: the value starts (``\s`` is the whitespace ``str.strip`` removes); group
#: 2, when it matched, is a value that is one brace-free ``{...}`` group.
_SEGMENT_RE = re.compile(
    r'[^{}",=]*(?:\{[^{}]*\}[^{}",=]*)*(?:(=\s*)(\{[^{}]*\})?)?[^{}",]*(?:\{[^{}]*\}[^{}",]*)*'
)
#: The name after an ``@`` and the ``{`` or ``(`` that follows it, if one does.
_AT_NAME_RE = re.compile(r"@\s*([^\s\"#%'(),={}@]*)\s*([{(]?)")


def _close(s: str, i: int) -> int:
    """The one brace matcher: where the brace at ``s[i]`` is matched, or -1.

    A ``{`` is matched by the ``}`` that closes it; a ``}`` that takes the
    depth below 0 is matched by the ``{`` that brings it back. Every brace
    counts, inside quotes too.
    """
    opener = s[i]
    closer = "}" if opener == "{" else "{"
    depth, j = 0, i
    while (k := s.find(closer, j)) >= 0:
        depth += s.count(opener, j, k) - 1
        if not depth:
            return k
        j = k + 1
    return -1


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
        i = _close(text, open_brace) + 1
        if not i:
            raise BibParseError("unbalanced braces in .bib input")
        if not (opener == "{" and name.lower() == "comment"):
            chunks.append(text[at:i])
    return chunks


def parse_bib_file(text: str) -> list[BibEntry]:
    return [parse_entry(chunk) for chunk in split_entries(text)]


#: The virtual slots, bound once: reading an enum member costs a class lookup.
_ENTRY_TYPE, _ENTRY_KEY, _VENUE = FieldSlot.ENTRY_TYPE, FieldSlot.ENTRY_KEY, FieldSlot.VENUE


def slot_of(entry: BibEntry, slot: FieldSlot) -> str | None:
    """Raw field value backing a slot, or None.

    The venue slot is virtual: journal wins over booktitle when both exist.
    """
    if slot == _ENTRY_TYPE:
        return entry.entry_type
    if slot == _ENTRY_KEY:
        return entry.citation_key
    fields = entry.fields
    if slot == _VENUE:
        journal = fields.get("journal")
        return fields.get("booktitle") if journal is None else journal
    return fields.get(slot)
