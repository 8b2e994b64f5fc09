"""Per-field normalization rules and token-similarity primitives.

Every normalizer is idempotent and pure. A value with no normal form (an
author field without a last name, pages or a year that do not parse) is
not an error: its normalizer returns None, and ``author_lastname_list``
returns ``[]``. The stopword list and the default venue synonym table are
shipped as data files so gate decisions stay reproducible across runs.
"""

from __future__ import annotations

import contextlib
import re
import unicodedata
from importlib import resources
from pathlib import Path
from typing import Iterator

from .model import _close


def _read_lines(path: str | Path) -> Iterator[str]:
    """Each line of a UTF-8 file without its "\\n", which text mode makes of "\\r\\n" and "\\r" too.

    A leading byte order mark is not data. Not ``str.splitlines``: it also
    splits at U+2028, U+0085 and the other Unicode line breaks, which a JSON
    string or a TSV field may hold.
    """
    with open(path, encoding="utf-8-sig") as lines:
        for line in lines:
            yield line.removesuffix("\n")


with resources.as_file(resources.files("bibkit.data").joinpath("stopwords.txt")) as _path:
    STOPWORDS = frozenset(w.strip() for w in _read_lines(_path) if w.strip())

_TOKEN_RE = re.compile(r"[a-z0-9]+")
#: What ``tokenize_filtered`` drops: the stopwords and every 1-char token ``_TOKEN_RE`` yields.
_DROPPED_TOKENS = STOPWORDS | frozenset("abcdefghijklmnopqrstuvwxyz0123456789")

#: The two arXiv id shapes, without a ``vN`` version suffix: new style
#: (2101.00123) and old style (hep-th/9901001, math.GT/0309136).
ARXIV_NEW_ID = r"\d{4}\.\d{4,5}"
ARXIV_OLD_ID = r"[a-z-]+(?:\.[A-Za-z]{2})?/\d{7}"


def tokenize_filtered(text: str) -> frozenset[str]:
    """Lowercase alphanumeric tokens minus stopwords and 1-char tokens."""
    return frozenset(_TOKEN_RE.findall(text.lower())) - _DROPPED_TOKENS


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """|a ∩ b| / |a ∪ b|; two empty sets are treated as identical (1.0)."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def fold_diacritics(value: str) -> str:
    """Decompose unicode and keep the ASCII characters: combining marks and unmappable chars are dropped."""
    return unicodedata.normalize("NFKD", value).encode("ascii", "ignore").decode("ascii")


_ET_AL_RE = re.compile(r"\bet\.?\s+al\.?\s*$", re.IGNORECASE)
_AUTHOR_DELIMITER_RE = re.compile(r"[{}]| and ", re.IGNORECASE)
_NOT_ALNUM_RE = re.compile(r"[^a-z0-9]")


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
        return []
    parts = _split_and(value)
    if len(parts) > 1:
        return parts
    segments = [s.strip() for s in value.split(",") if s.strip()]
    if len(segments) > 1 and all("{" not in s and len(s.split()) > 1 for s in segments):
        return segments
    return [value]


def _split_and(value: str) -> list[str]:
    """The non-blank pieces of ``value`` between the " and "s at brace depth 0."""
    parts, start, pos = [], 0, 0
    while sep := _AUTHOR_DELIMITER_RE.search(value, pos):
        if sep.group() in "{}":  # jump to depth 0 again; a '}' below 0 waits for a '{'
            pos = _close(value, sep.start()) + 1
            if not pos:
                break  # the rest never comes back to depth 0
        else:
            parts.append(value[start : sep.start()])
            start = pos = sep.end()
    return [p.strip() for p in [*parts, value[start:]] if p.strip()]


def _last_name(name: str) -> str:
    """Lowercased, diacritic-folded surname of one author name."""
    name = name.strip()
    if "," in name and not name.startswith("{"):
        surname = name.split(",", 1)[0]
    elif name.startswith("{"):
        end = _close(name, 0)
        surname = name[1:end] if end > 0 else name.strip("{}")
    else:
        words = name.split()
        surname = words[-1] if words else ""
        # unbraced "van der Berg" style: keep trailing lowercase particles
        # attached only when the name ends with them; last word is enough
        # for the conventions this toolkit evaluates
    folded = fold_diacritics(surname).lower()
    return _NOT_ALNUM_RE.sub("", folded)


def normalize_author(value: str) -> str | None:
    """First-author last name, lowercase, diacritics stripped; None without one."""
    names = _split_authors(value)
    return (_last_name(names[0]) or None) if names else None


def author_lastname_list(value: str) -> list[str]:
    """Ordered lowercase last names of the authors that have one."""
    return [ln for ln in (_last_name(n) for n in _split_authors(value)) if ln]


_LATEX_CMD_RE = re.compile(r"\\[a-zA-Z]+\*?")
_SPACES_RE = re.compile(r"\s+")


def normalize_title(value: str) -> str:
    """Lowercase, LaTeX commands and braces removed, whitespace collapsed."""
    s = _LATEX_CMD_RE.sub(" ", value)
    s = s.replace("{", "").replace("}", "").replace("\\", " ")
    s = _SPACES_RE.sub(" ", s).strip()
    return s.lower()


class VenueSynonymTable:
    """Canonical venue name -> known variants; lookup is case-insensitive.

    File format: one record per line, canonical name, tab, pipe-separated
    variants (UTF-8). Every canonical name is implicitly its own variant.
    A table is fixed once built, so memos may key on it by identity.
    """

    def __init__(self, mapping: dict[str, set[str]] | None = None):
        self._canonical_of: dict[str, str] = {}
        for canonical, variants in (mapping or {}).items():
            self._add(canonical, variants)

    @staticmethod
    def _fold(value: str) -> str:
        return _SPACES_RE.sub(" ", value).strip().lower()

    def _add(self, canonical: str, variants: set[str] | list[str]) -> None:
        """Map every variant to ``canonical``; a conflict raises, and the table being built is dropped."""
        canon_form = self._fold(canonical)
        for variant in {canonical, *variants}:
            existing = self._canonical_of.setdefault(self._fold(variant), canon_form)
            if existing != canon_form:
                raise ValueError(f"variant {variant!r} already maps to {existing!r}")

    def canonical(self, folded: str) -> str:
        """The canonical name of an already folded venue, or ``folded`` when no variant matches."""
        return self._canonical_of.get(folded, folded)

    @classmethod
    def from_file(cls, path: str | Path) -> "VenueSynonymTable":
        table = cls()
        with contextlib.closing(_read_lines(path)) as lines:  # a conflict raises mid-file
            for line in lines:
                if not line.strip() or line.startswith("#"):
                    continue
                canonical, _, variants = line.partition("\t")
                table._add(canonical, [v for v in variants.split("|") if v.strip()])
        return table

    @classmethod
    def default(cls) -> "VenueSynonymTable":
        with resources.as_file(resources.files("bibkit.data").joinpath("venues.tsv")) as p:
            return cls.from_file(p)


def normalize_venue(value: str) -> str:
    """The folded venue; ``VenueSynonymTable.canonical`` maps it to its canonical name."""
    return VenueSynonymTable._fold(value)


_DOI_PREFIX_RE = re.compile(r"^(?:https?://(?:dx\.)?doi\.org/|doi:\s*)+", re.IGNORECASE)


def normalize_doi(value: str) -> str:
    """Bare lowercase DOI with URL and "doi:" prefixes stripped, stacked ones too."""
    return _DOI_PREFIX_RE.sub("", value.strip()).lower()


_PAGE_SEP_RE = re.compile(r"\s*(?:-{1,3}|\u2013|\u2014)\s*")
_PAGE_PART_RE = re.compile(r"^[A-Za-z0-9_.:]+$")


def normalize_pages(value: str) -> str | None:
    """Canonical "start--end" (or a single page), any dash style accepted; None if unparseable."""
    s = value.strip()
    if not s:
        return None
    parts = _PAGE_SEP_RE.split(s)
    if len(parts) == 1:
        return parts[0] if _PAGE_PART_RE.match(parts[0]) else None
    if len(parts) != 2 or not all(parts):
        return None
    if not any(_PAGE_PART_RE.match(p) for p in parts):
        return None
    if parts[0] == parts[1]:
        # degenerate ranges ("426--426") are the same citation as the bare page
        return parts[0]
    return f"{parts[0]}--{parts[1]}"


_YEAR_RE = re.compile(r"^\d{4}$")


def normalize_year(value: str) -> str | None:
    """The 4-digit year, or None."""
    s = value.strip()
    return s if _YEAR_RE.match(s) else None
