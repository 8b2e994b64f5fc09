"""Reference workload that calibrates timings against the machine's speed.

On a shared machine the same pass can take 1.3 s or 2.1 s depending on what
the neighbours do, for minutes at a time. The benchmark therefore times this
fixed, bibkit-independent Python workload (tokenising, regex, sets, dicts,
string building: the same kinds of work as bibkit's) right before and after
every timed region, and scales the region's real time by
``NOMINAL_S / reference time``. A calibrated second is a second on a machine
that runs the reference in ``NOMINAL_S``; on a quiet machine it is close to a
real second.
"""

from __future__ import annotations

import gc
import re
import time

#: Reference time on a quiet machine (2-core VM, CPython 3.11.7).
NOMINAL_S = 0.05

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_FIELD_RE = re.compile(r"^  ([a-z]+) = \{(.*)\},$")
_WORDS = [
    "spectral", "graph", "learning", "networks", "adversarial", "bounds", "of", "the",
    "lattice", "phases", "relapse", "cohort", "design", "transformers", "in", "a",
]
_TITLES = [
    " ".join(_WORDS[(i * 7 + k * 3) % len(_WORDS)].capitalize() for k in range(3 + i % 6))
    for i in range(400)
]
_STOP = frozenset({"of", "the", "in", "a"})


def _reference_once() -> int:
    checksum = 0
    seen: dict[frozenset, int] = {}
    for i, title in enumerate(_TITLES):
        tokens = frozenset(t for t in _TOKEN_RE.findall(title.lower()) if t not in _STOP)
        other = frozenset(t for t in _TOKEN_RE.findall(_TITLES[i - 1].lower()) if t not in _STOP)
        union = tokens | other
        checksum += len(tokens & other) * 1000 // (len(union) or 1)
        seen[tokens] = seen.get(tokens, 0) + 1
        text = f"@article{{k{i},\n  title = {{{title}}},\n  pages = {{{i}--{i + 9}}},\n}}"
        for line in text.split("\n"):
            m = _FIELD_RE.match(line)
            if m:
                checksum += len(m.group(2))
    return checksum + len(seen)


def reference_seconds(rounds: int = 20) -> float:
    """Real time of one fixed reference run (about ``NOMINAL_S`` when quiet).

    The run follows a full collection and keeps the collector off (the
    reference makes no cycles), so the size of the heap the program under
    test leaves behind cannot change the reference's time through garbage
    collection.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(rounds):
            _reference_once()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
