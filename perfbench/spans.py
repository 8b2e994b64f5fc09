"""Span tracing around the public functions of each bibkit layer.

Wrappers are installed from outside the program: every public function a
layer module defines is replaced, in every bibkit module that imported it,
by a wrapper that records a span (name, start, end, parent, entry id). The
entry id is shared by all spans under one candidate or ``.bib`` entry.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "harness", "model", "normalize", "verify", "resolve", "reconcile")

#: Methods traced on classes; module-level functions are found automatically.
METHODS = {"resolve": {"Resolver": ("resolve", "resolve_query", "crossref_fallback")}}

#: Span name of the fake upstream, subtracted from the resolver's CPU time.
TRANSPORT = "upstream.request"


def _entry_id(name: str, args: tuple) -> str | None:
    if name == "verify.verify_entry" and len(args) >= 2:
        return f"{args[1].paper_id}/{args[0].citation_key}"
    if name == "reconcile.reconcile" and len(args) >= 2:
        return f"{args[0].paper_id}/{args[1].citation_key}"
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.entries: list[str] = [""]
        self._entry_ids: dict[str, int] = {"": 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.entry = array("i")
        self._stack: list[int] = []
        self.normalize_inputs: set = set()
        self._undo: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent, self.entry):
            del arr[:]
        self.entries, self._entry_ids = [""], {"": 0}
        self.normalize_inputs = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        track_inputs = name.startswith("normalize.")
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.name)
            parent = stack[-1] if stack else -1
            key = _entry_id(name, args)
            if key is None:
                eid = tracer.entry[parent] if parent >= 0 else 0
            else:
                eid = tracer._entry_ids.get(key)
                if eid is None:
                    eid = tracer._entry_ids[key] = len(tracer.entries)
                    tracer.entries.append(key)
            if track_inputs:
                tracer.normalize_inputs.add((name_id, args, tuple(sorted(kwargs.items()))))
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.entry.append(eid)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, fake_transport_cls) -> None:
        modules = {layer: sys.modules[f"bibkit.{layer}"] for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    if vars(other).get(attr) is fn:
                        self._set(other, attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    self._set(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        self._set(
            fake_transport_cls, "request", self._wrap(TRANSPORT, vars(fake_transport_cls)["request"])
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds, layer totals."""
        n = len(self.name)
        names = self.names
        layer_of = [nm.split(".", 1)[0] for nm in names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(names)
        incl = [0.0] * len(names)
        self_s = [0.0] * len(names)
        layer_incl: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            incl[k] += dur[i]
            own = dur[i] - child[i]
            self_s[k] += own
            layer = layer_of[k]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            p = self.parent[i]
            if p < 0 or layer_of[self.name[p]] != layer:
                layer_incl[layer] = layer_incl.get(layer, 0.0) + dur[i]
        # real time inside Resolver.resolve not spent in the fake upstream
        resolve_id = self._name_ids.get("resolve.Resolver.resolve")
        transport_id = self._name_ids.get(TRANSPORT)
        transport_in_resolve = 0.0
        for i in range(n):
            if self.name[i] != transport_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != resolve_id:
                p = self.parent[p]
            if p >= 0:
                transport_in_resolve += dur[i]
        by_name = {
            nm: {"calls": calls[k], "s": incl[k], "self_s": self_s[k]} for k, nm in enumerate(names)
        }
        resolve_s = by_name.get("resolve.Resolver.resolve", {}).get("s", 0.0)
        return {
            "spans": n,
            "by_name": by_name,
            "layer_s": layer_incl,
            "layer_self_s": layer_self,
            "resolve_cpu_s": resolve_s - transport_in_resolve,
            "normalize_distinct_inputs": len(self.normalize_inputs),
        }

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, name, start, end, parent, entry id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tentry\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.entries[self.entry[i]]}\n"
                )
