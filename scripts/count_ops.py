#!/usr/bin/env python3
"""Count the Python opcodes and C calls one pass of a perfbench workload makes, per entry.

    python3 scripts/count_ops.py --workload reconcile_then_verify
    python3 scripts/count_ops.py --workload verify_corpus --copies 40 > ops.json

The inputs come from perfbench's own generator at seed 3, scaled down to
``--copies`` copies of the golden corpus (a multiple of 20 for
``reconcile_then_verify``, of 25 for ``reconcile_bib``). Each pass is
perfbench's own (``workload.Runner.run_pass``: fake upstream, outputs
checked), run in this process. One untraced pass warms the interpreter
first (imports, compiled patterns, the venue table). The next runs under
``sys.settrace``, with opcode events on inside ``bibkit.cli.main`` only, so
perfbench's timing and checks are not counted; the one after runs under
``sys.setprofile`` and counts the ``c_call`` events inside
``bibkit.cli.main``: each call of a C function or method, by callee
(``str.find``, ``re.Pattern.match``, ``len``). The JSON printed holds
``sys.version``, the total opcodes, those in bibkit's own functions, each
function's opcodes per entry, the C calls per entry, in total and by
callee, and the untraced pass's upstream requests per endpoint, repeated
requests per endpoint and retries (all 0 on ``verify_corpus``, which asks
no upstream). A repeated request is one whose ``(method, url, params,
body)`` (``resolve._exchange_key``) equals a request sent earlier in the
pass; a retry is one, and so is a second export of one item. The fake
upstream answers at once, so request counts, not time, show the resolve
path's work beside the opcodes.

Bytecode differs between Python versions: compare counts of one version
only. An opcode count says exactly how much Python work a change adds or
removes; the C-call count says how often it hands work to C, but not how
much work each call does (a ``str.find`` over 10 or 10,000 characters is
one call). A C type called directly, such as ``json``'s scanner, raises no
``c_call`` event: ``json.loads`` shows by the opcodes of its Python frames.
So counts explain a timed result and never replace one. The standard
library's path handling runs more opcodes for a longer path, so across two
checkouts compare ``bibkit_opcodes_per_entry``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bibkit  # noqa: E402
import bibkit.cli as cli  # noqa: E402
from bibkit.resolve import _exchange_key  # noqa: E402
import gen  # noqa: E402  (perfbench's generator)
import upstream  # noqa: E402  (perfbench's fake upstream)
from workload import Runner  # noqa: E402

COPIES = {"verify_corpus": 20, "reconcile_then_verify": 20, "reconcile_bib": 25}
SEED = 3
BIBKIT = Path(bibkit.__file__).resolve().parent


def count_opcodes(call: Callable[[], object], within=None) -> Counter:
    """The opcodes ``call()`` executes, per code object, in every function it calls too.

    Given the code object ``within``, only the opcodes run inside a call of it count.
    """
    counts: Counter = Counter()
    inside = within is None

    def trace(frame, event, arg):
        nonlocal inside
        if event == "opcode":
            counts[frame.f_code] += 1
        elif event == "return" and frame.f_code is within:
            inside = False
        return trace

    def on_call(frame, event, arg):
        nonlocal inside
        inside = inside or frame.f_code is within
        if not inside:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return trace

    _run_hooked(call, sys.settrace, on_call)
    return counts


def count_c_calls(call: Callable[[], object], within) -> Counter:
    """The C functions and methods called inside a call of the code object ``within``, by callee name."""
    counts: Counter = Counter()
    inside = False

    def profile(frame, event, arg):
        nonlocal inside
        if event == "c_call":
            if inside:
                counts[callee_name(arg)] += 1
        elif event in ("call", "return") and frame.f_code is within:
            inside = event == "call"

    _run_hooked(call, sys.setprofile, profile)
    return counts


def _run_hooked(call: Callable[[], object], install: Callable, hook) -> None:
    """``call()`` with ``hook`` installed by ``sys.settrace`` or ``sys.setprofile``.

    The tracer and profiler installed before (a coverage tool's, a debugger's)
    are back in place afterwards.
    """
    # no collection while counting: it could run finalizers of garbage made before the call
    collecting = gc.isenabled()
    tracer, profiler = sys.gettrace(), sys.getprofile()
    gc.collect()
    gc.disable()
    install(hook)
    try:
        call()
    finally:
        sys.settrace(tracer)
        sys.setprofile(profiler)
        if collecting:
            gc.enable()


def count_repeats(call: Callable[[], object]) -> dict[str, int]:
    """Requests per endpoint that ``call()`` sends perfbench's fake upstream and that repeat one sent before in it."""
    repeats = {"search": 0, "web": 0, "export": 0, "crossref": 0}
    seen = set()
    send = upstream.FakeTransport.request

    def request(fake, method, url, *, params=None, body=None, headers=None):
        key = _exchange_key(method, url, params, body)
        if key in seen:
            endpoint = url.rsplit("/", 1)[-1]
            repeats["crossref" if endpoint == "works" else endpoint] += 1
        seen.add(key)
        return send(fake, method, url, params=params, body=body, headers=headers)

    upstream.FakeTransport.request = request
    try:
        call()
    finally:
        upstream.FakeTransport.request = send
    return repeats


def callee_name(function) -> str:
    """``str.find``, ``re.Pattern.match`` or ``len``: a C callable by its module and qualified name."""
    owner = getattr(function, "__self__", None)
    if owner is None or isinstance(owner, ModuleType):
        module = function.__module__ or ""
    else:
        module = type(owner).__module__
    return function.__qualname__ if module == "builtins" else f"{module}.{function.__qualname__}"


def function_name(code) -> str:
    """``bibkit/harness.py:run_benchmark`` for bibkit's code, ``json/decoder.py:...`` for the rest."""
    path = Path(code.co_filename)
    where = f"bibkit/{path.relative_to(BIBKIT)}" if path.is_relative_to(BIBKIT) else "/".join(path.parts[-2:])
    return f"{where}:{getattr(code, 'co_qualname', code.co_name)}"


def make_plan(workload: str, copies: int, out: Path) -> dict:
    """The workload's inputs under ``out``, as perfbench's ``generate`` writes them, at ``copies`` copies."""
    make, _ = gen.WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    return {**make(gen.Fixtures(ROOT), random.Random(SEED), out, copies), "workload": workload}


def count_pass(plan: dict) -> tuple[Counter, Counter, dict]:
    """Opcodes per function name, and C calls per callee, of ``bibkit.cli.main`` in one perfbench pass each.

    Both counted passes follow an untraced one. The dict is the untraced
    pass's ``counts`` (``Runner.run_pass``) and its ``repeated`` requests
    per endpoint (``count_repeats``). The limiter runs
    on virtual time only: on perfbench's clock, real time plus the virtual
    offset, whether a CrossRef start waits microseconds for its own slot
    varies from run to run, and with it the opcodes of the limiter.
    """
    resolver, now = cli.Resolver, upstream.VirtualClock.now
    upstream.VirtualClock.now = lambda clock: clock.offset
    passes = []
    try:
        runner = Runner(plan)  # points cli.Resolver at perfbench's fake upstream
        repeated = count_repeats(lambda: passes.append(runner.run_pass()))
        by_code = count_opcodes(runner.run_pass, within=cli.main.__code__)
        c_calls = count_c_calls(runner.run_pass, within=cli.main.__code__)
    finally:
        cli.Resolver, upstream.VirtualClock.now = resolver, now
    if runner.failures:
        raise SystemExit(f"perfbench pass failed: {runner.failures[0]}")
    counts: Counter = Counter()
    for code, n in by_code.items():
        counts[function_name(code)] += n
    return counts, c_calls, {**passes[0]["counts"], "repeated": repeated}


def report(counts: Counter, c_calls: Counter, pass_counts: dict, entries: int, **about) -> dict:
    total = sum(counts.values())
    own = sum(n for name, n in counts.items() if name.startswith("bibkit/"))
    return {
        "python": sys.version,
        **about,
        "entries": entries,
        "opcodes": total,
        "opcodes_per_entry": round(total / entries, 1),
        "bibkit_opcodes_per_entry": round(own / entries, 1),
        "by_function_per_entry": {name: round(n / entries, 2) for name, n in counts.most_common()},
        "c_calls_per_entry": round(sum(c_calls.values()) / entries, 1),
        "c_calls_by_callee_per_entry": {name: round(n / entries, 2) for name, n in c_calls.most_common()},
        "requests": pass_counts["requests"],
        "repeated_requests": pass_counts["repeated"],
        "retries": pass_counts["retries"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), default="verify_corpus")
    parser.add_argument("--copies", type=int, help="golden-corpus copies (default: 20, 25 for reconcile_bib)")
    parser.add_argument("--work", type=Path, default=ROOT / ".perfbench_work" / "count_ops")
    args = parser.parse_args(argv)
    copies = args.copies or COPIES[args.workload]
    plan = make_plan(args.workload, copies, args.work / args.workload)
    counts, c_calls, pass_counts = count_pass(plan)
    print(json.dumps(report(counts, c_calls, pass_counts, plan["entries"], workload=args.workload, seed=SEED, copies=copies), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
