#!/usr/bin/env python3
"""Write BENCH_<workload>.json: one perfbench workload on two checkouts.

    python3 change/scripts/bench_verify.py --parent parent --parent-label 63f8697
    python3 change/scripts/bench_verify.py --parent parent --workload reconcile_bib

Runs each checkout's own ``perfbench/run.py --trace 0`` in alternating pairs
(both runs of a pair use the same seed; the order flips every pair), then one
``--trace 1`` run on each at the trace seed, then each checkout's own
``scripts/count_ops.py --workload W`` once. Beside each run of a pair it
times the checkout's own set-up probe (``SETUP_PROBE``, read from the source
of its ``perfbench/run.py``) under ``python3 -S``, which loads no
site-packages and no ``site`` imports: ``setup_s_no_site``, the median real
seconds of 9 probes after one that is not recorded. It is how a user's plain
interpreter sees start-up, an extra figure beside ``setup_s`` and not a gate.
The change is the checkout this script is in. The file records every run, the
medians and quartiles of the end-to-end metrics, the uncalibrated entries/s,
the per-layer metrics, each side's ``bibkit_opcodes_per_entry``,
``c_calls_per_entry``, upstream ``requests`` and ``repeated_requests`` under
``count_ops`` (a checkout whose script predates a key records none), the
machine and the Python version. For each end-to-end metric of BENCHMARK.json
it summarizes, in the metric's ``better`` direction, the pairs where the
change is better, the median gain, and that gain minus the parent's
interquartile range. ``verify_corpus`` (the default) writes
BENCH_verify.json.

Run both checkouts from fresh copies side by side, such as ``git archive``
of each commit into sibling directories ``parent`` and ``change``, as in the
commands above. Every run, probe and ``count_ops`` subprocess gets
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, as in the
benchmark's own runs: the standard library reads its installed bytecode
caches, and bibkit, which has none in a fresh copy, compiles from source
in every interpreter. A checkout that holds ``src/bibkit/__pycache__`` is
refused before each subprocess starts. Such a cache skips the compile of
every source it still matches (in a working repository nothing refreshes
it while bytecode writing is off): on ``reconcile_bib`` the set-up probe
read a calibrated ``setup_s`` of 0.021 s with every bibkit cache matching
and 0.038 s with none, the same code.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "verify_corpus"
PAIRS = 10
FIRST_SEED = 1
SECONDS = 10
TRACE_SEED = 301
#: Probes of ``setup_s_no_site`` per run, after one that is not recorded.
NO_SITE_SAMPLES = 9
UNCALIBRATED_RE = re.compile(r"^uncalibrated: entries_per_s ([0-9.]+) 1/s")
#: The keys of ``scripts/count_ops.py``'s report that the file records.
COUNTED = ("bibkit_opcodes_per_entry", "c_calls_per_entry", "requests", "repeated_requests")


def out_path(workload: str) -> Path:
    """BENCH_verify.json for verify_corpus, BENCH_<workload>.json for the others."""
    return ROOT / ("BENCH_verify.json" if workload == WORKLOAD else f"BENCH_{workload}.json")


def run_uncached(argv: list[str], checkout: Path, timeout: float, **env: str) -> subprocess.CompletedProcess:
    """``argv`` in ``checkout``, which holds no bibkit bytecode cache, writing none: bibkit compiles from source.

    ``env`` adds to the environment.
    """
    cache = checkout / "src" / "bibkit" / "__pycache__"
    if cache.exists():
        raise SystemExit(f"{cache}: a bytecode cache skips bibkit's compile; run from a fresh copy such as git archive")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **env)
    env.pop("PYTHONPYCACHEPREFIX", None)  # caches read from elsewhere would pass the check above
    return subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=timeout)


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its metric values, plus the uncalibrated entries/s."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = run_uncached(argv, checkout, timeout=SECONDS * 3 + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed}: {result['failed']} failed checks")
    out = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        m = UNCALIBRATED_RE.match(line)
        if m:
            out["uncalibrated_entries_per_s"] = float(m.group(1))
    return out


def setup_probe(checkout: Path) -> str:
    """The text of ``SETUP_PROBE`` in the checkout's ``perfbench/run.py``, read from its source, not imported."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_PROBE"]:
            return ast.literal_eval(node.value)
    raise SystemExit(f"{checkout}: perfbench/run.py assigns no SETUP_PROBE")


def setup_no_site(checkout: Path) -> float:
    """Median real seconds the checkout's set-up probe measures under ``python3 -S``.

    The probe is the interpreter's whole program, so no module loads before
    its ``t0``. Its first run is not recorded.
    """
    argv = [sys.executable, "-S", "-c", setup_probe(checkout)]
    pythonpath = os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))
    samples = []
    for i in range(NO_SITE_SAMPLES + 1):
        proc = run_uncached(argv, checkout, timeout=60, PYTHONPATH=pythonpath)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: the set-up probe under -S exited {proc.returncode}: {proc.stderr.strip()}")
        if i:
            samples.append(float(proc.stdout.split()[0]))  # the probe prints its set-up, then a reference time
    return statistics.median(samples)


def count_ops(checkout: Path, workload: str) -> dict:
    """The checkout's own ``scripts/count_ops.py`` report on ``workload``, cut to the ``COUNTED`` keys it has."""
    argv = [sys.executable, "scripts/count_ops.py", "--workload", workload]
    proc = run_uncached(argv, checkout, timeout=SECONDS * 30 + 120)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: count_ops.py exited {proc.returncode}: {proc.stderr.strip()}")
    counted = json.loads(proc.stdout)
    return {key: counted[key] for key in COUNTED if key in counted}  # an older script counts no repeats


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Each side's spreads, and how the change compares on each metric ``better`` names.

    ``better`` maps a metric to "higher" or "lower". A gain is signed so that
    a positive one is better: the relative change for a pair and for the
    medians, and the medians' difference less the parent's interquartile
    range in the metric's own unit.
    """
    summary = {
        side: {name: spread([p[side][name] for p in pairs]) for name in pairs[0][side]}
        for side in ("parent", "change")
    }
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent, change = summary["parent"][name], summary["change"][name]
        gains = [sign * (p["change"][name] / p["parent"][name] - 1) for p in pairs]
        summary[name] = {
            "better": direction,
            "pairs_change_better": sum(g > 0 for g in gains),
            "per_pair_gain": gains,
            "median_gain": sign * (change["median"] / parent["median"] - 1),
            "median_gain_minus_parent_iqr": sign * (change["median"] - parent["median"])
            - (parent["q3"] - parent["q1"]),
        }
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--parent-label", default="parent", help="name of the parent in the file")
    ap.add_argument("--workload", default=WORKLOAD, help="perfbench workload (default %(default)s)")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    workload = args.workload
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    better["uncalibrated_entries_per_s"] = "higher"
    better["setup_s_no_site"] = "lower"

    pairs = []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run(checkouts[side], workload, seed, 0)
            pair[side]["setup_s_no_site"] = setup_no_site(checkouts[side])
        pairs.append(pair)
        print(f"pair {i + 1}/{PAIRS} seed {seed}: " + ", ".join(
            f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in better
        ), file=sys.stderr)

    summary = summarize(pairs, better)

    traced = {side: run(checkouts[side], workload, TRACE_SEED, 1) for side in checkouts}
    counted = {side: count_ops(checkouts[side], workload) for side in checkouts}

    report = {
        "format_version": 1,
        "workload": workload,
        "checkouts": {"parent": args.parent_label, "change": "change"},
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "trace_0": {
            "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
            f"--seconds {SECONDS} --trace 0",
            "setup_s_no_site_command": "PYTHONPATH=src:perfbench python3 -S -c SETUP_PROBE",
            "pairs": pairs,
            "summary": summary,
        },
        "trace_1": {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {TRACE_SEED} "
            f"--seconds {SECONDS} --trace 1",
            **traced,
        },
        "count_ops": {"command": f"python3 scripts/count_ops.py --workload {workload}", **counted},
    }
    out = out_path(workload)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
