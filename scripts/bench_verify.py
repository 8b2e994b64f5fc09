#!/usr/bin/env python3
"""Write BENCH_verify.json: perfbench's verify_corpus workload on two checkouts.

    python3 scripts/bench_verify.py --parent ../bibkit-parent --parent-label 63f8697

Runs each checkout's own ``perfbench/run.py --trace 0`` in alternating pairs
(both runs of a pair use the same seed; the order flips every pair), then one
``--trace 1`` run on each at the trace seed. The change is the checkout this
script is in. The file records every run, the medians and quartiles of the
end-to-end metrics, the uncalibrated entries/s, the per-layer metrics, the
machine and the Python version.
"""

from __future__ import annotations

import argparse
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
OUT = ROOT / "BENCH_verify.json"
UNCALIBRATED_RE = re.compile(r"^uncalibrated: entries_per_s ([0-9.]+) 1/s")


def run(checkout: Path, seed: int, trace: int) -> dict:
    """One perfbench run: its metric values, plus the uncalibrated entries/s."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=SECONDS * 3 + 120
    )
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


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--parent-label", default="parent", help="name of the parent in the file")
    args = ap.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}

    pairs = []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run(checkouts[side], seed, 0)
        pairs.append(pair)
        print(f"pair {i + 1}/{PAIRS} seed {seed}: entries_per_s "
              f"{pair['parent']['entries_per_s']:.1f} -> {pair['change']['entries_per_s']:.1f}",
              file=sys.stderr)

    summary = {}
    for side in checkouts:
        summary[side] = {
            name: spread([p[side][name] for p in pairs]) for name in pairs[0][side]
        }
    gains = [p["change"]["entries_per_s"] / p["parent"]["entries_per_s"] - 1 for p in pairs]
    parent_eps, change_eps = summary["parent"]["entries_per_s"], summary["change"]["entries_per_s"]
    summary["entries_per_s"] = {
        "median_gain": change_eps["median"] / parent_eps["median"] - 1,
        "pairs_change_faster": sum(g > 0 for g in gains),
        "per_pair_gain": gains,
        "median_gain_minus_parent_iqr": (change_eps["median"] - parent_eps["median"])
        - (parent_eps["q3"] - parent_eps["q1"]),
        "uncalibrated_median_gain": summary["change"]["uncalibrated_entries_per_s"]["median"]
        / summary["parent"]["uncalibrated_entries_per_s"]["median"] - 1,
    }

    traced = {side: run(checkouts[side], TRACE_SEED, 1) for side in checkouts}

    report = {
        "format_version": 1,
        "workload": WORKLOAD,
        "checkouts": {"parent": args.parent_label, "change": "change"},
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "trace_0": {
            "command": f"python3 perfbench/run.py --workload {WORKLOAD} --seed SEED "
            f"--seconds {SECONDS} --trace 0",
            "pairs": pairs,
            "summary": summary,
        },
        "trace_1": {
            "command": f"python3 perfbench/run.py --workload {WORKLOAD} --seed {TRACE_SEED} "
            f"--seconds {SECONDS} --trace 1",
            **traced,
        },
    }
    OUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
