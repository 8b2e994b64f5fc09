#!/usr/bin/env python3
"""bibkit's offline benchmark: the verify and resolve paths, layer by layer.

    python3 perfbench/run.py --workload verify_corpus --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, times ``setup_s`` in fresh
interpreters, then runs the workload in a fresh interpreter of its own
(``workload.py``) and checks every output. With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_S  # noqa: E402
from gen import WORKLOADS, generate  # noqa: E402

SETUP_SAMPLES = 9

#: Timed in a fresh interpreter: import the CLI, build the venue table and
#: construct the resolver the way the benchmark's command passes do.
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import bibkit.cli as cli
from bibkit.resolve import RateLimiter
cli.VenueSynonymTable.default()
config = cli.ResolverConfig.from_env()
cli.Resolver(config, transport=object(),
             rate_limiter=RateLimiter(config.rate_per_sec, sleep=lambda s: None),
             sleep=lambda s: None)
setup = time.perf_counter() - t0
from calibrate import reference_seconds
print(setup, reference_seconds())
"""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def measure_setup(env: dict) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: calibrated, and raw."""
    env = dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + str(HERE))
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first run only writes bytecode caches
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            setup, ref = (float(v) for v in out.stdout.split())
            scaled.append(setup * NOMINAL_S / ref)
            raw.append(setup)
    return statistics.median(scaled), statistics.median(raw)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (
        spec_path,
        ROOT / "src" / "bibkit" / "cli.py",
        ROOT / "tests" / "fixtures" / "golden_corpus.jsonl",
    ):
        if not needed.is_file():
            return _fail(f"{needed.relative_to(ROOT)} not found; run from a bibkit checkout")
    spec = json.loads(spec_path.read_text("utf-8"))
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    env = _child_env()
    try:
        plan = generate(ROOT, args.workload, args.seed, work)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), "utf-8")
        setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(env)
        spans = ROOT / ".perfbench_work" / "spans" / f"{args.workload}.tsv.gz"
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "workload.py"), "--plan", str(plan_path),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans),
            ],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=args.seconds * 2 + 60,
        )
    except subprocess.CalledProcessError as exc:
        return _fail(f"set-up probe failed: {exc.stderr.strip()}")
    except subprocess.SubprocessError as exc:
        return _fail(f"child process failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return _fail(f"workload process exited with {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = dict(child["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        return _fail(f"metrics {sorted(set(metrics) ^ set(names))} do not match BENCHMARK.json")

    for failure in child["failures"]:
        print(f"FAILED: {failure}")
    print(f"workload {args.workload} seed {args.seed}: {child['passes']} measured passes, "
          f"{plan['entries']} entries each")
    print(f"counts per pass: {json.dumps(child['counts'], sort_keys=True)}")
    if "repeated_queries" in plan:
        print(f"{plan['repeated_queries']} of {plan['entries']} entries repeat an earlier entry's query")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(f"uncalibrated: entries_per_s {child['raw_entries_per_s']:.3f} 1/s"
          + ("" if setup_raw_s is None else f", setup_s {setup_raw_s:.6f} s"))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
