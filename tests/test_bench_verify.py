"""The summary ``scripts/bench_verify.py`` writes, on synthetic pairs of runs."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_verify.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_verify", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_verify = _load()


def pairs_of(parent: dict[str, list[float]], change: dict[str, list[float]]) -> list[dict]:
    n = len(next(iter(parent.values())))
    return [
        {
            "seed": i + 1,
            "parent": {name: values[i] for name, values in parent.items()},
            "change": {name: values[i] for name, values in change.items()},
        }
        for i in range(n)
    ]


def test_summary_reads_each_metric_in_its_better_direction():
    pairs = pairs_of(
        # parent quartiles (inclusive): entries_per_s 100/102/104, sim_wall_s 1.0/1.1/1.2
        {"entries_per_s": [100, 102, 104, 98, 106], "sim_wall_s": [1.0, 1.1, 1.2, 0.9, 1.3]},
        # the change is better in pairs 1, 2, 4 and 5 on each metric, worse in pair 3
        {"entries_per_s": [110, 112, 103, 108, 116], "sim_wall_s": [0.8, 0.9, 1.3, 0.7, 1.1]},
    )
    summary = bench_verify.summarize(pairs, {"entries_per_s": "higher", "sim_wall_s": "lower"})

    assert summary["parent"]["entries_per_s"] == {"median": 102, "q1": 100, "q3": 104}
    assert summary["change"]["entries_per_s"] == {"median": 110, "q1": 108, "q3": 112}

    eps = summary["entries_per_s"]
    assert eps["better"] == "higher"
    assert eps["pairs_change_better"] == 4
    assert eps["per_pair_gain"] == pytest.approx([0.1, 10 / 102, -1 / 104, 10 / 98, 10 / 106])
    assert eps["median_gain"] == pytest.approx(110 / 102 - 1)
    assert eps["median_gain_minus_parent_iqr"] == pytest.approx((110 - 102) - (104 - 100))

    wall = summary["sim_wall_s"]
    assert wall["better"] == "lower"
    assert wall["pairs_change_better"] == 4
    assert wall["per_pair_gain"] == pytest.approx([0.2, 0.2 / 1.1, -0.1 / 1.2, 0.2 / 0.9, 0.2 / 1.3])
    assert wall["median_gain"] == pytest.approx(1 - 0.9 / 1.1)  # parent median 1.1, change 0.9
    assert wall["median_gain_minus_parent_iqr"] == pytest.approx((1.1 - 0.9) - (1.2 - 1.0))


def test_summary_counts_an_equal_pair_as_not_better():
    pairs = pairs_of({"peak_rss_mb": [50.0, 50.0, 52.0]}, {"peak_rss_mb": [50.0, 49.0, 53.0]})
    summary = bench_verify.summarize(pairs, {"peak_rss_mb": "lower"})
    assert summary["peak_rss_mb"]["pairs_change_better"] == 1
    assert summary["peak_rss_mb"]["median_gain"] == pytest.approx(0.0)
    # a margin below the parent's spread is negative
    assert summary["peak_rss_mb"]["median_gain_minus_parent_iqr"] == pytest.approx(-1.0)


def test_output_file_is_named_after_the_workload():
    assert bench_verify.out_path("verify_corpus").name == "BENCH_verify.json"
    assert bench_verify.out_path("reconcile_bib").name == "BENCH_reconcile_bib.json"


def assert_uncached(env: dict, checkout: Path) -> None:
    """A run in ``checkout`` with ``env`` reads no bibkit bytecode cache and writes none."""
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in env  # the standard library reads its installed caches
    assert not (checkout / "src" / "bibkit" / "__pycache__").exists()


def test_count_ops_runs_the_checkouts_own_script_and_keeps_the_counted_keys(monkeypatch, tmp_path):
    calls = []
    report = {"bibkit_opcodes_per_entry": 4000.5, "c_calls_per_entry": 900.1, "requests": {"search": 0}, "entries": 400}

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv[1:], cwd))
        assert_uncached(kwargs["env"], cwd)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(report), stderr="")

    monkeypatch.setattr(bench_verify.subprocess, "run", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    counted = [bench_verify.count_ops(checkout, "verify_corpus") for checkout in (parent, change)]
    assert calls == [(["scripts/count_ops.py", "--workload", "verify_corpus"], c) for c in (parent, change)]
    assert counted == 2 * [{"bibkit_opcodes_per_entry": 4000.5, "c_calls_per_entry": 900.1, "requests": {"search": 0}}]


def test_count_ops_keeps_repeated_requests_where_the_checkouts_script_counts_them(monkeypatch, tmp_path):
    older = {"bibkit_opcodes_per_entry": 1.0, "c_calls_per_entry": 2.0, "requests": {"export": 3}}
    reports = {tmp_path / "parent": older, tmp_path / "change": dict(older, repeated_requests={"export": 0})}

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(reports[cwd]), stderr="")

    monkeypatch.setattr(bench_verify.subprocess, "run", fake_run)
    assert {c: bench_verify.count_ops(c, "reconcile_bib") for c in reports} == reports


def test_perfbench_runs_read_no_bytecode_cache_on_either_side(monkeypatch, tmp_path):
    # a checkout whose __pycache__ matches its sources would skip their compile and read a faster set-up
    calls = []
    result = {"correct": True, "failed": 0, "metrics": {"entries_per_s": {"value": 100.0}}}

    def fake_run(argv, cwd, **kwargs):
        calls.append(cwd)
        assert_uncached(kwargs["env"], cwd)
        stdout = "uncalibrated: entries_per_s 90.5 1/s\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_verify.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "caches"))  # not passed on
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "bibkit").mkdir(parents=True)
    runs = [bench_verify.run(checkout, "reconcile_bib", 1, trace) for trace in (0, 1) for checkout in (parent, change)]
    assert calls == [parent, change, parent, change]
    assert runs == 4 * [{"entries_per_s": 100.0, "uncalibrated_entries_per_s": 90.5}]


def test_a_checkout_holding_a_bibkit_cache_is_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_verify.subprocess, "run", lambda *a, **k: pytest.fail("a subprocess started"))
    cache = tmp_path / "src" / "bibkit" / "__pycache__"
    cache.mkdir(parents=True)
    with pytest.raises(SystemExit, match=re.escape(f"{cache}: a bytecode cache skips bibkit's compile")):
        bench_verify.run(tmp_path, "reconcile_bib", 1, 0)


def test_count_ops_that_fails_stops_the_run(monkeypatch, tmp_path):
    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout="", stderr="no such workload")

    monkeypatch.setattr(bench_verify.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match="count_ops.py exited 1: no such workload"):
        bench_verify.count_ops(tmp_path, "verify_corpus")


# -- set-up under python3 -S -------------------------------------------------


def test_setup_probe_is_read_from_the_checkouts_source_without_importing_it(tmp_path):
    (tmp_path / "perfbench").mkdir()
    probe = "\nimport time\nt0 = time.perf_counter()\n"
    source = f'raise SystemExit("imported")\n\nSETUP_PROBE = {probe!r}\n'
    (tmp_path / "perfbench" / "run.py").write_text(source, "utf-8")
    assert bench_verify.setup_probe(tmp_path) == probe
    (tmp_path / "perfbench" / "run.py").write_text("PROBE = 'x'\n", "utf-8")
    with pytest.raises(SystemExit, match="assigns no SETUP_PROBE"):
        bench_verify.setup_probe(tmp_path)


def test_setup_no_site_is_the_median_of_nine_probes_under_S_after_one_not_recorded(monkeypatch, tmp_path):
    checkout = tmp_path / "change"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("SETUP_PROBE = 'print(0.01, 0.05)'\n", "utf-8")
    setups = iter([9.0, 0.5, 0.1, 0.9, 0.3, 0.2, 0.8, 0.4, 0.7, 0.6])  # the first, a cold start, is not recorded
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append(argv)
        assert cwd == checkout
        assert_uncached(kwargs["env"], checkout)
        assert kwargs["env"]["PYTHONPATH"] == f"{checkout / 'src'}{os.pathsep}{checkout / 'perfbench'}"
        return subprocess.CompletedProcess(argv, 0, stdout=f"{next(setups)} 0.05\n", stderr="")

    monkeypatch.setattr(bench_verify.subprocess, "run", fake_run)
    assert bench_verify.setup_no_site(checkout) == 0.5
    assert calls == 10 * [[sys.executable, "-S", "-c", "print(0.01, 0.05)"]]


def test_setup_no_site_runs_the_checkouts_probe_without_site_packages(tmp_path):
    # a fresh copy of this checkout's sources: no bibkit bytecode cache
    root = SCRIPT.parent.parent
    for part in ("src", "perfbench"):
        shutil.copytree(root / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    assert 0 < bench_verify.setup_no_site(tmp_path) < 10
    assert not (tmp_path / "src" / "bibkit" / "__pycache__").exists()


def test_a_probe_that_fails_under_S_stops_the_run(monkeypatch, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("SETUP_PROBE = 'import requests'\n", "utf-8")

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout="", stderr="ModuleNotFoundError: No module named 'requests'")

    monkeypatch.setattr(bench_verify.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match="the set-up probe under -S exited 1: ModuleNotFoundError"):
        bench_verify.setup_no_site(tmp_path)
