"""The opcode and C-call counts ``scripts/count_ops.py`` writes are exact and repeatable."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from bibkit import harness
from bibkit.model import ALL_SLOTS
from bibkit.normalize import VenueSynonymTable

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_ops.py"


def _load():
    spec = importlib.util.spec_from_file_location("count_ops", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_ops = _load()
_real_verify_entry = harness.verify_entry


def _verify_entry_with_a_loop(entry, gt, table=VenueSynonymTable()):
    """``verify_entry`` plus a fixed amount of work of its own."""
    seen = 0
    for _ in ALL_SLOTS:
        seen += 1
    return _real_verify_entry(entry, gt, table)


def _count_twice(tmp_path, *args):
    argv = [sys.executable, str(SCRIPT), *args, "--work", str(tmp_path / "work")]
    return [json.loads(subprocess.run(argv, capture_output=True, check=True).stdout) for _ in range(2)]


def test_two_runs_give_equal_counts(tmp_path):
    first, second = _count_twice(tmp_path, "--copies", "2")
    assert first == second
    assert first["entries"] == 40 and first["python"] == sys.version
    assert first["bibkit_opcodes_per_entry"] < first["opcodes_per_entry"]
    by_callee = first["c_calls_by_callee_per_entry"]
    assert by_callee["str.find"] > 0 and by_callee["re.Pattern.match"] > 0
    assert first["requests"] == {"search": 0, "web": 0, "export": 0, "crossref": 0}  # verify asks no upstream
    assert first["retries"] == 0


def test_two_runs_give_equal_request_counts(tmp_path):
    first, second = _count_twice(tmp_path, "--workload", "reconcile_then_verify")
    assert first == second
    assert first["entries"] == 400
    assert all(n > 0 for n in first["requests"].values())  # every endpoint, the fallback too
    assert first["retries"] > 0  # the workload's flaky payloads are retried once each
    assert_only_retries_repeat(first)


def assert_only_retries_repeat(counted: dict) -> None:
    """Each request of the pass repeats none before it, apart from the retries: no item is exported twice."""
    assert counted["repeated_requests"]["export"] == 0
    assert sum(counted["repeated_requests"].values()) == counted["retries"]


def test_reconcile_bib_repeats_no_request(tmp_path):
    # a DOI or URL that answers with a neighbour paper's item reaches an item that paper's query exports too
    argv = [sys.executable, str(SCRIPT), "--workload", "reconcile_bib", "--work", str(tmp_path / "work")]
    counted = json.loads(subprocess.run(argv, capture_output=True, check=True).stdout)
    assert counted["requests"]["export"] > 0
    assert_only_retries_repeat(counted)


def test_a_request_sent_again_in_the_call_counts_as_repeated():
    tables = {"flaky": [], "search": {"q": "[]", "r": "[]"}, "web": {}, "export": {}, "crossref": {"q": "{}"}}
    fake = count_ops.upstream.FakeTransport(tables)

    def send():
        for body in ("q", "r", "q", "q"):
            fake.request("POST", "http://server.test/search", body=body)
        for query in ("q", "q"):
            fake.request("GET", "https://api.crossref.org/works", params={"query": query, "rows": "10"})

    assert count_ops.count_repeats(send) == {"search": 2, "web": 0, "export": 0, "crossref": 1}
    assert count_ops.count_repeats(send) == {"search": 2, "web": 0, "export": 0, "crossref": 1}  # per call


def test_one_call_per_entry_moves_the_count_by_exactly_its_opcodes(tmp_path, monkeypatch):
    plan = count_ops.make_plan("verify_corpus", 2, tmp_path)
    before, c_calls_before, _ = count_ops.count_pass(plan)
    monkeypatch.setattr(harness, "verify_entry", _verify_entry_with_a_loop)
    after, c_calls_after, _ = count_ops.count_pass(plan)

    record = next(harness.load_corpus(plan["argv"][2]))
    _, _, entry = record.candidates[0]
    code = _verify_entry_with_a_loop.__code__
    one_call = count_ops.count_opcodes(lambda: _verify_entry_with_a_loop(entry, record.ground_truth))[code]
    assert one_call > len(ALL_SLOTS)
    injected = after.pop(count_ops.function_name(code))
    assert injected == plan["entries"] * one_call  # verify mode labels each entry once
    assert after == before
    assert c_calls_after == c_calls_before  # the loop calls no C function


def test_c_calls_are_counted_by_callee_inside_the_given_function_only():
    text = "a {b} c"

    def outside():
        return text.find("{")

    def within():
        return text.find("{"), text.count("}"), len(text), outside()

    counts = count_ops.count_c_calls(lambda: (outside(), within(), outside()), within=within.__code__)
    assert counts == {"str.find": 2, "str.count": 1, "len": 1}


def test_the_tracer_and_profiler_installed_before_are_back_afterwards():
    def sentinel(frame, event, arg):
        return None

    tracer, profiler = sys.gettrace(), sys.getprofile()  # a coverage tool's, when one runs
    sys.settrace(sentinel)
    sys.setprofile(sentinel)
    try:
        count_ops.count_opcodes(lambda: len("abc"))
        after_opcodes = sys.gettrace(), sys.getprofile()
        count_ops.count_c_calls(lambda: len("abc"), within=sentinel.__code__)
        after_c_calls = sys.gettrace(), sys.getprofile()
    finally:
        sys.settrace(tracer)
        sys.setprofile(profiler)
    assert after_opcodes == after_c_calls == (sentinel, sentinel)
