"""The benchmark's tracer still sees every layer of a verify run.

``perfbench/spans.py`` wraps the public functions of each bibkit module by
rebinding module globals, and its per-layer metrics are read by span name.
A refactor that calls a layer some other way (a dict of function
references, a public helper renamed private) hides that layer from the
benchmark without failing any other test; these call counts catch it.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import bibkit.cli as cli
from bibkit import verify

from conftest import FIXTURES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Spans of one ``bibkit verify`` of the golden corpus, per traced name.
EXPECTED_CALLS = {
    "model.parse_entry": 20,
    "verify.verify_entry": 20,
    "verify.classify_stage1": 200,
    "verify.classify_stage2": 14,
    "normalize.normalize_author": 10,
    "normalize.normalize_title": 10,
    "normalize.normalize_venue": 13,
    "normalize.normalize_doi": 14,
    "normalize.normalize_pages": 13,
    "normalize.normalize_year": 9,
    "normalize.fold_diacritics": 10,
    "normalize.tokenize_filtered": 16,
    "normalize.jaccard": 2,
    "harness.load_corpus": 1,
    "harness.run_benchmark": 1,
    "harness.write_bundle": 1,
    "verify.aggregate_stats": 1,
    "verify.co_error_matrix": 1,
}


def test_verify_run_is_traced_layer_by_layer(tmp_path, capsys):
    tracer = _load("spans").Tracer()
    verify.clear_memo()  # a warm memo would skip the normalizers
    tracer.install(_load("upstream").FakeTransport)
    try:
        code = cli.main(["verify", "--corpus", str(FIXTURES / "golden_corpus.jsonl"), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert {name: calls[name] for name in EXPECTED_CALLS} == EXPECTED_CALLS
