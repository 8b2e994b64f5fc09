"""The benchmark's tracer still sees every layer of a verify and a reconcile run.

``perfbench/spans.py`` wraps the public functions of each bibkit module by
rebinding module globals, and its per-layer metrics are read by span name.
A refactor that calls a layer some other way (a dict of function
references, a public helper renamed private) hides that layer from the
benchmark without failing any other test; these call counts catch it.
"""

import importlib.util
import shutil
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


#: Spans of one ``bibkit reconcile`` of two entries, one found by ``/search``
#: and one by the CrossRef fallback, per traced name.
EXPECTED_RECONCILE_CALLS = {
    "model.parse_bib_file": 1,
    "model.parse_entry": 3,
    "model.serialize_entry": 2,
    "reconcile.reconcile": 2,
    "reconcile.merge_fields": 2,
    "resolve.Resolver.resolve": 2,
    "resolve.Resolver.crossref_fallback": 1,
    "harness.bib_pieces": 1,
    "harness.tsv_lines": 1,
}


def test_reconcile_run_is_traced_layer_by_layer(tmp_path, capsys):
    bib = tmp_path / "refs.bib"
    bib.write_text("@article{a, title={Relapse site}}\n@article{b, title={Working title}}\n", "utf-8")
    meta = tmp_path / "refs.meta"
    meta.write_text("format_version\t1\np1\t\t10.1111/iju.13054\t\np2\t\t10.9999/unknown.3\t\n", "utf-8")
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for name in ("replay_doi_found.json", "replay_fallback_single.json"):
        shutil.copy(FIXTURES / name, fixtures / name)
    args = ["reconcile", "--bib", str(bib), "--meta", str(meta), "--fixtures", str(fixtures)]
    args += ["--server", "http://server.test", "--log", str(tmp_path / "actions.tsv")]
    tracer = _load("spans").Tracer()
    tracer.install(_load("upstream").FakeTransport)
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
    assert code == 0
    log = (tmp_path / "actions.tsv").read_text("utf-8").splitlines()[1:]
    assert [row.split("\t")[2] for row in log] == ["merged", "merged"]
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert {name: calls[name] for name in EXPECTED_RECONCILE_CALLS} == EXPECTED_RECONCILE_CALLS
