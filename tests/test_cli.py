import json
import os
import shutil
import stat
import time

import pytest

from bibkit.cli import main
from bibkit.model import FieldSlot, parse_entry

from conftest import FIXTURES

CORPUS = str(FIXTURES / "golden_corpus.jsonl")
SERVER = ["--server", "http://server.test"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- usage errors --------------------------------------------------------------


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_option_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 1


# -- lookup ---------------------------------------------------------------------


def test_lookup_doi_found(capsys):
    code, out, _ = run(
        ["lookup", "10.1111/iju.13054", "--fixtures", str(FIXTURES / "replay_doi_found.json")]
        + SERVER,
        capsys,
    )
    assert code == 0
    assert out.startswith("@article{yamashita2016,")
    assert "10.1111/iju.13054" in out


def test_lookup_title_mismatch_status(capsys):
    code, out, _ = run(
        ["lookup", "alpha beta gamma delta", "--fixtures", str(FIXTURES / "replay_title_mismatch.json")]
        + SERVER,
        capsys,
    )
    assert code == 0
    assert out.strip() == "title_mismatch"


def test_lookup_empty_query_exits_1(capsys):
    code, _, err = run(
        ["lookup", "   ", "--fixtures", str(FIXTURES / "replay_doi_found.json")] + SERVER,
        capsys,
    )
    assert code == 1
    assert "empty query" in err


def test_lookup_upstream_unavailable_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"format_version": 1, "exchanges": []}), "utf-8")
    code, _, err = run(
        ["lookup", "10.1111/iju.13054", "--fixtures", str(empty)] + SERVER, capsys
    )
    assert code == 3
    assert "upstream unavailable" in err


@pytest.mark.parametrize(
    "server",
    ["localhost:1969", "http://:1969", "ftp://server.test", "http://[::1", "http://127.0.0.1:99999", "http://h:0"],
)
def test_lookup_server_that_is_not_an_absolute_http_url_exits_2(tmp_path, capsys, server):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"format_version": 1, "exchanges": []}), "utf-8")
    code, _, err = run(["lookup", "10.1111/iju.13054", "--fixtures", str(empty), "--server", server], capsys)
    assert code == 2
    assert err == f"input error: --server {server!r}: not an absolute http(s) URL\n"


def test_server_url_variable_that_is_not_an_absolute_http_url_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIBKIT_SERVER_URL", "localhost:1969")
    bib, meta = write_reconcile_inputs(tmp_path)
    code, _, err = run(["reconcile", "--bib", str(bib), "--meta", str(meta)], capsys)
    assert code == 2
    assert "input error: BIBKIT_SERVER_URL 'localhost:1969'" in err
    assert not (tmp_path / "refs.bib.revised.bib").exists()


def write_exchanges(path, *exchanges):
    """A replay fixture of (request, response) pairs against http://server.test."""
    doc = {"format_version": 1, "exchanges": [{"request": q, "response": r} for q, r in exchanges]}
    path.write_text(json.dumps(doc), "utf-8")
    return str(path)


def search_request(query):
    return {"method": "POST", "url": "http://server.test/search", "body": query}


def test_lookup_throttled_exits_3(tmp_path, capsys):
    throttled = {"status": 429, "body": "", "headers": {"Retry-After": "0"}}
    crossref = {
        "method": "GET",
        "url": "https://api.crossref.org/works",
        "params": {"query": "10.1111/iju.13054", "rows": "10"},
    }
    fixture = write_exchanges(
        tmp_path / "throttled.json",
        (search_request("10.1111/iju.13054"), throttled),
        (search_request("10.1111/iju.13054"), throttled),
        (crossref, {"status": 200, "body": json.dumps({"message": {"items": []}})}),
    )
    code, out, err = run(["lookup", "10.1111/iju.13054", "--fixtures", fixture] + SERVER, capsys)
    assert code == 3
    assert "upstream unavailable" in err
    assert "not_found" not in out


def test_lookup_malformed_crossref_body_exits_0(tmp_path, capsys):
    crossref = {
        "method": "GET",
        "url": "https://api.crossref.org/works",
        "params": {"query": "10.1111/iju.13054", "rows": "10"},
    }
    hits = ["a string hit", {"title": "Some Title", "author": "Doe", "issued": "2020"}]
    fixture = write_exchanges(
        tmp_path / "malformed.json",
        (search_request("10.1111/iju.13054"), {"status": 200, "body": "null"}),
        (crossref, {"status": 200, "body": json.dumps({"message": {"items": hits}})}),
    )
    code, out, err = run(["lookup", "10.1111/iju.13054", "--fixtures", fixture] + SERVER, capsys)
    assert code == 0
    assert out.strip() == "not_found"
    assert err == ""


def test_lookup_malformed_url_exits_1(capsys):
    code, _, err = run(
        ["lookup", "https://", "--fixtures", str(FIXTURES / "replay_doi_found.json")] + SERVER,
        capsys,
    )
    assert code == 1
    assert "not an absolute http(s) URL" in err


def test_lookup_doi_url_without_a_doi_exits_1(capsys):
    fixture = str(FIXTURES / "replay_doi_found.json")
    code, out, err = run(["lookup", "https://doi.org/", "--fixtures", fixture] + SERVER, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: no DOI in 'https://doi.org/'\n"


def unparseable_export(tmp_path, query, status=200, body="this is not bibtex"):
    item = [{"title": "A Paper", "DOI": query}]
    export = {
        "method": "POST",
        "url": "http://server.test/export",
        "params": {"format": "bibtex"},
        "body": json.dumps(item, sort_keys=True),
    }
    return write_exchanges(
        tmp_path / "export.json",
        (search_request(query), {"status": 200, "body": json.dumps(item)}),
        (export, {"status": status, "body": body}),
    )


def test_lookup_export_failure_exits_3(tmp_path, capsys):
    fixture = unparseable_export(tmp_path, "10.9999/export.1")
    code, _, err = run(["lookup", "10.9999/export.1", "--fixtures", fixture] + SERVER, capsys)
    assert code == 3
    assert "unparseable BibTeX" in err


@pytest.mark.parametrize("status", [501, 404])
def test_lookup_export_error_status_exits_3_naming_it(tmp_path, capsys, status):
    # a BibTeX-looking error body must not be read as the export
    fixture = unparseable_export(tmp_path, "10.9999/export.2", status, "@misc{k, title={Not implemented}}")
    code, out, err = run(["lookup", "10.9999/export.2", "--fixtures", fixture] + SERVER, capsys)
    assert (code, out) == (3, "")
    assert err == f"error: export returned {status}\n"


def test_lookup_fixtures_directory_merges_files(tmp_path, capsys):
    for name in ("replay_doi_found.json", "replay_title_mismatch.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    code, out, _ = run(
        ["lookup", "10.1111/iju.13054", "--fixtures", str(tmp_path)] + SERVER, capsys
    )
    assert code == 0
    assert out.startswith("@article{yamashita2016,")



def crossref_request(query):
    return {
        "method": "GET",
        "url": "https://api.crossref.org/works",
        "params": {"query": query, "rows": "10"},
    }


def test_lookup_untyped_crossref_record_prints_misc(tmp_path, capsys):
    hit = {"title": ["An Untyped Work"], "author": [{"family": "Doe", "given": "Jane"}]}
    fixture = write_exchanges(
        tmp_path / "untyped.json",
        (search_request("10.9999/untyped.1"), {"status": 200, "body": "[]"}),
        (
            crossref_request("10.9999/untyped.1"),
            {"status": 200, "body": json.dumps({"message": {"items": [hit]}})},
        ),
    )
    code, out, _ = run(["lookup", "10.9999/untyped.1", "--fixtures", fixture] + SERVER, capsys)
    assert code == 0
    assert out.startswith("@misc{Doe,")
    entry = parse_entry(out)
    assert entry.entry_type == "misc"
    assert entry.fields == {"title": "An Untyped Work", "author": "Doe, Jane"}


@pytest.mark.parametrize(
    "fixture,query,printed",
    [
        ("replay_fallback_single.json", "10.9999/unknown.3", "@misc{Yamashita2016,"),
        ("replay_fallback_many.json", "10.9999/unknown.1", "not_found"),
        ("replay_fallback_empty.json", "10.9999/unknown.2", "not_found"),
    ],
)
def test_lookup_replays_recorded_crossref_exchange(capsys, fixture, query, printed):
    code, out, err = run(["lookup", query, "--fixtures", str(FIXTURES / fixture)] + SERVER, capsys)
    assert code == 0, err
    assert out.startswith(printed)


def test_replayed_lookup_does_not_sleep(tmp_path, capsys, monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    throttled = {"status": 429, "body": "", "headers": {"Retry-After": "5"}}
    fixture = write_exchanges(
        tmp_path / "throttled.json",
        (search_request("10.9999/slow.1"), throttled),
        (search_request("10.9999/slow.1"), {"status": 200, "body": "[]"}),
        (crossref_request("10.9999/slow.1"), {"status": 200, "body": '{"message": {"items": []}}'}),
    )
    code, out, _ = run(["lookup", "10.9999/slow.1", "--fixtures", fixture] + SERVER, capsys)
    assert code == 0
    assert out == "not_found\n"
    assert sleeps == []  # neither the limiter's spacing nor the Retry-After was waited out


def test_lookup_search_501_falls_back_to_crossref(tmp_path, capsys):
    # the translation server's "no translator / no identifier" is an answer, not an outage
    fixture = write_exchanges(
        tmp_path / "no_translator.json",
        (search_request("10.9999/none.1"), {"status": 501, "body": "No translators available"}),
        (crossref_request("10.9999/none.1"), {"status": 200, "body": '{"message": {"items": []}}'}),
    )
    code, out, err = run(["lookup", "10.9999/none.1", "--fixtures", fixture] + SERVER, capsys)
    assert (code, out, err) == (0, "not_found\n", "")


def test_lookup_web_501_is_not_found_without_a_retry(tmp_path, capsys):
    web = {"method": "POST", "url": "http://server.test/web", "body": "https://example.org/paper"}
    fixture = write_exchanges(tmp_path / "no_translator.json", (web, {"status": 501, "body": ""}))
    code, out, err = run(["lookup", "https://example.org/paper", "--fixtures", fixture] + SERVER, capsys)
    assert (code, out, err) == (0, "not_found\n", "")


def test_lookup_typed_crossref_record(capsys):
    fixture = str(FIXTURES / "replay_fallback_typed.json")
    code, out, _ = run(["lookup", "10.9999/unknown.5", "--fixtures", fixture] + SERVER, capsys)
    assert code == 0
    entry = parse_entry(out)
    assert entry.entry_type == "inproceedings"
    assert entry.get("booktitle") == "Advances in Neural Information Processing Systems 25"
    assert entry.get("journal") is None

# -- verify -----------------------------------------------------------------------


def test_verify_prints_report(capsys):
    code, out, _ = run(["verify", "--corpus", CORPUS], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["aggregate"]["entries"] == 20
    assert "labels" not in report


def test_verify_writes_bundle(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code, out, _ = run(["verify", "--corpus", CORPUS, "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "labels.tsv").is_file()


def test_verify_bad_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "corpus.jsonl"
    bad.write_text('{"format_version": 7}\n', "utf-8")
    code, _, err = run(["verify", "--corpus", str(bad)], capsys)
    assert code == 2
    assert "corpus error" in err


@pytest.mark.parametrize("permissive", [[], ["--permissive"]])
def test_verify_corpus_header_of_wrong_type_exits_2(tmp_path, capsys, permissive):
    lines = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join(["[1]"] + lines[1:]) + "\n", "utf-8")
    code, _, err = run(["verify", "--corpus", str(bad)] + permissive, capsys)
    assert code == 2
    assert "corpus error: line 1" in err


def test_verify_record_of_wrong_type_exits_2_or_is_skipped(tmp_path, capsys):
    lines = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
    lines.insert(2, "5")
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join(lines) + "\n", "utf-8")
    code, _, err = run(["verify", "--corpus", str(bad)], capsys)
    assert code == 2
    assert "corpus error: line 3" in err
    code, out, _ = run(["verify", "--corpus", str(bad), "--permissive"], capsys)
    assert code == 0
    assert json.loads(out)["aggregate"]["entries"] == 20


def test_verify_permissive_skips_bad_records(tmp_path, capsys):
    lines = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
    lines.insert(2, "{broken json")
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join(lines) + "\n", "utf-8")
    code, out, _ = run(["verify", "--corpus", str(bad), "--permissive"], capsys)
    assert code == 0
    assert json.loads(out)["aggregate"]["entries"] == 20


def test_verify_repeated_candidate_tag_exits_2_or_is_skipped(tmp_path, capsys):
    lines = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
    doc = json.loads(lines[1])
    doc["candidates"] = [{k: v for k, v in c.items() if k != "tag"} for c in doc["candidates"][:2]]
    bad = tmp_path / "corpus.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(doc)] + lines[2:]) + "\n", "utf-8")
    code, _, err = run(["verify", "--corpus", str(bad)], capsys)
    assert code == 2
    assert "corpus error: line 2: duplicate candidate tag 'candidate'" in err
    code, out, _ = run(["verify", "--corpus", str(bad), "--permissive"], capsys)
    assert code == 0
    expected = 20 - len(json.loads(lines[1])["candidates"])
    assert json.loads(out)["aggregate"]["entries"] == expected


# -- unreadable input files ---------------------------------------------------------


def missing_file(tmp_path):
    return tmp_path / "absent.txt"


def directory(tmp_path):
    return tmp_path


def not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"format_version\tcaf\xe9\n")
    return path


def conflicting_venues(tmp_path):
    path = tmp_path / "venues.tsv"
    path.write_text("Alpha Conference\tAC\nBeta Conference\tAC\n", "utf-8")
    return path


def not_json(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text("{not json", "utf-8")
    return path


def no_exchanges(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({"format_version": 1}), "utf-8")
    return path


def no_exchanges_in_directory(tmp_path):
    no_exchanges(tmp_path)
    return tmp_path


def assert_input_error(code, out, err, option):
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {option} ")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("make", [missing_file, directory, not_utf8])
@pytest.mark.parametrize("command", ["verify", "bench"])
def test_unreadable_corpus_exits_2(tmp_path, capsys, make, command):
    code, out, err = run([command, "--corpus", str(make(tmp_path))], capsys)
    assert_input_error(code, out, err, "--corpus")


@pytest.mark.parametrize("make", [missing_file, not_utf8, conflicting_venues])
def test_unreadable_venues_exits_2(tmp_path, capsys, make):
    code, out, err = run(["verify", "--corpus", CORPUS, "--venues", str(make(tmp_path))], capsys)
    assert_input_error(code, out, err, "--venues")


def test_conflicting_venues_message_names_the_variant(tmp_path, capsys):
    path = conflicting_venues(tmp_path)
    _, _, err = run(["verify", "--corpus", CORPUS, "--venues", str(path)], capsys)
    assert "already maps to 'alpha conference'" in err


@pytest.mark.parametrize(
    "make", [missing_file, not_utf8, not_json, no_exchanges, no_exchanges_in_directory]
)
def test_unreadable_fixtures_exits_2(tmp_path, capsys, make):
    out_dir = tmp_path / "bundle"
    args = ["bench", "--corpus", CORPUS, "--mode", "reconcile_then_verify", "--out", str(out_dir)]
    code, out, err = run(args + ["--fixtures", str(make(tmp_path))] + SERVER, capsys)
    assert_input_error(code, out, err, "--fixtures")
    assert not out_dir.exists()


def test_lookup_and_reconcile_with_missing_fixtures_exit_2(tmp_path, capsys):
    fixtures = ["--fixtures", str(missing_file(tmp_path))] + SERVER
    code, out, err = run(["lookup", "10.1111/iju.13054"] + fixtures, capsys)
    assert_input_error(code, out, err, "--fixtures")
    bib, meta = write_reconcile_inputs(tmp_path)
    code, out, err = run(["reconcile", "--bib", str(bib), "--meta", str(meta)] + fixtures, capsys)
    assert_input_error(code, out, err, "--fixtures")



@pytest.mark.parametrize("option", ["--bib", "--meta", "--labels"])
def test_missing_input_file_names_the_option(tmp_path, capsys, option):
    missing = str(missing_file(tmp_path))
    if option == "--labels":
        args = ["report", "--labels", missing]
    else:
        bib, meta = write_reconcile_inputs(tmp_path)
        files = {"--bib": str(bib), "--meta": str(meta), option: missing}
        args = ["reconcile", "--bib", files["--bib"], "--meta", files["--meta"]]
    code, out, err = run(args, capsys)
    assert_input_error(code, out, err, option)
    assert missing in err


def test_reconcile_out_in_missing_directory_exits_2_and_writes_nothing(tmp_path, capsys):
    bib, meta = write_reconcile_inputs(tmp_path)
    fixture = str(FIXTURES / "replay_doi_found.json")
    args = reconcile_args(bib, meta, fixture, tmp_path)
    out = str(tmp_path / "missing" / "revised.bib")
    args[args.index("--out") + 1] = out
    code, stdout, err = run(args, capsys)
    assert_input_error(code, stdout, err, "--out")
    assert out in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.tsv", "refs.bib"]


def test_reconcile_log_in_missing_directory_exits_2_and_writes_nothing(tmp_path, capsys):
    bib, meta = write_reconcile_inputs(tmp_path)
    fixture = str(FIXTURES / "replay_doi_found.json")
    args = reconcile_args(bib, meta, fixture, tmp_path)
    log = str(tmp_path / "missing" / "actions.tsv")
    args[args.index("--log") + 1] = log
    code, stdout, err = run(args, capsys)
    assert_input_error(code, stdout, err, "--log")
    assert log in err
    # the revised .bib was staged first; it is neither written nor left as a temporary
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.tsv", "refs.bib"]


def test_reconcile_out_that_is_a_directory_exits_2_and_writes_nothing(tmp_path, capsys):
    bib, meta = write_reconcile_inputs(tmp_path)
    fixture = str(FIXTURES / "replay_doi_found.json")
    args = reconcile_args(bib, meta, fixture, tmp_path)
    (tmp_path / "revised.bib").mkdir()
    code, stdout, err = run(args, capsys)
    assert_input_error(code, stdout, err, "--out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.tsv", "refs.bib", "revised.bib"]
    assert not any((tmp_path / "revised.bib").iterdir())


def test_verify_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "bundle"
    out.write_text("not a directory\n", "utf-8")
    code, stdout, err = run(["verify", "--corpus", CORPUS, "--out", str(out)], capsys)
    assert_input_error(code, stdout, err, "--out")
    assert out.read_text("utf-8") == "not a directory\n"


def lookup_nested_search_item(tmp_path, capsys, depth):
    """Whether a replayed /search item nested ``depth`` deep is sent on to /export.

    Neither /export nor CrossRef is recorded, so either request ends the
    lookup with exit 3 and names the request it could not replay.
    """
    query = "10.1111/iju.13054"
    body = '[{"title": "A", "x": ' + "[" * depth + "]" * depth + "}]"
    fixture = write_exchanges(
        tmp_path / f"nested{depth}.json", (search_request(query), {"status": 200, "body": body})
    )
    code, out, err = run(["lookup", query, "--fixtures", fixture] + SERVER, capsys)
    assert (code, out) == (3, "")
    assert ("/export" in err) != ("api.crossref.org" in err)
    return "/export" in err


def test_search_item_nested_too_deeply_to_resend_reads_as_absent(tmp_path, capsys):
    # Find the first depth whose item does not reach /export: from there on
    # the body no longer parses. Just below it the body parses, and the item
    # may still be too deep to encode again for /export; such an item reads
    # as absent, so the lookup falls back to CrossRef instead of raising.
    lo, hi = 1, 5000
    assert lookup_nested_search_item(tmp_path, capsys, lo)
    assert not lookup_nested_search_item(tmp_path, capsys, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lookup_nested_search_item(tmp_path, capsys, mid):
            lo = mid
        else:
            hi = mid
    for depth in range(hi - 1, hi - 25, -1):
        lookup_nested_search_item(tmp_path, capsys, depth)


DEEP = "[" * 100000  # deeper than the JSON parser's recursion limit


def write_lines(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return str(path)


def deep_corpus_header(tmp_path):
    lines = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
    return ["verify", "--corpus", write_lines(tmp_path, [DEEP] + lines[1:])]


def deep_corpus_record(tmp_path):
    lines = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
    return ["verify", "--corpus", write_lines(tmp_path, lines[:2] + [DEEP] + lines[2:])]


def deep_fixtures_file(tmp_path):
    fixture = tmp_path / "deep.json"
    fixture.write_text(DEEP, "utf-8")
    return ["lookup", "10.1111/iju.13054", "--fixtures", str(fixture)] + SERVER


def deep_body(search_body, crossref_body):
    def make(tmp_path):
        fixture = write_exchanges(
            tmp_path / "deep.json",
            (search_request("10.1111/iju.13054"), {"status": 200, "body": search_body}),
            (crossref_request("10.1111/iju.13054"), {"status": 200, "body": crossref_body}),
        )
        return ["lookup", "10.1111/iju.13054", "--fixtures", fixture] + SERVER

    return make


@pytest.mark.parametrize(
    "make,code,printed",
    [
        (deep_corpus_header, 2, "corpus error: line 1: bad header: "),
        (deep_corpus_record, 2, "corpus error: line 3: bad JSON: "),
        (deep_fixtures_file, 2, "input error: --fixtures "),
        (deep_body(DEEP, '{"message": {"items": []}}'), 0, "not_found\n"),  # no items
        (deep_body("[]", DEEP), 0, "not_found\n"),
    ],
    ids=["corpus-header", "corpus-record", "fixtures-file", "search-body", "crossref-body"],
)
def test_deeply_nested_json_is_malformed_input(tmp_path, capsys, make, code, printed):
    args = make(tmp_path)
    got, out, err = run(args, capsys)
    assert got == code
    assert (err or out).startswith(printed)
    assert err.count("\n") <= 1  # one line, no traceback
    if make is deep_corpus_record:  # skipped under --permissive
        got, out, _ = run(args + ["--permissive"], capsys)
        assert got == 0
        assert json.loads(out)["aggregate"]["entries"] == 20


SEARCH = {"method": "POST", "url": "http://server.test/search"}
MALFORMED_EXCHANGES = {
    "no-url": {"request": {"method": "POST"}},
    "method-number": {"request": dict(SEARCH, method=5), "response": {"status": 200}},
    "status-string": {"request": SEARCH, "response": {"status": "200"}},
    "status-bool": {"request": SEARCH, "response": {"status": True}},
    "no-response": {"request": SEARCH},
    "request-list": {"request": ["POST"], "response": {"status": 200}},
    "exchange-string": "POST http://server.test/search",
    "params-list": {"request": dict(SEARCH, params=["rows"]), "response": {"status": 200}},
    "body-number": {"request": SEARCH, "response": {"status": 200, "body": 5}},
    "headers-list": {"request": SEARCH, "response": {"status": 429, "headers": []}},
}


@pytest.mark.parametrize("exchange", MALFORMED_EXCHANGES.values(), ids=MALFORMED_EXCHANGES)
@pytest.mark.parametrize("command", ["lookup", "reconcile", "bench"])
def test_malformed_replay_exchange_exits_2(tmp_path, capsys, command, exchange):
    fixture = tmp_path / "malformed.json"
    fixture.write_text(json.dumps({"format_version": 1, "exchanges": [exchange]}), "utf-8")
    if command == "lookup":
        args = ["lookup", "10.1111/iju.13054"]
    elif command == "reconcile":
        bib, meta = write_reconcile_inputs(tmp_path)
        args = ["reconcile", "--bib", str(bib), "--meta", str(meta)]
    else:
        args = ["bench", "--corpus", CORPUS, "--mode", "reconcile_then_verify"]
    code, out, err = run(args + ["--fixtures", str(fixture)] + SERVER, capsys)
    assert_input_error(code, out, err, "--fixtures")
    assert "exchange 0 is not a well-formed request and response" in err

# -- reconcile ----------------------------------------------------------------------


def write_reconcile_inputs(tmp_path):
    bib = tmp_path / "refs.bib"
    bib.write_text("@article{mine, title={Some Working Title}, year={2015}}\n", "utf-8")
    meta = tmp_path / "meta.tsv"
    meta.write_text("format_version\t1\np1\t\t10.1111/iju.13054\t\n", "utf-8")
    return bib, meta


def test_reconcile_merges_and_logs(tmp_path, capsys):
    bib, meta = write_reconcile_inputs(tmp_path)
    out = tmp_path / "revised.bib"
    log = tmp_path / "actions.tsv"
    code, stdout, _ = run(
        [
            "reconcile",
            "--bib", str(bib),
            "--meta", str(meta),
            "--out", str(out),
            "--log", str(log),
            "--fixtures", str(FIXTURES / "replay_doi_found.json"),
        ]
        + SERVER,
        capsys,
    )
    assert code == 0
    revised = out.read_text("utf-8")
    assert revised.startswith("@article{mine,")  # baseline key kept
    assert "10.1111/iju.13054" in revised
    log_lines = log.read_text("utf-8").splitlines()
    assert log_lines[0] == "format_version\t1"
    assert log_lines[1].split("\t")[:3] == ["p1", "mine", "merged"]


def reconcile_args(bib, meta, fixture, tmp_path):
    out = ["--out", str(tmp_path / "revised.bib"), "--log", str(tmp_path / "actions.tsv")]
    return ["reconcile", "--bib", str(bib), "--meta", str(meta), "--fixtures", fixture] + out + SERVER


def test_reconcile_resolves_a_shared_query_once(tmp_path, capsys):
    # the replay holds one lookup, so a second request for the DOI would fail
    bib = tmp_path / "refs.bib"
    bib.write_text(
        "@article{a, title={Relapse site}}\n"
        "@article{b, title={Working title}, year={2015}}\n"
        "@misc{c, note={kept}}\n",
        "utf-8",
    )
    meta = tmp_path / "meta.tsv"
    rows = [f"p{i}\t\t10.1111/iju.13054\t" for i in (1, 2, 3)]
    meta.write_text("format_version\t1\n" + "\n".join(rows) + "\n", "utf-8")
    fixture = str(FIXTURES / "replay_doi_found.json")
    code, _, err = run(reconcile_args(bib, meta, fixture, tmp_path), capsys)
    assert code == 0, err
    log = (tmp_path / "actions.tsv").read_text("utf-8").splitlines()[1:]
    assert [row.split("\t")[:3] for row in log] == [
        ["p1", "a", "merged"],
        ["p2", "b", "merged"],
        ["p3", "c", "merged"],
    ]
    revised = (tmp_path / "revised.bib").read_text("utf-8")
    assert revised.count("doi = {10.1111/iju.13054}") == 3
    assert "note = {kept}" in revised


def test_reconcile_jabref_file_writes_only_its_entries(tmp_path, capsys):
    bib = tmp_path / "refs.bib"
    bib.write_text(
        "% Encoding: UTF-8\n"
        "% Questions: me@example.org\n\n"
        "@Article{mine,\n  title = {Some Working Title},\n  year  = {2015},\n}\n\n"
        "@Misc{other,\n  note = {kept},\n}\n\n"
        "@Comment{jabref-meta: databaseType:bibtex;}\n\n"
        "@Comment{jabref-meta: grouping:\n0 AllEntriesGroup:;\n1 StaticGroup:Mine\\;0\\;1\\;;\n}\n",
        "utf-8",
    )
    meta = tmp_path / "meta.tsv"
    meta.write_text("format_version\t1\np1\t\t10.1111/iju.13054\t\np2\t\t10.1111/iju.13054\t\n", "utf-8")
    code, _, err = run(reconcile_args(bib, meta, str(FIXTURES / "replay_doi_found.json"), tmp_path), capsys)
    assert code == 0, err
    revised = (tmp_path / "revised.bib").read_text("utf-8")
    assert [line for line in revised.splitlines() if line.startswith("@")] == ["@article{mine,", "@article{other,"]
    assert "jabref" not in revised
    log = (tmp_path / "actions.tsv").read_text("utf-8").splitlines()[1:]
    assert [row.split("\t")[:3] for row in log] == [["p1", "mine", "merged"], ["p2", "other", "merged"]]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, capsys, umask, mode):
    bib, meta = write_reconcile_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    previous = os.umask(umask)
    try:
        codes = [
            run(["verify", "--corpus", CORPUS, "--out", str(bundle)], capsys)[0],
            run(reconcile_args(bib, meta, str(FIXTURES / "replay_doi_found.json"), tmp_path), capsys)[0],
        ]
    finally:
        os.umask(previous)
    assert codes == [0, 0]
    written = sorted(bundle.iterdir()) + [tmp_path / "revised.bib", tmp_path / "actions.tsv"]
    assert [p.name for p in written[:2]] == ["labels.tsv", "report.json"]
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {p.name: mode for p in written}


@pytest.mark.parametrize("url", ["https://", "https://doi.org/"])
def test_reconcile_bad_query_in_meta_row_exits_2(tmp_path, capsys, url):
    bib = tmp_path / "refs.bib"
    bib.write_text("@article{a, title={A}}\n@article{b, title={B}}\n", "utf-8")
    meta = tmp_path / "meta.tsv"
    meta.write_text(f"format_version\t1\np1\t\t10.1111/iju.13054\t\np2\t{url}\t\t\n", "utf-8")
    fixture = str(FIXTURES / "replay_doi_found.json")
    code, _, err = run(reconcile_args(bib, meta, fixture, tmp_path), capsys)
    assert code == 2
    assert "input error: meta row 'p2'" in err
    assert not (tmp_path / "revised.bib").exists()


def test_reconcile_export_failure_exits_3(tmp_path, capsys):
    bib, meta = write_reconcile_inputs(tmp_path)
    meta.write_text("format_version\t1\np1\t\t10.9999/export.1\t\n", "utf-8")
    fixture = unparseable_export(tmp_path, "10.9999/export.1")
    code, _, err = run(reconcile_args(bib, meta, fixture, tmp_path), capsys)
    assert code == 3
    assert "unparseable BibTeX" in err
    assert not (tmp_path / "revised.bib").exists()


def test_reconcile_count_mismatch_exits_2(tmp_path, capsys):
    bib, _ = write_reconcile_inputs(tmp_path)
    meta = tmp_path / "meta2.tsv"
    meta.write_text("format_version\t1\np1\t\t\tT1\np2\t\t\tT2\n", "utf-8")
    code, _, err = run(["reconcile", "--bib", str(bib), "--meta", str(meta)], capsys)
    assert code == 2
    assert "1 entries but 2 metadata lines" in err


def test_reconcile_bad_meta_header_exits_2(tmp_path, capsys):
    bib, _ = write_reconcile_inputs(tmp_path)
    meta = tmp_path / "meta3.tsv"
    meta.write_text("paper_id\turl\n", "utf-8")
    code, _, err = run(["reconcile", "--bib", str(bib), "--meta", str(meta)], capsys)
    assert code == 2
    assert "input error" in err


def test_reconcile_unparseable_bib_exits_2(tmp_path, capsys):
    _, meta = write_reconcile_inputs(tmp_path)
    bib = tmp_path / "broken.bib"
    bib.write_text("@article{broken, title={A}\n", "utf-8")
    code, _, err = run(["reconcile", "--bib", str(bib), "--meta", str(meta)], capsys)
    assert code == 2
    assert "input error" in err


# -- bench -------------------------------------------------------------------------


def test_bench_verify_mode_bundles_are_byte_identical(tmp_path, capsys):
    for name in ("a", "b"):
        code, _, _ = run(
            ["bench", "--corpus", CORPUS, "--mode", "verify", "--out", str(tmp_path / name)],
            capsys,
        )
        assert code == 0
    for file in ("report.json", "labels.tsv"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()


def test_bench_prints_report_without_out(capsys):
    code, out, _ = run(["bench", "--corpus", CORPUS], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "verify"
    assert "labels" not in report


def test_verify_stdout_equals_report_json(tmp_path, capsys):
    code, printed, _ = run(["verify", "--corpus", CORPUS], capsys)
    assert code == 0
    run(["verify", "--corpus", CORPUS, "--out", str(tmp_path)], capsys)
    assert printed == (tmp_path / "report.json").read_text("utf-8")


def write_relapse_corpus(tmp_path, n_candidates=1):
    """One-paper corpus whose query is the DOI that replay_doi_found.json answers."""
    record = {
        "paper_id": "yamashita2016",
        "tier": "recent",
        "description": "the relapse-site nephroureterectomy paper",
        "ground_truth": {
            "versions": [
                {
                    "version_type": "journal",
                    "fields": {"title": "Impact of relapse site", "doi": "10.1111/iju.13054"},
                }
            ]
        },
        "candidates": [
            {"tag": f"c{i}", "model": "m", "bibtex": "@article{k, title={Relapse}}"}
            for i in range(1, n_candidates + 1)
        ],
        "meta": {"doi": "10.1111/iju.13054"},
    }
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"format_version": 1}\n' + json.dumps(record) + "\n", "utf-8")
    return corpus


def test_bench_reconcile_stdout_equals_report_json(tmp_path, capsys):
    corpus = write_relapse_corpus(tmp_path)
    args = ["bench", "--corpus", str(corpus), "--mode", "reconcile_then_verify"]
    args += ["--fixtures", str(FIXTURES / "replay_doi_found.json")] + SERVER
    code, printed, _ = run(args, capsys)
    assert code == 0
    assert "actions" not in json.loads(printed)
    run(args + ["--out", str(tmp_path / "bundle")], capsys)
    assert printed == (tmp_path / "bundle" / "report.json").read_text("utf-8")
    actions = (tmp_path / "bundle" / "actions.tsv").read_text("utf-8").splitlines()
    assert actions[1].split("\t")[:3] == ["yamashita2016", "c1", "merged"]


def test_bench_reconcile_resolves_a_shared_query_once(tmp_path, capsys):
    # the replay holds one lookup, so a second request for the DOI would fail
    corpus = write_relapse_corpus(tmp_path, n_candidates=3)
    args = ["bench", "--corpus", str(corpus), "--mode", "reconcile_then_verify"]
    args += ["--fixtures", str(FIXTURES / "replay_doi_found.json"), "--out", str(tmp_path / "b")]
    code, _, _ = run(args + SERVER, capsys)
    assert code == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text("utf-8"))
    assert report["incomplete"] == []
    actions = (tmp_path / "b" / "actions.tsv").read_text("utf-8").splitlines()[1:]
    assert [row.split("\t")[1:3] for row in actions] == [[f"c{i}", "merged"] for i in (1, 2, 3)]


def test_bench_with_incomplete_records_writes_bundle_then_exits_3(tmp_path, capsys):
    fixture = tmp_path / "zero.json"
    fixture.write_text(json.dumps({"format_version": 1, "exchanges": []}), "utf-8")
    args = ["bench", "--corpus", CORPUS, "--mode", "reconcile_then_verify"]
    args += ["--fixtures", str(fixture)] + SERVER
    code, printed, err = run(args, capsys)
    assert code == 3
    assert err == "error: 8 incomplete record(s)\n"
    code, _, _ = run(args + ["--out", str(tmp_path / "bundle")], capsys)
    assert code == 3
    report = (tmp_path / "bundle" / "report.json").read_text("utf-8")
    assert report == printed
    assert len(json.loads(report)["incomplete"]) == 8
    assert json.loads(report)["aggregate"]["entries"] == 0


def test_bench_invalid_mode_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--corpus", CORPUS, "--mode", "sideways"])
    assert exc.value.code == 1


def test_bench_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--corpus", CORPUS, "--workers", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


# -- report ------------------------------------------------------------------------


def test_report_recomputes_aggregates_from_labels(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    run(["verify", "--corpus", CORPUS, "--out", str(out_dir)], capsys)
    code, out, _ = run(["report", "--labels", str(out_dir / "labels.tsv")], capsys)
    assert code == 0
    report = json.loads(out)
    golden = json.loads((FIXTURES / "golden_aggregate.json").read_text("utf-8"))["aggregate"]
    assert report["overall"] == golden["overall"]
    assert report["per_field"] == golden["per_field"]
    assert report["fully_correct"] == golden["fully_correct"]


def test_report_equals_bundle_aggregate_with_all_x_entry(tmp_path, capsys):
    # ground truth without fields leaves every slot of the candidate X
    record = {
        "paper_id": "zz-empty",
        "tier": "recent",
        "description": "a paper whose ground truth records no fields",
        "ground_truth": {"versions": [{"version_type": "journal", "fields": {}}]},
        "candidates": [{"tag": "c1", "model": "m", "bibtex": "@article{k, title={T}}"}],
    }
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        (FIXTURES / "golden_corpus.jsonl").read_text("utf-8") + json.dumps(record) + "\n", "utf-8"
    )
    out_dir = tmp_path / "bundle"
    run(["verify", "--corpus", str(corpus), "--out", str(out_dir)], capsys)
    code, out, _ = run(["report", "--labels", str(out_dir / "labels.tsv")], capsys)
    assert code == 0
    report = json.loads(out)
    aggregate = json.loads((out_dir / "report.json").read_text("utf-8"))["aggregate"]
    assert aggregate["entries"] == 21
    for key in ("entries", "overall", "fully_correct", "label_distribution", "per_field"):
        assert report[key] == aggregate[key], key


FULL_ENTRY = [f"p\tc\t{slot.value}\tC\t1" for slot in FieldSlot]


@pytest.mark.parametrize(
    "rows",
    [
        FULL_ENTRY[:3],  # slots missing
        FULL_ENTRY + ["p\tc\ttitle\tC\t1"],  # a slot labelled twice
        FULL_ENTRY[:-1] + ["p\tc\tissn\tC\t1"],  # unknown slot
        FULL_ENTRY[:-1] + ["p\tc\tdoi\tQ\t1"],  # unknown label
        FULL_ENTRY[:-1] + ["p\tc\tdoi\tC\t3"],  # unknown stage
    ],
    ids=["missing_slots", "duplicate_slot", "unknown_slot", "unknown_label", "unknown_stage"],
)
def test_report_rejects_malformed_entries(tmp_path, capsys, rows):
    labels = tmp_path / "labels.tsv"
    labels.write_text("\n".join(["format_version\t1"] + rows) + "\n", "utf-8")
    code, _, err = run(["report", "--labels", str(labels)], capsys)
    assert code == 2
    assert "input error" in err


def test_report_bad_labels_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "labels.tsv"
    bad.write_text("no header here\n", "utf-8")
    code, _, err = run(["report", "--labels", str(bad)], capsys)
    assert code == 2
    assert "input error" in err
