"""Fuzzed outside input through ``bibkit.cli.main``: a documented exit, never a traceback.

Every run that can ask the upstream replays ``--fixtures``, so nothing touches
the network, and a replay waits for nothing. Only the contract of the ``cli``
docstring is asserted: the exit code is one the command documents, nothing but
the argument parser's ``SystemExit`` escapes, and a failing run's stderr starts
with a documented prefix.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from bibkit.cli import main
from bibkit.model import FieldLabel, FieldSlot
from bibkit.resolve import CROSSREF_URL, ResolveError, classify_query

from conftest import FIXTURES

SERVER = "http://server.test"

#: Exit codes each command documents.
EXITS = {
    "lookup": {0, 1, 2, 3},
    "reconcile": {0, 2, 3},
    "verify": {0, 2},
    "bench": {0, 2, 3},
    "report": {0, 2},
}
PREFIXES = ("input error: ", "corpus error: ", "error: ")

GOLDEN = (FIXTURES / "golden_corpus.jsonl").read_text("utf-8").splitlines()
DEEP = "[" * 100000  # deeper than the JSON parser's recursion limit

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, value):
    """``value`` with one nested value replaced by a fuzzed JSON value."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(sorted(copy) if isinstance(copy, dict) else range(len(copy))))
        copy[key] = draw(mutated(value[key]))
        return copy
    return draw(json_values)


def joined(*parts):
    return st.tuples(*parts).map("\n".join)


def lines_of(strategy, max_size=4):
    return st.lists(strategy, max_size=max_size).map("\n".join)


# a whole file of garbage: text, bytes that are not UTF-8, or nesting too deep to parse
garbage = text | st.binary(max_size=20) | st.just(DEEP)


def mostly(strategy, other=garbage):
    """``strategy`` three times in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda i: strategy if i else other)


golden_line = st.sampled_from(GOLDEN[1:])
corpus_line = st.one_of(
    golden_line,
    golden_line.map(json.loads).flatmap(mutated).map(json.dumps),
    json_values.map(json.dumps),
    text,
    st.just(DEEP),
)
corpus_header = mostly(st.just(GOLDEN[0]), corpus_line)
corpus = mostly(joined(corpus_header, lines_of(mostly(golden_line, corpus_line))))

QUERIES = [
    "10.1111/iju.13054",
    "https://doi.org/",
    "https://",
    "https://arxiv.org/pdf/2510.16227",
    "2510.16227",
    "Learning to Discover Social Circles in Ego Networks",
    "",
]
query = st.sampled_from(QUERIES) | text
bib_entry = st.one_of(
    st.builds("@article{{k, title={{{}}}, year={{{}}}}}".format, text, text),
    st.lists(st.sampled_from(["@misc{", "k,", "title = {", "A", "}", "{", ",", '"', "#", "%"]),
             max_size=8).map("".join),
)
meta_row = st.lists(query, max_size=5).map("\t".join)

full_entry = st.lists(st.sampled_from(list(FieldLabel)), min_size=10, max_size=10).map(
    lambda labels: "\n".join(f"p\tc\t{s.value}\t{x.value}\t1" for s, x in zip(FieldSlot, labels))
)
label_row = st.lists(
    st.sampled_from(["p", "c", "title", "doi", "issn", "C", "X", "Q", "1", "2", "3", ""]) | text,
    max_size=6,
).map("\t".join)
tsv_header = mostly(st.just("format_version\t1"), text)
labels = mostly(joined(tsv_header, lines_of(mostly(full_entry, label_row), 3)))

response = st.fixed_dictionaries(
    {
        "status": st.sampled_from([200, 200, 300, 404, 429, 500, 503]) | st.integers(100, 599),
        "body": json_values.map(json.dumps) | text | st.just(DEEP),
        "headers": st.just({}) | st.fixed_dictionaries({"Retry-After": st.sampled_from(
            ["0", "5", "60", "61", "-1", "inf", "nan", "1e400", "soon"]) | text}),
    }
)
items = st.lists(st.fixed_dictionaries({"title": st.sampled_from(QUERIES[5:6]) | text}),
                 min_size=1, max_size=2)
WORK = {
    "type": "journal-article",
    "title": ["Impact of relapse site"],
    "author": [{"family": "Yamashita", "given": "Shinichi"}],
    "issued": {"date-parts": [[2016]]},
    "container-title": ["International Journal of Urology"],
    "DOI": "10.1111/iju.13054",
}
bibtex = st.sampled_from(["@article{k, title={A}, year={2015}}", "not bibtex", "@misc{"])


@st.composite
def replay(draw, queries):
    """A fixture answering the requests ``queries`` may send, in fuzzed ways."""
    exchanges = []

    def answer(request, bodies):
        for resp in draw(st.lists(response, max_size=2)):
            if draw(st.booleans()):
                resp["body"] = draw(bodies)
            exchanges.append({"request": request, "response": resp})

    for raw in queries:
        try:
            q = classify_query(raw)
        except ResolveError:
            continue
        endpoint = "web" if q.kind == "url" else "search"
        found = draw(items)
        answer({"method": "POST", "url": f"{SERVER}/{endpoint}", "body": q.value},
               st.just(json.dumps(found)))
        answer({"method": "POST", "url": f"{SERVER}/export", "params": {"format": "bibtex"},
                "body": json.dumps(found[:1], sort_keys=True)}, bibtex)
        answer({"method": "GET", "url": f"{CROSSREF_URL}/works",
                "params": {"query": raw, "rows": "10"}},
               st.lists(mutated(WORK), max_size=2).map(
                   lambda works: json.dumps({"message": {"items": works}})))
    return json.dumps({"format_version": 1, "exchanges": exchanges})


def case(argv, **files):
    """An argv whose ``{name}`` arguments are paths of files with fuzzed contents."""
    return st.tuples(st.just(argv), st.fixed_dictionaries(files))


@st.composite
def reconcile_case(draw):
    """As many ``.bib`` entries as meta rows, mostly; either file may be garbage."""
    n = draw(st.integers(0, 3))
    entries = draw(st.lists(bib_entry, min_size=n, max_size=n + draw(st.sampled_from([0, 0, 1]))))
    rows = draw(st.lists(meta_row, min_size=n, max_size=n))
    return draw(case(
        ["reconcile", "--bib", "{bib}", "--meta", "{meta}"],
        bib=mostly(st.just("\n".join(entries))),
        meta=mostly(joined(tsv_header, st.just("\n".join(rows)))),
        fixtures=replay([field for row in rows for field in row.split("\t")]),
    ))


corpus_argv = st.sampled_from([["verify"], ["verify", "--permissive"], ["bench", "--permissive"],
                               ["bench", "--permissive", "--mode", "reconcile_then_verify"]])
cases = st.one_of(
    query.flatmap(lambda q: case(["lookup", q], fixtures=replay([q]))),
    reconcile_case(),
    corpus_argv.flatmap(lambda argv: case(argv + ["--corpus", "{corpus}"], corpus=corpus,
                                          fixtures=replay(QUERIES[:1]))),
    case(["verify", "--corpus", "{corpus}", "--venues", "{venues}"],
         corpus=st.just("\n".join(GOLDEN)), venues=mostly(lines_of(text | st.just("A\tx")))),
    case(["report", "--labels", "{labels}"], labels=labels),
)


@settings(max_examples=300, deadline=None)
@given(cases)
def test_cli_exits_with_a_documented_code(example):
    argv, files = example
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files.items():
            path = Path(tmp) / name
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
            paths[name] = str(path)
        argv = [paths.get(a.strip("{}"), a) if a.startswith("{") else a for a in argv]
        if "fixtures" in paths and argv[0] != "verify":  # verify takes no --fixtures
            argv += ["--fixtures", paths["fixtures"], "--server", SERVER]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the argument parser's usage error
                assert exc.code == 1
                return
    assert code in EXITS[argv[0]], (code, err.getvalue())
    if code != 0:
        assert err.getvalue().startswith(PREFIXES), err.getvalue()
