"""Seeded, label-preserving workload generator.

Every workload is built from the golden corpus (``tests/fixtures``). Each
copy of the corpus gets its own paper ids and citation keys, page/volume/
number values shifted by a per-copy offset, and a consistent per-copy
rewrite of title and author words, so the program sees a realistic working
set rather than hundreds of identical strings. Venues are left alone
because they go through the venue synonym table. The rewrites are chosen
so that every copy keeps the golden labels; the workload checks this on
every pass.

Besides the program's inputs, the generator emits the fake upstream's
answer tables and the expectations the checks compare against. Nothing
here imports the program under test.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

#: Upstream faults of ``reconcile_then_verify``; every base paper gets this
#: cycle of (query kind, fault) pairs, shuffled per seed, so request counts
#: do not depend on the seed. The shares are a synthetic coverage mix that
#: exercises every path at least ten times per pass; no measured traffic is
#: behind them, so figures on this workload are not traffic-weighted.
RTV_CYCLE = (
    [("title", "none")] * 4
    + [("doi", "none")] * 4
    + [("url", "none")] * 4
    + [
        ("title", "fallback"),
        ("doi", "fallback"),
        ("title", "mismatch"),
        ("url", "mismatch"),
        ("doi", "not_found"),
        ("url", "not_found"),
        ("title", "retry_5xx"),
        ("doi", "retry_5xx"),
    ]
)

#: Query categories of ``reconcile_bib``, one per paper, cycled per base
#: paper. Like ``RTV_CYCLE``, a synthetic coverage mix, not measured traffic.
BIB_CYCLE = (
    ["doi"] * 3
    + ["doi_url"] * 2
    + ["arxiv_pdf"] * 2
    + ["arxiv_html"] * 2
    + ["alphaxiv"] * 2
    + ["hf"] * 2
    + ["title_many"] * 4
    + ["title_crossref"] * 3
    + ["mismatch_title", "mismatch_gate", "not_found"]
    + ["no_query"] * 2
)

EXPECTED_ACTION = {
    "none": "merged",
    "fallback": "merged",
    "retry_5xx": "merged",
    "mismatch": "kept_baseline_title_mismatch",
    "not_found": "kept_baseline_not_found",
    "doi": "merged",
    "doi_url": "merged",
    "arxiv_pdf": "merged",
    "arxiv_html": "merged",
    "alphaxiv": "merged",
    "hf": "merged",
    "title_many": "merged",
    "title_crossref": "merged",
    "mismatch_title": "kept_baseline_title_mismatch",
    "mismatch_gate": "kept_baseline_title_mismatch",
    "no_query": "kept_baseline_no_query",
}

SLOT_ORDER = (
    "entry_type",
    "entry_key",
    "author",
    "title",
    "year",
    "venue",
    "volume",
    "number",
    "pages",
    "doi",
)

_WORD_RE = re.compile(r"(?<![\\A-Za-z])[A-Za-z]{3,}")
_NUM_RE = re.compile(r"\d+")
_FIELD_LINE_RE = re.compile(r"^(  ([a-z]+) = \{)(.*)(\},)$")
_HEADER_RE = re.compile(r"^@([a-z]+)\{([^,]+),$")
_KEEP_WORDS = frozenset({"and", "et", "al"})


class Fixtures:
    """The golden corpus, labels and aggregate, plus the stopword list."""

    def __init__(self, root: Path):
        fixtures = root / "tests" / "fixtures"
        lines = (fixtures / "golden_corpus.jsonl").read_text("utf-8").splitlines()
        self.header = lines[0]
        self.papers = [json.loads(line) for line in lines[1:] if line.strip()]
        self.labels = json.loads((fixtures / "golden_labels.json").read_text("utf-8"))["entries"]
        self.aggregate = json.loads((fixtures / "golden_aggregate.json").read_text("utf-8"))
        stop = (root / "src" / "bibkit" / "data" / "stopwords.txt").read_text("utf-8")
        self.keep = frozenset(w.strip().lower() for w in stop.splitlines() if w.strip()) | _KEEP_WORDS


class Copy:
    """Per-copy perturbation: id suffix, word suffix, numeric offset."""

    def __init__(self, index: int, word_suffix: str, offset: int, keep: frozenset[str]):
        self.index = index
        self.id_suffix = f"c{index:04d}"
        self.word_suffix = word_suffix
        self.offset = offset
        self._keep = keep

    def words(self, text: str) -> str:
        def repl(m: re.Match) -> str:
            word = m.group(0)
            if word.lower() in self._keep:
                return word
            return word + (self.word_suffix.upper() if word.isupper() else self.word_suffix)

        return _WORD_RE.sub(repl, text)

    def numbers(self, text: str) -> str:
        return _NUM_RE.sub(lambda m: str(int(m.group(0)) + self.offset).zfill(len(m.group(0))), text)

    def field(self, name: str, value: str) -> str:
        if name in ("author", "title"):
            return self.words(value)
        if name in ("pages", "volume", "number"):
            return self.numbers(value)
        return value

    def fields(self, fields: dict) -> dict:
        return {k: self.field(k, v) for k, v in fields.items()}

    def bibtex(self, text: str) -> str:
        lines = text.split("\n")
        m = _HEADER_RE.match(lines[0])
        if not m:
            raise ValueError(f"unexpected candidate header {lines[0]!r}")
        out = [f"@{m.group(1)}{{{m.group(2)}{self.id_suffix},"]
        for line in lines[1:-1]:
            f = _FIELD_LINE_RE.match(line)
            if not f:
                raise ValueError(f"unexpected candidate line {line!r}")
            out.append(f"{f.group(1)}{self.field(f.group(2), f.group(3))}{f.group(4)}")
        if lines[-1] != "}":
            raise ValueError("unexpected candidate trailer")
        out.append("}")
        return "\n".join(out)


def make_copies(fx: Fixtures, n: int, rng: random.Random) -> list[Copy]:
    codes = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz"]
    rng.shuffle(codes)
    if n > len(codes):
        raise ValueError("too many copies")
    return [Copy(i, "zq" + codes[i], rng.randint(1, 400), fx.keep) for i in range(n)]


def perturb_paper(paper: dict, copy: Copy) -> dict:
    gt = paper["ground_truth"]
    return {
        **paper,
        "paper_id": paper["paper_id"] + "-" + copy.id_suffix,
        "ground_truth": {
            "versions": [
                {**v, "fields": copy.fields(v["fields"])} for v in gt["versions"]
            ],
            "canonical": {
                slot: {**e, "value": copy.field(slot, e["value"])}
                for slot, e in (gt.get("canonical") or {}).items()
            },
            "known_aliases": [copy.fields(a) for a in gt.get("known_aliases", [])],
        },
        "candidates": [
            {**c, "bibtex": copy.bibtex(c["bibtex"])} for c in paper["candidates"]
        ],
    }


# --------------------------------------------------------------------------
# authoritative answers served by the fake upstream


def _answer_version(paper: dict) -> dict:
    return paper["ground_truth"]["versions"][-1]["fields"]


def answer_title(paper: dict) -> str:
    return _answer_version(paper)["title"]


def _export_bibtex(paper: dict) -> str:
    f = _answer_version(paper)
    etype = f.get("entry_type", "article")
    venue_field = "booktitle" if etype == "inproceedings" else "journal"
    lines = [f"@{etype}{{{re.sub(r'[^A-Za-z0-9]', '', paper['paper_id'])}ans,"]
    for name, slot in (
        ("author", "author"),
        ("title", "title"),
        (venue_field, "venue"),
        ("year", "year"),
        ("volume", "volume"),
        ("number", "number"),
        ("pages", "pages"),
        ("doi", "doi"),
    ):
        if f.get(slot):
            lines.append(f"  {name} = {{{f[slot]}}},")
    lines.append("}")
    return "\n".join(lines)


def _item(paper: dict) -> dict:
    etype = _answer_version(paper).get("entry_type", "article")
    item_type = {"inproceedings": "conferencePaper", "misc": "preprint"}.get(etype, "journalArticle")
    return {"itemType": item_type, "title": answer_title(paper), "key": paper["paper_id"]}


def _crossref_authors(value: str) -> list[dict]:
    names = value.split(" and ") if " and " in value else value.split(", ")
    authors = []
    for name in names:
        name = name.strip()
        if "," in name:
            family, given = (p.strip() for p in name.split(",", 1))
        else:
            *given_words, family = name.split()
            given = " ".join(given_words)
        authors.append({"family": family, "given": given} if given else {"family": family})
    return authors


def _crossref_hit(paper: dict) -> dict:
    f = _answer_version(paper)
    hit = {"title": [f["title"]], "author": _crossref_authors(f["author"])}
    if f.get("year"):
        hit["issued"] = {"date-parts": [[int(f["year"])]]}
    if f.get("venue"):
        hit["container-title"] = [f["venue"]]
    if f.get("doi"):
        hit["DOI"] = f["doi"]
    return hit


class Upstream:
    """Answer tables of the fake translation server and CrossRef."""

    def __init__(self):
        self.search: dict[str, str] = {}
        self.web: dict[str, str] = {}
        self.crossref: dict[str, str] = {}
        self.export: dict[str, str] = {}
        self.flaky: list[str] = []

    def add_export(self, paper: dict) -> None:
        self.export[paper["paper_id"]] = _export_bibtex(paper)

    def to_json(self) -> dict:
        return {
            "search": self.search,
            "web": self.web,
            "crossref": self.crossref,
            "export": self.export,
            "flaky": sorted(self.flaky),
        }


def _items_body(papers: list[dict]) -> str:
    return json.dumps([_item(p) for p in papers])


def _crossref_body(papers: list[dict]) -> str:
    return json.dumps({"message": {"items": [_crossref_hit(p) for p in papers]}})


def _arxiv_id(base: int, copy: Copy) -> str:
    return f"{2401 + base}.{copy.index:05d}"


def _synthetic_doi(base: int, copy: Copy) -> str:
    return f"10.5555/perfbench.{base}.{copy.index:04d}"


# --------------------------------------------------------------------------
# workloads


def _expected_label_rows(fx: Fixtures) -> dict[str, list[list[str]]]:
    """Golden label rows keyed by base paper id, in run_benchmark order."""
    rows: dict[str, list[list[str]]] = {}
    for e in fx.labels:
        stage2 = set(e["stage2_slots"])
        rows.setdefault(e["paper_id"], []).append(
            [e["tag"]] + [f"{s}:{e['labels'][s]}:{'2' if s in stage2 else '1'}" for s in SLOT_ORDER]
        )
    return rows


def _write_corpus(path: Path, header: str, papers: list[dict]) -> None:
    lines = [header] + [json.dumps(p, sort_keys=True) for p in papers]
    path.write_text("\n".join(lines) + "\n", "utf-8")


def gen_verify_corpus(fx: Fixtures, rng: random.Random, out: Path, copies: int) -> dict:
    papers = []
    for copy in make_copies(fx, copies, rng):
        for paper in fx.papers:
            papers.append(perturb_paper(paper, copy))
    rng.shuffle(papers)
    _write_corpus(out / "corpus.jsonl", fx.header, papers)
    entries = sum(len(p["candidates"]) for p in papers)
    return {
        "argv": ["verify", "--corpus", str(out / "corpus.jsonl"), "--out", str(out / "bundle")],
        "entries": entries,
        "copies": copies,
        "labels": _expected_label_rows(fx),
        "aggregate": fx.aggregate["aggregate"],
        "upstream": Upstream().to_json(),
    }


class Grid:
    """Perturbed copies of every golden paper, each with a seeded plan item.

    Every base paper's copies get ``cycle`` repeated and shuffled, so how
    many papers get each item does not depend on the seed.
    """

    def __init__(self, fx: Fixtures, rng: random.Random, copies: int, cycle: list):
        if copies % len(cycle):
            raise ValueError(f"copies must be a multiple of {len(cycle)}")
        self.copies = make_copies(fx, copies, rng)
        self.plans = []
        for _ in fx.papers:
            plan = list(cycle) * (copies // len(cycle))
            rng.shuffle(plan)
            self.plans.append(plan)
        self.papers = [[perturb_paper(p, c) for p in fx.papers] for c in self.copies]

    def cells(self):
        """(copy index, base index, copy, perturbed paper, plan item) for every paper."""
        for ci, copy in enumerate(self.copies):
            for base, paper in enumerate(self.papers[ci]):
                yield ci, base, copy, paper, self.plans[base][ci]

    def other(self, ci: int, base: int, k: int = 1) -> dict:
        """A paper of another base paper in another copy, for mismatches and rivals."""
        return self.papers[(ci + k) % len(self.copies)][(base + k) % len(self.papers[0])]


def gen_reconcile_then_verify(fx: Fixtures, rng: random.Random, out: Path, copies: int) -> dict:
    grid = Grid(fx, rng, copies, RTV_CYCLE)
    up = Upstream()
    papers, faults = [], {}
    for ci, base, copy, paper, (kind, fault) in grid.cells():
        other = grid.other(ci, base)
        up.add_export(paper)
        title = answer_title(paper)
        meta = {"title": title}
        if kind == "doi":
            meta["doi"] = _synthetic_doi(base, copy)
            payload, table = meta["doi"], up.search
        elif kind == "url":
            arxiv = _arxiv_id(base, copy)
            meta["url"] = f"https://arxiv.org/pdf/{arxiv}v2"
            payload, table = f"https://arxiv.org/abs/{arxiv}v2", up.web
        else:
            payload, table = title, up.search
        if fault in ("none", "retry_5xx"):
            table[payload] = _items_body([paper])
            if fault == "retry_5xx":
                up.flaky.append(payload)
        elif fault == "mismatch":
            table[payload] = _items_body([other])
        else:  # fallback, not_found: empty server answer
            table[payload] = "[]"
            if kind != "url":
                hits = [paper] if fault == "fallback" else []
                if fault == "fallback" and kind == "title":
                    hits += [grid.other(ci, base, k) for k in (2, 3, 4, 5)]
                up.crossref[title if kind == "title" else meta["doi"]] = _crossref_body(hits)
        paper = {**paper, "meta": meta}
        papers.append(paper)
        faults[paper["paper_id"]] = fault
    rng.shuffle(papers)
    _write_corpus(out / "corpus.jsonl", fx.header, papers)
    entries = sum(len(p["candidates"]) for p in papers)
    return {
        "argv": [
            "bench", "--corpus", str(out / "corpus.jsonl"),
            "--mode", "reconcile_then_verify", "--out", str(out / "bundle"),
        ],
        "entries": entries,
        "copies": copies,
        "labels": _expected_label_rows(fx),
        "answer_slots": {
            p["paper_id"]: sorted(s for s in _answer_version(p) if s in SLOT_ORDER) for p in fx.papers
        },
        "faults": faults,
        "upstream": up.to_json(),
    }


def gen_reconcile_bib(fx: Fixtures, rng: random.Random, out: Path, copies: int) -> dict:
    grid = Grid(fx, rng, copies, BIB_CYCLE)
    up = Upstream()
    entries = []
    for ci, base, copy, paper, category in grid.cells():
        up.add_export(paper)
        title = answer_title(paper)
        other = grid.other(ci, base)
        arxiv = _arxiv_id(base, copy)
        doi = _synthetic_doi(base, copy)
        url = doi_meta = title_meta = ""
        if category in ("doi", "mismatch_gate", "not_found"):
            doi_meta, title_meta = doi, title
            if category == "doi":
                up.search[doi] = _items_body([paper])
            elif category == "mismatch_gate":
                up.search[doi] = _items_body([other])
            else:
                up.search[doi] = "[]"
                up.crossref[doi] = _crossref_body([])
        elif category == "doi_url":
            url, title_meta = f"https://doi.org/{doi}", title
            up.search[doi] = _items_body([paper])
        elif category in ("arxiv_pdf", "arxiv_html", "alphaxiv", "hf"):
            url, abs_url = {
                "arxiv_pdf": (f"https://arxiv.org/pdf/{arxiv}v2", f"https://arxiv.org/abs/{arxiv}v2"),
                "arxiv_html": (f"https://arxiv.org/html/{arxiv}v1", f"https://arxiv.org/abs/{arxiv}v1"),
                "alphaxiv": (f"https://www.alphaxiv.org/abs/{arxiv}", f"https://arxiv.org/abs/{arxiv}"),
                "hf": (f"https://huggingface.co/papers/{arxiv}", f"https://arxiv.org/abs/{arxiv}"),
            }[category]
            up.web[abs_url] = _items_body([paper])
        elif category == "title_many":
            title_meta = title
            rivals = [grid.other(ci, base, k) for k in (1, 2, 3)]
            items = [_item(r) for r in rivals] + [_item(paper)]
            near = dict(_item(paper))
            near["title"] = " ".join(title.split()[:-1]) or title
            near["key"] = rivals[0]["paper_id"]
            items.insert(1, near)
            up.search[title] = json.dumps(items)
        elif category == "title_crossref":
            title_meta = title
            up.search[title] = "[]"
            rivals = [grid.other(ci, base, k) for k in range(1, 10)]
            up.crossref[title] = _crossref_body(rivals[:4] + [paper] + rivals[4:])
        elif category == "mismatch_title":
            title_meta = title
            up.search[title] = _items_body([other])
        # no_query: every meta column stays empty
        if category == "title_crossref":
            f = _answer_version(paper)
            merged_lines = [f"  {k} = {{{f[k]}}}," for k in ("title", "year", "doi") if f.get(k)]
        else:
            merged_lines = _export_bibtex(paper).split("\n")[1:-1]
        for c in paper["candidates"]:
            entries.append(
                {
                    "id": f"{paper['paper_id']}/{c['tag']}",
                    "bibtex": c["bibtex"],
                    "meta": [url, doi_meta, title_meta],
                    "action": EXPECTED_ACTION[category],
                    "fields": merged_lines,
                }
            )
    rng.shuffle(entries)
    # entries with a query that an earlier entry already sent
    seen, repeats = set(), 0
    for e in entries:
        query = next((v for v in e["meta"] if v), None)
        if query is not None:
            repeats += query in seen
            seen.add(query)
    (out / "refs.bib").write_text("\n\n".join(e["bibtex"] for e in entries) + "\n", "utf-8")
    meta_lines = ["format_version\t1"] + ["\t".join([e["id"]] + e["meta"]) for e in entries]
    (out / "refs.meta").write_text("\n".join(meta_lines) + "\n", "utf-8")
    return {
        "argv": [
            "reconcile", "--bib", str(out / "refs.bib"), "--meta", str(out / "refs.meta"),
            "--out", str(out / "revised.bib"), "--log", str(out / "actions.tsv"),
        ],
        "entries": len(entries),
        "repeated_queries": repeats,
        "expect": [{k: e[k] for k in ("id", "action", "fields")} for e in entries],
        "upstream": up.to_json(),
    }


WORKLOADS = {
    "verify_corpus": (gen_verify_corpus, 300),
    "reconcile_then_verify": (gen_reconcile_then_verify, 100),
    "reconcile_bib": (gen_reconcile_bib, 50),
}


def generate(root: Path, workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out`` and return its plan."""
    fn, copies = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    plan = fn(Fixtures(root), random.Random(seed), out, copies)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
