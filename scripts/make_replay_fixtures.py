#!/usr/bin/env python3
"""Regenerate the recorded-exchange fixture files under tests/fixtures/.

Exchanges are built programmatically so request bodies (especially the
JSON the client POSTs to the export endpoint) match byte-for-byte what
the resolver sends.
"""

import json
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

SERVER = "http://server.test"
CROSSREF = "https://api.crossref.org"


def exchange(method, url, *, params=None, body="", status=200, resp_body=""):
    return {
        "request": {"method": method, "url": url, "params": params or {}, "body": body},
        "response": {"status": status, "headers": {}, "body": resp_body},
    }


def write(name, exchanges):
    doc = {"format_version": 1, "exchanges": exchanges}
    (FIXTURES / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {name} ({len(exchanges)} exchanges)")


def main():
    # 1. DOI lookup resolved by the search endpoint: one item, then export.
    item = {
        "itemType": "journalArticle",
        "title": "Impact of relapse site on oncological outcomes after radical nephroureterectomy",
        "DOI": "10.1111/iju.13054",
    }
    bibtex = (
        "@article{yamashita_2016,\n"
        "  author = {Yamashita, Shinichi and Ito, Akihiro},\n"
        "  title = {Impact of relapse site on oncological outcomes after radical nephroureterectomy},\n"
        "  journal = {International Journal of Urology},\n"
        "  year = {2016},\n"
        "  volume = {23},\n"
        "  number = {5},\n"
        "  pages = {378--384},\n"
        "  doi = {10.1111/iju.13054},\n"
        "}"
    )
    write(
        "replay_doi_found.json",
        [
            exchange("POST", f"{SERVER}/search", body="10.1111/iju.13054", resp_body=json.dumps([item])),
            exchange(
                "POST",
                f"{SERVER}/export",
                params={"format": "bibtex"},
                body=json.dumps([item], sort_keys=True),
                resp_body=bibtex,
            ),
        ],
    )

    # 2. Unknown DOI: empty search, CrossRef fallback with 12 hits (capped
    #    to 10 by the client) -> not_found for an identifier query.
    hits = [
        {
            "title": [f"Candidate Paper Number {i:02d} on Record Linkage"],
            "DOI": f"10.5555/cand.{i:02d}",
            "issued": {"date-parts": [[2015 + (i % 5)]]},
            "container-title": ["Journal of Examples"],
            "author": [{"family": "Example", "given": f"Writer {i:02d}"}],
        }
        for i in range(12)
    ]
    write(
        "replay_fallback_many.json",
        [
            exchange("POST", f"{SERVER}/search", body="10.9999/unknown.1", resp_body="[]"),
            exchange(
                "GET",
                f"{CROSSREF}/works",
                params={"query": "10.9999/unknown.1", "rows": "10"},
                resp_body=json.dumps({"message": {"items": hits}}),
            ),
        ],
    )

    # 3. Unknown DOI with an empty fallback: not_found.
    write(
        "replay_fallback_empty.json",
        [
            exchange("POST", f"{SERVER}/search", body="10.9999/unknown.2", resp_body="[]"),
            exchange(
                "GET",
                f"{CROSSREF}/works",
                params={"query": "10.9999/unknown.2", "rows": "10"},
                resp_body=json.dumps({"message": {"items": []}}),
            ),
        ],
    )

    # 4. Unknown DOI with exactly one fallback hit: found via fallback.
    one_hit = {
        "title": ["Impact of relapse site on oncological outcomes after radical nephroureterectomy"],
        "DOI": "10.1200/jco.2016.34.2_suppl.426",
        "issued": {"date-parts": [[2016]]},
        "container-title": ["Journal of Clinical Oncology"],
        "author": [{"family": "Yamashita", "given": "Shinichi"}],
    }
    write(
        "replay_fallback_single.json",
        [
            exchange("POST", f"{SERVER}/search", body="10.9999/unknown.3", resp_body="[]"),
            exchange(
                "GET",
                f"{CROSSREF}/works",
                params={"query": "10.9999/unknown.3", "rows": "10"},
                resp_body=json.dumps({"message": {"items": [one_hit]}}),
            ),
        ],
    )

    # 5. Title query whose best candidate scores exactly 0.4 (2 shared
    #    tokens of 5 distinct) -> title_mismatch, no export call.
    mismatch_items = [
        {"itemType": "journalArticle", "title": "alpha beta epsilon"},
        {"itemType": "journalArticle", "title": "zeta theta kappa"},
    ]
    write(
        "replay_title_mismatch.json",
        [
            exchange(
                "POST",
                f"{SERVER}/search",
                body="alpha beta gamma delta",
                resp_body=json.dumps(mismatch_items),
            ),
        ],
    )

    # 6. Title query that clears the 0.85 gate (identical title).
    good_item = {
        "itemType": "conferencePaper",
        "title": "Learning to Discover Social Circles in Ego Networks",
    }
    good_bib = (
        "@inproceedings{mcauley_2012,\n"
        "  author = {McAuley, Julian J. and Leskovec, Jure},\n"
        "  title = {Learning to Discover Social Circles in Ego Networks},\n"
        "  booktitle = {Advances in Neural Information Processing Systems 25},\n"
        "  year = {2012},\n"
        "  pages = {548--556},\n"
        "}"
    )
    write(
        "replay_title_found.json",
        [
            exchange(
                "POST",
                f"{SERVER}/search",
                body="Learning to Discover Social Circles in Ego Networks",
                resp_body=json.dumps([good_item]),
            ),
            exchange(
                "POST",
                f"{SERVER}/export",
                params={"format": "bibtex"},
                body=json.dumps([good_item], sort_keys=True),
                resp_body=good_bib,
            ),
        ],
    )

    # 7. URL query routed to the web endpoint.
    url_item = {
        "itemType": "preprint",
        "title": "Example Preprint on Token Similarity",
    }
    url_bib = (
        "@misc{example_2025,\n"
        "  author = {Writer, Ada},\n"
        "  title = {Example Preprint on Token Similarity},\n"
        "  year = {2025},\n"
        "  doi = {10.48550/arXiv.2510.16227},\n"
        "}"
    )
    write(
        "replay_web_found.json",
        [
            exchange(
                "POST",
                f"{SERVER}/web",
                body="https://arxiv.org/abs/2510.16227",
                resp_body=json.dumps([url_item]),
            ),
            exchange(
                "POST",
                f"{SERVER}/export",
                params={"format": "bibtex"},
                body=json.dumps([url_item], sort_keys=True),
                resp_body=url_bib,
            ),
        ],
    )

    # 8. Unknown DOI with one typed fallback hit, replayable through
    #    `bibkit lookup --server http://server.test`: a proceedings-article
    #    becomes an @inproceedings entry whose venue is its booktitle.
    typed_hit = {
        "type": "proceedings-article",
        "title": ["Learning to Discover Social Circles in Ego Networks"],
        "DOI": "10.9999/unknown.5",
        "issued": {"date-parts": [[2012]]},
        "container-title": ["Advances in Neural Information Processing Systems 25"],
        "author": [
            {"family": "McAuley", "given": "Julian J."},
            {"family": "Leskovec", "given": "Jure"},
        ],
    }
    write(
        "replay_fallback_typed.json",
        [
            exchange("POST", f"{SERVER}/search", body="10.9999/unknown.5", resp_body="[]"),
            exchange(
                "GET",
                f"{CROSSREF}/works",
                params={"query": "10.9999/unknown.5", "rows": "10"},
                resp_body=json.dumps({"message": {"items": [typed_hit]}}),
            ),
        ],
    )


if __name__ == "__main__":
    main()
