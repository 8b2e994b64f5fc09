"""Output checks for one command pass.

Each check returns its failures and the pass's incomplete-record and action
counts.

The expectations come from the generator and the golden fixtures, never
from the program under test.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from gen import EXPECTED_ACTION, SLOT_ORDER

_COPY_RE = re.compile(r"-c\d{4}$")


def _labels_by_entry(path: Path) -> dict[tuple[str, str], list[str]]:
    lines = path.read_text("utf-8").split("\n")
    if lines[0] != "format_version\t1" or lines[-1] != "":
        raise ValueError(f"{path.name}: bad framing")
    out: dict[tuple[str, str], list[str]] = {}
    for line in lines[1:-1]:
        pid, tag, slot, label, stage = line.split("\t")
        out.setdefault((pid, tag), []).append(f"{slot}:{label}:{stage}")
    return out


def _check_labels(path: Path, plan: dict) -> list[str]:
    """Every copy's labels equal the golden labels of its base paper."""
    failures = []
    golden = {(base, r[0]): r[1:] for base, rows in plan["labels"].items() for r in rows}
    got = _labels_by_entry(path)
    for (pid, tag), rows in got.items():
        if golden.get((_COPY_RE.sub("", pid), tag)) != rows:
            failures.append(f"{path.name}: labels of {pid}/{tag} differ from golden")
    expected_entries = len(golden) * plan["copies"]
    if len(got) != expected_entries:
        failures.append(f"{path.name}: {len(got)} entries labelled, expected {expected_entries}")
    return failures


def _check_report(bundle: Path, plan: dict) -> tuple[list[str], dict, dict]:
    """Failures, pass info and the parsed ``report.json`` of a bundle."""
    report = json.loads((bundle / "report.json").read_text("utf-8"))
    failures = [f"incomplete record {r['paper_id']}: {r['error']}" for r in report["incomplete"]]
    if report["aggregate"]["entries"] != plan["entries"]:
        failures.append("report.json: wrong entry count")
    return failures, {"incomplete": len(report["incomplete"]), "actions": {}}, report


def check_verify_corpus(plan: dict) -> tuple[list[str], dict]:
    bundle = Path(plan["argv"][plan["argv"].index("--out") + 1])
    failures, info, report = _check_report(bundle, plan)
    failures += _check_labels(bundle / "labels.tsv", plan)
    agg = report["aggregate"]
    golden, k = plan["aggregate"], plan["copies"]
    if agg["label_distribution"] != {l: n * k for l, n in golden["label_distribution"].items()}:
        failures.append("report.json: label distribution is not the golden one scaled")
    for key in ("evaluable", "correct"):
        if agg["overall"][key] != golden["overall"][key] * k:
            failures.append(f"report.json: overall {key} is not the golden one scaled")
    return failures, info


def check_reconcile_then_verify(plan: dict) -> tuple[list[str], dict]:
    bundle = Path(plan["argv"][plan["argv"].index("--out") + 1])
    failures, info, report = _check_report(bundle, plan)
    failures += _check_labels(bundle / "labels_before.tsv", plan)
    before = _labels_by_entry(bundle / "labels_before.tsv")
    after = _labels_by_entry(bundle / "labels.tsv")
    faults = plan["faults"]
    actions = info["actions"]
    lines = (bundle / "actions.tsv").read_text("utf-8").splitlines()
    if lines[0] != "format_version\t1" or len(lines) - 1 != plan["entries"]:
        failures.append("actions.tsv: bad header or row count")
    for line in lines[1:]:
        pid, tag, action = line.split("\t")[:3]
        actions[action] = actions.get(action, 0) + 1
        want = EXPECTED_ACTION[faults[pid]] if pid in faults else None
        if action != want:
            failures.append(f"actions.tsv: {pid}/{tag} is {action}, expected {want}")
    # papers answered with their own ground truth (by the server, or by
    # CrossRef after an empty server answer) lose nothing, and every slot a
    # server answer carries is correct after the merge. A CrossRef hit has
    # no entry type, so a fallback merge is held to every slot but that one;
    # its entry-type regressions are counted, not failed.
    regressions_by_slot = {s: 0 for s in SLOT_ORDER}
    info["fallback_type_regressions"] = 0
    for key, rows_before in before.items():
        rows_after = after.get(key)
        if rows_after is None:
            failures.append(f"labels.tsv: {key[0]}/{key[1]} missing")
            continue
        server_answer = faults[key[0]] in ("none", "retry_5xx")
        own_answer = server_answer or faults[key[0]] == "fallback"
        answer_slots = plan["answer_slots"][_COPY_RE.sub("", key[0])]
        for rb, ra in zip(rows_before, rows_after):
            slot, lb, _ = rb.split(":")
            la = ra.split(":")[1]
            if server_answer and slot in answer_slots and la not in ("C", "X"):
                failures.append(f"{key[0]}/{key[1]}: {slot} is {la} after a ground-truth merge")
            if lb != "C" or la in ("C", "X"):
                continue
            regressions_by_slot[slot] += 1
            if slot == "entry_type" and faults[key[0]] == "fallback":
                info["fallback_type_regressions"] += 1
            elif own_answer:
                failures.append(f"{key[0]}/{key[1]}: {slot} regressed after a ground-truth merge")
    for slot, d in report["deltas"].items():
        if d["regressions"] != regressions_by_slot[slot]:
            failures.append(f"report.json: deltas.{slot}.regressions disagrees with the label files")
    return failures, info


_ENTRY_START_RE = re.compile(r"^@", re.MULTILINE)
_KEY_RE = re.compile(r"^@[a-z]+\{([^,]*),")


def _chunks(text: str) -> list[str]:
    starts = [m.start() for m in _ENTRY_START_RE.finditer(text)]
    return [text[a:b].rstrip("\n") for a, b in zip(starts, starts[1:] + [len(text)])]


def check_reconcile_bib(plan: dict) -> tuple[list[str], dict]:
    argv = plan["argv"]
    bib_in = Path(argv[argv.index("--bib") + 1]).read_text("utf-8")
    bib_out = Path(argv[argv.index("--out") + 1]).read_text("utf-8")
    log = Path(argv[argv.index("--log") + 1]).read_text("utf-8").splitlines()
    failures = []
    actions: dict[str, int] = {}
    info = {"incomplete": 0, "actions": actions}
    before, after = _chunks(bib_in), _chunks(bib_out)
    expect = plan["expect"]
    if not (len(before) == len(after) == len(expect) == len(log) - 1) or log[0] != "format_version\t1":
        return [f"entry counts differ: {len(before)} in, {len(after)} out, {len(log) - 1} log rows"], info
    for e, b, a, row in zip(expect, before, after, log[1:]):
        entry_id, key, action = row.split("\t")[:3]
        actions[action] = actions.get(action, 0) + 1
        if entry_id != e["id"] or action != e["action"]:
            failures.append(f"log: {entry_id} is {action}, expected {e['action']}")
        base_key = _KEY_RE.match(b).group(1)
        if key != base_key:
            failures.append(f"log: {entry_id} logs key {key}, baseline has {base_key}")
        if e["action"] != "merged":
            if a != b:
                failures.append(f"{entry_id}: kept entry is not byte-identical to its baseline")
            continue
        m = _KEY_RE.match(a)
        if m is None or m.group(1) != base_key:
            failures.append(f"{entry_id}: merged entry lost its baseline citation key")
        lines = set(a.split("\n"))
        if any(line not in lines for line in e["fields"]):
            failures.append(f"{entry_id}: merged entry lacks an authoritative field value")
    return failures, info


CHECKS = {
    "verify_corpus": check_verify_corpus,
    "reconcile_then_verify": check_reconcile_then_verify,
    "reconcile_bib": check_reconcile_bib,
}
