"""Slots and labels compare by value throughout ``src/bibkit``.

A ``FieldSlot`` or ``FieldLabel`` is a str enum that equals its name, and
every public function takes a slot or a label as a member or as its name,
alike. An ``is`` test against a member tells the two apart, so the package
holds none: not against ``FieldSlot.X`` or ``FieldLabel.X``, not against a
name bound to one (``_TITLE = FieldSlot.TITLE``, ``C, X = FieldLabel.C,
FieldLabel.X``, inside a function too), and not against a parameter
annotated as a slot or a label. ``is None`` stays an identity test.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bibkit").glob("*.py"))
ENUMS = frozenset({"FieldSlot", "FieldLabel"})


def _is_member(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ENUMS


def _bound(target: ast.AST, value: ast.AST):
    """The names ``target = value`` binds to a member, through nested tuples and lists."""
    if isinstance(target, (ast.Tuple, ast.List)) and isinstance(value, (ast.Tuple, ast.List)):
        if len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                yield from _bound(t, v)
    elif isinstance(target, ast.Name) and _is_member(value):
        yield target.id


def member_names(tree: ast.AST) -> set[str]:
    """Names bound to a member anywhere in ``tree``, and parameters annotated as a slot or a label."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_bound(target, node.value))
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
            names.update(_bound(node.target, node.value))
        elif isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name) and node.annotation.id in ENUMS:
            names.add(node.arg)
    return names


def identity_tests(source: str) -> list[int]:
    """Line numbers of the ``is``/``is not`` tests on a slot or a label in ``source``."""
    tree = ast.parse(source)
    names = member_names(tree)

    def slot_or_label(node: ast.AST) -> bool:
        return _is_member(node) or (isinstance(node, ast.Name) and node.id in names)

    def none(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if (
                    isinstance(op, (ast.Is, ast.IsNot))
                    and (slot_or_label(left) or slot_or_label(right))
                    and not (none(left) or none(right))
                ):
                    lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_finds_each_form():
    source = """
A = B = FieldSlot.TITLE
(C, [D, E]), F = (FieldLabel.C, [FieldLabel.X, 1]), FieldSlot.DOI
def f(slot: FieldSlot, label, other: str):
    G, H = FieldLabel.S, FieldLabel.P
    if (i := FieldSlot.YEAR) == label or label is not i:
        pass
    return (
        slot is A,
        label is not C,
        label is D,
        H is not label,
        label is FieldLabel.M,
        0 < label is B,
        other is not slot,
        label is E,
        label == G,
        slot is None,
        other is label,
    )
"""
    assert identity_tests(source) == [6, 9, 10, 11, 12, 13, 14, 15]  # E is 1, G is tested with ==


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"model.py", "verify.py", "harness.py", "reconcile.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_identity_test_on_a_slot_or_a_label(path):
    found = identity_tests(path.read_text("utf-8"))
    assert found == [], f"{path.name}: `is` on a slot or a label at lines {found}; compare with == or !="
