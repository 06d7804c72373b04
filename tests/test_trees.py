"""Transformation trees, chart-parameter palettes, JSON round trips."""

from fractions import Fraction
import sys

import pytest

from gpseries.series import Signature
from gpseries.trees import (
    DEFAULT_PALETTE,
    AdmissibleTree,
    LambdaPalette,
    TreeNode,
    palette_from_spec,
    tree_from_json,
    tree_to_json,
)
from gpseries.transforms import (
    INF,
    NEG_INF,
    BlowUpYX,
    Linear,
    TransformError,
    Tschirnhausen,
)
from gpseries.monomialize import EngineOptions, monomialize
from conftest import ps

SIG11 = Signature(1, 1)


def test_default_palette():
    assert DEFAULT_PALETTE.positive == (Fraction(1, 2), Fraction(1), Fraction(2))


def test_nonneg_palette_brackets_with_zero_and_infinity():
    lams = DEFAULT_PALETTE.nonneg()
    assert lams[0] == 0
    assert lams[-1] == INF
    assert Fraction(1) in lams


def test_signed_palette_contains_mirrored_values():
    lams = DEFAULT_PALETTE.signed()
    assert Fraction(-2) in lams and Fraction(2) in lams
    assert INF in lams and NEG_INF in lams
    assert lams[0] == 0


def test_palette_extra_values_deduplicated():
    lams = DEFAULT_PALETTE.nonneg(extra=[Fraction(1), Fraction(5)])
    assert lams.count(Fraction(1)) == 1
    assert Fraction(5) in lams


def test_palette_from_spec():
    p = palette_from_spec("1/3,2")
    assert p.positive == (Fraction(1, 3), Fraction(2))
    with pytest.raises(ValueError):
        palette_from_spec("0,1")
    with pytest.raises(ValueError):
        palette_from_spec("abc")


def test_palette_keeps_its_entries_as_sorted_distinct_fractions():
    p = LambdaPalette((2, Fraction(1, 2), 1, Fraction(2)))
    assert p.positive == (Fraction(1, 2), Fraction(1), Fraction(2))
    assert all(type(v) is Fraction for v in p.positive)
    assert p == DEFAULT_PALETTE


def test_a_zero_palette_entry_is_refused_before_any_chart():
    # it gave y1^2 - x1^2 two identical blowup_yx children at lam = 0
    with pytest.raises(ValueError, match="^palette entries must be positive, got 0$"):
        EngineOptions(palette=LambdaPalette((0, 1)))


def test_a_negative_palette_entry_is_refused_before_the_run():
    # it failed only mid-run, with a TransformError from an x-x chart family
    with pytest.raises(ValueError, match="^palette entries must be positive, got -1$"):
        LambdaPalette((-1,))
    with pytest.raises(ValueError, match="got -1/2$"):
        LambdaPalette((1, Fraction(-1, 2)))


@pytest.mark.parametrize("entry", ["1", 0.5, None])
def test_a_palette_entry_must_be_a_rational(entry):
    with pytest.raises(ValueError, match="^palette entries must be rationals"):
        LambdaPalette((1, entry))


def test_palette_from_spec_reports_the_first_bad_entry():
    with pytest.raises(ValueError, match="^palette entries must be positive, got 0$"):
        palette_from_spec("1, 0, -1")
    with pytest.raises(ValueError, match="^empty palette$"):
        palette_from_spec(" , ")


def test_manual_tree_branches():
    root = TreeNode(None, [], {})
    a = root.add_child(BlowUpYX(1, 1, 0))
    b = root.add_child(BlowUpYX(1, 1, INF))
    a.payload["kind"] = "left"
    tree = AdmissibleTree(SIG11, root)
    branches = list(tree.branches())
    assert len(branches) == 2
    chains = [tuple(c) for c, _ in branches]
    assert (BlowUpYX(1, 1, 0),) in chains
    assert tree.height() == 1
    assert tree.leaf_sig([BlowUpYX(1, 1, INF)]) == Signature(2, 0)


def test_zero_height_tree():
    tree = AdmissibleTree(SIG11, TreeNode(None, [], {"kind": "normal"}))
    assert tree.height() == 0
    assert len(tree.leaves()) == 1
    ((chain, leaf),) = tree.branches()
    assert chain == []


def test_height_of_a_deep_chain_at_the_default_recursion_limit():
    # one Linear edge per level; height() walks without recursing
    root = TreeNode()
    node = root
    for _ in range(1000):
        node = node.add_child(Linear(1, ()))
    tree = AdmissibleTree(SIG11, root)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert tree.height() == 1000
    finally:
        sys.setrecursionlimit(limit)


def test_tree_json_roundtrip_of_a_deep_chain_at_the_default_recursion_limit():
    # tree_to_json and tree_from_json walk without recursing
    root = TreeNode()
    node = root
    for _ in range(1000):
        node = node.add_child(Linear(1, ()))
    node.payload["kind"] = "zero"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        data = tree_to_json(AdmissibleTree(SIG11, root))
        back = tree_from_json(data)
    finally:
        sys.setrecursionlimit(limit)
    # compared level by level: == on 1000-deep nested dicts would recurse
    keys = []
    d = data["root"]
    while "children" in d:
        (d,) = d["children"]
        keys.append(list(d))
    assert keys == [["transform", "children"]] * 999 + [["transform", "payload"]]
    ((chain, leaf),) = back.branches()
    assert chain == [Linear(1, ())] * 1000
    assert leaf.payload == {"kind": "zero"}


TSCHIRNHAUSEN_BAD_SIG = {"kind": "tschirnhausen", "h_sig": 3, "h": "x1", "h_prec": "2"}


@pytest.mark.parametrize(
    "data, field",
    [
        ({}, "root"),
        ({"root": {}}, "sig"),
        ({"sig": [1, 1], "root": {"children": [3]}}, "children"),
        ({"sig": [1, 1], "root": {"children": [{"transform": TSCHIRNHAUSEN_BAD_SIG}]}},
         "h_sig"),
        ({"sig": [1, 1], "root": {"transform": {"kind": ["blowup_yx"]}}}, "kind"),
    ],
    ids=["no-root", "no-sig", "non-dict-child", "int-h-sig", "list-kind"],
)
def test_malformed_tree_json_raises_transform_error(data, field):
    with pytest.raises(TransformError, match=repr(field)):
        tree_from_json(data)


def test_tree_json_roundtrip_on_real_tree():
    report = monomialize(ps("y1^2 - x1^2", 1, 1))
    data = tree_to_json(report.tree)
    back = tree_from_json(data)
    assert tree_to_json(back) == data
    assert back.sig == report.tree.sig
    assert back.height() == report.tree.height()
