"""Monomialisation engine: corpus walkthroughs, normal forms, division chains."""

from fractions import Fraction
import math
import random
import re
import sys
import threading
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gpseries.series import Signature, Series, _leq, render
from gpseries.transforms import chain_to_json, pullback_chain
from gpseries.trees import tree_from_json, tree_to_json
from gpseries.monomialize import (
    CapExceeded,
    DivisionChainResult,
    EngineError,
    EngineOptions,
    critical_lambdas,
    division_chain,
    monomialize,
    normal_form,
    rational_roots,
)
from conftest import ps, random_series

SIG11 = Signature(1, 1)


# -- helpers --------------------------------------------------------------------


def test_normal_form_detects_monomial_times_unit():
    nf = normal_form(ps("x1^2 + x1^2*y1", 1, 1))
    assert nf is not None
    assert nf.monomial == ((Fraction(2),), (0,))
    assert nf.unit.is_unit()


def test_normal_form_rejects_non_normal():
    assert normal_form(ps("y1^2 - x1^2", 1, 1)) is None
    assert normal_form(ps("x1 + x2", 2, 0)) is None


def test_normal_form_allows_y_monomials():
    nf = normal_form(ps("x1*y1^2 + x1^2*y1^2", 1, 1))
    assert nf is not None
    assert nf.monomial == ((Fraction(1),), (2,))


def test_rational_roots():
    # t^2 - 3t + 2 = (t-1)(t-2)
    assert rational_roots([2, -3, 1]) == [1, 2]
    # 2t^2 - t = t(2t - 1): zero roots are not reported
    assert rational_roots([0, -1, 2]) == [Fraction(1, 2)]
    assert rational_roots([1]) == []
    assert rational_roots([1, 0, 1]) == []


def test_critical_lambdas_catches_diagonal_roots():
    g = ps("y1^2 - x1^2", 1, 1)
    assert critical_lambdas(g, ("y", 1), ("x", 1)) == [-1, 1]
    g2 = ps("y1^2 - 4*x1^2", 1, 1)
    assert 2 in critical_lambdas(g2, ("y", 1), ("x", 1))


def test_rational_roots_beyond_a_trillion():
    assert rational_roots([-1, 10**13 + 37]) == [Fraction(1, 10**13 + 37)]
    assert rational_roots([-7 * 1000003, 1009 * 10**6 * 1000003]) == [
        Fraction(7, 1009 * 10**6)
    ]
    g = ps("10000000000037*y1 - x1", 1, 1)
    assert critical_lambdas(g, ("y", 1), ("x", 1)) == [Fraction(1, 10000000000037)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


BIG = 10**15


@st.composite
def planted_polys(draw):
    """Coefficients, lowest degree first, of ``scale * prod (t - p/q)^mult``
    times an optional irreducible quadratic ``t^2 + b*t + c`` and padded with
    zero coefficients at both ends; integers or Fractions."""
    poly = [Fraction(draw(st.integers(1, BIG)), draw(st.integers(1, BIG)))]
    poly[0] *= draw(st.sampled_from([1, -1]))
    for _ in range(draw(st.integers(0, 4))):
        root = Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))
        for _ in range(draw(st.integers(1, 2))):
            poly = _poly_mul(poly, [-root, 1])
    if draw(st.booleans()):
        b = draw(st.integers(-(10**6), 10**6))
        poly = _poly_mul(poly, [b * b + draw(st.integers(1, BIG)), b, 1])
    poly = [Fraction(0)] * draw(st.integers(0, 2)) + poly
    poly += [Fraction(0)] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        scale = math.lcm(*(c.denominator for c in poly))
        poly = [int(c * scale) for c in poly]
    return poly


@settings(max_examples=150, deadline=None)
@given(planted_polys())
def test_rational_roots_match_sympy(coeffs):
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k
               for k, c in enumerate(map(Fraction, coeffs)))
    want = sorted(
        Fraction(int(r.p), int(r.q))
        for r in sympy.Poly(expr, t).ground_roots()
        if r != 0
    )
    assert rational_roots(coeffs) == want


# -- single-series engine -----------------------------------------------------------

CORPUS = [
    ("y1^2 - x1^2", 1, 1, 9, 1),
    ("y1^2 - x1^3", 1, 1, 9, 2),
    ("y1^2 - x1^2*y1 - x1^3", 1, 1, 9, 4),
    ("x1^(1/2) + x1^(2/3)*y1", 1, 1, 1, 0),
    ("x1^2*x2 + x1*x2^3", 2, 0, 9, 2),
    ("(1 + y1)*x1^(5/2)", 1, 1, 1, 0),
]


def assert_all_leaves_normal(report):
    for leaf in report.leaf_results():
        if leaf.kind == "zero":
            continue
        assert leaf.monomial is not None, (leaf.chain, leaf.kind)
        assert leaf.unit.is_unit()
        assert leaf.precision > 0


@pytest.mark.parametrize("text,m,n,leaves,height", CORPUS)
def test_corpus_walkthroughs(text, m, n, leaves, height):
    report = monomialize(ps(text, m, n))
    assert_all_leaves_normal(report)
    assert len(report.leaf_results()) == leaves
    assert report.tree.height() == height


def test_already_normal_input_gets_height_zero_tree():
    report = monomialize(ps("x1^(1/2)*y1^2 + x1*y1^2", 1, 1))
    assert report.tree.height() == 0
    (leaf,) = report.leaf_results()
    assert leaf.monomial == ((Fraction(1, 2),), (2,))


HARD_CASES = [
    ("y1^3 - 3*x1*y1 - x1^2", 1, 1),
    ("y1^4 - x1^3", 1, 1),
    ("(y1^2 - x1^2)*(y1^2 - 4*x1^2)", 1, 1),
    ("y1^2 - x1^2*y2^2", 1, 2),
    ("y1*y2 - x1^2", 1, 2),
]

NAMED_INPUTS = [(text, m, n) for text, m, n, _, _ in CORPUS] + HARD_CASES


@pytest.mark.parametrize("text,m,n", NAMED_INPUTS)
def test_report_leaves_use_exact_pullbacks(text, m, n):
    # every leaf equals the normal form of the pullback from the root
    report = monomialize(ps(text, m, n))
    leaves = report.leaf_results()
    assert len(leaves) == len(report.tree.leaves())
    json_sigs = [record["sig"] for record in report.to_json()["leaves"]]
    assert json_sigs == [list(leaf.sig) for leaf in leaves]
    # the engine's leaf series stay out of the tree's JSON and equality
    assert tree_from_json(tree_to_json(report.tree)) == report.tree
    for leaf in leaves:
        pulled = pullback_chain(leaf.chain, report.input)
        nf = normal_form(pulled)
        assert leaf.sig == report.tree.leaf_sig(leaf.chain) == pulled.sig
        assert leaf.precision == pulled.precision
        if nf is None:
            assert leaf.monomial is None and leaf.unit is None
            continue
        assert leaf.monomial == nf.monomial
        assert render(leaf.unit) == render(nf.unit)
        assert leaf.unit.precision == nf.unit.precision


def test_named_hard_cases():
    for text, m, n in HARD_CASES:
        report = monomialize(ps(text, m, n))
        assert_all_leaves_normal(report)


def test_random_sparse_inputs():
    rng = random.Random(12345)
    done = 0
    while done < 10:
        f = random_series(rng, SIG11, nterms=3, max_den=2)
        if f.is_zero():
            continue
        report = monomialize(f)
        assert_all_leaves_normal(report)
        done += 1


def test_depth_cap_raises():
    with pytest.raises(CapExceeded):
        monomialize(ps("y1^2 - x1^3", 1, 1), EngineOptions(max_depth=0))


def _nonzero_draw(seed, sig, k, **kw):
    """The k-th nonzero draw of ``random_series`` from ``random.Random(seed)``."""
    rng = random.Random(seed)
    draws = []
    while len(draws) <= k:
        f = random_series(rng, sig, **kw)
        if not f.is_zero():
            draws.append(f)
    return draws[k]


@pytest.mark.parametrize(
    "seed,k,text",
    [
        (7, 0, "3*y1^4 - 4/3*x1^2*y1^3 - 4*y1^3*y2^3"),
        (8, 2, "4*y1^4*y2 - 2/3*x1^3*y2^2"),
    ],
)
def test_joint_step_without_charts_fails_fast(seed, k, text):
    # the coefficient subtree is a single leaf, so resuming at the node would
    # rerun the same step until the step budget ran out
    f = _nonzero_draw(seed, Signature(1, 2), k, nterms=3)
    assert render(f) == text
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="joint coefficient step at depth"):
        monomialize(f)
    assert time.monotonic() - start < 2.0


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_engine_leaves_recursion_limit_and_threads_alone():
    # the engine is a loop over an explicit stack: it needs neither a deep
    # Python stack nor a worker thread, and changes no process-wide setting
    f = ps("y1*y2 - x1^2", 1, 2)
    family = [ps(t, 1, 1) for t in CHAIN_FAMILIES[1]]
    old_limit = sys.getrecursionlimit()
    threads = threading.active_count()
    limit = _frame_depth() + 50
    sys.setrecursionlimit(limit)
    try:
        assert len(monomialize(f).tree.leaves()) == 81
        assert division_chain(family).leaves
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old_limit)
    assert threading.active_count() == threads


def test_audit_records_steps():
    report = monomialize(ps("y1^2 - x1^3", 1, 1))
    assert report.audit
    assert all("action" in e and "depth" in e for e in report.audit)


def test_report_json_shape():
    report = monomialize(ps("y1^2 - x1^2", 1, 1))
    data = report.to_json()
    assert data["stats"]["leaf_count"] == 9
    assert len(data["leaves"]) == 9
    assert all("chain" in leaf and "sig" in leaf for leaf in data["leaves"])


# -- division chains -----------------------------------------------------------------


CHAIN_FAMILIES = [
    ["y1^2 - x1^2", "x1", "y1"],
    ["y1^2 - x1^3", "y1 - x1", "x1^2"],
    ["x1 + y1", "x1 - y1", "x1*y1"],
]


def _factor_from_root(chain, s):
    """The factor record of one input, rebuilt from its pullback from the root."""
    pulled = pullback_chain(chain, s)
    if pulled.is_zero():
        return {"kind": "zero"}, None
    nf = normal_form(pulled)
    assert nf is not None, (render(s), chain)
    record = {
        "kind": "normal",
        "monomial": {"x": [str(v) for v in nf.monomial[0]], "y": list(nf.monomial[1])},
        "unit": render(nf.unit),
        "precision": str(nf.unit.precision),
    }
    return record, nf


@pytest.mark.parametrize(
    "texts", CHAIN_FAMILIES, ids=[f"family-{k}" for k in range(len(CHAIN_FAMILIES))]
)
def test_division_chain_factors_normal_and_comparable(texts):
    inputs = [ps(t, 1, 1) for t in texts]
    res = division_chain(inputs)
    assert isinstance(res, DivisionChainResult)
    tree = res.report.tree
    branches = list(tree.branches())
    assert len(branches) == len(res.leaves) == len(res.branches)
    for (chain, _leaf), entry, (res_chain, sig, forms) in zip(
        branches, res.leaves, res.branches
    ):
        assert res_chain == chain
        assert sig == tree.leaf_sig(chain)
        assert entry["sig"] == list(sig)
        assert entry["chain"] == chain_to_json(chain)
        assert len(entry["factors"]) == len(forms) == len(inputs)
        for s, fac, nf in zip(inputs, entry["factors"], forms):
            record, ref = _factor_from_root(chain, s)
            assert fac == record
            assert (nf is None) == (ref is None)
            if nf is not None:
                assert nf.monomial == ref.monomial
                assert render(nf.unit) == render(ref.unit)
        monomials = []
        for fac in entry["factors"]:
            if fac["kind"] == "zero":
                continue
            assert fac["kind"] == "normal"
            monomials.append(fac["monomial"])
        # the leaf factors divide one another in some order
        exps = [_exp_from_json(mj) for mj in monomials]
        for i in range(len(exps)):
            for j in range(i + 1, len(exps)):
                assert _leq(exps[i], exps[j]) or _leq(exps[j], exps[i])


def _exp_from_json(mj):
    return (
        tuple(Fraction(v) for v in mj["x"]),
        tuple(int(v) for v in mj["y"]),
    )


def test_division_chain_single_input_equals_monomialize():
    res = division_chain([ps("y1^2 - x1^3", 1, 1)])
    for entry in res.leaves:
        (fac,) = entry["factors"]
        assert fac["kind"] in ("normal", "zero")


def test_division_chain_refinement_without_charts_fails_fast():
    # both inputs are normal, but their product is normal only modulo the
    # truncation, so refining the leaf adds no chart; a rerun would add none
    rng = random.Random(5)
    pair = [random_series(rng, SIG11, nterms=2, fractional_x=False) for _ in range(2)]
    assert [render(p) for p in pair] == ["2*x1^4", "-2*y1 + 1/3*x1^3*y1"]
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="refinement adds no chart to the branch"):
        division_chain(pair)
    assert time.monotonic() - start < 2.0


def test_division_chain_rejects_empty_and_mismatched():
    with pytest.raises(EngineError):
        division_chain([])
    with pytest.raises(EngineError):
        division_chain([ps("x1", 1, 1), ps("x1", 1, 0)])


# -- JSON carries exact values only ----------------------------------------------


def _json_leaves(data):
    """Every value of a JSON document that is neither a dict nor a list."""
    stack = [data]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
        else:
            yield v


def assert_no_float(data):
    # exponents, parameters and precisions are exact: no float, and no string
    # that spells a decimal such as "1.0"
    for v in _json_leaves(data):
        assert type(v) is not float, v
        assert not (isinstance(v, str) and re.search(r"\d\.", v)), v


@pytest.mark.parametrize("text,m,n", NAMED_INPUTS)
def test_monomialize_json_holds_no_float(text, m, n):
    assert_no_float(monomialize(ps(text, m, n)).to_json())


@pytest.mark.parametrize(
    "texts", CHAIN_FAMILIES, ids=[f"family-{k}" for k in range(len(CHAIN_FAMILIES))]
)
def test_division_chain_json_holds_no_float(texts):
    res = division_chain([ps(t, 1, 1) for t in texts])
    assert_no_float(res.leaves)
    assert_no_float(res.report.to_json())
