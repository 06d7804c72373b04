"""Monomialisation engine: corpus walkthroughs, normal forms, division chains."""

from fractions import Fraction
import itertools
import math
import random
import re
import sys
import threading
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gpseries.division import regular_order
from gpseries.series import (
    Signature,
    Series,
    SeriesError,
    _leq,
    common_monomial,
    divide_monomial,
    monomial,
    render,
)
from gpseries.transforms import BlowUpYX, TransformError, chain_to_json, pullback_chain
from gpseries.trees import tree_from_json, tree_to_json
from gpseries.monomialize import (
    CapExceeded,
    DivisionChainResult,
    EngineError,
    EngineOptions,
    NormalForm,
    PrecisionExhausted,
    _Engine,
    _find_shear,
    critical_lambdas,
    division_chain,
    monomialize,
    normal_form,
    rational_roots,
)
from conftest import ps, random_series, random_unit

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


def _normal_form_by_division(f):
    """``normal_form`` as it was written before it looked the common monomial
    up in f's terms: divide by it, then test the cofactor's constant term."""
    if f.is_zero():
        return None
    exp = common_monomial(f)
    cof = divide_monomial(f, exp)
    if cof.is_unit():
        return NormalForm(exp, cof)
    return None


def test_normal_form_matches_the_division_reference():
    rng = random.Random(4242)
    kinds = {"zero": 0, "normal": 0, "fractional": 0, "non-normal": 0}
    sigs = [Signature(1, 1), Signature(2, 1), Signature(1, 2), Signature(2, 0), Signature(0, 2)]
    for sig in sigs:
        for k in range(300):
            prec = Fraction(rng.randint(2, 16), rng.choice([1, 2, 3]))
            xs = [Fraction(rng.randint(0, 3), rng.choice([1, 2, 3])) for _ in range(sig.m)]
            ys = [rng.randint(0, 2) for _ in range(sig.n)]
            mono = monomial(sig, xs, ys, prec + 3)
            unit = random_unit(rng, sig, prec, nterms=rng.randint(0, 4))
            f = [
                mono * unit,  # normal, unless the monomial cuts it to zero
                mono * random_series(rng, sig, prec, nterms=rng.randint(0, 4)),
                unit - unit,
                mono * unit + random_series(rng, sig, prec, nterms=1),
            ][k % 4]
            got, want = normal_form(f), _normal_form_by_division(f)
            assert got == want, f
            if got is not None:
                assert list(got.unit.terms.items()) == list(want.unit.terms.items())
                kinds["fractional"] += any(type(v) is Fraction for v in got.monomial[0])
            kinds["zero" if f.is_zero() else "non-normal" if got is None else "normal"] += 1
    assert min(kinds.values()) >= 100, kinds


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


def _critical_lambdas_two_pass(g, src, tgt):
    """``critical_lambdas`` as it was written with two passes over g's terms:
    the minimal combined degree of the two axes first, then the edge
    polynomial of the terms on those axes alone at that degree."""

    def coord(exp, c):
        return exp[0 if c[0] == "x" else 1][c[1] - 1]

    mu = min((coord(e, src) + coord(e, tgt) for e in g.terms), default=None)
    poly = {}
    for exp, c in g.terms.items():
        p, q = coord(exp, src), coord(exp, tgt)
        if sum(exp[0]) + sum(exp[1]) - p - q != 0 or p + q != mu or p.denominator != 1:
            continue
        poly[int(p)] = poly.get(int(p), Fraction(0)) + c
    if not poly:
        return []
    return rational_roots([poly.get(k, Fraction(0)) for k in range(max(poly) + 1)])


def test_critical_lambdas_match_the_two_pass_reference():
    rng = random.Random(5151)
    found = 0
    for sig in [Signature(1, 1), Signature(2, 1), Signature(1, 2), Signature(2, 0)]:
        coords = [("x", i) for i in range(1, sig.m + 1)] + [("y", j) for j in range(1, sig.n + 1)]
        for _ in range(150):
            src, tgt = rng.sample(coords, 2)
            # an edge of degree D on the two axes, planted below random terms
            D = rng.randint(1, 4)
            edge = {}
            for p in range(D + 1):
                e = {src: p, tgt: D - p}
                exp = (
                    tuple(e.get(("x", i), 0) for i in range(1, sig.m + 1)),
                    tuple(e.get(("y", j), 0) for j in range(1, sig.n + 1)),
                )
                edge[exp] = rng.choice([-2, -1, 0, 0, 1, 3])
            g = Series(sig, edge, 8) + random_series(rng, sig, nterms=rng.randint(0, 5))
            want = _critical_lambdas_two_pass(g, src, tgt)
            assert critical_lambdas(g, src, tgt) == want, (g, src, tgt)
            found += bool(want)
    assert found >= 100, found


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


def test_step_budget_raises():
    with pytest.raises(CapExceeded, match=r"^step budget exceeded 1$"):
        monomialize(ps("y1^2 - x1^3", 1, 1), EngineOptions(max_steps=1))
    pair = [ps("y1^2 - x1^3", 1, 1), ps("y1", 1, 1)]
    with pytest.raises(CapExceeded, match=r"^step budget exceeded 3$"):
        division_chain(pair, EngineOptions(max_steps=3))


def test_principalization_budget_raises():
    with pytest.raises(CapExceeded, match=r"^principalization budget 0 exhausted$"):
        monomialize(ps("x1 + x2", 2, 0), EngineOptions(princ_cap=0))


# -- the shear that makes a series regular in y_n ----------------------------------


def _find_shear_by_branches(part, n, d0):
    """The shear search as it was written before H(c, 1) used exact powers:
    the same candidates, with a term skipped at a zero coordinate it
    involves."""

    def candidates(bound):
        yield 0
        for v in range(1, bound + 1):
            yield v
            yield -v

    bound = int(d0) + 1
    for c in itertools.product(candidates(bound), repeat=n - 1):
        val = Fraction(0)
        for ys, coeff in part.items():
            term = coeff
            ok = True
            for k in range(n - 1):
                if ys[k]:
                    if c[k] == 0:
                        ok = False
                        break
                    term *= Fraction(c[k]) ** ys[k]
            if ok:
                val += term
        if val != 0:
            return tuple(Fraction(v) for v in c)
    return None


def _homogeneous_part(rng, n, d0):
    """A nonzero {y-exponent: coeff} of degree d0 in n variables: either
    random monomials, usually without the pure y_n^d0 term, or a product of
    linear forms with small integer coefficients, which vanishes at some of
    the first candidates."""
    while True:
        if rng.random() < 0.5:
            part = {}
            for _ in range(rng.randint(1, 4)):
                ys = [0] * n
                for _ in range(d0):
                    ys[rng.randrange(n)] += 1
                part[tuple(ys)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            if rng.random() < 0.8:
                part.pop((0,) * (n - 1) + (d0,), None)
        else:
            sig = Signature(0, n)
            h = Series(sig, {((), (0,) * n): rng.randint(1, 3)}, 9)
            for _ in range(d0):
                form = {
                    ((), tuple(int(i == k) for i in range(n))): rng.choice([-2, -1, 0, 0, 1, 2])
                    for k in range(n)
                }
                h = h * Series(sig, form, 9)
            part = {e[1]: c for e, c in h.terms.items()}
        if part:
            return part


def test_find_shear_matches_the_branching_reference():
    rng = random.Random(2024)
    shears = zero_kept = 0
    for n in range(1, 5):
        for _ in range(600):
            d0 = rng.randint(1, 4)
            part = _homogeneous_part(rng, n, d0)
            expected = _find_shear_by_branches(part, n, d0)
            got = _find_shear(part, n, d0)
            assert got == expected, (part, n, d0)
            assert all(type(v) is Fraction for v in got)
            if any(got):
                shears += 1
                # a coordinate left at zero although some term involves it
                zero_kept += any(
                    v == 0 and any(ys[k] for ys in part) for k, v in enumerate(got)
                )
    assert shears >= 500 and zero_kept >= 100, (shears, zero_kept)


def test_a_zero_shear_leaves_g_regular_of_its_y_order():
    # once _find_shear returns the zero shear, the engine takes the y-order
    # d0 of the x-free terms as the order of regularity: H(0, ..., 0, 1) != 0
    # puts y_n^d0 in g, and no x-free term of g has a lower degree
    rng = random.Random(808)
    zero_shears = other = 0
    for n in range(1, 5):
        sig = Signature(rng.randint(0, 2), n)
        for _ in range(300):
            d0 = rng.randint(1, 4)
            part = _homogeneous_part(rng, n, d0)
            g = Series(sig, {((0,) * sig.m, ys): c for ys, c in part.items()}, 8)
            g = g + random_series(rng, sig, nterms=rng.randint(0, 5))
            g0 = {e[1]: c for e, c in g.terms.items() if not any(e[0])}
            if not g0:
                continue
            d0 = min(map(sum, g0))
            shear = _find_shear({ys: c for ys, c in g0.items() if sum(ys) == d0}, n, d0)
            if shear is not None and not any(shear):
                assert regular_order(g) == d0, g
                zero_shears += 1
            else:
                other += 1
    assert zero_shears >= 300 and other >= 300, (zero_shears, other)


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


def test_refined_leaves_keep_no_result():
    # family 1 refines two leaves of the product's tree; a node the engine
    # grows holds no payload or series, and every leaf holds both
    res = division_chain([ps(t, 1, 1) for t in CHAIN_FAMILIES[1]])
    leaves = {id(leaf) for leaf in res.report.tree.leaves()}
    stack = [res.report.tree.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if id(node) in leaves:
            assert node.payload and node.series is not None
        else:
            assert node.payload == {} and node.series is None


def test_division_chain_names_the_step_of_a_failing_pull(monkeypatch):
    # the walk over the finished tree pulls each input through each edge; a
    # pull that fails there names the edge's step and transform
    run = _Engine.run

    def run_then_break(engine, f):
        tree = run(engine, f)

        def broken(t, g):
            raise SeriesError("broken pull")

        monkeypatch.setattr(BlowUpYX, "pullback", broken)
        return tree

    monkeypatch.setattr(_Engine, "run", run_then_break)
    first = re.escape(BlowUpYX(1, 1, 0).describe())
    with pytest.raises(TransformError, match=rf"^step 1 \({first}\): broken pull$"):
        division_chain([ps("y1^2 - x1^2", 1, 1)])


def _item_4_pairs():
    # chains job sweep-09, built at precision 8: through parse_series the same
    # text gets a higher precision and ends in CapExceeded
    sweep_09 = [
        Series(SIG11, {((1,), (4,)): Fraction(-1)}, 8),
        Series(SIG11, {((2,), (1,)): Fraction(-5, 2), ((3,), (0,)): Fraction(-3, 2)}, 8),
    ]
    yield pytest.param(sweep_09, id="sweep-09")
    yield pytest.param([ps("y1*y2 - x1^2", 1, 2), ps("y1", 1, 2)], id="y1*y2-x1^2,y1")


@pytest.mark.xfail(
    raises=EngineError, strict=True,
    reason="leaf monomials are not ordered by division (ROADMAP item 4)",
)
@pytest.mark.parametrize("pair", _item_4_pairs())
def test_division_chain_ends_cleanly(pair):
    # the outcome contract: a chain, or PrecisionExhausted or CapExceeded,
    # within 3 s; never an internal EngineError
    start = time.monotonic()
    try:
        division_chain(pair)
    except (PrecisionExhausted, CapExceeded):
        pass
    assert time.monotonic() - start < 3.0


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
