"""End-to-end acceptance suite.

Each test states its own budget (case count, tolerance, wall-clock limit) and
checks one externally observable guarantee of the package:

1. chart pullbacks are ring homomorphisms,
2. pullbacks agree numerically with composition by the point maps,
3. Weierstrass division satisfies the exact identity and degree bound,
4. the monomialiser normalises the reference corpus plus random inputs,
5. division chains make every factor normal with division-ordered monomials,
6. chart point maps are injective (forward/inverse round trips),
7. set parametrisation covers on-set samples and never claims off-set points,
8. implicit solving and unit roots verify by back-substitution,
9. the CLI output is byte-identical across runs and thread counts.
"""

from fractions import Fraction
import random
import time

from gpseries.series import (
    Series,
    Signature,
    evaluate,
    insert_y,
    substitute_y,
)
from gpseries.transforms import (
    INF,
    NEG_INF,
    BlowUpXX,
    BlowUpYX,
    BlowUpYY,
    Linear,
    RamifyX,
    RamifyY,
    SignChart,
    Tschirnhausen,
    forward_chain,
    inverse_chain,
)
from gpseries.division import solve_implicit, unit_root, weierstrass_divide
from gpseries.monomialize import division_chain, monomialize
from gpseries.geometry import covering_fraction_for, parametrize_basic, piece_covers
from gpseries.parser import parse_basic_set
from gpseries.cli import main

from conftest import ps, random_series, random_unit

SIG11 = Signature(1, 1)


def _variants():
    """One representative of every transform family and chart type."""
    h = ps("x1 + x1^2", 1, 0)
    return [
        (BlowUpXX(2, 1, 0), Signature(2, 1)),
        (BlowUpXX(2, 1, Fraction(1, 2)), Signature(2, 1)),
        (BlowUpXX(2, 1, INF), Signature(2, 1)),
        (BlowUpYX(1, 1, Fraction(1, 2)), SIG11),
        (BlowUpYX(1, 1, 0), SIG11),
        (BlowUpYX(1, 1, INF), SIG11),
        (BlowUpYX(1, 1, NEG_INF), SIG11),
        (BlowUpYY(1, 2, Fraction(2)), Signature(1, 2)),
        (BlowUpYY(1, 2, INF), Signature(1, 2)),
        (Tschirnhausen(h), SIG11),
        (Linear(2, (Fraction(-1),)), Signature(0, 2)),
        (RamifyX(1, Fraction(1, 2)), SIG11),
        (RamifyX(1, Fraction(3)), SIG11),
        (RamifyY(1, 2, -1), SIG11),
        (SignChart(1, -1), SIG11),
    ]


def test_1_pullbacks_are_ring_homomorphisms():
    # 1000 random (transform, f, g) cases; exact equality modulo the shared
    # certified precision; budget 30 s
    rng = random.Random(20260826)
    variants = _variants()
    start = time.monotonic()
    cases = 0
    while cases < 1000:
        t, sig = variants[cases % len(variants)]
        f = random_series(rng, sig, nterms=3, fractional_x=False)
        g = random_series(rng, sig, nterms=3, fractional_x=False)
        pf, pg = t.pullback(f), t.pullback(g)
        assert t.pullback(f + g).eq_mod_precision(pf + pg), t.describe()
        assert t.pullback(f * g).eq_mod_precision(pf * pg), t.describe()
        cases += 1
    assert time.monotonic() - start < 30.0


def test_2_pullbacks_match_point_map_composition():
    # every variant, 100 sample points each, over a fresh random series per
    # point; numeric agreement within the summed truncation tail bounds plus
    # 1e-9 float slack; budget 60 s
    rng = random.Random(777)
    start = time.monotonic()
    for t, up_sig in _variants():
        down_sig = t.result_sig(up_sig)
        for _ in range(100):
            f = random_series(rng, up_sig, nterms=3, fractional_x=False)
            g = t.pullback(f)
            q = [rng.uniform(0, 0.05) for _ in range(down_sig.m)]
            q += [rng.uniform(-0.05, 0.05) for _ in range(down_sig.n)]
            p = t.forward_point_sig(q, up_sig)
            ev_up = evaluate(f, p)
            ev_down = evaluate(g, q)
            # terms of f that fall past g's (possibly smaller) precision are
            # kept upstream but dropped downstream; bound their value too
            norm_q = max((abs(float(v)) for v in q), default=0.0)
            csum_f = float(sum(abs(c) for c in f.terms.values()))
            cross = csum_f * norm_q ** float(g.precision) if norm_q > 0 else 0.0
            tol = float(ev_up.tail_bound) + float(ev_down.tail_bound) + cross + 1e-9
            assert abs(float(ev_up.value) - float(ev_down.value)) <= tol, (
                t.describe(),
                q,
            )
    assert time.monotonic() - start < 60.0


def _random_regular(rng, d, prec=8):
    terms = {((Fraction(0),), (d,)): Fraction(rng.choice([1, 2, -1]))}
    for _ in range(3):
        terms[((Fraction(rng.randint(1, 3)),), (rng.randint(0, d - 1),))] = Fraction(
            rng.randint(-3, 3)
        )
    for _ in range(2):
        terms[((Fraction(0),), (d + rng.randint(1, 2),))] = Fraction(
            rng.randint(-2, 2)
        )
    return Series(SIG11, terms, Fraction(prec))


def test_3_weierstrass_division_identity():
    # 500 random divisions with regular order d <= 4; exact identity
    # f = Q*g + R modulo the certified precision and deg_y1 R < d; budget 60 s
    rng = random.Random(31337)
    start = time.monotonic()
    for _ in range(500):
        d = rng.randint(1, 4)
        g = _random_regular(rng, d)
        f = random_series(rng, SIG11, nterms=4, fractional_x=False)
        res = weierstrass_divide(f, g, d)
        recomposed = res.quotient * g + res.remainder
        assert recomposed.eq_mod_precision(f.truncate(recomposed.precision))
        assert all(ys[0] < d for (_, ys) in res.remainder.terms)
    assert time.monotonic() - start < 60.0


CORPUS = [
    ("y1^2 - x1^2", 1, 1),
    ("y1^2 - x1^3", 1, 1),
    ("y1^2 - x1^2*y1 - x1^3", 1, 1),
    ("x1^(1/2) + x1^(2/3)*y1", 1, 1),
    ("x1^2*x2 + x1*x2^3", 2, 0),
    ("(1 + y1) * x1^(5/2)", 1, 1),
]


def test_4_monomialization_corpus_all_leaves_normal():
    # 6 named inputs plus 10 random sparse (1,1)-series at precision 8; on
    # every branch the exact pullback must be a monomial times a unit (or the
    # zero series); budget 5 min
    start = time.monotonic()
    inputs = [ps(t, m, n) for t, m, n in CORPUS]
    rng = random.Random(12345)
    while len(inputs) < 16:
        s = random_series(rng, SIG11, nterms=3, max_den=2)
        if not s.is_zero():
            inputs.append(s)
    for f in inputs:
        report = monomialize(f)
        for leaf in report.leaf_results():
            assert leaf.kind == "zero" or leaf.monomial is not None, (f, leaf.chain)
    assert time.monotonic() - start < 300.0


def test_5_division_chains_order_every_branch():
    # simultaneous monomialisation of each input family; on every branch all
    # nonzero factors are normal and their monomials form a division chain
    # (the result constructor rejects unordered leaves, so reaching the
    # assertions below means the ordering held everywhere)
    families = [
        ["y1^2 - x1^2", "x1", "y1"],
        ["y1^2 - x1^3", "y1 - x1", "x1^2"],
        ["x1 + y1", "x1 - y1", "x1*y1"],
    ]
    for texts in families:
        inputs = [ps(t, 1, 1) for t in texts]
        res = division_chain(inputs)
        assert res.leaves
        for leaf in res.leaves:
            assert all(fac["kind"] in ("normal", "zero") for fac in leaf["factors"])
    rng = random.Random(4242)
    for _ in range(5):
        inputs = [
            random_series(rng, SIG11, nterms=2, fractional_x=False) for _ in range(2)
        ]
        if any(s.is_zero() for s in inputs):
            continue
        res = division_chain(inputs)
        for leaf in res.leaves:
            assert all(fac["kind"] in ("normal", "zero") for fac in leaf["factors"])


def test_6_point_maps_are_injective_on_charts():
    # 200 spot checks: forward then inverse returns the point to 1e-9, and
    # distinct points map to distinct images; budget 10 s
    rng = random.Random(606)
    chains = [
        [BlowUpYX(1, 1, Fraction(1, 2))],
        [BlowUpYX(1, 1, Fraction(1, 2)), Tschirnhausen(ps("x1^2", 1, 0))],
        [RamifyX(1, Fraction(1, 2)), Tschirnhausen(ps("x1", 1, 0))],
        [Linear(2, (Fraction(1),))],
    ]
    sigs = [SIG11, SIG11, SIG11, Signature(0, 2)]
    start = time.monotonic()
    for chain, sig in zip(chains, sigs):
        for _ in range(50):
            q1 = [rng.uniform(1e-4, 0.05) for _ in range(sig.m)]
            q1 += [rng.uniform(-0.05, 0.05) for _ in range(sig.n)]
            q2 = [v + rng.uniform(0.001, 0.01) for v in q1]
            p1 = forward_chain(chain, q1, sig)
            p2 = forward_chain(chain, q2, sig)
            assert max(abs(a - b) for a, b in zip(p1, p2)) > 1e-12
            back = inverse_chain(chain, p1, sig)
            assert back is not None
            assert max(abs(a - b) for a, b in zip(back, q1)) < 1e-9
    assert time.monotonic() - start < 10.0


def test_7_parametrization_covers_cone_and_cusp():
    # 10^4 samples split between the two sets; covering fraction >= 0.99 on
    # on-set points and zero false claims on off-set points at relative
    # round-trip tolerance 1e-3; budget 2 min
    start = time.monotonic()
    rng = random.Random(9001)

    cone = parse_basic_set(
        "y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0", SIG11, Fraction(8)
    )
    param = parametrize_basic(cone)
    on = [[t, t] for t in (rng.uniform(1e-4, 0.01) for _ in range(2500))]
    assert covering_fraction_for(param, on, SIG11, tol=1e-3) >= 0.99
    for _ in range(2500):
        x = rng.uniform(1e-3, 0.01)
        y = x * rng.choice([0.5, 2.0, -1.0])
        assert not any(piece_covers(p, [x, y], SIG11, tol=1e-3) for p in param.pieces)

    cusp = parse_basic_set("y1^2 - x1^3 = 0 & x1 > 0", SIG11, Fraction(8))
    param = parametrize_basic(cusp)
    on = []
    for _ in range(2500):
        x = rng.uniform(1e-4, 0.01)
        on.append([x, rng.choice([1.0, -1.0]) * x**1.5])
    assert covering_fraction_for(param, on, SIG11, tol=1e-3) >= 0.99
    for _ in range(2500):
        x = rng.uniform(1e-3, 0.01)
        y = rng.choice([2.0, -0.5]) * x**1.5
        assert not any(piece_covers(p, [x, y], SIG11, tol=1e-3) for p in param.pieces)

    assert time.monotonic() - start < 120.0


def test_8_implicit_solutions_and_roots_verify():
    # 100 cases: substituting the implicit solution kills the series exactly,
    # and k-th unit roots recompose to the unit exactly, both modulo the
    # certified precision; budget 30 s
    rng = random.Random(888)
    start = time.monotonic()
    for _ in range(50):
        terms = {((Fraction(0),), (1,)): Fraction(rng.choice([1, -1, 2]))}
        for _ in range(3):
            xdeg = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            terms[((xdeg,), (rng.randint(0, 3),))] = Fraction(rng.randint(-3, 3))
        terms[((Fraction(0),), (rng.randint(2, 3),))] = Fraction(rng.randint(-2, 2))
        g = Series(SIG11, terms, Fraction(6))
        a = solve_implicit(g)
        residual = substitute_y(g, {1: insert_y(a, 1)})
        assert residual.is_zero(), (g, a)
    for _ in range(50):
        k = rng.randint(2, 3)
        u = random_unit(rng, SIG11, nterms=3)
        # force the constant term to an exact k-th power
        zero_exp = ((Fraction(0),), (0,))
        terms = dict(u.terms)
        terms[zero_exp] = Fraction(rng.randint(1, 3)) ** k
        u = Series(SIG11, terms, u.precision)
        v = unit_root(u, k)
        power = v
        for _ in range(k - 1):
            power = power * v
        assert power.eq_mod_precision(u.truncate(power.precision)), (u, k)
    assert time.monotonic() - start < 30.0


def test_9_cli_output_is_deterministic(tmp_path, capsys):
    # fixed seed, varying thread hints: the JSON must be byte-identical
    path = tmp_path / "in.txt"
    path.write_text("vars x:1 y:1\ny1^2 - x1^2*y1 - x1^3;\n")
    outputs = []
    for threads in ("1", "4", "8"):
        rc = main(
            ["monomialize", str(path), "--json", "--seed", "7", "--threads", threads]
        )
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    # repeated runs agree too
    rc = main(["monomialize", str(path), "--json", "--seed", "7"])
    assert rc == 0
    assert capsys.readouterr().out == outputs[0]
