"""Elementary coordinate transforms: pullback oracles, point maps, JSON."""

from fractions import Fraction
import hashlib
import json
import math
import random

import pytest

from gpseries.series import Series, SeriesError, Signature, evaluate
from gpseries.transforms import (
    INF,
    NEG_INF,
    BlowUpXX,
    BlowUpYX,
    BlowUpYY,
    Linear,
    NeedsRamification,
    RamifyX,
    RamifyY,
    SignChart,
    Tschirnhausen,
    TransformError,
    chain_sigs,
    chain_to_json,
    forward_chain,
    inverse_chain,
    pullback_chain,
    transform_from_json,
)
from gpseries.trees import tree_from_json
from conftest import ps, random_series

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)


# -- signature bookkeeping --------------------------------------------------------


def test_result_signatures():
    assert BlowUpXX(2, 1, 0).result_sig(SIG21) == SIG21
    assert BlowUpXX(2, 1, 1).result_sig(SIG21) == Signature(1, 2)
    assert BlowUpYX(1, 1, INF).result_sig(SIG11) == Signature(2, 0)
    assert BlowUpYX(1, 1, Fraction(1, 2)).result_sig(SIG11) == SIG11
    assert RamifyX(1, Fraction(1, 2)).result_sig(SIG11) == SIG11
    assert Linear(2, (Fraction(2),)).result_sig(Signature(0, 2)) == Signature(0, 2)


def test_chain_sigs():
    chain = [BlowUpYX(1, 1, INF), BlowUpXX(2, 1, 0)]
    sigs = chain_sigs(chain, SIG11)
    assert sigs == [SIG11, Signature(2, 0), Signature(2, 0)]


# -- pullback oracles ------------------------------------------------------------


def test_blowup_yx_finite_oracle():
    # y1 <- x1*(1 + y1) applied to y1^2 - x1^2 gives x1^2*(2*y1 + y1^2)
    f = ps("y1^2 - x1^2", 1, 1)
    g = BlowUpYX(1, 1, 1).pullback(f)
    assert g.eq_mod_precision(ps("2*x1^2*y1 + x1^2*y1^2", 1, 1))


def test_blowup_yx_zero_chart_oracle():
    # lambda = 0: y1 <- x1*y1
    f = ps("y1^2 - x1^2", 1, 1)
    g = BlowUpYX(1, 1, 0).pullback(f)
    assert g.eq_mod_precision(ps("x1^2*y1^2 - x1^2", 1, 1))


def test_blowup_yx_infinity_chart_oracle():
    # y1 becomes a new nonnegative variable x2; y1 <- x2, x1 <- x2*x1
    f = ps("y1^2 - x1^2", 1, 1)
    g = BlowUpYX(1, 1, INF).pullback(f)
    assert g.sig == Signature(2, 0)
    assert g.eq_mod_precision(ps("x2^2 - x2^2*x1^2", 2, 0))


def test_blowup_xx_zero_chart_oracle():
    # x2 <- x1*x2
    f = ps("x1^2*x2 + x1*x2^3", 2, 0)
    g = BlowUpXX(2, 1, 0).pullback(f)
    assert g.eq_mod_precision(ps("x1^3*x2 + x1^4*x2^3", 2, 0))


def test_blowup_xx_finite_chart_oracle():
    # x2 <- x2*(1 + y1), x1 <- x2*x1 on x1*x2 over (2,0) -> (1,1)
    f = ps("x1*x2", 2, 0)
    g = BlowUpXX(2, 1, 1).pullback(f)
    assert g.sig == Signature(1, 1)
    assert g.eq_mod_precision(ps("x1^2 + x1^2*y1", 1, 1))


def _lambda_chart_reference(t, f):
    """``(full, cut, loop)``: f pulled back through the finite chart ``src <-
    tgt * (lam + v)`` by the full binomial expansion of ``(lam + v)^b``, that
    expansion cut at f's precision, and the loop over ``Fraction``
    coefficients that expands each term only below the first ``k`` at or past
    the precision, a sum that reaches 0 keeping its slot until the end."""
    m = f.sig.m
    sig2 = t.result_sig(f.sig)
    if isinstance(t, BlowUpXX):  # v is a new first y-variable
        s, tgt, v = t.i - 1, t.j - 1, sig2.m
    else:
        s = m + t.i - 1
        tgt, v = (t.j - 1 if isinstance(t, BlowUpYX) else m + t.j - 1), s
    terms, loop = {}, {}
    for (xs, ys), c in f.terms.items():
        e = list(xs + ys)
        deg = sum(e)
        b = int(e.pop(s))
        e[tgt if tgt < s else tgt - 1] += b
        for k in range(b + 1):
            img = e[:v] + [k] + e[v:]
            key = (tuple(img[: sig2.m]), tuple(img[sig2.m :]))
            coeff = c * math.comb(b, k) * t.lam ** (b - k)
            terms[key] = terms.get(key, 0) + coeff
            if deg + k < f.precision:
                loop[key] = loop.get(key, Fraction(0)) + coeff
    full = Series(sig2, terms, 10**6)
    kept = Series._trusted(sig2, {key: c for key, c in loop.items() if c}, f.precision)
    return full, full.truncate(f.precision), kept


_FINITE_LAMS = (-2, Fraction(1, 2), 3, Fraction(-5, 7), Fraction(7, 4), Fraction(-2, 3))


@pytest.mark.parametrize(
    "t, sig",
    [(BlowUpXX(2, 1, lam), sig) for lam in _FINITE_LAMS if lam > 0
     for sig in (SIG21, Signature(2, 2))]
    + [(BlowUpYX(i, 1, lam), sig) for lam in _FINITE_LAMS
       for i, sig in ((1, SIG11), (2, Signature(1, 2)))]
    + [(BlowUpYY(i, j, lam), sig) for lam in _FINITE_LAMS
       for i, j, sig in ((1, 2, Signature(1, 2)), (2, 1, Signature(0, 2)))],
    ids=repr,
)
def test_lambda_chart_pullback_is_the_cut_full_expansion(t, sig):
    # coefficient denominators up to 7 against lam's denominator q: the
    # pullback sums over L * q^B
    rng = random.Random(7)
    dropped = 0
    for _ in range(60):
        f = random_series(rng, sig, Fraction(rng.randint(2, 4 * sum(sig)), rng.choice([1, 2])),
                          nterms=rng.randint(0, 7), coeff_den=7)
        if isinstance(t, BlowUpXX):  # the source x_i needs a natural exponent
            f = Series(sig, {(xs[:1] + (int(xs[1]),), ys): c for (xs, ys), c in f.terms.items()},
                       f.precision)
        full, want, loop = _lambda_chart_reference(t, f)
        got = t.pullback(f)
        assert list(got.terms.items()) == list(want.terms.items()), (t, f)
        assert list(got.terms.items()) == list(loop.terms.items()), (t, f)
        assert [tuple(map(type, xs)) for xs, _ in got.terms] == [
            tuple(map(type, xs)) for xs, _ in loop.terms]
        assert got.precision == want.precision and got.sig == want.sig
        dropped += len(full.terms) - len(want.terms)
    assert dropped > 10


def test_lambda_chart_raises_at_the_first_fractional_source():
    # the message names the first fractional exponent in term order
    f = Series(Signature(2, 0), {((1, 2), ()): Fraction(1, 7), ((0, Fraction(3, 2)), ()): 1,
                                 ((1, Fraction(1, 2)), ()): 2}, 8)
    with pytest.raises(NeedsRamification,
                       match=r"^x2-exponent 3/2 is fractional; ramify before the lambda chart$"):
        BlowUpXX(2, 1, Fraction(7, 4)).pullback(f)


def _one_term_reference(t, f):
    """``(terms, precision)``: f pulled back through a chart that sends each
    monomial to one monomial, by building every image key, summing the
    coefficients into a dict and then dropping zero sums and images at or
    past the precision."""
    m = f.sig.m
    sig2 = t.result_sig(f.sig)
    prec = f.precision * min(1, t.gamma) if isinstance(t, RamifyX) else f.precision
    terms = {}
    for (xs, ys), c in f.terms.items():
        e = list(xs + ys)
        sign = 1
        if isinstance(t, (BlowUpXX, BlowUpYY)) or isinstance(t, BlowUpYX) and t.lam == 0:
            i, j = (t.j, t.i) if t.lam == INF else (t.i, t.j)  # x_i <- x_j * x_i
            src = 0 if isinstance(t, BlowUpXX) else m
            tgt = m if isinstance(t, BlowUpYY) else 0
            e[tgt + j - 1] += e[src + i - 1]
        elif isinstance(t, (BlowUpYX, SignChart)):  # y_i <- +-x_new, x_j <- x_new * x_j
            b = e.pop(m + t.i - 1)
            if isinstance(t, BlowUpYX):
                sign, b_new = (1 if t.lam == INF else -1), b + xs[t.j - 1]
            else:
                sign, b_new = t.sign, b
            e.insert(m, b_new)
            sign = sign**b
        elif isinstance(t, RamifyX):
            e[t.i - 1] *= t.gamma
        else:
            b = e[m + t.i - 1]
            e[m + t.i - 1] = b * t.d
            sign = t.sign**b
        e = [Fraction(v) for v in e]
        e = [v.numerator if v.denominator == 1 else v for v in e]
        key = (tuple(e[: sig2.m]), tuple(e[sig2.m :]))
        terms[key] = terms.get(key, Fraction(0)) + c * sign
    return {k: c for k, c in terms.items() if c and sum(k[0]) + sum(k[1]) < prec}, prec


def _one_term_charts(sig):
    m, n = sig
    out = []
    for i in range(1, m + 1):
        out += [BlowUpXX(i, j, lam) for j in range(1, m + 1) if j != i for lam in (0, INF)]
        out += [RamifyX(i, gamma) for gamma in (Fraction(1, 2), Fraction(2, 3), Fraction(3))]
    for i in range(1, n + 1):
        out += [BlowUpYY(i, j, lam) for j in range(1, n + 1) if j != i for lam in (0, INF)]
        out += [BlowUpYX(i, j, lam) for j in range(1, m + 1) for lam in (0, INF, NEG_INF)]
        out += [SignChart(i, sign) for sign in (1, -1)]
        out += [RamifyY(i, d, sign) for d in (2, 3) for sign in (1, -1)]
    return out


@pytest.mark.parametrize("sig", [SIG21, Signature(1, 2), Signature(2, 2)], ids=str)
def test_one_term_pullback_is_the_pruned_image(sig):
    # the charts build only the images below the precision; each must equal
    # the full build-then-prune loop in terms, dict order and precision
    rng = random.Random(23)
    for t in _one_term_charts(sig):
        cut = 0
        for _ in range(30):
            f = random_series(rng, sig, Fraction(rng.randint(2, 4 * sum(sig)), rng.choice([1, 2])),
                              nterms=rng.randint(0, 7), max_den=3)
            want, prec = _one_term_reference(t, f)
            got = t.pullback(f)
            assert list(got.terms.items()) == list(want.items()), (t, f)
            assert [tuple(map(type, xs)) for xs, _ in got.terms] == [
                tuple(map(type, xs)) for xs, _ in want
            ]
            assert got.precision == prec and got.sig == t.result_sig(sig)
            cut += len(f.terms) - len(want)
        if not isinstance(t, SignChart) and not (isinstance(t, RamifyX) and t.gamma < 1):
            assert cut > 0, t  # the chart raises degrees: some images are cut


def test_blowup_xx_finite_needs_natural_exponents():
    f = ps("x2^(1/2)", 2, 0)
    with pytest.raises(NeedsRamification):
        BlowUpXX(2, 1, 1).pullback(f)


def test_tschirnhausen_oracle():
    # y1 <- y1 + x1 applied to y1^2
    h = ps("x1", 1, 0)
    f = ps("y1^2", 1, 1)
    g = Tschirnhausen(h).pullback(f)
    assert g.eq_mod_precision(ps("y1^2 + 2*x1*y1 + x1^2", 1, 1))


def test_linear_oracle():
    # shear y1 <- y1 + 2*y2 over (0,2)
    f = ps("y1", 0, 2)
    g = Linear(2, (Fraction(2),)).pullback(f)
    assert g.eq_mod_precision(ps("y1 + 2*y2", 0, 2))


def test_ramify_x_oracle():
    f = ps("x1^(1/2)", 1, 0)
    g = RamifyX(1, Fraction(2)).pullback(f)
    assert g.eq_mod_precision(ps("x1", 1, 0))


def test_ramify_x_pullback_precision():
    f = ps("x1 + x1^3", 1, 0)
    assert RamifyX(1, Fraction(1, 2)).pullback(f).precision == f.precision / 2
    assert RamifyX(1, Fraction(3)).pullback(f).precision == f.precision


def test_tschirnhausen_pullback_precision():
    f = ps("y1 + x1", 1, 1)
    h = ps("x1^(1/2)", 1, 0)
    assert Tschirnhausen(h).pullback(f).precision == f.precision / 2
    assert Tschirnhausen(ps("x1^2", 1, 0)).pullback(f).precision == f.precision


def test_equal_tschirnhausen_transforms_hash_equal():
    a, b = Tschirnhausen(ps("x1 + x1^2", 1, 0)), Tschirnhausen(ps("x1^2 + x1", 1, 0))
    assert a == b and hash(a) == hash(b)
    others = [Tschirnhausen(ps("x1", 1, 0)), Tschirnhausen(ps("x1", 1, 0), j=1)]
    assert len({a, b, *others}) == 3


def test_tschirnhausen_json_with_a_fractional_centre_below_precision_one():
    t = Tschirnhausen(ps("x1^(1/2)", 1, 0, prec=1))
    assert transform_from_json(t.to_json()) == t


def test_sign_chart_oracle():
    # y1 <- -x2: the y-variable becomes a new nonnegative x-variable
    f = ps("y1 + y1^2", 1, 1)
    g = SignChart(1, -1).pullback(f)
    assert g.sig == Signature(2, 0)
    assert g.eq_mod_precision(ps("-x2 + x2^2", 2, 0))


def test_ramify_y_oracle():
    f = ps("y1", 1, 1)
    g = RamifyY(1, 2, 1).pullback(f)
    assert g.eq_mod_precision(ps("y1^2", 1, 1))


# -- numeric consistency: pullback vs composition ----------------------------------


def _variants():
    h = ps("x1 + x1^2", 1, 0)
    return [
        (BlowUpXX(2, 1, 0), SIG21),
        (BlowUpXX(2, 1, Fraction(1, 2)), SIG21),
        (BlowUpXX(2, 1, INF), SIG21),
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


def _sample(rng, sig, radius=0.05):
    p = [rng.uniform(0, radius) for _ in range(sig.m)]
    p += [rng.uniform(-radius, radius) for _ in range(sig.n)]
    return p


def test_pullback_matches_composition_numerically():
    rng = random.Random(42)
    for t, up_sig in _variants():
        # f lives upstream; the pullback lives downstream on the chart
        down_sig = t.result_sig(up_sig)
        for _ in range(10):
            f = random_series(rng, up_sig, nterms=3, fractional_x=False)
            g = t.pullback(f)
            q = _sample(rng, down_sig)
            p = t.forward_point_sig(q, up_sig)
            ev_up = evaluate(f, p)
            ev_down = evaluate(g, q)
            tol = float(ev_up.tail_bound) + float(ev_down.tail_bound) + 1e-9
            assert abs(float(ev_up.value) - float(ev_down.value)) <= tol, (
                t.describe(),
                q,
            )


@pytest.mark.parametrize(
    "t, sig",
    [(BlowUpXX(2, 1, INF), SIG21), (BlowUpYY(1, 2, INF), Signature(1, 2))],
    ids=["xx", "yy"],
)
def test_infinity_chart_is_the_swapped_zero_chart(t, sig):
    swapped = type(t)(t.j, t.i, 0)
    rng = random.Random(11)
    for _ in range(10):
        f = random_series(rng, sig, nterms=4)
        assert t.pullback(f) == swapped.pullback(f)
    dim = sig.m + sig.n
    points = [_sample(rng, sig) for _ in range(5)]
    points += [[Fraction(rng.randint(-9, 9), 7) for _ in range(dim)] for _ in range(5)]
    points += [[Fraction(0)] * dim, [0.0] * dim]
    for p in points:
        assert t.forward_point_sig(p, sig) == swapped.forward_point_sig(p, sig)
        assert t.inverse_point(p, sig) == swapped.inverse_point(p, sig)
    kind = swapped.to_json()["kind"]
    assert t.to_json() == {"kind": kind, "i": t.i, "j": t.j, "lam": "inf"}


def _map_points(rng, sig):
    """Float, Fraction, int and mixed points over ``sig``: x >= 0, y of either
    sign; a mixed point is a float point with one entry set to ``Fraction(0)``,
    ``0`` or ``-0.0``."""
    dim = sig.m + sig.n
    floats = [_sample(rng, sig) for _ in range(6)]
    fracs = [
        [Fraction(rng.randint(0 if k < sig.m else -9, 9), 7) for k in range(dim)]
        for _ in range(4)
    ]
    ints = [[rng.randint(0 if k < sig.m else -2, 2) for k in range(dim)] for _ in range(3)]
    mixed = [
        p[:k] + [zero] + p[k + 1 :]
        for p in floats[:2]
        for k in range(dim)
        for zero in (Fraction(0), 0, -0.0)
    ]
    return floats + fracs + ints + mixed


# recorded on the point maps that combined float coordinates with the exact
# chart constants through Fraction's operators
PINNED_POINT_MAP_SHA256 = "2b7f1fb4e843cb4fb034330242bc1b3569a188bf9deca425033f65f25b201199"


def _point_map_digest(variants, seed):
    """sha256 over the type names and reprs of every forward and inverse
    image of ``_map_points`` under each ``(transform, upstream sig)``."""
    rng = random.Random(seed)
    lines = []
    for t, up_sig in variants:
        for name, sig, apply in (
            ("forward", t.result_sig(up_sig), t.forward_point_sig),
            ("inverse", up_sig, t.inverse_point),
        ):
            for p in _map_points(rng, sig):
                q = apply(p, up_sig)
                out = None if q is None else [(type(v).__name__, v) for v in q]
                lines.append(repr((t.describe(), name, p, out)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_point_map_bits_are_pinned():
    # a float coordinate must meet the float value of each exact chart
    # constant, and an exact coordinate the exact one: same types, same bits
    variants = _variants() + [
        (Tschirnhausen(ps("x1*y1 - 2/3*y1^2", 1, 1)), Signature(1, 2)),
        (Tschirnhausen(ps("x1^(1/2) + 1/3*x1", 1, 0)), SIG11),
    ]
    assert _point_map_digest(variants, 2024) == PINNED_POINT_MAP_SHA256


# recorded like PINNED_POINT_MAP_SHA256, on blow-up charts whose source,
# target and chart variable are not neighbours, at every kind of lam
PINNED_WIDE_POINT_MAP_SHA256 = "496b380610b3d5084d54bd0b068e804decd10ef2e294aa5a25c660be7226a604"


def test_wide_blowup_point_map_bits_are_pinned():
    sig31, sig13, sig22 = Signature(3, 1), Signature(1, 3), Signature(2, 2)
    variants = [
        (BlowUpXX(3, 1, 0), sig31),
        (BlowUpXX(1, 3, 0), sig31),
        (BlowUpXX(3, 1, Fraction(3, 2)), sig31),
        (BlowUpXX(3, 2, Fraction(1, 3)), sig31),
        (BlowUpXX(3, 1, INF), sig31),
        (BlowUpYY(3, 1, 0), sig13),
        (BlowUpYY(1, 3, Fraction(-1, 3)), sig13),
        (BlowUpYY(3, 2, Fraction(2)), sig13),
        (BlowUpYY(2, 3, INF), sig13),
        (BlowUpYX(2, 1, 0), sig22),
        (BlowUpYX(1, 2, Fraction(-3, 7)), sig22),
    ]
    assert _point_map_digest(variants, 2025) == PINNED_WIDE_POINT_MAP_SHA256


def _one_term_variants():
    """``SignChart``, ``BlowUpYX`` at +-inf, ``RamifyY``, ``RamifyX`` and
    ``Linear`` at every index over four signatures, with their upstream sig."""
    out = []
    for sig in (Signature(1, 2), Signature(2, 2), Signature(1, 3), Signature(0, 3)):
        m, n = sig
        for i in range(1, n + 1):
            out += [(SignChart(i, sign), sig) for sign in (1, -1)]
            out += [(BlowUpYX(i, j, lam), sig) for j in range(1, m + 1) for lam in (INF, NEG_INF)]
            out += [(RamifyY(i, d, sign), sig) for d, sign in ((2, -1), (3, 1), (3, -1))]
            c = tuple(Fraction((-1) ** k * (k + 2), 3) for k in range(i - 1))
            out.append((Linear(i, c), sig))
        for i in range(1, m + 1):
            out += [(RamifyX(i, gamma), sig) for gamma in (Fraction(1, 2), Fraction(3))]
    return out


# recorded on the point maps written one class at a time
PINNED_ONE_TERM_POINT_MAP_SHA256 = "a76cd815bc4ed260f2d790fd4d7dc3c72f223e0a650816fc04d6b71e40ac213e"


def test_one_term_point_maps_at_every_index():
    # every y-index, not only the last: a point map that puts y_i one slot
    # off disagrees with the pullback and changes the pinned images
    rng = random.Random(31)
    variants = _one_term_variants()
    for t, up_sig in variants:
        down_sig = t.result_sig(up_sig)
        for _ in range(4):
            # no image reaches the pullback's precision, so the two values
            # differ by the tails and rounding only
            f = random_series(rng, up_sig, prec=40, nterms=4)
            g = t.pullback(f)
            q = _sample(rng, down_sig)
            ev_up = evaluate(f, t.forward_point_sig(q, up_sig))
            ev_down = evaluate(g, q)
            tol = float(ev_up.tail_bound) + float(ev_down.tail_bound) + 1e-12
            assert abs(float(ev_up.value) - float(ev_down.value)) <= tol, (t, q)
            positive = [rng.uniform(0.01, 0.9) for _ in range(sum(down_sig))]
            back = t.inverse_point(t.forward_point_sig(positive, up_sig), up_sig)
            assert back == pytest.approx(positive, rel=1e-12), (t, positive)
    assert _point_map_digest(variants, 2026) == PINNED_ONE_TERM_POINT_MAP_SHA256


@pytest.mark.parametrize(
    "text, h_sig, j",
    [
        ("x1^9 - 2/3*x1^4 + 5/7*x1", Signature(1, 0), 0),
        ("x1^7*y1^2 - 3/5*y1^6 + 1/9*x1^2", Signature(1, 1), 0),
        ("x1^7*y1^2 - 3/5*y1^6 + 1/9*x1^2", Signature(1, 1), 1),
        ("x2^6*y1 - 5/3*x1^5*x2^2 + 2/7*x1*y1^4 + 1/11*x2^3", Signature(2, 1), 0),
    ],
)
def test_tschirnhausen_point_maps_add_the_centre_value(text, h_sig, j):
    # sparse, high-degree centres: a float point meets float(h(args)), the
    # exact value rounded once; an exact point stays exact
    h = ps(text, h_sig.m, h_sig.n, prec=16)
    t = Tschirnhausen(h, j)
    sig = Signature(h_sig.m, h_sig.n + 1)
    k = sig.m + (sig.n if j == 0 else j) - 1
    rng = random.Random(17)
    floats = [_sample(rng, sig, radius=0.9) for _ in range(20)]
    fracs = [
        [Fraction(rng.randint(0 if i < sig.m else -9, 9), 7) for i in range(len(p))]
        for p in floats[:10]
    ]
    for p in floats + fracs:
        exact = evaluate(h, p[:k] + p[k + 1 :]).value
        hval = float(exact) if isinstance(p[k], float) else exact
        for q, want in (
            (t.forward_point_sig(p, sig), p[k] + hval),
            (t.inverse_point(p, sig), p[k] - hval),
        ):
            assert q[:k] + q[k + 1 :] == p[:k] + p[k + 1 :]
            assert type(q[k]) is type(p[k])
            assert repr(q[k]) == repr(want)


def test_tschirnhausen_point_maps_reject_non_finite_points():
    t = Tschirnhausen(ps("x1^2", 1, 0))
    for apply in (t.forward_point_sig, t.inverse_point):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SeriesError, match="position 1"):
                apply([bad, 0.5], SIG11)


def test_tschirnhausen_point_maps_keep_a_finite_centre_past_the_floats():
    # h = x1^2*x2^(3/2) is 1e50 at (1e-200, 1e300), though x1^2 rounds to
    # 0.0 and x2^(3/2) overflows on the way
    t = [Tschirnhausen(ps("x1^2*x2^(3/2)", 2, 0))]
    sig, p = Signature(2, 1), [1e-200, 1e300, 0.5]
    for q, sign in ((forward_chain(t, p, sig), 1), (inverse_chain(t, p, sig), -1)):
        assert q[:2] == p[:2]
        assert math.isclose(q[2], sign * 1e50, rel_tol=1e-12)


def test_ramify_x_forward_map_rejects_a_negative_x_coordinate():
    t = RamifyX(1, Fraction(1, 2))
    for bad in (-0.25, Fraction(-1, 4)):
        with pytest.raises(TransformError, match="negative x-coordinate .* at position 1"):
            forward_chain([t], [bad, 1.0], SIG11)
        assert t.inverse_point([bad, 1.0], SIG11) is None
    # -0.0 is not negative: it maps to the exact 0
    assert forward_chain([t], [-0.0, 1.0], SIG11) == [Fraction(0), 1.0]


@pytest.mark.parametrize(
    "t, sig, forward_reads, inverse_reads",
    [
        (RamifyX(1, Fraction(1, 2)), SIG11, [1], [1]),
        (BlowUpYX(1, 1, Fraction(1, 2)), SIG11, [2, 1], [2, 1]),
        (BlowUpYX(1, 1, INF), SIG11, [1, 2], [2, 1]),
        (BlowUpYX(1, 1, NEG_INF), SIG11, [1, 2], [2]),
        (BlowUpXX(2, 1, 0), Signature(2, 0), [2, 1], [2, 1]),
        (BlowUpXX(2, 1, Fraction(1, 2)), Signature(2, 0), [2, 1], [2, 1]),
        (BlowUpXX(2, 1, INF), Signature(2, 0), [1, 2], [1, 2]),
        (RamifyY(1, 2, -1), SIG11, [2], [2]),
        (RamifyY(1, 3), SIG11, [2], [2]),
        (SignChart(1, -1), SIG11, [2], [2]),
        (BlowUpYY(1, 2, Fraction(1, 2)), Signature(0, 2), [1, 2], [1, 2]),
        (Linear(2, (Fraction(-1),)), Signature(0, 2), [2, 1], [2, 1]),
        (Tschirnhausen(ps("x1^2", 1, 0)), SIG11, [2], [2]),
    ],
    ids=lambda v: repr(v)[:40],
)
def test_point_maps_reject_a_nan_coordinate(t, sig, forward_reads, inverse_reads):
    # a NaN that a map reads raises, naming its position, instead of passing on
    for apply, reads in ((t.forward_point_sig, forward_reads), (t.inverse_point, inverse_reads)):
        for pos in reads:
            p = [0.5, 0.25]
            p[pos - 1] = math.nan
            with pytest.raises(TransformError, match=f"coordinate nan at position {pos} is not a number"):
                apply(p, sig)


def test_forward_inverse_roundtrip():
    rng = random.Random(7)
    chain = [BlowUpYX(1, 1, Fraction(1, 2)), Tschirnhausen(ps("x1^2", 1, 0))]
    for _ in range(25):
        q = _sample(rng, SIG11)
        p = forward_chain(chain, q, SIG11)
        back = inverse_chain(chain, p, SIG11)
        assert back is not None
        assert max(abs(a - b) for a, b in zip(back, q)) < 1e-9


def test_xx_lambda_chart_maps_a_source_before_the_last_x():
    # x2 <- x1*(1/2 + y1') over (3,1): x2 leaves the x-block from the middle
    # and the new y1' enters first among the y's, so both point maps move a
    # coordinate across x3
    t, sig = BlowUpXX(2, 1, Fraction(1, 2)), Signature(3, 1)
    down = t.result_sig(sig)
    assert down == Signature(2, 2)
    rng = random.Random(43)
    for _ in range(25):
        # integral exponents at a precision no image reaches: the pullback
        # drops no term, so both sides are the same exact rational
        f = random_series(rng, sig, prec=40, nterms=4, fractional_x=False)
        # x2 = x1*(1/2 + y1') must stay >= 0
        q = [Fraction(rng.randint(1, 9), 7) for _ in range(down.m)]
        q += [Fraction(rng.randint(-3, 9), 7), Fraction(rng.randint(-9, 9), 7)]
        p = t.forward_point_sig(q, sig)
        assert p[1] == q[0] * (Fraction(1, 2) + q[2])
        assert t.inverse_point(p, sig) == q
        assert evaluate(t.pullback(f), q).value == evaluate(f, p).value


def test_pullback_chain_names_the_failing_step():
    f = ps("y1 + x1*y1", 1, 1)
    with pytest.raises(TransformError, match=r"^step 2 \(.*\): indices \(1,2\) out of range"):
        pullback_chain([Linear(1, ()), BlowUpXX(1, 2, 0)], f)


def test_inverse_outside_chart_image():
    # the lambda = 1/2 chart only covers y/x near 1/2; a point with y/x = 50
    # has no preimage with small coordinates: its y-coordinate is 49.5
    t = BlowUpYX(1, 1, Fraction(1, 2))
    back = inverse_chain([t], [0.01, 0.5], SIG11)
    assert back == pytest.approx([0.01, 49.5], rel=1e-12)
    assert abs(back[1]) > 1
    # the zero chart cannot invert points with x = 0, y != 0
    assert inverse_chain([BlowUpYX(1, 1, 0)], [0.0, 0.3], SIG11) is None


def test_pullback_chain_order():
    # chain [t1, t2] computes the pullback along t1 first, then t2
    f = ps("y1", 1, 1)
    t1 = Tschirnhausen(ps("x1", 1, 0))
    t2 = Tschirnhausen(ps("x1^2", 1, 0))
    g = pullback_chain([t1, t2], f)
    assert g.eq_mod_precision(ps("y1 + x1 + x1^2", 1, 1))


# -- serialization ----------------------------------------------------------------


def test_transform_json_roundtrip():
    for t, _ in _variants():
        d = t.to_json()
        t2 = transform_from_json(d)
        assert type(t2) is type(t)
        assert t2.to_json() == d


# recorded before the transforms shared one JSON codec; the engine never
# emits RamifyY, SignChart or a Linear with two coefficients
PINNED_DESCRIBE = [
    '{"i":2,"j":1,"kind":"blowup_xx","lam":"0"}',
    '{"i":2,"j":1,"kind":"blowup_xx","lam":"1/2"}',
    '{"i":2,"j":1,"kind":"blowup_xx","lam":"inf"}',
    '{"i":1,"j":1,"kind":"blowup_yx","lam":"1/2"}',
    '{"i":1,"j":1,"kind":"blowup_yx","lam":"0"}',
    '{"i":1,"j":1,"kind":"blowup_yx","lam":"inf"}',
    '{"i":1,"j":1,"kind":"blowup_yx","lam":"-inf"}',
    '{"i":1,"j":2,"kind":"blowup_yy","lam":"2"}',
    '{"i":1,"j":2,"kind":"blowup_yy","lam":"inf"}',
    '{"h":"x1 + x1^2","h_prec":"8","h_sig":[1,0],"j":0,"kind":"tschirnhausen"}',
    '{"c":["-1"],"i":2,"kind":"linear"}',
    '{"gamma":"1/2","i":1,"kind":"ramify_x"}',
    '{"gamma":"3","i":1,"kind":"ramify_x"}',
    '{"d":2,"i":1,"kind":"ramify_y","sign":-1}',
    '{"i":1,"kind":"sign_chart","sign":-1}',
    '{"c":["1/2","0"],"i":3,"kind":"linear"}',
]


def test_transform_json_is_pinned():
    ts = [t for t, _ in _variants()] + [Linear(3, (Fraction(1, 2), Fraction(0)))]
    assert [t.describe() for t in ts] == PINNED_DESCRIBE
    for t, text in zip(ts, PINNED_DESCRIBE):
        assert transform_from_json(json.loads(text)) == t


@pytest.mark.parametrize(
    "d, field",
    [
        ({"kind": "blowup_xx", "i": 2, "j": 1}, "lam"),
        ({"kind": "ramify_y", "i": 1, "d": "2", "sign": 1}, "d"),
        ({"kind": "linear", "i": 2, "c": ["x"]}, "c"),
        ({"i": 2, "j": 1, "lam": "0"}, "kind"),
        ({"kind": "tschirnhausen", "h": "x1", "h_sig": [1, 0], "j": 0}, "h_prec"),
    ],
    ids=["missing-lam", "str-degree", "bad-coefficient", "no-kind", "no-h-prec"],
)
def test_malformed_transform_json_raises_transform_error(d, field):
    with pytest.raises(TransformError, match=repr(field)) as err:
        transform_from_json(d)
    assert str(err.value).startswith(d.get("kind", "transform"))
    with pytest.raises(TransformError):
        tree_from_json({"sig": [2, 1], "root": {"transform": d}})


def test_chain_json_roundtrip():
    chain = [t for t, _ in _variants()[:5]]
    data = chain_to_json(chain)
    back = [transform_from_json(d) for d in data]
    assert chain_to_json(back) == data


def test_validate_rejects_bad_indices():
    with pytest.raises(TransformError):
        BlowUpYX(2, 1, 0).pullback(ps("y1", 1, 1))
    with pytest.raises(TransformError):
        RamifyX(2, Fraction(2)).pullback(ps("x1", 1, 0))


def test_blowup_xx_rejects_negative_infinity():
    # "inf" is the swapped x-x chart; "-inf" names no chart of the family
    with pytest.raises(TransformError):
        BlowUpXX(2, 1, NEG_INF)
    with pytest.raises(TransformError):
        transform_from_json({"kind": "blowup_xx", "i": 2, "j": 1, "lam": "-inf"})
    assert BlowUpXX(2, 1, INF).pullback(ps("x1 + x2", 2, 0)).sig == Signature(2, 0)
