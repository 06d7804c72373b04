"""Elementary coordinate transforms: pullback oracles, point maps, JSON."""

from fractions import Fraction
import hashlib
import json
import random

import pytest

from gpseries.series import Signature, evaluate
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
    forward_point,
    inverse_chain,
    pullback,
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
    g = pullback(BlowUpYX(1, 1, 1), f)
    assert g.eq_mod_precision(ps("2*x1^2*y1 + x1^2*y1^2", 1, 1))


def test_blowup_yx_zero_chart_oracle():
    # lambda = 0: y1 <- x1*y1
    f = ps("y1^2 - x1^2", 1, 1)
    g = pullback(BlowUpYX(1, 1, 0), f)
    assert g.eq_mod_precision(ps("x1^2*y1^2 - x1^2", 1, 1))


def test_blowup_yx_infinity_chart_oracle():
    # y1 becomes a new nonnegative variable x2; y1 <- x2, x1 <- x2*x1
    f = ps("y1^2 - x1^2", 1, 1)
    g = pullback(BlowUpYX(1, 1, INF), f)
    assert g.sig == Signature(2, 0)
    assert g.eq_mod_precision(ps("x2^2 - x2^2*x1^2", 2, 0))


def test_blowup_xx_zero_chart_oracle():
    # x2 <- x1*x2
    f = ps("x1^2*x2 + x1*x2^3", 2, 0)
    g = pullback(BlowUpXX(2, 1, 0), f)
    assert g.eq_mod_precision(ps("x1^3*x2 + x1^4*x2^3", 2, 0))


def test_blowup_xx_finite_chart_oracle():
    # x2 <- x2*(1 + y1), x1 <- x2*x1 on x1*x2 over (2,0) -> (1,1)
    f = ps("x1*x2", 2, 0)
    g = pullback(BlowUpXX(2, 1, 1), f)
    assert g.sig == Signature(1, 1)
    assert g.eq_mod_precision(ps("x1^2 + x1^2*y1", 1, 1))


def test_blowup_xx_finite_needs_natural_exponents():
    f = ps("x2^(1/2)", 2, 0)
    with pytest.raises(NeedsRamification):
        pullback(BlowUpXX(2, 1, 1), f)


def test_tschirnhausen_oracle():
    # y1 <- y1 + x1 applied to y1^2
    h = ps("x1", 1, 0)
    f = ps("y1^2", 1, 1)
    g = pullback(Tschirnhausen(h), f)
    assert g.eq_mod_precision(ps("y1^2 + 2*x1*y1 + x1^2", 1, 1))


def test_linear_oracle():
    # shear y1 <- y1 + 2*y2 over (0,2)
    f = ps("y1", 0, 2)
    g = pullback(Linear(2, (Fraction(2),)), f)
    assert g.eq_mod_precision(ps("y1 + 2*y2", 0, 2))


def test_ramify_x_oracle():
    f = ps("x1^(1/2)", 1, 0)
    g = pullback(RamifyX(1, Fraction(2)), f)
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


def test_sign_chart_oracle():
    # y1 <- -x2: the y-variable becomes a new nonnegative x-variable
    f = ps("y1 + y1^2", 1, 1)
    g = pullback(SignChart(1, -1), f)
    assert g.sig == Signature(2, 0)
    assert g.eq_mod_precision(ps("-x2 + x2^2", 2, 0))


def test_ramify_y_oracle():
    f = ps("y1", 1, 1)
    g = pullback(RamifyY(1, 2, 1), f)
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
            g = pullback(t, f)
            q = _sample(rng, down_sig)
            p = forward_point(t, q, up_sig)
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


def test_forward_inverse_roundtrip():
    rng = random.Random(7)
    chain = [BlowUpYX(1, 1, Fraction(1, 2)), Tschirnhausen(ps("x1^2", 1, 0))]
    for _ in range(25):
        q = _sample(rng, SIG11)
        p = forward_chain(chain, q, SIG11)
        back = inverse_chain(chain, p, SIG11)
        assert back is not None
        assert max(abs(a - b) for a, b in zip(back, q)) < 1e-9


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
    ],
    ids=["missing-lam", "str-degree", "bad-coefficient", "no-kind"],
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
        pullback(BlowUpYX(2, 1, 0), ps("y1", 1, 1))
    with pytest.raises(TransformError):
        pullback(RamifyX(2, Fraction(2)), ps("x1", 1, 0))


def test_blowup_xx_rejects_negative_infinity():
    # "inf" is the swapped x-x chart; "-inf" names no chart of the family
    with pytest.raises(TransformError):
        BlowUpXX(2, 1, NEG_INF)
    with pytest.raises(TransformError):
        transform_from_json({"kind": "blowup_xx", "i": 2, "j": 1, "lam": "-inf"})
    assert BlowUpXX(2, 1, INF).pullback(ps("x1 + x2", 2, 0)).sig == Signature(2, 0)
