"""Quadrant parametrisation of basic sets and the numeric membership oracle."""

from collections import Counter
from fractions import Fraction
import math
import random

import pytest

from gpseries import geometry
from gpseries.series import SeriesError, Signature, SignatureMismatch, _point_ratios
from gpseries.parser import BasicSetExpr, parse_basic_set
from gpseries.transforms import BlowUpXX
from gpseries.geometry import (
    IN,
    OUT,
    POS,
    UNKNOWN,
    ZERO,
    ParamPiece,
    Parametrization,
    SubQuadrant,
    covering_fraction_for,
    enumerate_subquadrants,
    membership,
    parametrize_basic,
    piece_covers,
)
from conftest import ps

SIG11 = Signature(1, 1)


def bset(text, m=1, n=1, prec=8):
    return parse_basic_set(text, Signature(m, n), prec)


def test_enumerate_subquadrants_count():
    # x-coordinates take {zero, pos}; y-coordinates take {zero, pos, neg}
    assert len(list(enumerate_subquadrants(Signature(2, 1)))) == 4 * 3
    assert len(list(enumerate_subquadrants(Signature(0, 2)))) == 9


# -- membership oracle ------------------------------------------------------------


def test_membership_on_cone():
    b = bset("y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0")
    assert membership(b, [0.01, 0.01]) in (IN, UNKNOWN)
    assert membership(b, [0.01, 0.02]) == OUT
    assert membership(b, [0.01, -0.01]) == OUT  # fails y > 0
    assert membership(b, [0.0, 0.0]) == OUT  # fails x > 0


def test_membership_union():
    b = bset("x1 > 0 | y1 = 0")
    assert membership(b, [0.0, 0.0]) in (IN, UNKNOWN)
    assert membership(b, [0.5, 0.3]) in (IN, UNKNOWN)


def test_membership_rejects_non_finite_points():
    b = bset("y1^2 - x1^3 = 0 & x1 > 0")
    for point, pos in (([float("nan"), 0.0], 1), ([0.5, float("-inf")], 2)):
        with pytest.raises(SeriesError, match=f"position {pos}"):
            membership(b, point)


def test_membership_is_unknown_where_the_tail_bound_overflows():
    # finite values at a finite point, but C * ||p||^8 leaves the float range
    b = bset("y1 - x1^3 = 0 & x1 > 0")
    assert membership(b, [0.5, 1e308]) == UNKNOWN
    # and where the value itself rounds to an infinity
    b = bset("x1^2*y1 + 1/3*y1^5 > 0")
    assert membership(b, [0.5, 1e308]) == UNKNOWN
    # on the fractional-exponent path, with a rational and an irrational root
    assert membership(bset("x1^(1/2)*y1^5 > 0"), [0.25, 1e308]) == UNKNOWN
    assert membership(bset("x1^(1/3)*y1^2 > 0"), [2.0, 1e200]) == UNKNOWN


# -- parametrisation --------------------------------------------------------------


def test_cone_parametrization():
    b = bset("y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0")
    param = parametrize_basic(b)
    assert isinstance(param, Parametrization)
    assert param.pieces
    rng = random.Random(1)
    # on-set points are covered
    pts = [[t, t] for t in (rng.uniform(1e-4, 0.01) for _ in range(200))]
    frac = covering_fraction_for(param, pts, SIG11, tol=1e-3)
    assert frac >= 0.99
    # off-set points are not (no false memberships)
    for _ in range(200):
        x = rng.uniform(1e-3, 0.01)
        y = x * rng.choice([0.5, 2.0, -1.0])
        assert not any(
            piece_covers(p, [x, y], SIG11, tol=1e-3) for p in param.pieces
        ), (x, y)


def test_covering_default_tolerance_is_the_piece_tolerance():
    # a caller that omits tol gets the same acceptance as piece_covers
    param = parametrize_basic(bset("y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0"))
    rng = random.Random(1)
    pts = [[t, t] for t in (rng.uniform(1e-4, 0.01) for _ in range(300))]
    assert covering_fraction_for(param, pts, SIG11) >= 0.99


def test_cusp_parametrization():
    b = bset("y1^2 - x1^3 = 0 & x1 > 0")
    param = parametrize_basic(b)
    rng = random.Random(2)
    pts = []
    for _ in range(200):
        x = rng.uniform(1e-4, 0.01)
        pts.append([x, rng.choice([1.0, -1.0]) * x ** 1.5])
    frac = covering_fraction_for(param, pts, SIG11, tol=1e-3)
    assert frac >= 0.99
    for _ in range(200):
        x = rng.uniform(1e-3, 0.01)
        y = 2.0 * x ** 1.5
        assert not any(piece_covers(p, [x, y], SIG11, tol=1e-3) for p in param.pieces)


def _acceptance_7_points(n=2500):
    """The four point lists of acceptance test 7 (seed 9001), in its order."""
    rng = random.Random(9001)
    cone_on = [[t, t] for t in (rng.uniform(1e-4, 0.01) for _ in range(n))]
    cone_off = []
    for _ in range(n):
        x = rng.uniform(1e-3, 0.01)
        cone_off.append([x, x * rng.choice([0.5, 2.0, -1.0])])
    cusp_on = []
    for _ in range(n):
        x = rng.uniform(1e-4, 0.01)
        cusp_on.append([x, rng.choice([1.0, -1.0]) * x**1.5])
    cusp_off = []
    for _ in range(n):
        x = rng.uniform(1e-3, 0.01)
        cusp_off.append([x, rng.choice([2.0, -0.5]) * x**1.5])
    return {"cone": (cone_on, cone_off), "cusp": (cusp_on, cusp_off)}


# (covered, membership verdict counts) of the first 500 points of each list;
# 85 on-set cusp points read OUT, because a float point sits off the cusp by
# a rounding that the tail bound does not cover
PINNED_COUNTS = {
    ("cone", "on"): (500, {UNKNOWN: 500}),
    ("cone", "off"): (0, {OUT: 500}),
    ("cusp", "on"): (500, {OUT: 85, UNKNOWN: 415}),
    ("cusp", "off"): (0, {OUT: 500}),
}


@pytest.mark.parametrize(
    "name, text",
    [("cone", "y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0"), ("cusp", "y1^2 - x1^3 = 0 & x1 > 0")],
    ids=["cone", "cusp"],
)
def test_pinned_covering_and_membership_counts(name, text):
    b = bset(text)
    param = parametrize_basic(b)
    for side, pts in zip(("on", "off"), _acceptance_7_points()[name]):
        pts = pts[:500]
        covered = sum(
            any(piece_covers(p, q, SIG11, tol=1e-3) for p in param.pieces) for q in pts
        )
        verdicts = Counter(membership(b, q) for q in pts)
        assert (covered, dict(verdicts)) == PINNED_COUNTS[(name, side)], side


def test_hyperplane_pieces_cover_boundary():
    # the x1-axis part of {y1 = 0} comes from a zero-embedding piece
    b = bset("y1 = 0")
    param = parametrize_basic(b)
    pts = [[t / 1000.0, 0.0] for t in range(1, 50)]
    frac = covering_fraction_for(param, pts, SIG11, tol=1e-3)
    assert frac >= 0.99


@pytest.mark.parametrize(
    "text, sig",
    [("x1 = 0", Signature(1, 0)), ("y1 = 0 & x1 = 0", SIG11)],
    ids=["x-axis-point", "origin"],
)
def test_piece_without_free_coordinates_covers_its_point(text, sig):
    # every coordinate of the piece is frozen: its reduced point is empty
    param = parametrize_basic(bset(text, *sig))
    point = [1e-12] * (sig.m + sig.n)
    assert covering_fraction_for(param, [point], sig) == 1.0
    assert covering_fraction_for(param, [[0.5] * (sig.m + sig.n)], sig) == 0.0


@pytest.mark.parametrize(
    "text",
    ["y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0", "y1^2 - x1^3 = 0 & x1 > 0"],
    ids=["cone", "cusp"],
)
def test_negative_x_is_never_covered(text):
    # every piece lies in {x >= 0}; no piece may map such a point back
    param = parametrize_basic(bset(text))
    for point in ([-0.01, 0.01], [-0.01, -0.01], [-1e-6, 0.5]):
        assert not any(piece_covers(p, point, SIG11) for p in param.pieces)


@pytest.mark.parametrize(
    "text",
    ["y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0", "y1^2 - x1^3 = 0 & x1 > 0"],
    ids=["cone", "cusp"],
)
def test_covering_reads_the_point_once(text):
    param = parametrize_basic(bset(text))
    # finite points whose round trip overflows (inf - inf on the cone) are
    # not covered, on the cone as on the cusp
    for point in ([1e300, 1e300], [1e200, 1.0]):
        assert covering_fraction_for(param, [point], SIG11) == 0.0
    # a NaN or an infinity raises before any chart reads it, on every piece
    for point, pos in (([math.inf, 0.0], 1), ([0.5, math.nan], 2)):
        for piece in param.pieces:
            message = f"at position {pos} is not a finite number"
            with pytest.raises(SeriesError, match=message) as err:
                piece_covers(piece, point, SIG11)
            assert type(err.value) is SeriesError
        with pytest.raises(SeriesError, match=f"at position {pos}"):
            covering_fraction_for(param, [point], SIG11)


@pytest.mark.parametrize(
    "chain, x_signs, point",
    [
        # the inverse gives x2 = inf; forward, inf * 0.0 is the last map's
        # NaN, in a place max() skips
        ([BlowUpXX(2, 1, 0)], (ZERO, POS), [1e-300, 1e300, 0.5]),
        ([BlowUpXX(1, 2, 0)], (POS, ZERO), [1e300, 1e-300, 0.5]),
        # forward, inf * 0.0 makes x2 NaN, which the next map reads
        ([BlowUpXX(1, 2, 0), BlowUpXX(2, 1, 0)], (POS, POS), [1e300, 1e-300, 0.5]),
    ],
)
def test_a_round_trip_past_the_floats_covers_nothing(chain, x_signs, point):
    sig = Signature(2, 1)
    piece = ParamPiece((), (), sig, chain, sig, SubQuadrant(x_signs, (POS,)))
    assert piece_covers(piece, point, sig) is False


def test_a_basic_set_keeps_one_signature():
    # membership reads the point once for all constraints, so a constraint
    # over another signature is refused when the set is built
    b = bset("y1^2 - x1^2 = 0 & x1 > 0")
    with pytest.raises(SignatureMismatch, match=r"constraint over .* in a set over"):
        BasicSetExpr(Signature(2, 1), b.pieces)


def test_membership_reads_the_point_once(monkeypatch):
    # one read of the point serves all three constraints of the cone
    reads = []

    def counting(sig, point):
        reads.append(list(point))
        return _point_ratios(sig, point)

    monkeypatch.setattr(geometry, "_point_ratios", counting)
    b = bset("y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0")
    assert membership(b, [0.01, 0.02]) == OUT
    assert membership(b, [0.01, 0.01]) == UNKNOWN
    assert reads == [[0.01, 0.02], [0.01, 0.01]]


def test_piece_json_shape():
    b = bset("y1^2 - x1^3 = 0 & x1 > 0")
    param = parametrize_basic(b)
    data = param.to_json()
    assert data["sig"] == [1, 1]
    for piece in data["pieces"]:
        assert set(piece) == {"zero_x", "zero_y", "sig", "chain", "leaf_sig", "quadrant"}
