"""Quadrant parametrisation of basic sets.

A basic set is a finite union of conjunctions of constraints ``f = 0`` /
``f > 0`` on series over a common signature, read near the origin of the
closed quadrant {x >= 0}.  The parametrisation covers the set by *pieces*:
each piece freezes some ambient variables to zero, runs a joint
monomialisation of the remaining constraint series, and selects the
sub-quadrants of a leaf space on which every constraint of some conjunction
holds identically (by the sign of the leaf normal forms).

Pieces come in one fixed order: the frozen subsets in lexicographic order
of their sorted ambient positions (x1..xm, then y1..yn; over (1,1) that is
none, x1, x1 y1, y1), then the leaves of each subset's division chain in
branch order, then each leaf's sub-quadrants in ``enumerate_subquadrants``
order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Optional, Sequence

from .parser import BasicSetExpr
from .series import (
    Series,
    SeriesError,
    Signature,
    _evaluation,
    _norm,
    _point_ratios,
    _ratio,
    render,
    set_to_zero,
)
from .monomialize import EngineOptions, NormalForm, division_chain
from .transforms import _chain_maps, chain_to_json

ZERO, POS, NEG = "zero", "pos", "neg"

# relative round-trip error at which ``piece_covers`` accepts a point
COVER_TOL = 1e-3


@dataclass(frozen=True)
class SubQuadrant:
    """Sign pattern for the coordinates of a leaf space: x-variables are
    'zero' or 'pos'; y-variables are 'zero', 'pos', or 'neg'."""

    x: tuple
    y: tuple

    def to_json(self):
        return {"x": list(self.x), "y": list(self.y)}


def enumerate_subquadrants(sig: Signature):
    for xs in product((ZERO, POS), repeat=sig.m):
        for ys in product((ZERO, POS, NEG), repeat=sig.n):
            yield SubQuadrant(xs, ys)


def _sign_on_quadrant(factor: Optional[NormalForm], quad: SubQuadrant) -> int:
    """Sign (+1, -1, or 0) of a normal factor on a small sub-quadrant.

    ``factor`` is a leaf normal form from a division chain, ``None`` for a
    factor that pulls back to zero.  Returns 0 when the factor vanishes
    identically on the quadrant."""
    if factor is None:
        return 0
    xs, ys = factor.monomial
    sign = 1 if factor.unit.constant_term() > 0 else -1
    for e, s in zip(xs + ys, quad.x + quad.y):
        if e != 0 and s == ZERO:
            return 0
        if s == NEG and e % 2 == 1:
            sign = -sign
    return sign


@dataclass
class ParamPiece:
    zero_x: tuple  # ambient x-indices frozen to 0 (1-based)
    zero_y: tuple  # ambient y-indices frozen to 0 (1-based)
    sig: Signature  # reduced ambient signature
    chain: list  # transforms from the reduced ambient space to the leaf
    leaf_sig: Signature
    quadrant: SubQuadrant

    def to_json(self):
        return {
            "zero_x": list(self.zero_x),
            "zero_y": list(self.zero_y),
            "sig": list(self.sig),
            "chain": chain_to_json(self.chain),
            "leaf_sig": list(self.leaf_sig),
            "quadrant": self.quadrant.to_json(),
        }

    @cached_property
    def _walks(self) -> tuple:
        """``_chain_maps`` of the chain: its walks, built once for every point."""
        return _chain_maps(self.chain, self.sig)

    @cached_property
    def _frozen(self) -> tuple:
        """0-based ambient positions of the frozen coordinates, ascending."""
        m = self.sig.m + len(self.zero_x)
        return tuple(sorted(z - 1 for z in self.zero_x)) + tuple(
            sorted(m + z - 1 for z in self.zero_y)
        )


@dataclass
class Parametrization:
    sig: Signature
    pieces: list

    def to_json(self):
        return {"sig": list(self.sig), "pieces": [p.to_json() for p in self.pieces]}


def parametrize_basic(
    bset: BasicSetExpr, options: EngineOptions = EngineOptions()
) -> Parametrization:
    """Pieces for every frozen subset, in the order of the module docstring."""
    m, n = bset.sig
    pieces: list[ParamPiece] = []
    for frozen in sorted(
        c for r in range(m + n + 1) for c in combinations(range(m + n), r)
    ):
        zero_x = tuple(p + 1 for p in frozen if p < m)
        zero_y = tuple(p - m + 1 for p in frozen if p >= m)
        _param_leafwork(bset, zero_x, zero_y, options, pieces)
    return Parametrization(bset.sig, pieces)


def _param_leafwork(bset, zero_x, zero_y, options, out) -> None:
    sig = Signature(bset.sig.m - len(zero_x), bset.sig.n - len(zero_y))
    # restrict every constraint once; the distinct nonzero ones, in order of
    # appearance, go to one division chain, and each conjunction keeps the
    # chain index (None for a zero series) and the sign its relation needs
    live: list[Series] = []
    index_of: dict[str, int] = {}
    conjunctions = []
    for conj in bset.pieces:
        lookup = []
        for s, rel in conj:
            r = set_to_zero(s, zero_x, zero_y)
            k = None
            if not r.is_zero():
                key = render(r)
                if key not in index_of:
                    index_of[key] = len(live)
                    live.append(r)
                k = index_of[key]
            lookup.append((k, 0 if rel == "EQ0" else 1))
        conjunctions.append(lookup)
    if live:
        branches = division_chain(live, options).branches
    else:
        branches = [([], sig, [])]
    for chain, leaf_sig, factors in branches:
        for quad in enumerate_subquadrants(leaf_sig):
            if any(
                all(
                    want == (0 if k is None else _sign_on_quadrant(factors[k], quad))
                    for k, want in conj
                )
                for conj in conjunctions
            ):
                out.append(
                    ParamPiece(zero_x, zero_y, sig, list(chain), leaf_sig, quad)
                )


# -- numeric helpers over pieces ----------------------------------------------


def embed_zeros(piece: ParamPiece, reduced_point: Sequence[float]):
    point = list(reduced_point)
    for k in piece._frozen:
        point.insert(k, 0.0)
    return point


def strip_zeros(piece: ParamPiece, ambient_point: Sequence[float]):
    """Project an ambient point onto the piece's reduced space, or None when
    the point is not (numerically) on the frozen hyperplanes."""
    frozen = piece._frozen
    if any(abs(ambient_point[k]) > 1e-9 for k in frozen):
        return None
    return [v for k, v in enumerate(ambient_point) if k not in frozen]


def sample_piece(piece: ParamPiece, rng: random.Random, radius: float):
    """A random ambient point in the image of the piece's sub-quadrant."""
    coords = []
    for s in piece.quadrant.x + piece.quadrant.y:
        if s == ZERO:
            coords.append(0.0)
        else:
            v = rng.uniform(radius * 1e-3, radius)
            coords.append(v if s == POS else -v)
    return embed_zeros(piece, piece._walks[0](coords))


def piece_covers(
    piece: ParamPiece,
    ambient_point: Sequence[float],
    ambient_sig: Signature,
    tol: float = COVER_TOL,
) -> bool:
    """Whether the point lies in the image of the piece's sub-quadrant.

    The numeric preimage misses the quadrant's faces by the truncation tail of
    the chain, so the test clamps the preimage onto the closed quadrant, maps
    it forward, and accepts on a relative round-trip error.  Every piece lies
    in {x >= 0}, so a negative reduced x-coordinate is never covered; a piece
    with no free coordinate covers every point on its hyperplanes.
    ``ambient_sig`` is not read: a piece knows its frozen positions.  A NaN or
    an infinity raises ``SeriesError``; a round trip past the floats covers nothing."""
    for pos, v in enumerate(ambient_point, 1):
        if type(v) is not float or not math.isfinite(v):
            _ratio(v, pos)  # raises, naming the position
    reduced = strip_zeros(piece, ambient_point)
    if reduced is None or any(v < 0 for v in reduced[: piece.sig.m]):
        return False
    if not reduced:
        return True
    try:  # past the floats, inf - inf or inf * 0.0 is a NaN, which a later map raises on
        q = piece._walks[1](reduced)
        if q is None:
            return False
        clamped = [
            0.0 if s == ZERO else max(v, 0.0) if s == POS else min(v, 0.0)
            for s, v in zip(piece.quadrant.x + piece.quadrant.y, map(float, q))
        ]
        back = piece._walks[0](clamped)
        scale = max(1e-12, max(abs(float(v)) for v in reduced))
        err = max(abs(float(a) - float(b)) for a, b in zip(back, reduced))
    except (SeriesError, OverflowError):
        return False
    return err <= tol * scale and not any(v != v for v in back)  # max() may skip a NaN


def covering_fraction_for(
    param: Parametrization,
    points: Sequence[Sequence[float]],
    ambient_sig: Signature,
    tol: float = COVER_TOL,
) -> float:
    if not points:
        return 1.0
    hit = 0
    for p in points:
        if any(piece_covers(piece, p, ambient_sig, tol) for piece in param.pieces):
            hit += 1
    return hit / len(points)


# -- numeric membership oracle -------------------------------------------------

IN, OUT, UNKNOWN = "IN", "OUT", "UNKNOWN"


def membership(bset: BasicSetExpr, point: Sequence) -> str:
    """Numeric membership of a point in the basic set, with an UNKNOWN verdict
    when the truncation tail bound swamps the evaluated value.  The point is
    read once, for every constraint (all over ``bset.sig``)."""
    ratios, norm = _point_ratios(bset.sig, point), _norm(point)
    any_unknown = False
    for conj in bset.pieces:
        verdict = IN
        for s, rel in conj:
            v, tail = _evaluation(s, ratios, norm, True)
            if rel == "EQ0":
                if abs(v) > tail:
                    verdict = OUT
                    break
                if tail > 0 and not s.is_zero():
                    verdict = UNKNOWN
            else:  # GT0
                if v - tail > 0:
                    continue
                if v + tail <= 0:
                    # the value is certified <= 0, so the strict inequality fails
                    verdict = OUT
                    break
                verdict = UNKNOWN
        if verdict == IN:
            return IN
        if verdict == UNKNOWN:
            any_unknown = True
    return UNKNOWN if any_unknown else OUT
