"""Quadrant parametrisation of basic sets.

A basic set is a finite union of conjunctions of constraints ``f = 0`` /
``f > 0`` on series over a common signature, read near the origin of the
closed quadrant {x >= 0}.  The parametrisation covers the set by *pieces*:
each piece freezes some ambient variables to zero, runs a joint
monomialisation of the remaining constraint series, and selects the
sub-quadrants of a leaf space on which every constraint of some conjunction
holds identically (by the sign of the leaf normal forms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

from .parser import BasicSetExpr
from .series import (
    Series,
    Signature,
    evaluate,
    render,
    set_x_to_zero,
    set_y_to_zero,
)
from .monomialize import EngineOptions, NormalForm, division_chain
from .transforms import _forward_walk, _inverse_walk, chain_sigs, chain_to_json

ZERO, POS, NEG = "zero", "pos", "neg"


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
    for e, s in zip(xs, quad.x):
        if e != 0 and s == ZERO:
            return 0
    sign = 1 if factor.unit.constant_term() > 0 else -1
    for e, s in zip(ys, quad.y):
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
    def _sigs(self) -> list:
        """``chain_sigs`` of the chain, computed once for all the points a
        piece maps."""
        return chain_sigs(self.chain, self.sig)


@dataclass
class Parametrization:
    sig: Signature
    pieces: list

    def to_json(self):
        return {"sig": list(self.sig), "pieces": [p.to_json() for p in self.pieces]}


def _reduce_series(s: Series, axis: str, idx: int) -> Series:
    return set_x_to_zero(s, idx) if axis == "x" else set_y_to_zero(s, idx)


def parametrize_basic(
    bset: BasicSetExpr, options: EngineOptions = EngineOptions()
) -> Parametrization:
    pieces: list[ParamPiece] = []
    _param_rec(bset.sig, bset.pieces, (), (), 0, options, pieces)
    return Parametrization(bset.sig, pieces)


def _param_rec(sig, conjunctions, zero_x, zero_y, start, options, out) -> None:
    _param_leafwork(sig, conjunctions, zero_x, zero_y, options, out)
    # freeze further coordinates to zero, in canonical ascending order so
    # each subset of coordinates is visited exactly once
    coords = [("x", i) for i in range(1, sig.m + 1)] + [
        ("y", j) for j in range(1, sig.n + 1)
    ]
    for k in range(start, len(coords)):
        axis, idx = coords[k]
        reduced = [
            [(_reduce_series(s, axis, idx), rel) for s, rel in conj]
            for conj in conjunctions
        ]
        if axis == "x":
            nz_x = zero_x + (_ambient_index(zero_x, idx),)
            nz_y = zero_y
            nsig = Signature(sig.m - 1, sig.n)
            nstart = k  # coords after removal shift down by one
        else:
            nz_x = zero_x
            nz_y = zero_y + (_ambient_index(zero_y, idx),)
            nsig = Signature(sig.m, sig.n - 1)
            nstart = k
        _param_rec(nsig, reduced, nz_x, nz_y, nstart, options, out)


def _ambient_index(already_zero: tuple, reduced_idx: int) -> int:
    """Translate an index in the reduced space back to the ambient space."""
    idx = reduced_idx
    for z in sorted(already_zero):
        if z <= idx:
            idx += 1
    return idx


def _param_leafwork(sig, conjunctions, zero_x, zero_y, options, out) -> None:
    # collect the distinct nonzero constraint series, in deterministic order
    series_list: list[Series] = []
    seen = set()
    for conj in conjunctions:
        for s, _rel in conj:
            key = render(s)
            if key not in seen:
                seen.add(key)
                series_list.append(s)
    live = [s for s in series_list if not s.is_zero()]
    index_of = {render(s): k for k, s in enumerate(live)}
    if live:
        dc = division_chain(live, options)
        tree = dc.report.tree
        branches = [
            (chain, tree.leaf_sig(chain), factors)
            for (chain, _leaf), factors in zip(tree.branches(), dc.normal_forms)
        ]
    else:
        branches = [([], sig, [])]
    for chain, leaf_sig, factors in branches:
        for quad in enumerate_subquadrants(leaf_sig):
            if _quad_satisfies(conjunctions, factors, index_of, quad):
                out.append(
                    ParamPiece(zero_x, zero_y, sig, list(chain), leaf_sig, quad)
                )


def _quad_satisfies(conjunctions, factors, index_of, quad) -> bool:
    for conj in conjunctions:
        ok = True
        for s, rel in conj:
            if s.is_zero():
                sign = 0
            else:
                sign = _sign_on_quadrant(factors[index_of[render(s)]], quad)
            if rel == "EQ0" and sign != 0:
                ok = False
                break
            if rel == "GT0" and sign != 1:
                ok = False
                break
        if ok:
            return True
    return False


# -- numeric helpers over pieces ----------------------------------------------


def embed_zeros(piece: ParamPiece, reduced_point: Sequence[float], ambient_sig: Signature):
    xs = list(reduced_point[: piece.sig.m])
    ys = list(reduced_point[piece.sig.m :])
    for z in sorted(piece.zero_x):
        xs.insert(z - 1, 0.0)
    for z in sorted(piece.zero_y):
        ys.insert(z - 1, 0.0)
    return xs + ys


def strip_zeros(piece: ParamPiece, ambient_point: Sequence[float], ambient_sig: Signature):
    """Project an ambient point onto the piece's reduced space, or None when
    the point is not (numerically) on the frozen hyperplanes."""
    xs = list(ambient_point[: ambient_sig.m])
    ys = list(ambient_point[ambient_sig.m :])
    for z in sorted(piece.zero_x, reverse=True):
        if abs(xs[z - 1]) > 1e-9:
            return None
        del xs[z - 1]
    for z in sorted(piece.zero_y, reverse=True):
        if abs(ys[z - 1]) > 1e-9:
            return None
        del ys[z - 1]
    return xs + ys


def sample_piece(
    piece: ParamPiece, rng: random.Random, radius: float, ambient_sig: Signature
):
    """A random ambient point in the image of the piece's sub-quadrant."""
    coords = []
    for s in piece.quadrant.x:
        coords.append(0.0 if s == ZERO else rng.uniform(radius * 1e-3, radius))
    for s in piece.quadrant.y:
        if s == ZERO:
            coords.append(0.0)
        else:
            v = rng.uniform(radius * 1e-3, radius)
            coords.append(v if s == POS else -v)
    reduced = _forward_walk(piece.chain, piece._sigs, coords)
    return embed_zeros(piece, reduced, ambient_sig)


def piece_covers(
    piece: ParamPiece,
    ambient_point: Sequence[float],
    ambient_sig: Signature,
    tol: float = 1e-3,
) -> bool:
    """Whether the point lies in the image of the piece's sub-quadrant.

    The numeric preimage misses the quadrant's faces by the truncation tail
    of the chain, so the test clamps the preimage onto the closed quadrant,
    maps it forward, and accepts on a relative round-trip error."""
    reduced = strip_zeros(piece, ambient_point, ambient_sig)
    if reduced is None:
        return False
    q = _inverse_walk(piece.chain, piece._sigs, reduced)
    if q is None:
        return False
    m = piece.leaf_sig.m
    clamped = []
    for v, s in zip(q[:m], piece.quadrant.x):
        fv = float(v)
        clamped.append(0.0 if s == ZERO else max(fv, 0.0))
    for v, s in zip(q[m:], piece.quadrant.y):
        fv = float(v)
        if s == ZERO:
            clamped.append(0.0)
        elif s == POS:
            clamped.append(max(fv, 0.0))
        else:
            clamped.append(min(fv, 0.0))
    back = _forward_walk(piece.chain, piece._sigs, clamped)
    scale = max(1e-12, max(abs(float(v)) for v in reduced) if reduced else 0.0)
    err = max(abs(float(a) - float(b)) for a, b in zip(back, reduced))
    return err <= tol * scale


def covering_fraction_for(
    param: Parametrization,
    points: Sequence[Sequence[float]],
    ambient_sig: Signature,
    tol: float = 1e-7,
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
    when the truncation tail bound swamps the evaluated value."""
    any_unknown = False
    for conj in bset.pieces:
        verdict = IN
        for s, rel in conj:
            ev = evaluate(s, list(point))
            v, tail = float(ev.value), float(ev.tail_bound)
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
