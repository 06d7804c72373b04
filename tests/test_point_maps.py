"""The point maps built once per chain against the point maps as they were.

Before each transform built its maps once, every chart class had its own
``forward_point_sig`` / ``inverse_point``; a chain was walked through
``chain_sigs`` and one such call per transform, each returning a new list.
Those bodies are kept here, chart by chart, as the reference (``_OLD``), with
the centre's checked evaluation ``_old_value``.  ``_forward_by_steps`` and
``_inverse_by_steps`` walk them.  The walks of ``_chain_maps`` are built once
and applied to many points, so a map that kept state from one point to the
next, shared a list across steps, or computed a chart differently would
disagree with them.
"""

from collections import Counter
from fractions import Fraction
import math
from operator import add, sub
import random

import pytest

from gpseries import geometry
from gpseries.geometry import COVER_TOL, POS, ZERO, embed_zeros, parametrize_basic, piece_covers
from gpseries.parser import parse_basic_set
from gpseries.series import (
    Series,
    SeriesError,
    Signature,
    _eval_table,
    _evaluate_by_terms,
    _fold,
    _ratio,
    _rational_power,
    _rounded,
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
    TransformError,
    Tschirnhausen,
    _chain_maps,
    _nan,
    chain_sigs,
    forward_chain,
    inverse_chain,
)
from conftest import random_series
from test_geometry import _acceptance_7_points

SIGS = [Signature(1, 1), Signature(1, 2), Signature(2, 1), Signature(2, 2), Signature(1, 3)]
SIG11 = Signature(1, 1)


def _constant(v, exact, rounded):
    return rounded if isinstance(v, float) else exact


def _old_value(a, point, rounded):
    """h at ``point``, with every check of the point, exact or rounded once."""
    if len(point) != a.sig.m + a.sig.n:
        raise SeriesError(f"point of length {len(point)} for signature {a.sig}")
    ratios = [_ratio(p, i) for i, p in enumerate(point, 1)]
    for i, (n, d) in enumerate(ratios[: a.sig.m], 1):
        if n < 0:
            raise SeriesError(f"negative x-coordinate {Fraction(n, d)} at position {i}")
    table = _eval_table(a)
    if table.rows is None:
        total = _evaluate_by_terms(a, [Fraction(n, d) for n, d in ratios])
        return _rounded(total) if rounded else total
    pairs = [ratios[k] for k in table.active]
    den = table.den
    for (_, d), top in zip(pairs, table.top):
        den *= d**top
    num = _fold(table.rows, pairs, table.top, 0) if pairs else table.rows
    try:
        return num / den if rounded else Fraction(num, den)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _old_power(v, e, e_float):
    if v == 0:
        return Fraction(0) if e > 0 else None
    if isinstance(v, Fraction) and v > 0:
        p = _rational_power(v, e)
        if p is not None:
            return p
    return float(v) ** e_float


def _blowup_forward(p, s, t, v, lam):
    w, a = p[v], p[t]
    if w != w or a != a:
        raise _nan(p, v, t)
    q = list(p)
    if v != s:
        q.insert(s, q.pop(v))
    q[s] = a * (_constant(w, lam, float(lam)) + w)
    return q


def _blowup_inverse(p, s, t, v, lam):
    a, b = p[s], p[t]
    if a != a or b != b:
        raise _nan(p, s, t)
    if b == 0:
        return None
    ratio = a / b
    q = list(p)
    if v != s:
        q.insert(v, q.pop(s))
    q[v] = ratio - _constant(ratio, lam, float(lam))
    return q


def _xx_forward(t, p, sig):
    i, j, lam = t._chart()
    if lam:
        return _blowup_forward(p, i - 1, j - 1, sig.m - 1, lam)
    a, b = p[i - 1], p[j - 1]
    if a != a or b != b:
        raise _nan(p, i - 1, j - 1)
    q = list(p)
    q[i - 1] = a * b
    return q


def _xx_inverse(t, p, sig):
    i, j, lam = t._chart()
    return _blowup_inverse(p, i - 1, j - 1, sig.m - 1 if lam else i - 1, lam)


def _sign_forward(t, p, m):
    if p[m] != p[m]:
        raise _nan(p, m)
    nys = list(p[m + 1 :])
    nys.insert(t.i - 1, t.sign * p[m])
    return list(p[:m]) + nys


def _sign_inverse(t, p, m):
    v = t.sign * p[m + t.i - 1]
    if not v >= 0:
        if v != v:
            raise _nan(p, m + t.i - 1)
        return None
    nys = list(p[m:])
    del nys[t.i - 1]
    return list(p[:m]) + [v] + nys


def _yx_forward(t, p, sig):
    m, j = sig.m, t.j - 1
    if isinstance(t.lam, str):
        if p[j] != p[j]:
            raise _nan(p, j)
        q = list(p)
        q[j] = p[m] * p[j]
        return _sign_forward(t._sign_chart, q, m)
    return _blowup_forward(p, m + t.i - 1, j, m + t.i - 1, t.lam)


def _yx_inverse(t, p, sig):
    m, j = sig.m, t.j - 1
    if isinstance(t.lam, str):
        q = _sign_inverse(t._sign_chart, p, m)
        if q is None or q[m] == 0:
            return None
        if p[j] != p[j]:
            raise _nan(p, j)
        q[j] = p[j] / q[m]
        return None if q[j] < 0 else q
    return _blowup_inverse(p, m + t.i - 1, j, m + t.i - 1, t.lam)


def _yy_forward(t, p, sig):
    i, j, lam = t._chart()
    return _blowup_forward(p, sig.m + i - 1, sig.m + j - 1, sig.m + i - 1, lam)


def _yy_inverse(t, p, sig):
    i, j, lam = t._chart()
    return _blowup_inverse(p, sig.m + i - 1, sig.m + j - 1, sig.m + i - 1, lam)


def _tschirnhausen(op):
    def apply(t, p, sig):
        k = sig.m + t._index(sig) - 1
        if p[k] != p[k]:
            raise _nan(p, k)
        hval = _old_value(t.h, list(p[:k]) + list(p[k + 1 :]), isinstance(p[k], float))
        q = list(p)
        q[k] = op(p[k], hval)
        return q

    return apply


def _linear(op):
    def apply(t, p, sig):
        i = sig.m + t.i - 1
        yi = p[i]
        if yi != yi:
            raise _nan(p, i)
        q = list(p)
        for k, ck in enumerate(_constant(yi, t.c, tuple(map(float, t.c))), start=sig.m):
            if p[k] != p[k]:
                raise _nan(p, k)
            q[k] = op(p[k], ck * yi)
        return q

    return apply


def _ramify_x_forward(t, p, sig):
    v = p[t.i - 1]
    if not v >= 0:
        if v != v:
            raise _nan(p, t.i - 1)
        raise TransformError(f"negative x-coordinate {v} at position {t.i}")
    q = list(p)
    q[t.i - 1] = _old_power(v, t.gamma, float(t.gamma))
    return q


def _ramify_x_inverse(t, p, sig):
    v = p[t.i - 1]
    if not v >= 0:
        if v != v:
            raise _nan(p, t.i - 1)
        return None
    q = list(p)
    q[t.i - 1] = _old_power(v, 1 / t.gamma, float(1 / t.gamma))
    return q


def _ramify_y_forward(t, p, sig):
    k = sig.m + t.i - 1
    if p[k] != p[k]:
        raise _nan(p, k)
    q = list(p)
    q[k] = t.sign * p[k] ** t.d
    return q


def _ramify_y_inverse(t, p, sig):
    k = sig.m + t.i - 1
    v = t.sign * p[k]
    if t.d % 2 == 1:
        if v != v:
            raise _nan(p, k)
        root = math.copysign(abs(float(v)) ** (1.0 / t.d), v)
    else:
        if not v >= 0:
            if v != v:
                raise _nan(p, k)
            return None
        root = float(v) ** (1.0 / t.d)
    q = list(p)
    q[k] = root
    return q


# each chart's (forward, inverse) as it was, given the upstream signature
_OLD = {
    BlowUpXX: (_xx_forward, _xx_inverse),
    BlowUpYX: (_yx_forward, _yx_inverse),
    BlowUpYY: (_yy_forward, _yy_inverse),
    Tschirnhausen: (_tschirnhausen(add), _tschirnhausen(sub)),
    Linear: (_linear(add), _linear(sub)),
    RamifyX: (_ramify_x_forward, _ramify_x_inverse),
    RamifyY: (_ramify_y_forward, _ramify_y_inverse),
    SignChart: (lambda t, p, sig: _sign_forward(t, p, sig.m), lambda t, p, sig: _sign_inverse(t, p, sig.m)),
}


def _forward_by_steps(chain, p, sig):
    sigs = chain_sigs(chain, sig)
    q = list(p)
    for t, s in zip(reversed(chain), reversed(sigs[:-1])):
        q = _OLD[type(t)][0](t, q, s)
    return q


def _inverse_by_steps(chain, p, sig):
    sigs = chain_sigs(chain, sig)
    q = list(p)
    for t, s in zip(chain, sigs[:-1]):
        q = _OLD[type(t)][1](t, q, s)
        if q is None:
            return None
    return q


def _kind(out) -> str:
    return "none" if out is None else "raise" if out[0] == "raise" else "value"


def _outcome(apply, p):
    """What ``apply(p)`` gives: each value with its type, None, or the
    exception's class and message; ``p`` must come back unchanged."""
    before = repr(p)
    try:
        q = apply(p)
    except Exception as exc:  # compared, class and message
        out = ("raise", type(exc).__name__, str(exc))
    else:
        out = None if q is None else [(type(v).__name__, repr(v)) for v in q]
    assert repr(p) == before
    return out


def _center(rng, sig):
    """A Tschirnhausen centre over (m, n - 1): zero at the origin, sometimes
    with a fractional x-exponent, sometimes zero."""
    h_sig = Signature(sig.m, sig.n - 1)
    s = random_series(rng, h_sig, nterms=rng.randint(0, 4), fractional_x=rng.random() < 0.3)
    origin = (tuple([Fraction(0)] * h_sig.m), tuple([0] * h_sig.n))
    return Series(h_sig, {e: c for e, c in s.terms.items() if e != origin}, s.precision)


def _lam(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def _every_transform(rng, sig):
    """Every kind at every index valid over ``sig``, with drawn constants."""
    m, n = sig
    out = []
    for i in range(1, m + 1):
        out += [RamifyX(i, g) for g in (Fraction(1, 2), Fraction(2), Fraction(2, 3))]
        for j in range(1, m + 1):
            if i != j:
                out += [BlowUpXX(i, j, 0), BlowUpXX(i, j, INF)]
                if j < i:
                    out.append(BlowUpXX(i, j, abs(_lam(rng)) + Fraction(1, 7)))
    for i in range(1, n + 1):
        out += [SignChart(i, 1), SignChart(i, -1), RamifyY(i, 1), RamifyY(i, 2, -1), RamifyY(i, 3)]
        out.append(Linear(i, tuple(_lam(rng) for _ in range(i - 1))))
        out += [Tschirnhausen(_center(rng, sig), j) for j in (0, i)]
        for j in range(1, m + 1):
            out += [BlowUpYX(i, j, lam) for lam in (0, _lam(rng), INF, NEG_INF)]
        for j in range(1, n + 1):
            if i != j:
                out += [BlowUpYY(i, j, 0), BlowUpYY(i, j, _lam(rng)), BlowUpYY(i, j, INF)]
    return out


def _chains(rng, sig):
    """One-step chains of ``_every_transform`` and drawn chains of 2 to 4."""
    chains = [[t] for t in _every_transform(rng, sig)]
    for _ in range(40):
        chain, s = [], sig
        for _ in range(rng.randint(2, 4)):
            options = _every_transform(rng, s)
            if not options:
                break
            t = rng.choice(options)
            chain.append(t)
            s = t.result_sig(s)
        chains.append(chain)
    return chains


def _points(rng, sig):
    """Float, Fraction, int and mixed points over ``sig``, and points with a
    NaN, an infinity, a negative x-coordinate, -0.0 or an exact value past
    the floats at each position."""
    dim = sig.m + sig.n
    floats = [
        [rng.uniform(0, 0.5) for _ in range(sig.m)] + [rng.uniform(-0.5, 0.5) for _ in range(sig.n)]
        for _ in range(4)
    ]
    fracs = [
        [Fraction(rng.randint(0 if k < sig.m else -9, 9), 7) for k in range(dim)] for _ in range(3)
    ]
    ints = [[rng.randint(0 if k < sig.m else -2, 2) for k in range(dim)] for _ in range(2)]
    mixed = [[rng.choice((f, Fraction(f).limit_denominator(9), 0)) for f in floats[0]]]
    bad = (math.nan, math.inf, -math.inf, -0.25, -0.0, Fraction(-1, 3), 10**400, Fraction(10**400, 3))
    special = [floats[1][:k] + [v] + floats[1][k + 1 :] for k in range(dim) for v in bad]
    return floats + fracs + ints + mixed + special


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: f"{s.m}{s.n}")
def test_walks_built_once_match_the_step_by_step_walk(sig):
    rng = random.Random(2600 + 10 * sig.m + sig.n)
    kinds, compared = set(), Counter()
    for chain in _chains(rng, sig):
        kinds.update(type(t) for t in chain)
        forward, inverse = _chain_maps(chain, sig)
        leaf_sig = chain_sigs(chain, sig)[-1]
        for p in _points(rng, leaf_sig):
            want = _outcome(lambda q: _forward_by_steps(chain, q, sig), p)
            assert _outcome(forward, p) == want, (chain, p)
            assert _outcome(lambda q: forward_chain(chain, q, sig), p) == want
            compared[_kind(want)] += 1
        for p in _points(rng, sig):
            want = _outcome(lambda q: _inverse_by_steps(chain, q, sig), p)
            assert _outcome(inverse, p) == want, (chain, p)
            assert _outcome(lambda q: inverse_chain(chain, q, sig), p) == want
            compared[_kind(want)] += 1
    # every kind valid over sig is drawn, and the draws reach values, Nones
    # and errors
    assert kinds >= {BlowUpYX, Linear, RamifyX, RamifyY, SignChart, Tschirnhausen}
    assert sig.m < 2 or BlowUpXX in kinds
    assert sig.n < 2 or BlowUpYY in kinds
    assert set(compared) == {"value", "none", "raise"} and min(compared.values()) >= 20


def test_point_methods_check_the_signature():
    # an index past the signature used to read another coordinate: over
    # (1,1), RamifyX(2, 2) squared y1 and BlowUpYX(1, 2, 0) read y1 as x2
    for t in (RamifyX(2, Fraction(2)), BlowUpYX(1, 2, 0), Linear(2, (Fraction(1),))):
        for apply in (t.forward_point_sig, t.inverse_point):
            with pytest.raises(TransformError, match="out of range"):
                apply([0.5, 0.3], SIG11)


def _piece_covers_by_steps(piece, point, tol=COVER_TOL):
    """``piece_covers`` on the step-by-step walks, before its entry check."""
    reduced = geometry.strip_zeros(piece, point)
    if reduced is None or any(v < 0 for v in reduced[: piece.sig.m]):
        return False
    if not reduced:
        return True
    q = _inverse_by_steps(piece.chain, reduced, piece.sig)
    if q is None:
        return False
    clamped = []
    for v, s in zip(q, piece.quadrant.x + piece.quadrant.y):
        fv = float(v)
        clamped.append(0.0 if s == ZERO else max(fv, 0.0) if s == POS else min(fv, 0.0))
    back = _forward_by_steps(piece.chain, clamped, piece.sig)
    scale = max(1e-12, max(abs(float(v)) for v in reduced))
    err = max(abs(float(a) - float(b)) for a, b in zip(back, reduced))
    return err <= tol * scale


@pytest.mark.parametrize(
    "name, text",
    [("cone", "y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0"), ("cusp", "y1^2 - x1^3 = 0 & x1 > 0")],
    ids=["cone", "cusp"],
)
def test_piece_verdicts_match_the_step_by_step_walk(name, text):
    param = parametrize_basic(parse_basic_set(text, SIG11, 8))
    on, off = _acceptance_7_points()[name]
    verdicts = Counter()
    for point in on + off:
        for piece in param.pieces:
            want = _piece_covers_by_steps(piece, point)
            assert piece_covers(piece, point, SIG11) == want, (piece, point)
            verdicts[want] += 1
    assert verdicts[True] >= len(on) and verdicts[False] >= len(off)


def test_sample_piece_walks_the_piece_maps():
    param = parametrize_basic(parse_basic_set("y1^2 - x1^3 = 0 & x1 > 0", SIG11, 8))
    for piece in param.pieces:
        a, b = random.Random(5), random.Random(5)
        for _ in range(20):
            got = geometry.sample_piece(piece, a, 0.01)
            coords = []
            for s in piece.quadrant.x + piece.quadrant.y:
                v = 0.0 if s == ZERO else b.uniform(0.01 * 1e-3, 0.01)
                coords.append(-v if s == "neg" else v)
            want = embed_zeros(piece, _forward_by_steps(piece.chain, coords, piece.sig))
            assert repr(got) == repr(want)


def test_covering_builds_each_piece_walks_once(monkeypatch):
    # the maps are built per piece, not per point: 500 points and every
    # piece met, one build each
    built = Counter()

    def counting(chain, sig):
        built[id(chain)] += 1
        return _chain_maps(chain, sig)

    monkeypatch.setattr(geometry, "_chain_maps", counting)
    for text in ("y1^2 - x1^2 = 0 & x1 > 0 & y1 > 0", "y1^2 - x1^3 = 0 & x1 > 0"):
        bset = parse_basic_set(text, SIG11, 8)
        param = parametrize_basic(bset)
        built.clear()
        rng = random.Random(3)
        points = [[rng.uniform(0, 0.01), rng.uniform(-0.01, 0.01)] for _ in range(500)]
        geometry.covering_fraction_for(param, points, SIG11)
        for point in points[:50]:
            for piece in param.pieces:
                piece_covers(piece, point, SIG11)
        assert sorted(built) == sorted(id(p.chain) for p in param.pieces), text
        assert set(built.values()) == {1}, text
