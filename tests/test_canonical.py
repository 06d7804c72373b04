"""Results built by the kernel without re-validation are canonical.

The ring operations, ``substitute_y``, the pullbacks and the division helpers
build their results through the trusted constructor.  Every such result must
be exactly what the validating constructor would make of it, down to the type
of each exponent: an integral x-exponent is an ``int``, any other one a
``Fraction`` with denominator > 1.
"""

from fractions import Fraction
import random

import pytest

from gpseries.series import (
    Series,
    SeriesError,
    Signature,
    coefficients_in_y,
    constant,
    divide_monomial,
    insert_y,
    invert_unit,
    partial_y,
    render,
    set_to_zero,
    substitute_y,
)
from gpseries.division import (
    solve_implicit,
    split_in_y,
    unit_root,
    weierstrass_divide,
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
)
from conftest import ps, random_series, random_unit

SIGS = [Signature(1, 1), Signature(2, 1), Signature(1, 2)]


def assert_canonical(r: Series) -> None:
    assert type(r.sig) is Signature
    assert type(r.terms) is dict
    assert type(r.precision) is Fraction and r.precision > 0
    for (xs, ys), c in r.terms.items():
        assert len(xs) == r.sig.m and len(ys) == r.sig.n
        for e in xs:
            if e == int(e):
                assert type(e) is int and e >= 0, xs
            else:
                assert type(e) is Fraction and e.denominator > 1 and e > 0, xs
        assert all(type(e) is int and e >= 0 for e in ys), ys
        assert type(c) is Fraction and c != 0
        assert sum(xs, Fraction(0)) + sum(ys) < r.precision
    again = Series(r.sig, r.terms, r.precision)
    assert again == r
    assert list(again.terms) == list(r.terms)


def _operands(rng, sig, fractional_x=True):
    prec = rng.choice([3, 5, Fraction(13, 2), 8])
    return random_series(rng, sig, prec=prec, nterms=5, fractional_x=fractional_x)


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_ring_operations_are_canonical(sig):
    rng = random.Random(101)
    for _ in range(40):
        a, b = _operands(rng, sig), _operands(rng, sig)
        for r in (a + b, a - b, a + (-a), -a, a * b, a * a, a.scale(Fraction(-2, 3)),
                  a.truncate(Fraction(5, 2)), a.truncate(100)):
            assert_canonical(r)


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_substitution_and_inversion_are_canonical(sig):
    rng = random.Random(202)
    for _ in range(30):
        a = _operands(rng, sig)
        reps = {}
        for j in range(1, sig.n + 1):
            rep = _operands(rng, sig)
            reps[j] = rep - constant(sig, rep.constant_term(), rep.precision)
        assert_canonical(substitute_y(a, reps))
        assert_canonical(invert_unit(random_unit(rng, sig)))
        for helper in (partial_y(a, 1), set_to_zero(a, zero_y=(1,)),
                       insert_y(a, 1), *coefficients_in_y(a, 1).values(),
                       *split_in_y(a, 2)):
            assert_canonical(helper)


def _transforms():
    h1 = ps("x1 + x1^2", 1, 0)
    h2 = ps("x1*y1 - 1/2*x1^2", 1, 1)
    return [
        (BlowUpXX(2, 1, 0), Signature(2, 1)),
        (BlowUpXX(2, 1, Fraction(1, 2)), Signature(2, 1)),
        (BlowUpXX(2, 1, INF), Signature(2, 1)),
        (BlowUpYX(1, 1, Fraction(-1, 2)), Signature(1, 1)),
        (BlowUpYX(1, 1, 0), Signature(1, 1)),
        (BlowUpYX(2, 1, INF), Signature(1, 2)),
        (BlowUpYX(1, 1, NEG_INF), Signature(1, 1)),
        (BlowUpYY(1, 2, Fraction(2)), Signature(1, 2)),
        (BlowUpYY(1, 2, 0), Signature(1, 2)),
        (BlowUpYY(1, 2, INF), Signature(1, 2)),
        (Tschirnhausen(h1), Signature(1, 1)),
        (Tschirnhausen(h2, 1), Signature(1, 2)),
        (Linear(2, (Fraction(-1),)), Signature(1, 2)),
        (RamifyX(1, Fraction(1, 2)), Signature(1, 1)),
        (RamifyX(2, Fraction(3)), Signature(2, 1)),
        (RamifyY(1, 2, -1), Signature(1, 1)),
        (SignChart(2, -1), Signature(1, 2)),
    ]


@pytest.mark.parametrize("t, sig", _transforms(), ids=lambda v: repr(v)[:40])
def test_pullbacks_are_canonical(t, sig):
    rng = random.Random(303)
    for _ in range(25):
        f = _operands(rng, sig, fractional_x=isinstance(t, (RamifyX, SignChart)))
        g = t.pullback(f)
        assert g.sig == t.result_sig(sig)
        assert_canonical(g)


def _regular(rng, d):
    terms = {((Fraction(0),), (d,)): Fraction(rng.choice([1, 2, -1]))}
    for _ in range(3):
        terms[((Fraction(rng.randint(1, 3)),), (rng.randint(0, d - 1),))] = Fraction(
            rng.randint(-3, 3)
        )
    terms[((Fraction(rng.randint(0, 2)),), (d + 1,))] = Fraction(rng.randint(-2, 2))
    return Series(Signature(1, 1), terms, 8)


def test_division_results_are_canonical():
    rng = random.Random(404)
    sig = Signature(1, 1)
    for _ in range(30):
        d = rng.randint(1, 3)
        f = _operands(rng, sig, fractional_x=False)
        res = weierstrass_divide(f, _regular(rng, d), d)
        assert_canonical(res.quotient)
        assert_canonical(res.remainder)
        assert_canonical(solve_implicit(_regular(rng, 1)))
        k = rng.randint(2, 3)
        zero_exp = ((Fraction(0),), (0,))
        u = random_unit(rng, sig)
        c = Fraction(rng.randint(1, 3)) ** k
        u = Series(sig, {**u.terms, zero_exp: c}, u.precision)
        assert_canonical(unit_root(u, k))


def test_truncate_to_zero_precision_raises():
    with pytest.raises(SeriesError):
        ps("1 + x1", 1, 1).truncate(0)
    with pytest.raises(SeriesError):
        ps("1 + x1", 1, 1).truncate(-1)


def test_scale_by_zero_is_zero_at_same_precision():
    s = ps("1 + x1*y1", 1, 1, prec=5)
    z = s.scale(0)
    assert z.is_zero()
    assert z.precision == Fraction(5)
    assert_canonical(z)


# -- integral x-exponents built from fractional ones ----------------------------


def test_fractional_exponents_that_sum_to_integers_come_out_int():
    half = ps("x1^(1/2)", 1, 1)
    halves = ps("x1^(1/2)*x2^(1/2)", 2, 1)
    cases = [
        (half * half, "x1"),
        (RamifyX(1, Fraction(2)).pullback(half), "x1"),
        (RamifyY(1, 2, -1).pullback(ps("x1^(1/2)*y1 + x1^(3/2)", 1, 1)),
         "x1^(3/2) - x1^(1/2)*y1^2"),
        (divide_monomial(ps("x1^(3/2)", 1, 1), ((Fraction(1, 2),), (0,))), "x1"),
        (divide_monomial(ps("x1^(3/2)*y1", 1, 1), ((Fraction(3, 2),), (1,))), "1"),
        (BlowUpXX(2, 1, 0).pullback(halves), "x1*x2^(1/2)"),
        (BlowUpXX(1, 2, INF).pullback(halves), "x1*x2^(1/2)"),
        (BlowUpYX(1, 1, INF).pullback(ps("x1^(1/2)*y1", 1, 1)), "x1^(1/2)*x2^(3/2)"),
        (BlowUpYX(1, 1, NEG_INF).pullback(ps("x1^(1/2)*y1^3", 1, 1)),
         "-x1^(1/2)*x2^(7/2)"),
        (SignChart(1, -1).pullback(ps("x1^(1/2)*y1^2", 1, 1)), "x1^(1/2)*x2^2"),
    ]
    for r, text in cases:
        assert_canonical(r)
        assert render(r) == text


def test_int_and_integral_fraction_exponents_give_one_series():
    sig = Signature(1, 1)
    a = Series(sig, {((Fraction(2),), (1,)): 3}, 5)
    b = Series(sig, {((2,), (1,)): 3}, 5)
    assert a == b and hash(a) == hash(b)
    assert render(a) == render(b) == "3*x1^2*y1"
    assert_canonical(a)
    assert_canonical(b)
