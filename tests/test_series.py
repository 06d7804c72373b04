"""Core series arithmetic: frozen oracles and ring-law properties."""

from fractions import Fraction
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gpseries.series import (
    Series,
    Signature,
    SeriesError,
    SignatureMismatch,
    common_monomial,
    constant,
    divide_monomial,
    evaluate,
    _evaluate_rounded,
    insert_y,
    invert_unit,
    min_support,
    monomial,
    nth_root_rational,
    partial_y,
    _rational_power,
    render,
    set_to_zero,
    substitute_y,
    total_degree,
    x_var,
    y_var,
    zero,
)
from conftest import ps, random_series, random_unit

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)


# -- strategies ----------------------------------------------------------------

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
x_exps = st.fractions(min_value=0, max_value=4, max_denominator=2)
int_x_exps = st.integers(min_value=0, max_value=4).map(Fraction)
y_exps = st.integers(min_value=0, max_value=4)


def series_st(sig: Signature, prec=8, x_exps=x_exps):
    exps = st.tuples(
        st.tuples(*([x_exps] * sig.m)), st.tuples(*([y_exps] * sig.n))
    )
    return st.dictionaries(exps, small_fracs, max_size=5).map(
        lambda t: Series(sig, t, Fraction(prec))
    )


# -- construction and normalization ---------------------------------------------


def test_zero_coefficients_dropped():
    s = Series(SIG11, {((Fraction(1),), (0,)): Fraction(0)}, 8)
    assert s.is_zero()
    assert s.terms == {}


def test_terms_beyond_precision_dropped():
    s = Series(SIG11, {((Fraction(9),), (0,)): Fraction(1)}, 8)
    assert s.is_zero()


def test_precision_must_be_positive():
    with pytest.raises(SeriesError):
        Series(SIG11, {}, 0)


def test_negative_x_exponent_rejected():
    with pytest.raises(SeriesError):
        Series(SIG11, {((Fraction(-1),), (0,)): Fraction(1)}, 8)


def test_non_integral_y_exponent_rejected():
    with pytest.raises(SeriesError):
        Series(SIG11, {((0,), (Fraction(3, 2),)): 1}, 8)
    with pytest.raises(SeriesError):
        monomial(SIG11, [0], [Fraction(5, 2)], 8)
    # integral values of any rational type are accepted
    assert Series(SIG11, {((0,), (Fraction(2),)): 1}, 8) == monomial(SIG11, [0], [2], 8)


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        zero(SIG11, 8) + zero(SIG21, 8)


def test_immutability():
    s = x_var(SIG11, 1, 8)
    with pytest.raises(AttributeError):
        s.precision = 4


# -- ring laws -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(series_st(SIG11), series_st(SIG11))
def test_addition_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(series_st(SIG11), series_st(SIG11))
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(series_st(SIG11), series_st(SIG11), series_st(SIG11))
def test_multiplication_associates_mod_precision(a, b, c):
    assert ((a * b) * c).eq_mod_precision(a * (b * c))


@settings(max_examples=40, deadline=None)
@given(series_st(SIG11), series_st(SIG11), series_st(SIG11))
def test_distributivity_mod_precision(a, b, c):
    assert (a * (b + c)).eq_mod_precision(a * b + a * c)


@settings(max_examples=40, deadline=None)
@given(series_st(SIG11))
def test_additive_inverse(a):
    assert (a + (-a)).is_zero()


def test_one_is_multiplicative_identity():
    rng = random.Random(7)
    one = constant(SIG21, 1, 8)
    for _ in range(20):
        a = random_series(rng, SIG21)
        assert (one * a).eq_mod_precision(a)


def test_product_precision_gains_order():
    # multiplying by a series of order 2 pushes the certificate out by 2
    a = ps("x1^2", 1, 1, prec=8)
    b = ps("y1 + x1", 1, 1, prec=8)
    assert (a * b).precision == Fraction(10)


def test_pow_matches_repeated_mul():
    s = ps("1 + x1 + y1", 1, 1, prec=6)
    assert (s ** 3).eq_mod_precision(s * s * s)


# -- truncation and support -------------------------------------------------------


def test_truncate_takes_minimum():
    s = ps("x1 + x1^5", 1, 0, prec=8)
    t = s.truncate(3)
    assert t.precision == Fraction(3)
    assert list(t.terms) == [((Fraction(1),), ())]
    assert s.truncate(20).precision == Fraction(8)


def test_order_and_constant_term():
    s = ps("2 + x1^(1/2)", 1, 0)
    assert s.order() == Fraction(0)
    assert s.constant_term() == 2
    assert s.is_unit()
    assert zero(SIG11, 8).order() is None


def brute_min_support(s: Series):
    def leq(a, b):
        return all(u <= v for u, v in zip(a[0], b[0])) and all(
            u <= v for u, v in zip(a[1], b[1])
        )

    return {e for e in s.terms if not any(f != e and leq(f, e) for f in s.terms)}


def test_min_support_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(50):
        s = random_series(rng, SIG21, nterms=6)
        assert min_support(s) == brute_min_support(s)


def test_common_monomial_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        s = random_series(rng, SIG21, nterms=5)
        if s.is_zero():
            continue
        beta = common_monomial(s)
        g = divide_monomial(s, beta)
        assert min(total_degree(e) for e in g.terms) >= 0
        back = g * monomial(SIG21, *beta, precision=s.precision)
        assert back.eq_mod_precision(s)


def test_divide_monomial_errors():
    with pytest.raises(SeriesError, match="precision must be positive"):
        divide_monomial(zero(Signature(1, 0), 8), ((Fraction(8),), ()))
    with pytest.raises(SeriesError, match="not divisible"):
        divide_monomial(ps("x1", 1, 0), ((Fraction(2),), ()))


# -- derivations ---------------------------------------------------------------


def test_partial_y_oracle():
    s = ps("y1^3 + x1*y1", 1, 1)
    d = partial_y(s, 1)
    assert d.eq_mod_precision(ps("3*y1^2 + x1", 1, 1, prec=7))
    assert d.precision == s.precision - 1


@settings(max_examples=40, deadline=None)
@given(series_st(SIG11), series_st(SIG11))
def test_partial_y_leibniz(a, b):
    lhs = partial_y(a * b, 1)
    rhs = partial_y(a, 1) * b + a * partial_y(b, 1)
    assert lhs.eq_mod_precision(rhs)


# -- units and roots -------------------------------------------------------------


def test_invert_unit_oracle():
    u = ps("1 - x1", 1, 0, prec=4)
    inv = invert_unit(u)
    assert inv.eq_mod_precision(ps("1 + x1 + x1^2 + x1^3", 1, 0, prec=4))


def test_invert_unit_property():
    rng = random.Random(11)
    one = constant(SIG11, 1, 8)
    for _ in range(20):
        u = random_unit(rng, SIG11)
        assert (u * invert_unit(u)).eq_mod_precision(one)


def test_invert_nonunit_rejected():
    with pytest.raises(SeriesError):
        invert_unit(x_var(SIG11, 1, 8))


def _add_keeping_zeros(self, other):
    """``Series.__add__`` without the pruning of cancelled sums."""
    terms = dict(self.terms)
    for exp, c in other.terms.items():
        terms[exp] = terms.get(exp, Fraction(0)) + c
    return Series._trusted(self.sig, terms, min(self.precision, other.precision))


@pytest.mark.parametrize(
    "attr, broken",
    [("__add__", _add_keeping_zeros), ("is_zero", lambda self: False)],
    ids=["zero-constant-term", "never-zero"],
)
def test_invert_unit_stops_on_a_broken_kernel(monkeypatch, attr, broken):
    # with cancelled sums kept, 1 - u/u(0) has order 0 and its powers never
    # truncate to zero; with is_zero always false, the loop is never told
    # they did.  Either way the inversion fails at once instead of spinning.
    u = ps("2 + x1 - 3*x1*y1", 1, 1)
    monkeypatch.setattr(Series, attr, broken)
    start = time.monotonic()
    with pytest.raises(SeriesError, match="cannot invert"):
        invert_unit(u)
    assert time.monotonic() - start < 1.0


def test_nth_root_rational():
    assert nth_root_rational(Fraction(4), 2) == 2
    assert nth_root_rational(Fraction(8, 27), 3) == Fraction(2, 3)
    assert nth_root_rational(Fraction(2), 2) is None


def test_nth_root_rational_of_large_integers():
    # beyond the float range: the root is found in integers only
    assert nth_root_rational(Fraction(10**400), 2) == 10**200
    assert nth_root_rational(Fraction(2 * 10**400), 2) is None
    assert nth_root_rational(Fraction(10**600, 7**300), 3) == Fraction(10**200, 7**100)


# -- variable plumbing -----------------------------------------------------------


def test_insert_and_zero_roundtrip():
    s = ps("x1^2 + x1*y1", 1, 1)
    with_x2 = ps("x1^2 + x1*y1 + x2*y1 + x1*x2^(1/2)", 2, 1)
    assert set_to_zero(with_x2, zero_x=(2,)).eq_mod_precision(s)
    up2 = insert_y(s, 2)
    assert up2.sig == Signature(1, 2)
    assert set_to_zero(up2, zero_y=(2,)).eq_mod_precision(s)


def test_set_y_to_zero_kills_terms():
    s = ps("x1 + x1*y1^2", 1, 1)
    assert set_to_zero(s, zero_y=(1,)).eq_mod_precision(ps("x1", 1, 0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_set_to_zero_matches_evaluate(data):
    # restricting any subset of variables at once is evaluation with those
    # coordinates set to zero
    sig = data.draw(st.sampled_from([SIG21, Signature(1, 2), Signature(2, 2)]))
    a = data.draw(st.one_of(series_st(sig), series_st(sig, x_exps=int_x_exps)))
    zx = tuple(i for i in range(1, sig.m + 1) if data.draw(st.booleans()))
    zy = tuple(j for j in range(1, sig.n + 1) if data.draw(st.booleans()))
    coord = st.fractions(0, 1, max_denominator=20)
    xs = [data.draw(coord) for _ in range(sig.m)]
    ys = [data.draw(coord) for _ in range(sig.n)]
    point = [Fraction(0) if i in zx else v for i, v in enumerate(xs, 1)]
    point += [Fraction(0) if j in zy else v for j, v in enumerate(ys, 1)]
    reduced_point = [v for i, v in enumerate(xs, 1) if i not in zx]
    reduced_point += [v for j, v in enumerate(ys, 1) if j not in zy]
    r = set_to_zero(a, zx, zy)
    assert r.sig == Signature(sig.m - len(zx), sig.n - len(zy))
    assert r.precision == a.precision
    assert evaluate(r, reduced_point).value == evaluate(a, point).value


def test_substitute_y_oracle():
    # y1 -> x1 + y1 in y1^2
    s = ps("y1^2", 1, 1)
    rep = ps("x1 + y1", 1, 1)
    out = substitute_y(s, {1: rep})
    assert out.eq_mod_precision(ps("x1^2 + 2*x1*y1 + y1^2", 1, 1))


# -- evaluation -----------------------------------------------------------------


def test_evaluate_value_and_tail():
    s = ps("x1 + y1^2", 1, 1, prec=4)
    ev = evaluate(s, [Fraction(1, 4), Fraction(1, 2)])
    assert ev.value == Fraction(1, 4) + Fraction(1, 4)
    # tail bound is (sum |coeffs| style) * r^precision with r = max coord
    assert ev.tail_bound >= 0


def _evaluate_by_fractions(a, point):
    """Reference for ``evaluate``: the term-by-term ``Fraction`` sum it used
    before the common-denominator evaluation, with its float fallback; a
    term with a zero coordinate to a positive power is exactly 0."""
    pt = [Fraction(p) for p in point]
    exact = True
    total = Fraction(0)
    for (xs, ys), c in a.terms.items():
        if any(e and not base for base, e in zip(pt, xs + ys)):
            continue
        term = c
        for base, e in zip(pt[: a.sig.m], xs):
            if e == 0:
                continue
            p = _rational_power(base, e) if base > 0 else (Fraction(0) if e > 0 else None)
            if p is None:
                exact = False
                term = float(term) * float(base) ** float(e)
            else:
                term = term * p if isinstance(term, Fraction) else term * float(p)
        for base, e in zip(pt[a.sig.m :], ys):
            if e:
                term = term * base**e if isinstance(term, Fraction) else term * float(base**e)
        total = total + term if (isinstance(total, Fraction) and isinstance(term, Fraction)) else float(total) + float(term)
    if not exact and isinstance(total, Fraction):
        total = float(total)
    norm = max((abs(float(p)) for p in pt), default=0.0)
    csum = float(sum(abs(c) for c in a.terms.values()))
    tail = csum * norm ** float(a.precision) if norm > 0 else 0.0
    return total, tail


x_coords = st.one_of(
    st.just(0.0), st.integers(0, 2), st.floats(0, 1), st.fractions(0, 1, max_denominator=50)
)
y_coords = st.one_of(
    st.just(0.0), st.integers(-2, 2), st.floats(-1, 1), st.fractions(-1, 1, max_denominator=50)
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_matches_fraction_sum(data):
    # bit for bit: the value (type included) and the tail bound, with integer
    # and fractional x-exponents, float, Fraction and int coordinates
    sig = data.draw(st.sampled_from([SIG11, SIG21, Signature(1, 0), Signature(0, 2)]))
    a = data.draw(st.one_of(series_st(sig), series_st(sig, x_exps=int_x_exps)))
    point = [data.draw(x_coords) for _ in range(sig.m)]
    point += [data.draw(y_coords) for _ in range(sig.n)]
    value, tail = _evaluate_by_fractions(a, point)
    for _ in range(2):  # the second call reads the table kept on the series
        ev = evaluate(a, point)
        assert type(ev.value) is type(value)
        assert ev.value == value
        assert ev.tail_bound == tail
    # the float point maps and membership read the value rounded once
    rounded = _evaluate_rounded(a, point)
    assert type(rounded.value) is float
    assert repr(rounded.value) == repr(float(value))
    assert rounded.tail_bound == tail


def test_evaluate_is_exact_when_irrational_powers_vanish():
    # sqrt(1/3) is irrational, but its term has the factor y1 = 0
    a = ps("x2 + x2^(1/2)*y1", 2, 1)
    point = [Fraction(0), Fraction(1, 3), Fraction(0)]
    assert evaluate(a, point).value == Fraction(1, 3)
    assert evaluate(set_to_zero(a, zero_y=(1,)), point[:2]).value == Fraction(1, 3)


def test_evaluate_is_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        a = random_series(rng, SIG11, nterms=3)
        b = random_series(rng, SIG11, nterms=3)
        p = [Fraction(1, 10), Fraction(-1, 10)]
        # y-coordinates may be negative; x must stay nonnegative
        p[0] = abs(p[0])
        va = evaluate(a, p)
        vb = evaluate(b, p)
        vab = evaluate(a * b, p)
        bound = (
            float(vab.tail_bound)
            + float(va.tail_bound) * abs(float(vb.value))
            + float(vb.tail_bound) * abs(float(va.value))
            + float(va.tail_bound) * float(vb.tail_bound)
        )
        assert abs(float(vab.value) - float(va.value) * float(vb.value)) <= bound + 1e-12


def test_render_parse_roundtrip():
    rng = random.Random(13)
    for _ in range(25):
        s = random_series(rng, SIG21, nterms=4)
        if s.is_zero():
            continue
        text = render(s)
        back = ps(text, 2, 1)
        assert back.eq_mod_precision(s)
