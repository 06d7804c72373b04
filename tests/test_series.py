"""Core series arithmetic: frozen oracles and ring-law properties."""

from fractions import Fraction
import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from gpseries.series import (
    Exponent,
    Series,
    Signature,
    SeriesError,
    SignatureMismatch,
    common_monomial,
    constant,
    divide_monomial,
    evaluate,
    _evaluation,
    _norm,
    _point_ratios,
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
    _below,
    _substitution_precision,
)
from gpseries.transforms import RamifyX
from conftest import canonical_rational, ps, random_series, random_unit

SIG11 = Signature(1, 1)
SIG21 = Signature(2, 1)


def _evaluate_rounded(a, point):
    """The evaluation that ``membership`` reads: the value rounded once."""
    return _evaluation(a, _point_ratios(a.sig, point), _norm(point), rounded=True)


# -- strategies ----------------------------------------------------------------

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
x_exps = st.fractions(min_value=0, max_value=4, max_denominator=2)
int_x_exps = st.integers(min_value=0, max_value=4).map(Fraction)
y_exps = st.integers(min_value=0, max_value=4)
wide_exps = st.integers(min_value=0, max_value=8)


def series_st(sig: Signature, prec=8, x_exps=x_exps, y_exps=y_exps, max_size=5):
    exps = st.tuples(
        st.tuples(*([x_exps] * sig.m)), st.tuples(*([y_exps] * sig.n))
    )
    return st.dictionaries(exps, small_fracs, max_size=max_size).map(
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None, "banana", "1/0"])
def test_a_bad_precision_raises_series_error(bad):
    # the precision twin of a bad coordinate: a SeriesError naming the value,
    # not a raw OverflowError, TypeError, ValueError or ZeroDivisionError
    named = re.escape(f"precision {bad!r} is not a finite number")
    builds = (lambda: Series(SIG11, {((1,), (0,)): 1}, bad), lambda: ps("1 + x1", 1, 1).truncate(bad),
              lambda: zero(SIG11, bad), lambda: constant(SIG11, 2, bad))
    for build in builds:
        with pytest.raises(SeriesError, match=named):
            build()
    for build in (lambda: zero(SIG11, 0), lambda: constant(SIG11, 2, Fraction(-1, 2))):
        with pytest.raises(SeriesError, match="precision must be positive"):
            build()


def test_one_series_whatever_form_the_precision_is_given_in():
    terms = {((1,), (2,)): Fraction(1, 3), ((Fraction(1, 2),), (0,)): -2, ((9,), (0,)): 5}
    for forms, value, kind in (([8, Fraction(8), "8", "16/2", 8.0], 8, int),
                               ([Fraction(15, 2), "15/2", "30/4", 7.5], Fraction(15, 2), Fraction)):
        made = [Series(SIG11, terms, p) for p in forms]
        made += [zero(SIG11, p) + m for p, m in zip(forms, made)]
        made += [ps("1 + x1^9", 1, 1, prec=20).truncate(p) * constant(SIG11, 1, p) for p in forms]
        for s in made[: len(forms)]:
            assert s == made[0] and hash(s) == hash(made[0])
            assert (render(s), repr(s), str(s.precision)) == (render(made[0]), repr(made[0]), str(value))
        for s in made:
            assert s.precision == value and type(s.precision) is kind, s


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


def test_degrees_are_exact_sums_and_int_when_every_exponent_is():
    cases = [
        (((1, 2), (3,)), 6, int),
        (((0, 0), (0,)), 0, int),
        (((Fraction(1, 2), 1), (2,)), Fraction(7, 2), Fraction),
        (((Fraction(1, 2), Fraction(1, 2)), (0,)), 1, Fraction),
    ]
    for exp, degree, kind in cases:
        assert total_degree(exp) == degree and type(total_degree(exp)) is kind
    assert type(ps("x1^2*y1 + x1*y1^3", 1, 1).order()) is int
    assert ps("x1^(3/2) + x1^2", 1, 1).order() == Fraction(3, 2)


@pytest.mark.parametrize("sig", [Signature(0, 1), SIG11, Signature(1, 2), SIG21], ids=str)
def test_cut_product_is_the_truncated_product(sig):
    # operands at unequal precisions, fractional x-exponents, a zero operand,
    # and cuts below, at and above the product precision; then 40 more draws
    # at non-integral precisions such as 15/2 and 16/3, with RamifyX(2/3)
    # pullbacks, where int degrees meet Fraction precisions
    rng = random.Random(31 * sig.m + sig.n)
    ramify = RamifyX(1, Fraction(2, 3))
    dropped = 0
    for dens in [[1, 2]] * 80 + [[2, 3]] * 40:
        a, b = (random_series(rng, sig, Fraction(rng.randint(2, 12), rng.choice(dens)),
                              nterms=rng.randint(0, 7)) for _ in range(2))
        if 3 in dens and sig.m and rng.random() < 0.5:
            a = ramify.pullback(a)
        full = a * b
        for cut in (Fraction(rng.randint(1, 14), rng.choice([1, 2, 3])),
                    full.precision, full.precision + 1, full.precision - Fraction(1, 2)):
            if cut <= 0:
                continue
            want, got = full.truncate(cut), a._mul(b, cut)
            assert list(got.terms.items()) == list(want.terms.items()), (a, b, cut)
            assert got.precision == want.precision and canonical_rational(got.precision)
            dropped += len(full.terms) - len(want.terms)
    assert dropped > 50


def _fraction_product(a: Series, b: Series, cut=None) -> tuple[Series, int]:
    """``(a._mul(b, cut), number of sums that ended at 0)`` by a loop over
    ``Fraction`` coefficients: a-outer, b-inner, a term kept when its degree
    is below the precision, a sum that reaches 0 keeping its slot, and the
    zero sums dropped at the end."""
    orders = [(a.precision, b.order()), (b.precision, a.order())]
    prec = min([p + o for p, o in orders if o is not None] or [a.precision, b.precision])
    if cut is not None:
        prec = min(prec, cut)

    def canon(q):
        return q.numerator if q.denominator == 1 else q

    prec = canon(Fraction(prec))

    terms = {}
    for (xa, ya), ca in a.terms.items():
        for (xb, yb), cb in b.terms.items():
            if total_degree((xa, ya)) + total_degree((xb, yb)) < prec:
                exp = (tuple(canon(Fraction(p + q)) for p, q in zip(xa, xb)),
                       tuple(p + q for p, q in zip(ya, yb)))
                terms[exp] = terms.get(exp, Fraction(0)) + ca * cb
    kept = {e: c for e, c in terms.items() if c}
    return Series._trusted(a.sig, kept, prec), len(terms) - len(kept)


def _negate_one_term(rng, a: Series) -> Series:
    """``a`` with one term negated: ``(P + t) * (P - t)`` cancels its cross terms."""
    if not a.terms:
        return a
    flip = rng.choice(list(a.terms))
    return Series(a.sig, {e: -c if e == flip else c for e, c in a.terms.items()}, a.precision)


def _parts(s: Series):
    return (list(s.terms.items()), [tuple(map(type, xs)) for xs, _ in s.terms],
            s.precision, type(s.precision))


@pytest.mark.parametrize(
    "sig", [Signature(0, 1), SIG11, Signature(1, 2), SIG21, Signature(2, 2)], ids=str
)
def test_integer_product_is_the_fraction_product(sig):
    # coefficient denominators up to 7, fractional x-exponents, precisions
    # with denominators 1-3, zero operands, pairs built to cancel, and cuts
    # below, at and above the product precision
    rng = random.Random(97 * sig.m + sig.n)
    cancelled = fractional = 0
    for _ in range(120):
        a = random_series(rng, sig, Fraction(rng.randint(2, 14), rng.randint(1, 3)),
                          nterms=rng.randint(0, 7), max_den=3, coeff_den=7)
        b = (_negate_one_term(rng, a) if rng.random() < 0.4 else
             random_series(rng, sig, Fraction(rng.randint(2, 14), rng.randint(1, 3)),
                           nterms=rng.randint(0, 7), max_den=3, coeff_den=7))
        want, zeros = _fraction_product(a, b)
        assert _parts(a * b) == _parts(want), (a, b)
        cancelled += zeros > 0
        fractional += any(type(e) is Fraction for xs, _ in want.terms for e in xs)
        for cut in (Fraction(rng.randint(1, 14), rng.randint(1, 3)),
                    want.precision, want.precision + 1, want.precision - Fraction(1, 3)):
            if cut > 0:
                assert _parts(a._mul(b, cut)) == _parts(_fraction_product(a, b, cut)[0]), (a, b, cut)
    assert cancelled > 10 and (fractional > 10 or not sig.m)


def test_a_sum_that_reaches_zero_keeps_its_first_slot():
    # x1*y1 gets 1, then -1 (sum 0), then 3 from the last term of a: it stays first
    x, y, one = ((1,), (0,)), ((0,), (1,)), ((0,), (0,))
    xy = ((1,), (1,))
    a = Series(SIG11, {x: 1, y: -1, xy: 3}, 10)
    b = Series(SIG11, {y: 1, x: 1, one: 1}, 10)
    got = a * b
    assert list(got.terms) == [xy, ((2,), (0,)), x, ((0,), (2,)), y, ((1,), (2,)), ((2,), (1,))]
    assert got.terms[xy] == 3
    assert _parts(got) == _parts(_fraction_product(a, b)[0])


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


def _geometric_inverse(u: Series) -> Series:
    """The inverse as the geometric series (1/c) * sum e^k, e = 1 - u/c,
    each power a cut product: the inversion before the binomial series."""
    c, P = u.constant_term(), u.precision
    e = constant(u.sig, 1, P) - u.scale(Fraction(1) / c)
    acc = term = constant(u.sig, 1, P)
    while not (term := term._mul(e, P)).is_zero():
        acc = acc + term
    return acc.scale(Fraction(1) / c).truncate(P)


@pytest.mark.parametrize("sig", [SIG11, Signature(1, 2), SIG21], ids=str)
def test_invert_unit_is_the_geometric_series(sig):
    # same terms, in the same order, at the same precision
    rng = random.Random(19)
    for _ in range(60):
        prec = Fraction(rng.randint(4, 16), rng.randint(1, 2))
        u = random_unit(rng, sig, prec, nterms=rng.randint(1, 5))
        inv, ref = invert_unit(u), _geometric_inverse(u)
        assert list(inv.terms.items()) == list(ref.terms.items())
        assert inv.precision == ref.precision


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


@pytest.mark.parametrize(
    "make,axis,index",
    [(x_var, "x", 0), (x_var, "x", -1), (x_var, "x", 3), (y_var, "y", 0), (y_var, "y", -1), (y_var, "y", 2)],
)
def test_variable_index_out_of_range_raises(make, axis, index):
    # the index is 1-based: 0 and -1 would wrap around to the last variable
    sig = Signature(2, 1)
    message = f"{axis}-index {index} out of range for {sig}"
    with pytest.raises(SeriesError, match=f"^{re.escape(message)}$"):
        make(sig, index, 8)


def test_substitute_y_rejects_bad_replacements():
    a = ps("y1^2 + x1*y1", 1, 1)
    with pytest.raises(SeriesError, match=r"^y-index 2 out of range for "):
        substitute_y(a, {2: ps("x1", 1, 1)})
    with pytest.raises(SignatureMismatch):
        substitute_y(a, {1: ps("x1", 1, 2)})
    with pytest.raises(SeriesError, match="^replacement series must vanish at the origin$"):
        substitute_y(a, {1: ps("1 + x1", 1, 1)})


def test_substitute_y_oracle():
    # y1 -> x1 + y1 in y1^2
    s = ps("y1^2", 1, 1)
    rep = ps("x1 + y1", 1, 1)
    out = substitute_y(s, {1: rep})
    assert out.eq_mod_precision(ps("x1^2 + 2*x1*y1 + y1^2", 1, 1))


def _substitute_term_by_term(a, reps):
    """Reference substitution: a one-term piece per term of ``a``, times
    cached powers of the replacements, folded with ``+``; the result claims
    ``a.precision * min(1, orders)`` whatever the pieces' precisions."""
    prec = a.precision
    cache = {}

    def power(j, k):
        if k == 0:
            return constant(a.sig, 1, prec)
        if (j, k) not in cache:
            cache[(j, k)] = (power(j, k - 1) * reps[j]).truncate(prec)
        return cache[(j, k)]

    result = zero(a.sig, prec)
    for (xs, ys), c in a.terms.items():
        ys0 = tuple(0 if j in reps else e for j, e in enumerate(ys, 1))
        piece = Series(a.sig, {(xs, ys0): c}, prec)
        for j, e in enumerate(ys, 1):
            if j in reps and e:
                piece = (piece * power(j, e)).truncate(prec)
        result = result + piece
    orders = [r.order() for r in reps.values() if not r.is_zero()]
    return Series(a.sig, result.terms, prec * min([1, *orders]))


@pytest.mark.parametrize("m, n", [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_substitute_y_matches_term_by_term_reference(m, n):
    # replacement precisions fall below and above the target's, as in the
    # division chains, where a third of the replacements are the coarser
    sig = Signature(m, n)
    rng = random.Random(1000 * m + n)
    zero_exp = ((0,) * m, (0,) * n)
    coarse = 0
    for _ in range(150):
        prec = Fraction(rng.randint(2, 9), rng.choice([1, 2, 3]))
        a = random_series(rng, sig, prec, nterms=rng.randint(0, 8),
                          fractional_x=rng.random() < 0.5)
        reps = {}
        for j in rng.sample(range(1, n + 1), rng.randint(1, n)):
            r = random_series(rng, sig, Fraction(rng.randint(1, 12), rng.choice([1, 2])),
                              nterms=rng.randint(0, 4), fractional_x=rng.random() < 0.5)
            reps[j] = Series(sig, {e: c for e, c in r.terms.items() if e != zero_exp},
                             r.precision)
            coarse += reps[j].precision < prec
        got, want = substitute_y(a, reps), _substitute_term_by_term(a, reps)
        assert (got.terms, got.precision) == (want.terms, want.precision), (a, reps)
    assert coarse > 20


def _substitute_by_fractions(a, replacements):
    """``substitute_y`` as it was before it summed in integers: one cut
    product of ``Fraction`` coefficients per group and per power, the groups
    folded with ``+``."""
    for j, rep in replacements.items():
        if not 1 <= j <= a.sig.n:
            raise SeriesError(f"y-index {j} out of range for {a.sig}")
        if rep.sig != a.sig:
            raise SignatureMismatch(f"{rep.sig} != {a.sig}")
        if rep.constant_term() != 0:
            raise SeriesError("replacement series must vanish at the origin")
    prec = _substitution_precision(
        a.precision,
        [rep.order() for rep in replacements.values() if not rep.is_zero()],
    )
    P = a.precision
    js = sorted(replacements)
    groups: dict[tuple[int, ...], dict[Exponent, Fraction]] = {}
    for (xs, ys), c in a.terms.items():
        ys0 = tuple(0 if j in replacements else e for j, e in enumerate(ys, 1))
        groups.setdefault(tuple(ys[j - 1] for j in js), {})[(xs, ys0)] = c
    powers = {j: [constant(a.sig, 1, P)] for j in js}
    result = zero(a.sig, P)
    for ks, terms in groups.items():
        piece = Series._trusted(a.sig, terms, P)
        for j, k in zip(js, ks):
            if k:
                rj = powers[j]
                while len(rj) <= k:
                    rj.append(rj[-1]._mul(replacements[j], P))
                piece = piece._mul(rj[k], P)
        result = result + piece
    return Series._trusted(a.sig, _below(result.terms, prec), prec)


def _replacement(rng, sig: Signature) -> Series:
    """A replacement without constant term, zero in about one draw of seven,
    at a precision from 1/3 to 14."""
    zero_exp = ((0,) * sig.m, (0,) * sig.n)
    prec = Fraction(rng.randint(1, 14), rng.choice([1, 2, 3]))
    if rng.random() < 0.15:
        return zero(sig, prec)
    r = random_series(rng, sig, prec, nterms=rng.randint(1, 4), max_den=2,
                      fractional_x=rng.random() < 0.6, coeff_den=rng.choice([1, 5, 7]))
    return Series(sig, {e: c for e, c in r.terms.items() if e != zero_exp}, r.precision)


def _with_cancellation(rng, a: Series, j: int, rep: Series) -> Series:
    """``a + c*M*Y_j - c*M*R_j`` for a random monomial ``M`` free of Y_j: the
    two added pieces cancel once Y_j is replaced by ``R_j``."""
    sig = a.sig
    xs = tuple(Fraction(rng.randint(0, 2), rng.choice([1, 2])) for _ in range(sig.m))
    ys = tuple(0 if i == j else rng.randint(0, 1) for i in range(1, sig.n + 1))
    c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 3]))
    terms = dict(a.terms)
    yj = ys[: j - 1] + (1,) + ys[j:]
    for key, v in [((xs, yj), c)] + [
        ((tuple(p + q for p, q in zip(xs, ex)), tuple(p + q for p, q in zip(ys, ey))), -c * v)
        for (ex, ey), v in rep.terms.items()
    ]:
        terms[key] = terms.get(key, Fraction(0)) + v
    return Series(sig, terms, a.precision)


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(3) for n in range(1, 4)]
)
def test_substitute_y_is_the_fraction_substitution(m, n):
    # same terms in the same order, same exponent types, same precision:
    # fractional x-exponents (halves that sum to integers), coefficient
    # denominators 1-7, zero replacements, replacements coarser and finer
    # than the target, 1 to n replaced variables, and targets built to cancel
    sig = Signature(m, n)
    rng = random.Random(7100 + 10 * m + n)
    coarse = fine = zeros = cancelling = 0
    for _ in range(240):
        prec = Fraction(rng.randint(2, 12), rng.choice([1, 2, 3]))
        a = random_series(rng, sig, prec, nterms=rng.randint(0, 9), max_den=2,
                          fractional_x=rng.random() < 0.5, coeff_den=rng.choice([1, 3, 7]))
        reps = {j: _replacement(rng, sig) for j in rng.sample(range(1, n + 1), rng.randint(1, n))}
        if rng.random() < 0.35:
            j = rng.choice(list(reps))
            a = _with_cancellation(rng, a, j, reps[j])
            cancelling += 1
        coarse += any(r.precision < a.precision for r in reps.values())
        fine += any(r.precision > a.precision for r in reps.values())
        zeros += any(r.is_zero() for r in reps.values())
        got, want = substitute_y(a, reps), _substitute_by_fractions(a, reps)
        assert _parts(got) == _parts(want), (a, reps)
    assert min(coarse, fine, zeros, cancelling) > 20


def test_substitute_y_puts_a_key_that_comes_back_at_the_end():
    # x1^2 cancels in the y1 group (-x1 * x1) and comes back in the y1^2 group
    # (1 * x1^2): it follows x1^3, as adding the groups one by one would put it
    a, reps = ps("x1^2 + x1^3 - x1*y1 + y1^2", 1, 1), {1: ps("x1", 1, 1)}
    got = substitute_y(a, reps)
    assert list(got.terms.items()) == [(((3,), (0,)), 1), (((2,), (0,)), 1)]
    assert got.precision == a.precision
    assert _parts(got) == _parts(_substitute_by_fractions(a, reps))


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
    # and fractional x-exponents, float, Fraction and int coordinates; the
    # wide draws (integral exponents up to 8, up to 8 terms, precision above
    # every total degree) give exponent gaps, coordinates in no term and up
    # to four nested exponent levels
    sig = data.draw(st.sampled_from(
        [SIG11, SIG21, Signature(1, 0), Signature(0, 2), Signature(2, 2), Signature(3, 1)]
    ))
    wide = series_st(
        sig, prec=8 * (sig.m + sig.n) + 1, x_exps=wide_exps, y_exps=wide_exps, max_size=8
    )
    a = data.draw(st.one_of(series_st(sig), series_st(sig, x_exps=int_x_exps), wide))
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("evaluator", [evaluate, _evaluate_rounded])
def test_evaluate_rejects_non_finite_coordinates(bad, evaluator):
    a = ps("y1^2 - x1^3", 1, 1)
    for point, pos in (([bad, 0.5], 1), ([0.5, bad], 2)):
        with pytest.raises(SeriesError, match=f"position {pos}"):
            evaluator(a, point)
    # a fractional x-exponent takes the term-by-term path, checked the same way
    with pytest.raises(SeriesError, match="position 2"):
        evaluator(ps("x1^(1/2)*y1", 1, 1), [0.25, bad])
    with pytest.raises(SeriesError, match="negative x-coordinate"):
        evaluator(a, [-0.5, 0.5])


@pytest.mark.parametrize("evaluator", [evaluate, _evaluate_rounded])
def test_evaluate_rejects_coordinates_that_are_not_numbers(evaluator):
    for point, pos in (([None, 1], 1), ([0.5, "y"], 2), ([0.5, [1]], 2), (["1/0", 1], 1)):
        with pytest.raises(SeriesError, match=f"at position {pos} is not a finite number"):
            evaluator(x_var(SIG11, 1, 4), point)


def test_evaluate_tail_bound_overflows_to_infinity():
    # the exact value is finite; only the tail bound leaves the float range
    a = ps("x1^2*y1 + 1/3*y1^5", 1, 1)
    ev = evaluate(a, [0.5, 1e308])
    y = Fraction(1e308)
    assert ev.value == Fraction(1, 4) * y + y**5 / 3
    assert ev.tail_bound == math.inf
    ev = _evaluate_rounded(ps("x1^2*y1", 1, 1), [0.5, 1e308])
    assert (ev.value, ev.tail_bound) == (0.25e308, math.inf)
    assert evaluate(ps("0", 1, 1), [0.5, 1e308]).tail_bound == 0.0
    # a value past the largest float rounds to an infinity of its sign
    assert _evaluate_rounded(a, [0.5, 1e308]).value == math.inf
    assert _evaluate_rounded(a, [0.5, -1e308]).value == -math.inf
    # so does the fractional-exponent path, exact or past an irrational power
    b = ps("x1^(1/2)*y1^5", 1, 1)
    assert _evaluate_rounded(b, [0.25, 1e308]).value == math.inf
    assert _evaluate_rounded(b, [0.25, -1e308]).value == -math.inf
    c = ps("-x1^(1/3)*y1^2", 1, 1)
    assert _evaluate_rounded(c, [2.0, 1e200]) == (-math.inf, math.inf)
    assert evaluate(c, [2.0, 1e200]).value == -math.inf
    assert evaluate(ps("x1^(3/2)", 1, 1), [1e300, 0.5]).value == math.inf


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


def _render_by_fractions(a: Series) -> str:
    """``render`` as written with ``Fraction`` arithmetic on each
    coefficient (``abs``, ``== 1``, ``< 0``) and ``e.denominator`` on each
    x-exponent, before it read the coefficients' integer parts."""
    if not a.terms:
        return "0"
    keys = sorted(a.terms, key=lambda e: (total_degree(e), e[0], e[1]))
    parts = []
    for exp in keys:
        c = a.terms[exp]
        factors = []
        for i, e in enumerate(exp[0]):
            if e == 0:
                continue
            power = "" if e == 1 else f"^{e}" if e.denominator == 1 else f"^({e})"
            factors.append(f"x{i+1}{power}")
        for j, e in enumerate(exp[1]):
            if e == 0:
                continue
            factors.append(f"y{j+1}" + (f"^{e}" if e != 1 else ""))
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def test_render_matches_the_fraction_reference():
    # every signature (0..3, 0..3), fractional x-exponents, coefficients +-1,
    # negative and fractional ones, and the zero series
    rng = random.Random(29)
    seen = {"one": 0, "minus_one": 0, "fraction": 0, "x_fraction": 0, "zero": 0}
    for m in range(4):
        for n in range(4):
            sig = Signature(m, n)
            for _ in range(40):
                s = random_series(rng, sig, nterms=rng.randint(0, 6), max_den=3, coeff_den=4)
                assert render(s) == _render_by_fractions(s), s
                coeffs = s.terms.values()
                seen["one"] += 1 in coeffs
                seen["minus_one"] += -1 in coeffs
                seen["fraction"] += any(c.denominator > 1 for c in coeffs)
                seen["x_fraction"] += any(type(e) is Fraction for xs, _ in s.terms for e in xs)
                seen["zero"] += s.is_zero()
    assert min(seen.values()) >= 20, seen
