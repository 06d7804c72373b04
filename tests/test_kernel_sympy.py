"""Differential check of the exact kernel against sympy's ``expand``.

Inputs are sparse series over the signatures (1,1), (2,1) and (1,2), drawn by
hypothesis: with integer exponents at integer precisions, and for the root,
the implicit solve and the monomial division also with fractional
x-exponents at fractional precisions.  Each kernel result is compared, term by
term, with the exact sympy expansion of the same expression truncated at the
result's certified precision.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gpseries.division import solve_implicit, unit_root
from gpseries.series import (
    Series,
    Signature,
    divide_monomial,
    invert_unit,
    substitute_y,
    total_degree,
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

SIGS = [Signature(1, 1), Signature(2, 1), Signature(1, 2)]
EXAMPLES = settings(max_examples=25, deadline=None)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
precisions = st.integers(min_value=2, max_value=7)
int_exps = st.integers(0, 3)
frac_exps = st.fractions(min_value=0, max_value=3, max_denominator=3)
frac_precisions = st.fractions(min_value=Fraction(1, 2), max_value=5, max_denominator=3)


# -- sympy side ------------------------------------------------------------------


def xsyms(m):
    return sympy.symbols(f"x1:{m + 1}") if m else ()


def ysyms(n):
    return sympy.symbols(f"y1:{n + 1}") if n else ()


def q(v) -> sympy.Rational:
    v = Fraction(v)
    return sympy.Rational(v.numerator, v.denominator)


def frac(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


def to_expr(s: Series):
    xs, ys = xsyms(s.sig.m), ysyms(s.sig.n)
    total = sympy.Integer(0)
    for (ex, ey), c in s.terms.items():
        term = q(c)
        for v, e in zip(xs, ex):
            term *= v ** q(e)
        for v, e in zip(ys, ey):
            term *= v**e
        total += term
    return total


def truncated_terms(expr, sig: Signature, precision) -> dict:
    """Terms of ``expand(expr)`` of total degree below ``precision``.  A
    nested power such as ``(x1^2)^(1/3)`` reads as ``x1^(2/3)``."""
    xs, ys = xsyms(sig.m), ysyms(sig.n)
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        if term == 0:
            continue
        c, rest = term.as_coeff_Mul()
        powers = sympy.powdenest(rest, force=True).as_powers_dict()
        ex = tuple(frac(powers.get(v, 0)) for v in xs)
        ey = tuple(int(powers.get(v, 0)) for v in ys)
        if sum(ex, Fraction(0)) + sum(ey) < precision:
            key = (ex, ey)
            out[key] = out.get(key, Fraction(0)) + frac(c)
    return {k: v for k, v in out.items() if v}


def test_truncated_terms_reads_a_nested_power():
    # x1 <- x1^2 on x1^(1/3): the term keys by x1^(2/3), not by x1^2
    (x1,), (y1,) = xsyms(1), ysyms(1)
    nested = (x1**2) ** sympy.Rational(1, 3)
    assert truncated_terms(nested, Signature(1, 1), 8) == {((Fraction(2, 3),), (0,)): 1}
    assert truncated_terms(3 * y1 * x1 * nested, Signature(1, 1), 8) == {
        ((Fraction(5, 3),), (1,)): 3
    }


def assert_matches(result: Series, expr):
    assert result.terms == truncated_terms(expr, result.sig, result.precision)


# -- strategies ------------------------------------------------------------------


def sparse_series(sig: Signature, precision=None, no_constant=False, xexps=int_exps):
    """Up to 4 terms; ``precision`` is a value, a strategy, or None for ``precisions``."""
    exps = st.tuples(st.tuples(*[xexps] * sig.m), st.tuples(*[int_exps] * sig.n))
    if no_constant:
        exps = exps.filter(lambda e: any(e[0]) or any(e[1]))
    if precision is None:
        precision = precisions
    elif not isinstance(precision, st.SearchStrategy):
        precision = st.just(precision)
    return st.builds(
        lambda terms, p: Series(sig, terms, p),
        st.dictionaries(exps, coeffs, max_size=4),
        precision,
    )


@st.composite
def sig_and_pair(draw):
    sig = draw(st.sampled_from(SIGS))
    return sig, draw(sparse_series(sig)), draw(sparse_series(sig))


# -- ring operations ---------------------------------------------------------------


@EXAMPLES
@given(sig_and_pair())
def test_add_matches_sympy(case):
    _, a, b = case
    r = a + b
    assert r.precision == min(a.precision, b.precision)
    assert_matches(r, to_expr(a) + to_expr(b))


def _order(s: Series):
    return min((sum(xs, Fraction(0)) + sum(ys) for xs, ys in s.terms), default=None)


@EXAMPLES
@given(sig_and_pair())
def test_mul_matches_sympy(case):
    _, a, b = case
    r = a * b
    oa, ob = _order(a), _order(b)
    bounds = [a.precision + ob] if ob is not None else []
    bounds += [b.precision + oa] if oa is not None else []
    assert r.precision == min(bounds or [a.precision, b.precision])
    assert_matches(r, to_expr(a) * to_expr(b))


@st.composite
def substitution(draw):
    sig = draw(st.sampled_from(SIGS))
    a = draw(sparse_series(sig))
    js = draw(st.sets(st.integers(1, sig.n), min_size=1))
    reps = {j: draw(sparse_series(sig, a.precision, no_constant=True)) for j in sorted(js)}
    return a, reps


@EXAMPLES
@given(substitution())
def test_substitute_y_matches_sympy(case):
    a, reps = case
    r = substitute_y(a, reps)
    assert r.precision == a.precision
    ys = ysyms(a.sig.n)
    expected = to_expr(a).subs(
        {ys[j - 1]: to_expr(rep) for j, rep in reps.items()}, simultaneous=True
    )
    assert_matches(r, expected)


@st.composite
def substitution_at_other_precisions(draw):
    """A target and replacements at precisions drawn independently, with
    fractional x-exponents (ROADMAP item 10)."""
    sig = draw(st.sampled_from(SIGS))
    a = draw(sparse_series(sig, frac_precisions, xexps=frac_exps))
    js = draw(st.sets(st.integers(1, sig.n), min_size=1))
    reps = {
        j: draw(sparse_series(sig, frac_precisions, no_constant=True, xexps=frac_exps))
        for j in sorted(js)
    }
    return a, reps


@EXAMPLES
@given(substitution_at_other_precisions())
def test_substitute_y_matches_sympy_at_other_precisions(case):
    # the terms are exact below the claim and below every replacement's
    # precision; whether the claim itself holds is ROADMAP item 1
    a, reps = case
    r = substitute_y(a, reps)
    bound = min([r.precision, *(rep.precision for rep in reps.values())])
    ys = ysyms(a.sig.n)
    expected = to_expr(a).subs(
        {ys[j - 1]: to_expr(rep) for j, rep in reps.items()}, simultaneous=True
    )
    below = {e: c for e, c in r.terms.items() if total_degree(e) < bound}
    assert below == truncated_terms(expected, a.sig, bound)


def zero_exponent(sig: Signature):
    return (tuple([Fraction(0)] * sig.m), tuple([0] * sig.n))


@st.composite
def unit(draw):
    sig = draw(st.sampled_from(SIGS))
    u = draw(sparse_series(sig))
    c = draw(coeffs.filter(lambda v: v != 0))
    return Series(sig, {**u.terms, zero_exponent(sig): c}, u.precision)


@EXAMPLES
@given(unit())
def test_invert_unit_matches_sympy(u):
    inv = invert_unit(u)
    assert inv.precision == u.precision
    assert truncated_terms(to_expr(u) * to_expr(inv), u.sig, inv.precision) == {
        zero_exponent(u.sig): Fraction(1)
    }


@st.composite
def root_case(draw):
    """u = q^k + c * x1^a + (more terms), with a fractional: ord(u - u(0)),
    and with it the root's claim, may fall below 1 and below u's precision."""
    sig = draw(st.sampled_from(SIGS))
    k = draw(st.integers(1, 4))
    q = draw(coeffs.filter(lambda v: v > 0 if k % 2 == 0 else v != 0))
    rest = draw(sparse_series(sig, frac_precisions, no_constant=True, xexps=frac_exps))
    a = draw(st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3))
    lead = ((a,) + (0,) * (sig.m - 1), (0,) * sig.n)
    terms = {**rest.terms, lead: draw(coeffs), zero_exponent(sig): q**k}
    return Series(sig, terms, rest.precision), k


@EXAMPLES
@given(root_case())
def test_unit_root_matches_sympy(case):
    u, k = case
    v = unit_root(u, k)
    orders = [total_degree(e) for e in u.terms if total_degree(e)]
    assert v.precision == u.precision * min([1, *orders])
    assert truncated_terms(to_expr(v) ** k - to_expr(u), u.sig, v.precision) == {}


@st.composite
def implicit_case(draw):
    """g = c*Y + h over a signature with a y-variable, h(0) = 0 and no pure Y
    term, so the coefficient of Y is a unit; precision above 1."""
    sig = draw(st.sampled_from(SIGS))
    y_last = ((Fraction(0),) * sig.m, (0,) * (sig.n - 1) + (1,))
    h = draw(sparse_series(
        sig, frac_precisions.filter(lambda p: p > 1), no_constant=True, xexps=frac_exps
    ))
    c = draw(coeffs.filter(lambda v: v != 0))
    terms = {e: v for e, v in h.terms.items() if e != y_last}
    return Series(sig, {**terms, y_last: c}, h.precision)


@EXAMPLES
@given(implicit_case())
def test_solve_implicit_matches_sympy(g):
    a = solve_implicit(g)
    residual = to_expr(g).subs(ysyms(g.sig.n)[-1], to_expr(a))
    assert truncated_terms(residual, a.sig, a.precision) == {}


@st.composite
def monomial_division(draw):
    sig = draw(st.sampled_from(SIGS))
    b = (draw(st.tuples(*[frac_exps] * sig.m)), draw(st.tuples(*[int_exps] * sig.n)))
    deg = total_degree(b)
    h = draw(sparse_series(sig, frac_precisions, xexps=frac_exps))
    shifted = {
        (tuple(map(sum, zip(xs, b[0]))), tuple(map(sum, zip(ys, b[1])))): c
        for (xs, ys), c in h.terms.items()
    }
    return Series(sig, shifted, h.precision + deg), b


@EXAMPLES
@given(monomial_division())
def test_divide_monomial_matches_sympy(case):
    f, b = case
    quotient = divide_monomial(f, b)
    assert quotient.precision == f.precision - total_degree(b)
    x_b = sympy.Mul(*[v ** q(e) for v, e in zip(xsyms(f.sig.m) + ysyms(f.sig.n), b[0] + b[1])])
    assert truncated_terms(x_b * to_expr(quotient) - to_expr(f), f.sig, f.precision) == {}


# -- pullbacks ---------------------------------------------------------------------


def upstream_coordinates(t, sig: Signature):
    """The upstream coordinates (x's then y's) as sympy expressions in the
    downstream variables, written from each transform's definition."""
    m, n = sig
    down = t.result_sig(sig)
    X, Y = list(xsyms(down.m)), list(ysyms(down.n))
    up_x, up_y = list(X), list(Y)
    if isinstance(t, BlowUpXX):
        if t.lam == 0:
            up_x[t.i - 1] = X[t.i - 1] * X[t.j - 1]
        elif t.lam == INF:
            up_x[t.j - 1] = X[t.i - 1] * X[t.j - 1]
        else:  # x_i <- x_j*(lam + y_new), y_new first among the y's
            up_x = X[: t.i - 1] + [X[t.j - 1] * (q(t.lam) + Y[0])] + X[t.i - 1 :]
            up_y = Y[1:]
    elif isinstance(t, BlowUpYX):
        if t.lam in (INF, NEG_INF):  # x_j <- x_new*x_j, y_i <- +-x_new
            x_new = X[m]
            up_x = X[:m]
            up_x[t.j - 1] = x_new * X[t.j - 1]
            sign = 1 if t.lam == INF else -1
            up_y = Y[: t.i - 1] + [sign * x_new] + Y[t.i - 1 :]
        else:
            up_y[t.i - 1] = X[t.j - 1] * (q(t.lam) + Y[t.i - 1])
    elif isinstance(t, BlowUpYY):
        if t.lam == INF:
            up_y[t.j - 1] = Y[t.i - 1] * Y[t.j - 1]
        else:
            up_y[t.i - 1] = Y[t.j - 1] * (q(t.lam) + Y[t.i - 1])
    elif isinstance(t, Tschirnhausen):
        j = n if t.j == 0 else t.j
        h = to_expr(t.h).subs(
            dict(zip(ysyms(n - 1), Y[: j - 1] + Y[j:])), simultaneous=True
        )
        up_y[j - 1] = Y[j - 1] + h
    elif isinstance(t, Linear):
        for k, ck in enumerate(t.c, start=1):
            up_y[k - 1] = Y[k - 1] + q(ck) * Y[t.i - 1]
    elif isinstance(t, RamifyX):
        up_x[t.i - 1] = X[t.i - 1] ** q(t.gamma)
    elif isinstance(t, RamifyY):
        up_y[t.i - 1] = t.sign * Y[t.i - 1] ** t.d
    elif isinstance(t, SignChart):
        up_x = X[:m]
        up_y = Y[: t.i - 1] + [t.sign * X[m]] + Y[t.i - 1 :]
    else:
        raise AssertionError(f"unknown transform {t!r}")
    return up_x + up_y


lams = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)])
gammas = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(2), Fraction(3)])
signs = st.sampled_from([1, -1])


xx_lams = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2), INF])


def _blowup_xx(draw, sig, _):
    lam = draw(xx_lams)
    i = draw(st.integers(1, sig.m))
    j = draw(st.integers(1, sig.m).filter(lambda v: v != i))
    if isinstance(lam, Fraction) and lam > 0:
        i, j = max(i, j), min(i, j)
    return BlowUpXX(i, j, lam)


def _tschirnhausen(draw, sig, precision):
    # the center keeps f's precision, so the pullback certifies all of f's
    h = draw(sparse_series(Signature(sig.m, sig.n - 1), precision, no_constant=True))
    return Tschirnhausen(h, draw(st.integers(0, sig.n)))


def _linear(draw, sig, _):
    i = draw(st.integers(1, sig.n))
    c = draw(st.lists(coeffs, min_size=i - 1, max_size=i - 1))
    return Linear(i, tuple(c))


TRANSFORMS = {
    "BlowUpXX": ([Signature(2, 1)], _blowup_xx),
    "BlowUpYX": (SIGS, lambda draw, sig, _: BlowUpYX(
        draw(st.integers(1, sig.n)), draw(st.integers(1, sig.m)),
        draw(st.one_of(lams, st.sampled_from([INF, NEG_INF]))))),
    "BlowUpYY": ([Signature(1, 2)], lambda draw, sig, _: BlowUpYY(
        *draw(st.permutations([1, 2])), draw(st.one_of(lams, st.just(INF))))),
    # source, target and chart variable not adjacent: x3 over (3,1), and
    # any ordered pair of y's over (1,3)
    "BlowUpXX-wide": ([Signature(3, 1)], lambda draw, sig, _: BlowUpXX(
        3, draw(st.integers(1, 2)), draw(xx_lams))),
    "BlowUpYY-wide": ([Signature(1, 3)], lambda draw, sig, _: BlowUpYY(
        *draw(st.permutations([1, 2, 3]))[:2], draw(st.one_of(lams, st.just(INF))))),
    "Tschirnhausen": (SIGS, _tschirnhausen),
    "Linear": ([Signature(1, 2)], _linear),
    "RamifyX": (SIGS, lambda draw, sig, _: RamifyX(
        draw(st.integers(1, sig.m)), draw(gammas))),
    "RamifyY": (SIGS, lambda draw, sig, _: RamifyY(
        draw(st.integers(1, sig.n)), draw(st.integers(1, 3)), draw(signs))),
    "SignChart": (SIGS, lambda draw, sig, _: SignChart(
        draw(st.integers(1, sig.n)), draw(signs))),
}


@st.composite
def pullback_case(draw, kind):
    sigs, make = TRANSFORMS[kind]
    sig = draw(st.sampled_from(sigs))
    f = draw(sparse_series(sig))
    return sig, f, make(draw, sig, f.precision)


@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_pullback_matches_sympy(kind):
    @EXAMPLES
    @given(pullback_case(kind))
    def check(case):
        sig, f, t = case
        g = t.pullback(f)
        assert g.sig == t.result_sig(sig)
        up = list(xsyms(sig.m)) + list(ysyms(sig.n))
        coords = upstream_coordinates(t, sig)
        expected = to_expr(f).subs(dict(zip(up, coords)), simultaneous=True)
        assert_matches(g, expected)

    check()
