"""Division with remainder, implicit solving, unit roots."""

from fractions import Fraction
import random

import pytest

from gpseries.series import (
    Series,
    Signature,
    coefficients_in_y,
    constant,
    insert_y,
    monomial,
    nth_root_rational,
    partial_y,
    render,
    set_to_zero,
    substitute_y,
    y_var,
    zero,
)
from gpseries.division import (
    DivisionError,
    _subst_last_y,
    regular_order,
    solve_implicit,
    split_in_y,
    tschirnhausen_center,
    unit_root,
    weierstrass_divide,
)
from conftest import ps, random_series, random_unit

SIG11 = Signature(1, 1)


# -- regular order ---------------------------------------------------------------


def test_regular_order_basic():
    assert regular_order(ps("y1^2 - x1^2", 1, 1)) == 2
    assert regular_order(ps("y1^2 - x1^2*y1 - x1^3", 1, 1)) == 2
    assert regular_order(ps("1 + y1", 1, 1)) == 0
    assert regular_order(ps("x1*y1", 1, 1)) is None


def test_split_in_y():
    g = ps("x1 + x1*y1 + y1^2 + y1^3", 1, 1)
    low, high = split_in_y(g, 2)
    assert low.eq_mod_precision(ps("x1 + x1*y1", 1, 1))
    # high is shifted down by y1^2
    assert high.eq_mod_precision(ps("1 + y1", 1, 1))


# -- Weierstrass division ----------------------------------------------------------


def test_weierstrass_oracle():
    # y1^2 = (y1 + x1)*(y1 - x1) + x1^2
    res = weierstrass_divide(ps("y1^2", 1, 1), ps("y1 - x1", 1, 1))
    assert res.order == 1
    assert res.quotient.eq_mod_precision(ps("y1 + x1", 1, 1))
    assert res.remainder.eq_mod_precision(ps("x1^2", 1, 1))


def test_weierstrass_identity_and_degree():
    rng = random.Random(2024)
    for _ in range(40):
        d = rng.randint(1, 4)
        g = _random_regular(rng, d)
        f = random_series(rng, SIG11, nterms=4, fractional_x=False)
        res = weierstrass_divide(f, g, d)
        recomposed = res.quotient * g + res.remainder
        assert recomposed.eq_mod_precision(
            f.truncate(recomposed.precision)
        ), (f, g, d)
        # remainder is a polynomial of degree < d in y1
        assert all(ys[0] < d for (_, ys) in res.remainder.terms)


def _random_regular(rng, d, prec=8):
    """Random series regular of order d in y1."""
    terms = {((Fraction(0),), (d,)): Fraction(rng.choice([1, 2, -1]))}
    for _ in range(3):
        xdeg = Fraction(rng.randint(1, 3))
        ydeg = rng.randint(0, d - 1)
        terms[((xdeg,), (ydeg,))] = Fraction(rng.randint(-3, 3))
    for _ in range(2):  # higher y-terms are fine too
        terms[((Fraction(0),), (d + rng.randint(1, 2),))] = Fraction(
            rng.randint(-2, 2)
        )
    return Series(SIG11, terms, Fraction(prec))


def test_weierstrass_rejects_irregular():
    with pytest.raises(DivisionError):
        weierstrass_divide(ps("y1", 1, 1), ps("x1*y1", 1, 1))


# -- implicit function solving ------------------------------------------------------


def test_solve_implicit_oracle():
    # g = y1 - x1 - y1^2 vanishes at y1 = x1 + x1^2 + 2*x1^3 + ...
    g = ps("y1 - x1 - y1^2", 1, 1, prec=4)
    a = solve_implicit(g)
    assert a.eq_mod_precision(ps("x1 + x1^2 + 2*x1^3", 1, 0, prec=4))


def test_solve_implicit_residual_vanishes():
    rng = random.Random(99)
    for _ in range(25):
        # g = unit*y1 + (terms of positive x-order)
        g = _random_implicit(rng)
        a = solve_implicit(g)
        residual = substitute_y(g, {1: _lift(a)})
        assert residual.is_zero(), (g, a, residual)


def _random_implicit(rng, prec=6):
    terms = {((Fraction(0),), (1,)): Fraction(rng.choice([1, -1, 2]))}
    for _ in range(3):
        xdeg = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        ydeg = rng.randint(0, 3)
        if xdeg == 0 and ydeg <= 1:
            continue
        terms[((xdeg,), (ydeg,))] = Fraction(rng.randint(-3, 3))
    # optional pure-y higher terms
    terms[((Fraction(0),), (rng.randint(2, 3),))] = Fraction(rng.randint(-2, 2))
    return Series(SIG11, terms, Fraction(prec))


def _lift(a):
    """View a y-free series over (1,0) as a series over (1,1)."""
    from gpseries.series import insert_y

    return insert_y(a, 1)


def _substituted_last_y(g: Series, a: Series) -> Series:
    n = g.sig.n
    return set_to_zero(substitute_y(g, {n: insert_y(a, n)}), zero_y=(n,))


def test_zero_solution_restricts_only_at_the_target_precision_or_finer():
    g = ps("y1 + x1^3", 1, 1)
    assert g.precision == 8
    fine = _subst_last_y(g, zero(Signature(1, 0), 8))
    assert fine == set_to_zero(g, zero_y=(1,)) == Series(Signature(1, 0), {((3,), ()): 1}, 8)
    # a zero at precision 2 makes its powers, and the y1 group, precision 2:
    # x1^3 is cut while the result still claims 8 (ROADMAP item 1), so the
    # restriction, which keeps x1^3, is not the substitution here
    coarse = _subst_last_y(g, zero(Signature(1, 0), 2))
    assert coarse.is_zero() and coarse.precision == 8
    assert coarse == _substituted_last_y(g, zero(Signature(1, 0), 2))
    assert coarse != set_to_zero(g, zero_y=(1,))


@pytest.mark.parametrize("m, n", [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
def test_zero_solution_restriction_is_the_substitution(m, n):
    # wherever the restriction is taken, it gives the substitution's terms,
    # in its order, at its precision
    sig = Signature(m, n)
    rng = random.Random(310 + 10 * m + n)
    for _ in range(120):
        g = random_series(rng, sig, Fraction(rng.randint(1, 12), rng.choice([1, 2, 3])),
                          nterms=rng.randint(0, 8), fractional_x=rng.random() < 0.5,
                          coeff_den=rng.choice([1, 3, 7]))
        a = zero(Signature(m, n - 1), g.precision + rng.choice([0, 0, Fraction(1, 2), 3]))
        got, want = _subst_last_y(g, a), _substituted_last_y(g, a)
        assert (list(got.terms.items()), got.sig, got.precision) == (
            list(want.terms.items()), want.sig, want.precision), (g, a)


def test_solve_implicit_requires_unit_slope():
    with pytest.raises(DivisionError):
        solve_implicit(ps("y1^2 - x1", 1, 1))


@pytest.mark.parametrize(
    "text,m,n,prec",
    [
        ("y1^2 - x1", 1, 1, 8),  # no y_n term
        ("x1*y1 - x1^2", 1, 1, 8),  # a slope that vanishes at the origin
        ("y1 + y2^2 - x1", 1, 2, 8),  # the linear term is in y_1, not y_n
        ("y1 - x1^2", 1, 1, 1),  # y_n cut at precision 1
        ("y2 - x1^(1/3)", 1, 2, Fraction(1, 2)),  # y_n cut below precision 1
        ("y2 + y1", 0, 2, 1),
    ],
)
def test_solve_implicit_needs_the_y_n_term(text, m, n, prec):
    with pytest.raises(DivisionError, match="^first-order coefficient is not a unit$"):
        solve_implicit(ps(text, m, n, prec))


def test_solve_implicit_slope_test_matches_the_coefficient_reference():
    # the term y_n is present exactly when the Y_n-coefficient built by
    # coefficients_in_y is a unit, which is how the slope was tested before
    rng = random.Random(2718)
    units = others = 0
    for m, n in [(1, 1), (2, 1), (1, 2), (0, 2)]:
        sig = Signature(m, n)
        for _ in range(150):
            g = random_series(rng, sig, Fraction(rng.randint(1, 9), rng.choice([1, 2])),
                              nterms=rng.randint(0, 5))
            g = g - constant(sig, g.constant_term(), g.precision)
            if rng.random() < 0.5:
                g = g + monomial(sig, [0] * m, [0] * (n - 1) + [1], g.precision, rng.randint(-2, 2))
            lin = coefficients_in_y(g, n).get(1)
            try:
                solve_implicit(g)
            except DivisionError as exc:
                refused = str(exc) == "first-order coefficient is not a unit"
            else:
                refused = False
            assert refused == (lin is None or not lin.is_unit()), g
            units += not refused
            others += refused
    assert units >= 100 and others >= 100, (units, others)


# -- unit roots ----------------------------------------------------------------------


def test_unit_root_oracle():
    u = ps("4 + y1", 1, 1, prec=3)
    v = unit_root(u, 2)
    assert v.eq_mod_precision(ps("2 + 1/4*y1 - 1/64*y1^2", 1, 1, prec=3))


def test_unit_root_property():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(2, 4)
        base = random_unit(rng, SIG11, nterms=2)
        q = Fraction(rng.randint(1, 3))
        u = constant(SIG11, q**k, 8) + (base - constant(SIG11, base.constant_term(), 8))
        v = unit_root(u, k)
        assert (v**k).eq_mod_precision(u.truncate((v**k).precision))


def test_unit_root_of_unit_with_huge_constant_term():
    zero_exp = ((Fraction(0),), (0,))
    u = Series(
        SIG11,
        {zero_exp: Fraction(10**400), ((Fraction(1),), (0,)): 1, ((Fraction(0),), (1,)): 3},
        6,
    )
    v = unit_root(u, 2)
    assert v.constant_term() == 10**200
    square = v * v
    assert square.eq_mod_precision(u.truncate(square.precision))


def test_unit_root_requires_rational_root():
    with pytest.raises(DivisionError):
        unit_root(ps("2 + y1", 1, 1), 2)


def _newton_root(u: Series, k: int) -> Series:
    """The root by an implicit solve, as before the binomial series: W with
    W(0) = 0 and (1 + W)^k = u/q^k over one more y-variable, v = q * (1 + W)."""
    c = u.constant_term()
    q = nth_root_rational(abs(c), k) * (1 if c > 0 else -1)
    m, n = u.sig
    sig2 = Signature(m, n + 1)
    one = constant(sig2, 1, u.precision)
    rhs = insert_y(u, n + 1).scale(Fraction(1) / q**k)
    w = solve_implicit((one + y_var(sig2, n + 1, u.precision)) ** k - rhs)
    return constant(u.sig, q, w.precision) * (constant(u.sig, 1, w.precision) + w)


@pytest.mark.parametrize("sig", [SIG11, Signature(1, 2), Signature(2, 1)], ids=str)
def test_unit_root_is_the_newton_root(sig):
    # same rendering and precision; fractional x-exponents give claims below p
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 4)
        q = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1] if k % 2 else [1])
        prec = Fraction(rng.randint(4, 12), rng.randint(1, 2))
        rest = random_series(rng, sig, prec, nterms=rng.randint(1, 4))
        u = rest - constant(sig, rest.constant_term() - q**k, prec)
        v, ref = unit_root(u, k), _newton_root(u, k)
        assert (render(v), v.precision) == (render(ref), ref.precision)


def test_unit_root_at_precision_at_most_one():
    # no y-derivative survives truncation at these precisions; none is needed
    assert unit_root(ps("4 + x1", 1, 1, prec=1), 2) == constant(SIG11, 2, 1)
    minus_eighth = ps("-1/8", 1, 1, prec=Fraction(1, 2))
    assert unit_root(minus_eighth, 3) == constant(SIG11, Fraction(-1, 2), Fraction(1, 2))


# -- Tschirnhausen centers -------------------------------------------------------------


def test_tschirnhausen_center_oracle():
    # g = y1^2 - x1^2*y1 - x1^3: center is the root of dg/dy = 2y - x1^2
    g = ps("y1^2 - x1^2*y1 - x1^3", 1, 1)
    h = tschirnhausen_center(g, 2)
    assert h.eq_mod_precision(ps("1/2*x1^2", 1, 0, prec=7))


def test_tschirnhausen_center_kills_subleading_term():
    g = ps("y1^3 + x1*y1^2 + y1 * x1^5 + x1^2", 1, 1)
    h = tschirnhausen_center(g, 3)
    shifted = substitute_y(g, {1: y_var(SIG11, 1, g.precision) + _lift(h)})
    # after recentering, the coefficient of y1^(d-1) vanishes
    from gpseries.series import coefficients_in_y

    coeffs = coefficients_in_y(shifted, 1)
    assert 2 not in coeffs or coeffs[2].is_zero()
