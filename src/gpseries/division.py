"""Division with remainder and implicit solving in the last y-variable.

Everything here treats the final y-variable as the distinguished one.  A
series G is *regular of order d* in it when G(0, ..., 0, Y) = c Y^d + (higher
order) with c != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .series import (
    Series,
    SeriesError,
    Signature,
    _substitution_precision,
    _unit_power,
    insert_y,
    invert_unit,
    nth_root_rational,
    partial_y,
    set_to_zero,
    substitute_y,
    total_degree,
    zero,
)


#: returned by ``regular_order`` when g(0, Y) vanishes up to precision
NOT_REGULAR = None


class DivisionError(SeriesError):
    pass


def regular_order(g: Series) -> Optional[int]:
    """Order of regularity of g in its last y-variable (None if g(0, Y) = 0)."""
    if g.sig.n < 1:
        raise DivisionError("no y-variable to be regular in")
    restricted = {
        e: c
        for e, c in g.terms.items()
        if all(v == 0 for v in e[0]) and all(v == 0 for v in e[1][:-1])
    }
    if not restricted:
        return NOT_REGULAR
    return min(e[1][-1] for e in restricted)


def split_in_y(h: Series, d: int) -> tuple[Series, Series]:
    """h = low + Y^d * high with deg_Y(low) < d; returns (low, high).

    ``high`` keeps h's precision grid shifted down by d in the Y-exponent."""
    low_terms, high_terms = {}, {}
    for (xs, ys), c in h.terms.items():
        k = ys[-1]
        if k < d:
            low_terms[(xs, ys)] = c
        else:
            high_terms[(xs, ys[:-1] + (k - d,))] = c
    return (
        Series._trusted(h.sig, low_terms, h.precision),
        Series._trusted(h.sig, high_terms, h.precision),
    )


@dataclass(frozen=True)
class WeierstrassResult:
    quotient: Series
    remainder: Series
    order: int


def weierstrass_divide(f: Series, g: Series, d: Optional[int] = None) -> WeierstrassResult:
    """F = G * Q + R with deg_Y(R) < d, for G regular of order d in the last
    y-variable.  Computed by the contraction Q <- U^{-1} * high(F - A*Q)."""
    if f.sig != g.sig:
        raise DivisionError(f"signature mismatch {f.sig} != {g.sig}")
    reg = regular_order(g)
    if reg is NOT_REGULAR:
        raise DivisionError("divisor is not regular in the last y-variable")
    if d is None:
        d = reg
    elif reg != d:
        raise DivisionError(f"divisor has regular order {reg}, expected {d}")
    a, u = split_in_y(g, d)
    if not u.is_unit():
        raise DivisionError("high part of the divisor is not a unit")
    # every coefficient of A vanishes at 0 by regularity, so A*Q gains order
    u_inv = invert_unit(u)
    q = zero(f.sig, f.precision)
    gain = a.order()
    if gain is None:
        q = u_inv * split_in_y(f, d)[1]
    else:
        max_iter = int(math.ceil(float(f.precision) / float(gain))) + 2
        for _ in range(max_iter):
            nxt = u_inv * split_in_y(f - a * q, d)[1]
            if nxt.eq_mod_precision(q) and nxt.precision == q.precision:
                q = nxt
                break
            q = nxt
    r = f.truncate(q.precision) - g * q
    r_low, r_high = split_in_y(r, d)
    if not r_high.is_zero():
        raise DivisionError("remainder failed to drop below the regular order")
    return WeierstrassResult(q, r_low, d)


def _subst_last_y(g: Series, a: Series) -> Series:
    """g(x, y_1..y_{n-1}, a) as a series over (m, n-1).

    A zero ``a`` at ``g``'s precision or finer gives the restriction
    ``y_n = 0``, which is taken without substituting: the zero powers of
    ``a`` then keep ``g``'s precision, so the substitution cuts no term.  A
    coarser zero ``a`` is substituted, since its powers cut the terms at its
    precision while the result still claims ``g``'s (ROADMAP item 1)."""
    n = g.sig.n
    if a.is_zero() and a.precision >= g.precision:
        return set_to_zero(g, zero_y=(n,))
    return set_to_zero(substitute_y(g, {n: insert_y(a, n)}), zero_y=(n,))


def solve_implicit(g: Series) -> Series:
    """The unique series a with a(0) = 0 and g(x, y', a(x, y')) = 0, for g
    with g(0) = 0 and an invertible first-order coefficient in the last
    y-variable.  Newton iteration; convergence is quadratic, so the step
    count is logarithmic in the precision.  The first step starts from
    ``a = 0`` at g's precision, so it restricts g and its derivative to
    ``y_n = 0`` instead of substituting (``_subst_last_y``).

    The first-order coefficient is a unit exactly when g carries the term
    y_n, which is looked up in ``g.terms``; a precision <= 1 cuts that term."""
    m, n = g.sig
    if n < 1:
        raise DivisionError("no y-variable to solve for")
    if g.constant_term() != 0:
        raise DivisionError("equation does not vanish at the origin")
    if ((0,) * m, (0,) * (n - 1) + (1,)) not in g.terms:
        raise DivisionError("first-order coefficient is not a unit")
    dg = partial_y(g, n)
    a = zero(Signature(m, n - 1), g.precision)
    max_iter = max(6, int(math.ceil(math.log2(max(2.0, float(g.precision))))) + 3)
    for _ in range(max_iter):
        val = _subst_last_y(g, a)
        if val.is_zero():
            if val.precision >= a.precision:
                return a  # the residual check would repeat this substitution
            a = a.truncate(val.precision)
            break
        deriv = _subst_last_y(dg, a)
        a = (a.truncate(val.precision) - val * invert_unit(deriv)).truncate(
            val.precision
        )
    residual = _subst_last_y(g, a)
    if not residual.is_zero():
        raise DivisionError("implicit solve failed to converge")
    return a


def unit_root(u: Series, k: int) -> Series:
    """A series v with v^k = u, for u a unit whose constant term c is an exact
    rational k-th power q^k (positive when k is even): v = q * (u/c)^(1/k),
    one binomial series (``series._unit_power``)."""
    if k < 1:
        raise DivisionError("root degree must be >= 1")
    if not u.is_unit():
        raise DivisionError("cannot take a root of a non-unit")
    c = u.constant_term()
    if k % 2 == 0 and c < 0:
        raise DivisionError("even root of a negative constant term")
    q = nth_root_rational(abs(c), k)
    if q is None:
        raise DivisionError(f"constant term {c} is not a rational {k}-th power")
    # exact to u's precision, but claimed as by an implicit solve (ROADMAP item 10)
    prec = _substitution_precision(u.precision, [d for d in map(total_degree, u.terms) if d])
    return _unit_power(u, Fraction(1, k), q if c > 0 else -q).truncate(prec)


def tschirnhausen_center(g: Series, d: int) -> Series:
    """The series b with b(0) = 0 killing the Y^(d-1) coefficient of
    g(x, y', Y + b), for g regular of order d >= 2 in the last y-variable.
    b solves the order-1 equation (d/dY)^(d-1) g = 0."""
    if d < 2:
        raise DivisionError("center extraction needs regular order >= 2")
    if regular_order(g) != d:
        raise DivisionError(f"series is not regular of order {d}")
    h = g
    for _ in range(d - 1):
        h = partial_y(h, h.sig.n)
    return solve_implicit(h)
