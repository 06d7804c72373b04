"""Truncated generalized power series with exact rational coefficients.

A series lives over a signature of ``m`` x-variables (nonnegative rational
exponents) and ``n`` y-variables (natural exponents).  Terms are stored
sparsely as a map from multi-exponents to nonzero rational coefficients.
Every series carries a precision ``delta``: it is known modulo terms of
total degree >= delta, and such terms are dropped eagerly so that equality
of the canonical forms is exact equality modulo precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Mapping, NamedTuple, Optional, Sequence, Union

Rational = Union[int, Fraction]

#: sentinel returned by :func:`gpseries.division.regular_order` when the
#: restriction to the distinguished axis vanishes identically up to precision.
NOT_REGULAR = None


class Signature(NamedTuple):
    """Variable counts: ``m`` x-variables, ``n`` y-variables."""

    m: int
    n: int


# A multi-exponent is ((x-exponents, canonical by _x_exponent), (y-exponents as ints)).
Exponent = tuple[tuple[Rational, ...], tuple[int, ...]]


class SeriesError(ValueError):
    pass


class SignatureMismatch(SeriesError):
    pass


def _check_exponent(sig: Signature, exp: Exponent) -> Exponent:
    xs, ys = exp
    if len(xs) != sig.m or len(ys) != sig.n:
        raise SeriesError(f"exponent {exp} does not match signature {sig}")
    xs = tuple(map(_x_exponent, xs))
    ys = tuple(map(_y_exponent, ys))
    for axis, es in (("x", xs), ("y", ys)):
        for e in es:
            if e < 0:
                raise SeriesError(f"negative {axis}-exponent {e}")
    return xs, ys


def _x_exponent(e) -> Rational:
    """The rational ``e`` as an ``int`` when integral, else as a ``Fraction``."""
    if type(e) is int:
        return e
    q = e if type(e) is Fraction else Fraction(e)
    return q.numerator if q.denominator == 1 else q


def _y_exponent(e) -> int:
    q = _x_exponent(e)
    if type(q) is not int:
        raise SeriesError(f"y-exponent {e} is not an integer")
    return q


def _fractional(terms) -> bool:
    """Whether some x-exponent of the exponents ``terms`` is a Fraction."""
    return any(type(e) is Fraction for xs, _ in terms for e in xs)


def total_degree(exp: Exponent) -> Fraction:
    """Sum of all exponents, as a Fraction; integral exponents are ints, so
    this is an int sum unless some x-exponent is fractional."""
    return Fraction(sum(exp[0]) + sum(exp[1]))


class Series:
    """Immutable truncated generalized power series.

    ``Series(sig, terms, precision)`` validates: it converts and checks every
    exponent against the signature, sums coefficients of equal exponents,
    drops zero coefficients and terms of total degree >= ``precision``.
    Callers outside this package and the tests always go through it.

    ``Series._trusted`` skips all of that.  Only code inside the package may
    call it, and only with a result that is canonical already: a ``dict`` of
    nonzero ``Fraction`` coefficients keyed by exponents of the signature,
    every one of total degree below a positive ``Fraction`` precision, and a
    ``Signature``.  Exponents are canonical: y-exponents are ``int``s, and an
    x-exponent is an ``int`` when integral, else a ``Fraction`` (with
    denominator > 1), so each value has one type.  The ring operations,
    ``substitute_y``, the transform pullbacks and the splitting helpers of the
    division and monomialisation layers build their results this way; only
    arithmetic on fractional x-exponents can give an integral ``Fraction``,
    so only there is an exponent re-canonicalised.

    Result precision by operation (``p`` is an operand's precision):

    * sum: the smaller ``p`` (``__add__``);
    * product: ``min(pa + ord b, pb + ord a)`` (``_product_precision``);
    * negation, ``scale``, ``insert_y``, ``set_to_zero``: ``p``;
    * ``truncate(q)``: ``min(p, q)``;
    * division by ``X^b``: ``p - deg b`` (``divide_monomial``; ``partial_y``
      and ``coefficients_in_y`` divide by ``Y_j`` and by ``Y_j^k``);
    * substitution: ``p * min(1, orders)`` (``_substitution_precision``);
    * unit inversion: ``p`` (``invert_unit``);
    * Weierstrass division: over-claims, see ROADMAP item 12.

    The ``_eval`` slot holds the point-independent part of ``evaluate``,
    built on the first evaluation; it takes no part in equality or hashing.
    """

    __slots__ = ("sig", "terms", "precision", "_eval")

    def __init__(
        self,
        sig: Signature,
        terms: Mapping[Exponent, Rational],
        precision: Rational,
    ):
        precision = Fraction(precision)
        if precision <= 0:
            raise SeriesError(f"precision must be positive, got {precision}")
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in terms.items():
            exp = _check_exponent(sig, exp)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if total_degree(exp) >= precision:
                continue
            clean[exp] = clean.get(exp, Fraction(0)) + coeff
            if clean[exp] == 0:
                del clean[exp]
        object.__setattr__(self, "sig", Signature(*sig))
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "precision", precision)

    @classmethod
    def _trusted(
        cls, sig: Signature, terms: dict[Exponent, Fraction], precision: Fraction
    ) -> "Series":
        """A series from canonical parts, without validation (see the class
        docstring for what canonical means)."""
        s = object.__new__(cls)
        object.__setattr__(s, "sig", sig)
        object.__setattr__(s, "terms", terms)
        object.__setattr__(s, "precision", precision)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> Optional[Fraction]:
        """Minimal total degree of the support, or None for the zero series."""
        if not self.terms:
            return None
        return min(total_degree(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        zero = ((0,) * self.sig.m, (0,) * self.sig.n)
        return self.terms.get(zero, Fraction(0))

    def is_unit(self) -> bool:
        return self.constant_term() != 0

    # -- ring operations -------------------------------------------------

    def _require_same_sig(self, other: "Series") -> None:
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} != {other.sig}")

    def __add__(self, other: "Series") -> "Series":
        self._require_same_sig(other)
        prec = min(self.precision, other.precision)
        terms = dict(self.terms) if self.precision == prec else _below(self.terms, prec)
        b = other.terms if other.precision == prec else _below(other.terms, prec)
        cancelled = False
        for exp, c in b.items():
            if exp in terms:
                c += terms[exp]
                if not c:
                    cancelled = True
            terms[exp] = c
        if cancelled:
            terms = {e: c for e, c in terms.items() if c}
        return Series._trusted(self.sig, terms, prec)

    def __neg__(self) -> "Series":
        return Series._trusted(
            self.sig, {e: -c for e, c in self.terms.items()}, self.precision
        )

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        self._require_same_sig(other)
        deg_a = [total_degree(e) for e in self.terms]
        deg_b = [total_degree(e) for e in other.terms]
        prec = _product_precision(
            self.precision, min(deg_a, default=None),
            other.precision, min(deg_b, default=None),
        )
        b_terms = list(zip(other.terms.items(), deg_b))
        # only two fractional x-exponents sum to an integer, as in x^(1/2) * x^(1/2)
        canon = _fractional(other.terms) and _fractional(self.terms)
        xadd = (lambda p, q: _x_exponent(p + q)) if canon else add
        terms: dict[Exponent, Fraction] = {}
        cancelled = False
        # a-outer, b-inner; a sum that cancels keeps its slot until the end
        for ((xa, ya), ca), da in zip(self.terms.items(), deg_a):
            room = prec - da
            for ((xb, yb), cb), db in b_terms:
                if not db < room:
                    continue
                exp = (tuple(map(xadd, xa, xb)), tuple(map(add, ya, yb)))
                c = ca * cb
                if exp in terms:
                    c += terms[exp]
                    if not c:
                        cancelled = True
                terms[exp] = c
        if cancelled:
            terms = {e: c for e, c in terms.items() if c}
        return Series._trusted(self.sig, terms, prec)

    def scale(self, c: Rational) -> "Series":
        c = Fraction(c)
        if not c:
            return Series._trusted(self.sig, {}, self.precision)
        return Series._trusted(
            self.sig, {e: c * v for e, v in self.terms.items()}, self.precision
        )

    def truncate(self, precision: Rational) -> "Series":
        precision = Fraction(precision)
        if precision <= 0:
            raise SeriesError(f"precision must be positive, got {precision}")
        if precision >= self.precision:
            return self
        return Series._trusted(self.sig, _below(self.terms, precision), precision)

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            raise SeriesError("negative power; invert explicitly")
        result = constant(self.sig, 1, self.precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- equality and hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.precision == other.precision
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.sig, self.precision, frozenset(self.terms.items())))

    def eq_mod_precision(self, other: "Series") -> bool:
        """Equality of the two series modulo the coarser precision."""
        self._require_same_sig(other)
        prec = min(self.precision, other.precision)
        a = {e: c for e, c in self.terms.items() if total_degree(e) < prec}
        b = {e: c for e, c in other.terms.items() if total_degree(e) < prec}
        return a == b

    def __repr__(self):
        return f"Series({render(self)!r}, sig={tuple(self.sig)}, prec={self.precision})"


def _below(
    terms: Mapping[Exponent, Fraction], precision: Fraction
) -> dict[Exponent, Fraction]:
    """The terms of total degree below ``precision``, in their order."""
    return {e: c for e, c in terms.items() if total_degree(e) < precision}


def _pruned(
    sig: Signature, terms: dict[Exponent, Fraction], precision: Fraction
) -> Series:
    """Trusted series from well-formed exponents and summed ``Fraction``
    coefficients: zero sums and terms of total degree >= ``precision`` are
    dropped in place."""
    return Series._trusted(
        sig,
        {e: c for e, c in terms.items() if c and total_degree(e) < precision},
        precision,
    )


def _product_precision(
    pa: Fraction, oa: Optional[Fraction], pb: Fraction, ob: Optional[Fraction]
) -> Fraction:
    """Propagated precision of a product: min(pa + ord(b), pb + ord(a))."""
    candidates = []
    if ob is not None:
        candidates.append(pa + ob)
    if oa is not None:
        candidates.append(pb + oa)
    if not candidates:
        return min(pa, pb)
    return min(candidates)


def _substitution_precision(
    precision: Fraction, orders: Sequence[Fraction]
) -> Fraction:
    """Propagated precision of a substitution whose replacements (nonzero,
    vanishing at the origin) have the given orders: precision * min(1, orders)."""
    return precision * min([1, *orders])


# -- constructors ----------------------------------------------------------


def zero(sig: Signature, precision: Rational) -> Series:
    return Series(sig, {}, precision)


def constant(sig: Signature, c: Rational, precision: Rational) -> Series:
    exp = ((0,) * sig.m, (0,) * sig.n)
    return Series(sig, {exp: Fraction(c)}, precision)


def monomial(
    sig: Signature,
    xexps: Sequence[Rational],
    yexps: Sequence[int],
    precision: Rational,
    coeff: Rational = 1,
) -> Series:
    return Series(sig, {(tuple(xexps), tuple(yexps)): coeff}, precision)


def x_var(sig: Signature, i: int, precision: Rational) -> Series:
    """The variable X_i (1-based)."""
    xs = [0] * sig.m
    xs[i - 1] = 1
    return monomial(sig, xs, [0] * sig.n, precision)


def y_var(sig: Signature, j: int, precision: Rational) -> Series:
    """The variable Y_j (1-based)."""
    ys = [0] * sig.n
    ys[j - 1] = 1
    return monomial(sig, [0] * sig.m, ys, precision)


# -- named operations -------------------------------------------------------


def min_support(a: Series) -> set[Exponent]:
    """Componentwise-minimal elements of the support."""
    exps = list(a.terms)
    minimal = []
    for e in exps:
        if any(f != e and _leq(f, e) for f in exps):
            continue
        minimal.append(e)
    return set(minimal)


def _leq(a: Exponent, b: Exponent) -> bool:
    return all(p <= q for p, q in zip(a[0], b[0])) and all(
        p <= q for p, q in zip(a[1], b[1])
    )


def partial_y(a: Series, j: int) -> Series:
    """Formal partial derivative with respect to Y_j (1-based)."""
    if not 1 <= j <= a.sig.n:
        raise SeriesError(f"y-index {j} out of range for {a.sig}")
    prec = a.precision - 1
    if prec <= 0:
        raise SeriesError("precision too small to differentiate")
    terms = {}
    for (xs, ys), c in a.terms.items():
        k = ys[j - 1]
        if k == 0:
            continue
        ys2 = ys[: j - 1] + (k - 1,) + ys[j:]
        terms[(xs, ys2)] = c * k
    return Series._trusted(a.sig, terms, prec)


def set_to_zero(a: Series, zero_x=(), zero_y=()) -> Series:
    """Set the listed X_i and Y_j to 0 and drop them from the signature
    (1-based), keeping the term order and the precision."""
    for axis, idx, k in (("x", zero_x, a.sig.m), ("y", zero_y, a.sig.n)):
        for i in idx:
            if not 1 <= i <= k:
                raise SeriesError(f"{axis}-index {i} out of range for {a.sig}")
    keep_x = [i for i in range(a.sig.m) if i + 1 not in zero_x]
    keep_y = [j for j in range(a.sig.n) if j + 1 not in zero_y]
    terms = {}
    for (xs, ys), c in a.terms.items():
        if any(xs[i - 1] for i in zero_x) or any(ys[j - 1] for j in zero_y):
            continue
        terms[(tuple(xs[i] for i in keep_x), tuple(ys[j] for j in keep_y))] = c
    return Series._trusted(Signature(len(keep_x), len(keep_y)), terms, a.precision)


def nth_root_rational(q: Fraction, k: int) -> Optional[Fraction]:
    """Exact positive k-th root of a positive rational, or None."""
    if q <= 0 or k < 1:
        return None
    pn = _int_nth_root(q.numerator, k)
    pd = _int_nth_root(q.denominator, k)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def _int_nth_root(v: int, k: int) -> Optional[int]:
    """Exact k-th root of a natural number, or None; integer Newton steps
    from 2^ceil(bits/k), which lies above the root, so ints of any size work."""
    if v < 0:
        return None
    if v < 2:
        return v
    r = 1 << -(-v.bit_length() // k)
    while True:
        s = ((k - 1) * r + v // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == v else None


def _rational_power(base: Fraction, alpha: Fraction) -> Optional[Fraction]:
    """base^alpha as an exact rational when possible, else None."""
    if alpha.denominator == 1:
        e = alpha.numerator
        return base**e if e >= 0 else Fraction(1) / base ** (-e)
    root = nth_root_rational(base, alpha.denominator)
    if root is None:
        return None
    e = alpha.numerator
    return root**e if e >= 0 else Fraction(1) / root ** (-e)


class Evaluation(NamedTuple):
    """Numeric value of a truncated series plus a bound on the dropped tail."""

    value: Union[Fraction, float]
    tail_bound: float


def evaluate(a: Series, point: Sequence[Rational]) -> Evaluation:
    """Evaluate at a rational point; exact when every power is rational in
    every term that does not vanish by a zero coordinate.

    Float coordinates are read as the exact dyadic rationals they denote.
    When every x-exponent is an integer the value is computed in integers:
    with the coefficients written over the lcm ``L`` of their denominators
    and coordinate ``i`` as ``n_i / d_i``, each term becomes an integer over
    ``D = L * prod d_i^(E_i)``, where ``E_i`` is the largest exponent of
    coordinate ``i``, and the result is the single ``Fraction(sum, D)``.  This
    is the exact value, so it equals what a term-by-term ``Fraction`` sum
    gives.  A fractional x-exponent is evaluated term by term, falling back
    to floats from the first power that is irrational.

    Callers that only read ``float(value)`` (the float point maps and the
    membership oracle) use ``_evaluate_rounded``: the same integer pass, with
    ``sum / D`` rounded once, which gives the bits of ``float(Fraction(sum, D))``.

    The tail bound is C * ||p||^delta with C the sum of absolute
    coefficients and ||p|| the max-norm of the point.
    """
    return _evaluate(a, point, rounded=False)


def _evaluate_rounded(a: Series, point: Sequence[Rational]) -> Evaluation:
    """``evaluate`` with the value rounded once to ``float(value)``."""
    return _evaluate(a, point, rounded=True)


def _evaluate(a: Series, point: Sequence[Rational], rounded: bool) -> Evaluation:
    if len(point) != a.sig.m + a.sig.n:
        raise SeriesError(
            f"point of length {len(point)} for signature {a.sig}"
        )
    ratios = [_ratio(p) for p in point]
    for i in range(a.sig.m):
        if ratios[i][0] < 0:
            raise SeriesError(
                f"negative x-coordinate {Fraction(*ratios[i])} at position {i+1}"
            )
    table = _eval_table(a)
    if table.rows is None:
        total = _evaluate_by_terms(a, [Fraction(n, d) for n, d in ratios])
        if rounded:
            total = float(total)
    else:
        den = table.den
        weights = []
        for k, top in zip(table.active, table.top):
            n, d = ratios[k]
            npow, dpow = [1], [1]
            for _ in range(top):
                npow.append(npow[-1] * n)
                dpow.append(dpow[-1] * d)
            den *= dpow[top]
            weights.append([npow[e] * dpow[top - e] for e in range(top + 1)])
        num = 0
        for c, es in table.rows:
            for w, e in zip(weights, es):
                c *= w[e]
            num += c
        # n / d is float(Fraction(n, d)): both round the exact quotient once
        total = num / den if rounded else Fraction(num, den)
    norm = max((abs(n / d) for n, d in ratios), default=0.0)
    tail = table.csum * norm ** table.fprec if norm > 0 else 0.0
    return Evaluation(total, tail)


def _ratio(p) -> tuple[int, int]:
    """``p`` as a numerator and a positive denominator in lowest terms,
    exactly as ``Fraction(p)`` reads it."""
    if type(p) is float:
        return p.as_integer_ratio()
    q = p if type(p) is Fraction else Fraction(p)
    return q.numerator, q.denominator


class _EvalTable(NamedTuple):
    """What ``evaluate`` needs of a series, independent of the point."""

    rows: Optional[list]  # (c * den, active exponents) per term; None if an x-exponent is fractional
    active: tuple  # the coordinates with a nonzero exponent in some term
    top: tuple  # the largest exponent of each active coordinate
    den: int  # lcm of the coefficient denominators
    csum: float  # sum of absolute coefficients
    fprec: float  # the precision


def _eval_table(a: Series) -> _EvalTable:
    """The evaluation table of ``a``, built on first use and kept on the
    (immutable) series."""
    try:
        return a._eval
    except AttributeError:
        pass
    coeffs = a.terms.values()
    csum = float(sum(abs(c) for c in coeffs))
    fprec = float(a.precision)
    if _fractional(a.terms):
        table = _EvalTable(None, (), (), 1, csum, fprec)
    else:
        exps = [xs + ys for xs, ys in a.terms]
        width = a.sig.m + a.sig.n
        top = [max((es[k] for es in exps), default=0) for k in range(width)]
        active = tuple(k for k in range(width) if top[k])
        den = math.lcm(*(c.denominator for c in coeffs))
        rows = [
            (c.numerator * (den // c.denominator), tuple(es[k] for k in active))
            for c, es in zip(coeffs, exps)
        ]
        table = _EvalTable(rows, active, tuple(top[k] for k in active), den, csum, fprec)
    object.__setattr__(a, "_eval", table)
    return table


def _evaluate_by_terms(a: Series, pt: list[Fraction]) -> Union[Fraction, float]:
    """Term-by-term evaluation for a series with a fractional x-exponent."""
    exact = True
    total: Union[Fraction, float] = Fraction(0)
    for (xs, ys), c in a.terms.items():
        if any(e and not base for base, e in zip(pt, xs + ys)):
            continue  # a zero coordinate to a positive power: exactly 0
        term: Union[Fraction, float] = c
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
    return total


# -- monomial factor / division --------------------------------------------


def common_monomial(a: Series) -> Exponent:
    """The largest monomial X^b Y^N dividing every term (coordinate minima)."""
    if not a.terms:
        return ((0,) * a.sig.m, (0,) * a.sig.n)
    exps = list(a.terms)
    xs = tuple(min(e[0][i] for e in exps) for i in range(a.sig.m))
    ys = tuple(min(e[1][j] for e in exps) for j in range(a.sig.n))
    return (xs, ys)


def divide_monomial(a: Series, exp: Exponent) -> Series:
    """Divide by the monomial X^exp; every term must be divisible."""
    exp = _check_exponent(a.sig, exp)
    deg = total_degree(exp)
    prec = a.precision - deg
    if prec <= 0:
        raise SeriesError(f"precision must be positive, got {prec}")
    # x^(3/2) / x^(1/2) = x^1: only a fractional divisor needs re-canonicalising
    xsub = (lambda p, q: _x_exponent(p - q)) if _fractional([exp]) else sub
    terms = {}
    for (xs, ys), c in a.terms.items():
        nxs = tuple(map(xsub, xs, exp[0]))
        nys = tuple(map(sub, ys, exp[1]))
        if any(e < 0 for e in nxs) or any(e < 0 for e in nys):
            raise SeriesError(f"term {(xs, ys)} not divisible by {exp}")
        terms[(nxs, nys)] = c
    return Series._trusted(a.sig, terms, prec)


def invert_unit(u: Series) -> Series:
    """Multiplicative inverse of a unit, modulo precision."""
    c = u.constant_term()
    if c == 0:
        raise SeriesError("cannot invert: zero constant term")
    # u = c*(1 - e) with ord(e) > 0; inverse = (1/c) * sum e^k
    one = constant(u.sig, 1, u.precision)
    e = one - u.scale(Fraction(1) / c)
    # e^k has order >= k*ord(e), so it truncates to zero by k = ceil(prec/ord(e))
    o = e.order()
    if o == 0:
        raise SeriesError("cannot invert: 1 - u/u(0) keeps a constant term")
    steps = 1 if o is None else math.ceil(u.precision / o) + 1
    acc = constant(u.sig, 1, u.precision)
    term = constant(u.sig, 1, u.precision)
    for _ in range(steps):
        term = term * e
        term = term.truncate(u.precision)
        if term.is_zero():
            break
        acc = acc + term
    else:
        raise SeriesError(f"cannot invert: 1 - u/u(0) has no zero power in {steps} steps")
    return acc.scale(Fraction(1) / c).truncate(u.precision)


# -- variable embedding and substitution -------------------------------------


def insert_y(a: Series, pos: int) -> Series:
    """Add an unused y-variable at 1-based position ``pos``."""
    if not 1 <= pos <= a.sig.n + 1:
        raise SeriesError(f"y-position {pos} out of range for {a.sig}")
    sig = Signature(a.sig.m, a.sig.n + 1)
    terms = {}
    for (xs, ys), c in a.terms.items():
        terms[(xs, ys[: pos - 1] + (0,) + ys[pos - 1 :])] = c
    return Series._trusted(sig, terms, a.precision)


def coefficients_in_y(a: Series, j: int) -> dict[int, Series]:
    """Decompose as sum_k H_k * Y_j^k; each H_k keeps Y_j with exponent 0.

    H_k has precision a.precision - k (the truncation of ``a`` hides
    higher-degree contributions to each coefficient).
    """
    if not 1 <= j <= a.sig.n:
        raise SeriesError(f"y-index {j} out of range for {a.sig}")
    buckets: dict[int, dict[Exponent, Fraction]] = {}
    for (xs, ys), c in a.terms.items():
        k = ys[j - 1]
        ys0 = ys[: j - 1] + (0,) + ys[j:]
        buckets.setdefault(k, {})[(xs, ys0)] = c
    return {
        k: Series._trusted(a.sig, terms, a.precision - k)
        for k, terms in buckets.items()
        if a.precision - k > 0
    }


def substitute_y(a: Series, replacements: Mapping[int, Series]) -> Series:
    """Substitute Y_j by replacement series (same signature) for each j.

    Replacements must have zero constant term; the result precision follows
    ``_substitution_precision``.
    """
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
    work_prec = a.precision
    result = zero(a.sig, work_prec)
    power_cache: dict[tuple[int, int], Series] = {}

    def rep_power(j: int, k: int) -> Series:
        if k == 0:
            return constant(a.sig, 1, work_prec)
        if (j, k) not in power_cache:
            power_cache[(j, k)] = (rep_power(j, k - 1) * replacements[j]).truncate(
                work_prec
            )
        return power_cache[(j, k)]

    for (xs, ys), c in a.terms.items():
        ys0 = tuple(
            0 if (j + 1) in replacements else e for j, e in enumerate(ys)
        )
        piece = Series._trusted(a.sig, {(xs, ys0): c}, work_prec)
        for j, e in enumerate(ys):
            if (j + 1) in replacements and e:
                piece = (piece * rep_power(j + 1, e)).truncate(work_prec)
        result = result + piece
    return Series._trusted(a.sig, _below(result.terms, prec), prec)


# -- rendering ---------------------------------------------------------------


def render(a: Series) -> str:
    """Canonical text form, sorted by graded-lexicographic exponent order."""
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
