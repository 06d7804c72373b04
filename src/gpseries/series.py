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
from itertools import groupby
from operator import add, sub
from typing import Mapping, NamedTuple, Optional, Sequence, Union

Rational = Union[int, Fraction]


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


def _precision(p) -> Rational:
    """The precision ``p`` made canonical by ``_x_exponent``; it must be a
    positive finite number (the precision-side twin of ``_ratio``)."""
    try:
        q = _x_exponent(p)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise SeriesError(f"precision {p!r} is not a finite number") from None
    if q <= 0:
        raise SeriesError(f"precision must be positive, got {q}")
    return q


def _y_exponent(e) -> int:
    q = _x_exponent(e)
    if type(q) is not int:
        raise SeriesError(f"y-exponent {e} is not an integer")
    return q


def _fractional(terms) -> bool:
    """Whether some x-exponent of the exponents ``terms`` is a Fraction."""
    return any(type(e) is Fraction for xs, _ in terms for e in xs)


def _over_lcm(coeffs) -> tuple[int, list[int]]:
    """``(L, ns)``: the rationals ``coeffs`` as the integers ``ns`` over the lcm
    ``L`` of their denominators (1 when there are none)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def total_degree(exp: Exponent) -> Rational:
    """Sum of all exponents: an ``int`` when every exponent is one, else a
    ``Fraction``; exact either way, so it compares exactly with a precision."""
    return sum(exp[0]) + sum(exp[1])


class Series:
    """Immutable truncated generalized power series.

    ``Series(sig, terms, precision)`` validates: it converts and checks every
    exponent against the signature, sums coefficients of equal exponents,
    drops zero coefficients and terms of total degree >= ``precision``.
    Callers outside this package and the tests always go through it.

    ``Series._trusted`` skips all of that.  Only code inside the package may
    call it, and only with a result that is canonical already: a ``dict`` of
    nonzero ``Fraction`` coefficients keyed by exponents of the signature,
    every one of total degree below a positive precision, and a
    ``Signature``.  Exponents and the precision are canonical: y-exponents
    are ``int``s, and an x-exponent or a precision is an ``int`` when
    integral, else a ``Fraction`` (with denominator > 1), so each value has
    one type (``_x_exponent``).  The ring operations, ``substitute_y``, the
    transform pullbacks and the splitting helpers of the division and
    monomialisation layers build their results this way, and the one-term
    charts never build an image at or past the precision
    (``transforms._monomial_pull``).  Only arithmetic on fractional values
    can give an integral ``Fraction``, so only there is an exponent or a
    precision re-canonicalised; a ``min`` of canonical values, or one less
    an ``int``, is canonical already.  A degree is the plain sum
    ``total_degree``, an ``int`` unless some x-exponent is fractional.

    Result precision by operation (``p`` is an operand's precision):

    * sum: the smaller ``p`` (``__add__``);
    * product: ``min(pa + ord b, pb + ord a)`` (``_product_precision``);
    * cut product ``_mul(b, P)``: ``min(pa + ord b, pb + ord a, P)``;
    * negation, ``scale``, ``insert_y``, ``set_to_zero``: ``p``;
    * ``truncate(q)``: ``min(p, q)``;
    * division by ``X^b``: ``p - deg b`` (``divide_monomial``; ``partial_y``
      and ``coefficients_in_y`` divide by ``Y_j`` and by ``Y_j^k``);
    * substitution: ``p * min(1, orders)`` (``_substitution_precision``),
      one product per group of terms with equal replaced y-exponents; the
      terms are cut at the smallest precision of those products, below
      which they are exact, so the claim is an over-claim (ROADMAP item 1);
    * a power of a unit (``_unit_power``), so its inverse (``invert_unit``): ``p``;
    * unit root: ``p * min(1, ord(u - u(0)))``, an under-claim (``unit_root``);
    * Weierstrass division: over-claims, see ROADMAP item 12.

    A product sums integers: each operand's coefficients are written as
    integer numerators over the lcm of their denominators (``_over_lcm``),
    ``_mul`` adds ``na * nb`` per key as ``int``s over ``lcm(a) * lcm(b)`` and
    builds one ``Fraction`` per key whose sum is nonzero.  A term of ``b`` is
    kept beside a term of degree ``da`` when its degree ``db`` is below
    ``prec - da``.  ``substitute_y`` runs its products through the same
    loop (``_product_sums``) and adds all its groups into one integer
    accumulator over one denominator, again one ``Fraction`` per kept key.

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
        precision = _precision(precision)
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
        cls, sig: Signature, terms: dict[Exponent, Fraction], precision: Rational
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

    def order(self) -> Optional[Rational]:
        """Minimal total degree of the support (a ``total_degree``), or None
        for the zero series."""
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
        return self._mul(other)

    def _mul(self, other: "Series", cut: Optional[Rational] = None) -> "Series":
        """The product; with ``cut``, ``(self * other).truncate(cut)`` without
        building a term of degree >= ``cut``: a key's terms share its degree,
        so the kept keys, their order and the precision are the same."""
        self._require_same_sig(other)
        deg_a = [total_degree(e) for e in self.terms]
        deg_b = [total_degree(e) for e in other.terms]
        prec = _product_precision(
            self.precision, min(deg_a, default=None),
            other.precision, min(deg_b, default=None),
        )
        if cut is not None:
            prec = min(prec, _x_exponent(cut))
        la, nums_a = _over_lcm(self.terms.values())
        lb, nums_b = _over_lcm(other.terms.values())
        # only two fractional x-exponents sum to an integer, as in x^(1/2) * x^(1/2)
        frac = _fractional(other.terms) and _fractional(self.terms)
        b_terms = list(zip(other.terms, nums_b, deg_b))
        sums = _product_sums({}, zip(self.terms, nums_a, deg_a), b_terms, prec, frac)
        den = la * lb
        return Series._trusted(self.sig, {e: Fraction(n, den) for e, n in sums.items() if n}, prec)

    def scale(self, c: Rational) -> "Series":
        c = Fraction(c)
        if not c:
            return Series._trusted(self.sig, {}, self.precision)
        return Series._trusted(
            self.sig, {e: c * v for e, v in self.terms.items()}, self.precision
        )

    def truncate(self, precision: Rational) -> "Series":
        precision = _precision(precision)
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
        return _below(self.terms, prec) == _below(other.terms, prec)

    def __repr__(self):
        return f"Series({render(self)!r}, sig={tuple(self.sig)}, prec={self.precision})"


def _below(
    terms: Mapping[Exponent, Fraction], precision: Rational
) -> dict[Exponent, Fraction]:
    """The terms of total degree below ``precision``, in their order."""
    return {e: c for e, c in terms.items() if total_degree(e) < precision}


def _add_x(p: Rational, q: Rational) -> Rational:
    return _x_exponent(p + q)


def _product_sums(sums: dict, a_terms, b_terms: list, prec: Rational, frac: bool) -> dict:
    """Add ``na * nb`` to ``sums[ea + eb]`` for every term ``(ea, na, da)`` of
    ``a_terms`` (outer loop) and ``(eb, nb, db)`` of ``b_terms`` (inner loop)
    with ``da + db < prec``, and return ``sums``: the integer product loop of
    ``Series._mul`` and ``substitute_y``.  A new key goes to the end of
    ``sums`` at its first contribution; a sum that cancels keeps its slot.
    ``frac``: both sides may have fractional x-exponents, whose sums are
    re-canonicalised."""
    xadd = _add_x if frac else add
    for (xa, ya), na, da in a_terms:
        room = prec - da
        for (xb, yb), nb, db in b_terms:
            if not db < room:
                continue
            exp = (tuple(map(xadd, xa, xb)), tuple(map(add, ya, yb)))
            sums[exp] = sums.get(exp, 0) + na * nb
    return sums


def _product_precision(
    pa: Rational, oa: Optional[Rational], pb: Rational, ob: Optional[Rational]
) -> Rational:
    """Propagated precision of a product: min(pa + ord(b), pb + ord(a))."""
    candidates = []
    if ob is not None:
        candidates.append(pa + ob)
    if oa is not None:
        candidates.append(pb + oa)
    if not candidates:
        return min(pa, pb)
    # two fractional terms can sum to an integer, as in 3/2 + 1/2
    return _x_exponent(min(candidates))


def _substitution_precision(
    precision: Rational, orders: Sequence[Rational]
) -> Rational:
    """Propagated precision of a substitution whose replacements (nonzero,
    vanishing at the origin) have the given orders: precision * min(1, orders)."""
    return _x_exponent(precision * min([1, *orders]))


# -- constructors ----------------------------------------------------------


def zero(sig: Signature, precision: Rational) -> Series:
    return Series._trusted(Signature(*sig), {}, _precision(precision))


def constant(sig: Signature, c: Rational, precision: Rational) -> Series:
    c = Fraction(c)
    terms = {((0,) * sig.m, (0,) * sig.n): c} if c else {}
    return Series._trusted(Signature(*sig), terms, _precision(precision))


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
    if not 1 <= i <= sig.m:
        raise SeriesError(f"x-index {i} out of range for {sig}")
    xs = [0] * sig.m
    xs[i - 1] = 1
    return monomial(sig, xs, [0] * sig.n, precision)


def y_var(sig: Signature, j: int, precision: Rational) -> Series:
    """The variable Y_j (1-based)."""
    if not 1 <= j <= sig.n:
        raise SeriesError(f"y-index {j} out of range for {sig}")
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
    root = base if alpha.denominator == 1 else nth_root_rational(base, alpha.denominator)
    return None if root is None else root**alpha.numerator


class Evaluation(NamedTuple):
    """Numeric value of a truncated series plus a bound on the dropped tail."""

    value: Union[Fraction, float]
    tail_bound: float


def evaluate(a: Series, point: Sequence[Rational]) -> Evaluation:
    """Evaluate at a rational point; exact when every power is rational in
    every term that does not vanish by a zero coordinate.

    Float coordinates are read as the exact dyadic rationals they denote (a
    NaN or an infinity is a ``SeriesError``).  When every x-exponent is an
    integer the value is computed in integers: with the coefficients written
    over the lcm ``L`` of their denominators and coordinate ``i`` as
    ``n_i / d_i``, a sparse Horner scheme (``_fold``) gives one integer over
    ``D = L * prod d_i^(E_i)``, where ``E_i`` is the largest exponent of
    coordinate ``i``: the exact value is the single ``Fraction(num, D)``.
    A fractional x-exponent is evaluated term by term, falling back to
    floats from the first power that is irrational.

    ``_evaluation`` with ``rounded`` (membership) and ``_value_at`` (the float
    point maps) round ``num / D`` once, to ``float(Fraction(num, D))`` or an
    infinity.

    The tail bound is C * ||p||^delta with C the sum of absolute
    coefficients and ||p|| the max-norm of the point, ``inf`` past the floats.
    """
    return _evaluation(a, _point_ratios(a.sig, point), _norm(point), rounded=False)


def _evaluation(a: Series, ratios: list, norm: float, rounded: bool) -> Evaluation:
    """``evaluate`` at a point read by ``_point_ratios``, of max-norm ``norm``,
    with the value rounded once to ``float(value)`` when ``rounded``."""
    value, table = _value_at(a, ratios, rounded), _eval_table(a)
    if not (table.csum and norm):
        return Evaluation(value, 0.0)
    try:
        return Evaluation(value, table.csum * norm**table.fprec)
    except OverflowError:  # a finite point far outside the unit box
        return Evaluation(value, math.inf)


def _norm(point: Sequence[Rational]) -> float:
    """The max-norm of a point, ``inf`` past the floats."""
    try:
        return max((abs(float(p)) for p in point), default=0.0)
    except OverflowError:
        return math.inf


def _point_ratios(sig: Signature, point: Sequence[Rational]) -> list:
    """The checks of a point before evaluation: ``point`` has the length of
    ``sig``, every coordinate is finite and every x-coordinate is >= 0.
    Returns each coordinate as ``_ratio`` reads it."""
    if len(point) != sig.m + sig.n:
        raise SeriesError(f"point of length {len(point)} for signature {sig}")
    ratios = [_ratio(p, i) for i, p in enumerate(point, 1)]
    for i, (n, d) in enumerate(ratios[: sig.m], 1):
        if n < 0:
            raise SeriesError(f"negative x-coordinate {Fraction(n, d)} at position {i}")
    return ratios


def _value_at(a: Series, ratios: list, rounded: bool) -> Union[Fraction, float]:
    """The value of ``evaluate`` at a point read by ``_point_ratios``."""
    table = _eval_table(a)
    if table.rows is None:
        total = _evaluate_by_terms(a, [Fraction(n, d) for n, d in ratios])
        return _rounded(total) if rounded else total
    pairs = [ratios[k] for k in table.active]
    den = table.den
    for (_, d), top in zip(pairs, table.top):
        den *= d**top
    num = _fold(table.rows, pairs, table.top, 0) if pairs else table.rows
    try:  # n / d is float(Fraction(n, d)): both round the exact quotient once
        return num / den if rounded else Fraction(num, den)
    except OverflowError:  # past the largest float, where rounding gives an infinity
        return math.inf if num > 0 else -math.inf


def _ratio(p, pos: int) -> tuple[int, int]:
    """``p`` as ``Fraction(p)`` reads it, ``(numerator, denominator > 0)``; ``pos`` names it."""
    try:
        if type(p) is float:
            return p.as_integer_ratio()
        q = p if type(p) is Fraction else Fraction(p)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError):
        raise SeriesError(f"coordinate {p!r} at position {pos} is not a finite number") from None
    return q.numerator, q.denominator


class _EvalTable(NamedTuple):
    """What ``evaluate`` needs of a series, independent of the point."""

    rows: Union[None, int, tuple]  # Horner scheme of c * den (``_horner``); None if an x-exponent is fractional
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
        den, nums = _over_lcm(coeffs)
        rows = sorted(((tuple(es[k] for k in active), n) for n, es in zip(nums, exps)), reverse=True)
        table = _EvalTable(_horner(rows), active, tuple(top[k] for k in active), den, csum, fprec)
    object.__setattr__(a, "_eval", table)
    return table


def _horner(rows: list):
    """Rows ``(exponents, c)``, sorted descending, as a sparse Horner scheme: ``((e,
    scheme of the rest of the rows whose first exponent is e), ...)``, down to c (0 if none)."""
    if not rows or not rows[0][0]:
        return sum(c for _, c in rows)
    return tuple((e, _horner([(es[1:], c) for es, c in g])) for e, g in groupby(rows, lambda r: r[0][0]))


def _fold(scheme: tuple, pairs: list, tops: tuple, k: int) -> int:
    """``sum c * prod_(i >= k) n_i^e_i * d_i^(tops[i] - e_i)`` over the scheme, with
    ``(n_i, d_i) = pairs[i]``: by ``n^gap`` and ``d^gap`` between exponents."""
    (n, d), prev, acc, dpow = pairs[k], tops[k], 0, 1
    for e, rest in scheme:
        dpow *= d ** (prev - e)
        acc = acc * n ** (prev - e) + dpow * (rest if type(rest) is int else _fold(rest, pairs, tops, k + 1))
        prev = e
    return acc * n**prev


def _evaluate_by_terms(a: Series, pt: list[Fraction]) -> Union[Fraction, float]:
    """Term-by-term evaluation for a series with a fractional x-exponent: a
    term is exact up to its first irrational power and a float from there on,
    and a float past the largest one is the infinity of its sign."""
    total: Union[Fraction, float] = Fraction(0)
    for (xs, ys), c in a.terms.items():
        es = xs + ys
        if any(e and not base for base, e in zip(pt, es)):
            continue  # a zero coordinate to a positive power: exactly 0
        term: Union[Fraction, float] = c
        for base, e in zip(pt, es):
            if not e:
                continue
            p = _rational_power(base, e)
            if p is None:  # an irrational power of an x-coordinate > 0
                try:
                    p = _rounded(base) ** float(e)
                except OverflowError:
                    p = math.inf
                term = _rounded(term) * p
            else:
                term = term * p if type(term) is Fraction else term * _rounded(p)
        exact = type(total) is type(term) is Fraction
        total = total + term if exact else _rounded(total) + _rounded(term)
    return total


def _rounded(v: Union[Rational, float]) -> float:
    """``float(v)``, or the infinity of its sign past the largest float."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


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
    prec = _x_exponent(a.precision - deg)
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
    return _unit_power(u, Fraction(-1), Fraction(1) / c)


def _unit_power(u: Series, alpha: Fraction, scale: Fraction) -> Series:
    """``scale * (u/c)^alpha`` modulo u's precision p, for a unit u with
    ``c = u(0)``: the binomial series ``sum_k d_k e^k`` of ``e = 1 - u/c``,
    ``d_k = (-1)^k binom(alpha, k)``.  Term k is term k-1 cut-multiplied by e,
    then scaled by ``(k-1-alpha)/k``, which is 1 at alpha = -1 and skipped."""
    e = constant(u.sig, 1, u.precision) - u.scale(Fraction(1) / u.constant_term())
    what = "invert" if alpha == -1 else "take a root"
    # e^k has order >= k*ord(e), so it truncates to zero by k = ceil(p/ord(e))
    o = e.order()
    if o == 0:
        raise SeriesError(f"cannot {what}: 1 - u/u(0) keeps a constant term")
    steps = 1 if o is None else -(-u.precision // o) + 1
    acc = term = constant(u.sig, 1, u.precision)
    for k in range(steps):
        term = term._mul(e, u.precision)
        if term.is_zero():
            break
        if alpha != -1:
            term = term.scale((k - alpha) / (k + 1))
        acc = acc + term
    else:
        raise SeriesError(f"cannot {what}: 1 - u/u(0) has no zero power in {steps} steps")
    return acc.scale(scale)


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


class _Factor(NamedTuple):
    """A factor of ``substitute_y`` in integers: ``terms`` as ``(exponent,
    numerator, degree)`` over a denominator kept by the caller, ``order`` their
    least degree (None if there are none), ``frac`` whether an x-exponent
    may be fractional."""

    terms: list
    precision: Rational
    order: Optional[Rational]
    frac: bool


def _factor(terms: list, precision: Rational, frac: bool) -> _Factor:
    return _Factor(terms, precision, min((d for _, _, d in terms), default=None), frac)


def _cut_product(a: _Factor, b: _Factor, cut: Rational, sums: dict) -> Rational:
    """Add the product ``a * b`` cut at ``cut`` to the integer sums ``sums``,
    as ``Series._mul`` does, and return its precision."""
    prec = min(_product_precision(a.precision, a.order, b.precision, b.order), cut)
    _product_sums(sums, a.terms, b.terms, prec, a.frac and b.frac)
    return prec


def _chained(a: _Factor, b: _Factor, cut: Rational) -> _Factor:
    """The cut product ``a * b`` as a factor of a further product: its
    nonzero sums, with their degrees."""
    sums: dict[Exponent, int] = {}
    prec = _cut_product(a, b, cut, sums)
    return _factor([(e, n, total_degree(e)) for e, n in sums.items() if n], prec, a.frac or b.frac)


def substitute_y(a: Series, replacements: Mapping[int, Series]) -> Series:
    """Substitute Y_j by replacement series (same signature) for each j.

    Replacements must have zero constant term.  With the terms of ``a``
    grouped as ``a = sum_k C_k * prod_j Y_j^(k_j)`` by their replaced
    y-exponents, each group adds ``C_k * prod_j R_j^(k_j)`` once, multiplied
    in increasing j; every product and every power ``R_j^e = R_j^(e-1) * R_j``
    is cut at ``P = a.precision``, as ``Series._mul`` cuts it.

    The sum is taken in integers over one denominator, like a product: each
    group and each replacement is written once as integer numerators over
    the lcm of its denominators (``_over_lcm``); ``D`` is the lcm over the
    groups of ``lcm(C_k) * prod_j lcm(R_j)^(k_j)``, and each ``C_k`` is scaled
    to lie over ``D / prod_j lcm(R_j)^(k_j)``, so every group's product lies
    over ``D``.  The products run through ``Series._mul``'s loop
    (``_product_sums``); a group's last one adds into one accumulator for all
    groups.  After each group a key whose sum is 0 is deleted, so a later
    group that brings it back puts it at the end, as ``+`` would.  One
    ``Fraction`` is built per output term.

    The sum is exact below the smallest precision of its pieces, and its
    terms are cut there, yet the result claims ``P * min(1, orders)``
    (``_substitution_precision``): an over-claim, ROADMAP item 1.
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
    P = a.precision
    js = sorted(replacements)
    groups: dict[tuple[int, ...], dict[Exponent, Fraction]] = {}
    for (xs, ys), c in a.terms.items():
        ys0 = tuple(0 if j in replacements else e for j, e in enumerate(ys, 1))
        groups.setdefault(tuple(ys[j - 1] for j in js), {})[(xs, ys0)] = c
    lcms, reps = {}, {}
    for j in js:
        r = replacements[j]
        lcms[j], nums = _over_lcm(r.terms.values())
        reps[j] = _factor(list(zip(r.terms, nums, map(total_degree, r.terms))),
                          r.precision, _fractional(r.terms))
    one = _factor([(((0,) * a.sig.m, (0,) * a.sig.n), 1, 0)], P, False)
    powers = {j: [one] for j in js}
    pieces = []
    for ks, terms in groups.items():
        den, nums = _over_lcm(terms.values())
        pieces.append((ks, terms, math.prod((lcms[j] ** k for j, k in zip(js, ks)), start=den), nums))
    D = math.lcm(*(den for _, _, den, _ in pieces))
    acc: dict[Exponent, int] = {}
    low = P
    for ks, terms, den, nums in pieces:
        scale = D // den
        piece = _factor([(e, n * scale, total_degree(e)) for e, n in zip(terms, nums)],
                        P, _fractional(terms))
        factors = []
        for j, k in zip(js, ks):
            if k:
                rj = powers[j]
                while len(rj) <= k:
                    rj.append(_chained(rj[-1], reps[j], P))
                factors.append(rj[k])
        *chain, last = factors or [one]
        for f in chain:
            piece = _chained(piece, f, P)
        low = min(low, _cut_product(piece, last, P, acc))
        if 0 in acc.values():
            acc = {e: n for e, n in acc.items() if n}
    cut = min(low, prec)
    return Series._trusted(
        a.sig, {e: Fraction(n, D) for e, n in acc.items() if total_degree(e) < cut}, prec
    )


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
            # exponents are canonical: an int when integral
            power = "" if e == 1 else f"^{e}" if type(e) is int else f"^({e})"
            factors.append(f"x{i+1}{power}")
        for j, e in enumerate(exp[1]):
            if e == 0:
                continue
            factors.append(f"y{j+1}" + (f"^{e}" if e != 1 else ""))
        num, den = c.numerator, c.denominator  # sign and magnitude, in integers
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = "*".join(factors if factors and mag == "1" else [mag] + factors)
        parts.append(("-" if num < 0 else "+", body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
