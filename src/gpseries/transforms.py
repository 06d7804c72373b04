"""Elementary transformations and their pullback action on series.

Each transformation is a map ``nu`` from a downstream coordinate space
(signature ``(m', n')``) to an upstream one (``(m, n)``).  The pullback
sends a series F over the upstream signature to F o nu over the downstream
one, computed exactly on each term and truncated to a soundly propagated
precision.  Charts that send each monomial to one monomial share
``_monomial_pull``, which never builds an image at or past the precision.

A pullback's precision comes from the substitution rule
(``series._substitution_precision``): charts that substitute series of order
>= 1 keep f's precision; ``RamifyX`` with gamma < 1 and ``Tschirnhausen``
with a centre of order < 1 lower it.

The point maps take float, Fraction and int coordinates.  An exact
coordinate meets the exact chart values.  A float coordinate meets floats,
and each exact chart value is rounded to a float only once: lam, c_k, gamma
and 1/gamma keep a float copy, and a Tschirnhausen centre takes the value of
h alone (``series._value``: exact sparse Horner, no tail bound), rounded
once.  Python evaluates ``Fraction op float`` as ``float(Fraction) op float``,
so the bits are those the exact values give.

Infinity chart parameters are the strings ``"inf"`` / ``"-inf"``, held as the
module's ``INF`` / ``NEG_INF`` objects so that a chart tests for them by
identity; all other parameters are exact rationals.  The three blow-up
families share one formula, ``src <- tgt * (lam + v)``, for every finite
chart (``_BlowUp``).  In the x-x and y-y blow-ups lam = inf is the lam = 0
chart with i and j swapped; a y-x chart at lam = +-inf is the sign chart
y_i <- +-x_new followed by x_j <- x_new * x_j.

JSON: ``{"kind": KIND}`` plus every dataclass field, Fractions as strings,
tuples as lists of strings, ints and infinities as they are; it is read back
by passing the fields to the class.  ``Tschirnhausen`` has its own format,
because its centre is a series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import ClassVar, Optional, Sequence, Union

from .series import (
    Rational,
    Series,
    SeriesError,
    Signature,
    SignatureMismatch,
    _over_lcm,
    _rational_power,
    _substitution_precision,
    _value,
    _x_exponent,
    insert_y,
    render,
    substitute_y,
    y_var,
)

INF = "inf"
NEG_INF = "-inf"

Lambda = Union[Fraction, str]


class TransformError(SeriesError):
    pass


class NeedsRamification(TransformError):
    """A lambda-chart met a fractional exponent; the caller must ramify first."""


Point = list  # numeric point, entries Fraction or float


def _constant(v, exact, rounded):
    """The chart constant (or tuple of them) that meets the coordinate value
    ``v``: its float copy ``rounded`` when ``v`` is a float, since ``exact op
    v`` would round it so, else ``exact``."""
    return rounded if isinstance(v, float) else exact


def _monomial_pull(f: Series, sig2: Signature, precision: Fraction, rewrite) -> Series:
    """f o nu over ``sig2`` at ``precision``, for a chart nu that sends each
    monomial to one monomial: ``rewrite(e)`` turns a term's flat exponents
    ``e`` (x1..xm, y1..yn) into its image's in place and says whether the sign
    changes.  Distinct terms have distinct images, so nothing sums, and an
    image whose degree is at or past the precision is never built."""
    m2 = sig2.m
    terms = {}
    for (xs, ys), c in f.terms.items():
        e = [*xs, *ys]
        negate = rewrite(e)
        if sum(e) < precision:
            terms[(tuple(e[:m2]), tuple(e[m2:]))] = -c if negate else c
    return Series._trusted(sig2, terms, precision)


@dataclass(frozen=True)
class ElementaryTransform:
    """Base class.  Concrete variants implement ``validate``, ``pullback``,
    ``forward_point_sig`` and ``inverse_point`` and set ``KIND``; by default
    ``result_sig`` keeps the signature and ``to_json`` writes ``KIND`` and the
    fields."""

    KIND: ClassVar[str]

    def result_sig(self, sig: Signature) -> Signature:
        return sig

    def validate(self, sig: Signature) -> None:
        raise NotImplementedError

    def pullback(self, f: Series) -> Series:
        raise NotImplementedError

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        """Map a downstream point to its upstream image; sig is the upstream
        signature (needed to locate y-coordinates)."""
        raise NotImplementedError

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        """Numeric preimage of an upstream point, or None when outside the
        chart's image (closed-form for every variant)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        d = {"kind": self.KIND}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = [str(c) for c in v]
            elif not isinstance(v, (int, str)):  # a Fraction
                v = str(v)
            d[f.name] = v
        return d

    def describe(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class _BlowUp(ElementaryTransform):
    """Fields of the three blow-up families; lam is a Fraction, INF or NEG_INF.

    Every finite chart is ``src <- tgt * (lam + v)``.  ``s``, ``t`` and ``v``
    are flat positions in x1..xm, y1..yn: ``s`` and ``t`` upstream, ``v``
    downstream.  ``v == s`` except in the x-x chart at lam > 0, whose chart
    variable is a new first y-variable.  An x-x or y-y chart at lam = inf is
    the lam = 0 chart with i and j swapped (``_chart``).  Two charts keep
    their own code: the x-x zero chart's forward map ``x_i * x_j`` keeps int
    points int and -0.0 signed, and the y-x charts at lam = +-inf go through
    the sign chart (``BlowUpYX._sign_chart``).
    """

    i: int
    j: int
    lam: Lambda

    def __post_init__(self):
        lam = self.lam
        if isinstance(lam, str) and lam in (INF, NEG_INF):
            lam = INF if lam == INF else NEG_INF
        else:
            lam = Fraction(lam)
        object.__setattr__(self, "lam", lam)

    def _chart(self) -> tuple[int, int, Fraction]:
        """``(i, j, lam)`` of an x-x or y-y chart, or ``(j, i, 0)`` for lam = inf."""
        if self.lam is INF:
            return self.j, self.i, Fraction(0)
        return self.i, self.j, self.lam

    @cached_property
    def _lam_float(self) -> float:
        """The float of the chart's finite lam (0.0 for x-x and y-y lam = inf)."""
        return float(self._chart()[2])

    def _pull(self, f: Series, s: int, t: int, v: int, lam: Fraction) -> Series:
        """f o (src <- tgt * (lam + v)), at f's precision.  At lam != 0 a term
        of degree ``deg`` expands ``(lam + v)^b`` only below the first ``k``
        with ``deg + k >= f.precision``: the image of ``v^k`` has degree
        ``deg + k``, so every term built is below the precision.

        The sums are taken in integers.  With f's coefficients as integers
        over their lcm ``L``, ``lam = p/q`` and ``B`` the largest source
        exponent, the coefficient of ``v^k`` in ``(lam + v)^b`` is the integer
        ``comb(b, k) * p^(b-k) * q^(B-b+k)`` over ``q^B``; each kept key gets
        one ``Fraction`` over ``L * q^B``."""
        sig2 = self.result_sig(f.sig)
        if lam == 0:  # x_s <- x_t * x_s: one image per term

            def rewrite(e):
                e[t] += e[s]
                if type(e[t]) is Fraction:  # x^(1/2) * x^(1/2) = x^1
                    e[t] = _x_exponent(e[t])
                return False

            return _monomial_pull(f, sig2, f.precision, rewrite)
        m2 = sig2.m
        flat = [[*xs, *ys] for xs, ys in f.terms]
        L, nums = _over_lcm(f.terms.values())
        p, q = lam.numerator, lam.denominator
        B = math.ceil(max((e[s] for e in flat), default=0))  # a fractional one raises below
        sums = {}
        powers = {}  # b -> numerators of (lam + v)^b over q^B by the power of v
        for e, nc in zip(flat, nums):
            b = e[s]
            room = math.ceil(f.precision - sum(e))  # the number of k kept
            if b.denominator != 1:  # only an x-x source can be fractional
                raise NeedsRamification(
                    f"x{s + 1}-exponent {b} is fractional; ramify before the lambda chart"
                )
            e[t] += b
            if v != s:  # x-x at lam > 0: x_i becomes y_1'
                e.insert(v, e.pop(s))
            nxs, nys = tuple(e[:m2]), e[m2:]  # v is a y-position
            if b not in powers:
                powers[b] = [math.comb(b, k) * p ** (b - k) * q ** (B - b + k) for k in range(b + 1)]
            for k, coeff in zip(range(room), powers[b]):
                nys[v - m2] = k
                key = (nxs, tuple(nys))
                sums[key] = sums.get(key, 0) + nc * coeff
        den = L * q**B
        return Series._trusted(sig2, {key: Fraction(n, den) for key, n in sums.items() if n}, f.precision)

    def _forward(self, p: Sequence, s: int, t: int, v: int, lam: Fraction) -> Point:
        w = p[v]
        q = list(p)
        if v != s:  # x-x at lam > 0: y_1' becomes x_i
            q.insert(s, q.pop(v))
        q[s] = p[t] * (_constant(w, lam, self._lam_float) + w)
        return q

    def _inverse(self, p: Sequence, s: int, t: int, v: int, lam: Fraction):
        if p[t] == 0:
            return None
        ratio = p[s] / p[t]
        q = list(p)
        if v != s:  # x-x at lam > 0: x_i becomes y_1'
            q.insert(v, q.pop(s))
        q[v] = ratio - _constant(ratio, lam, self._lam_float)
        return q


@dataclass(frozen=True)
class BlowUpXX(_BlowUp):
    """Chart of the x-x blow-up family pi_{i,j}.

    lam = 0: x_i <- x_j * x_i (signature preserved); lam in (0, inf):
    x_i <- x_j*(lam + y_1'), removing x_i and inserting a new first
    y-variable (requires j < i and natural i-exponents).
    """

    KIND = "blowup_xx"

    def __post_init__(self):
        super().__post_init__()
        if self.lam is NEG_INF or isinstance(self.lam, Fraction) and self.lam < 0:
            raise TransformError("x-x chart parameter must be >= 0 or inf")

    def validate(self, sig: Signature) -> None:
        if not (1 <= self.i <= sig.m and 1 <= self.j <= sig.m):
            raise TransformError(f"indices ({self.i},{self.j}) out of range for {sig}")
        if self.i == self.j:
            raise TransformError("x-x chart requires i != j")
        if isinstance(self.lam, Fraction) and self.lam > 0 and not self.j < self.i:
            raise TransformError("finite-lambda x-x chart requires j < i")

    def result_sig(self, sig: Signature) -> Signature:
        if isinstance(self.lam, Fraction) and self.lam > 0:
            return Signature(sig.m - 1, sig.n + 1)
        return sig

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        i, j, lam = self._chart()
        return self._pull(f, i - 1, j - 1, f.sig.m - 1 if lam else i - 1, lam)

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        i, j, lam = self._chart()
        if lam:
            return self._forward(p, i - 1, j - 1, sig.m - 1, lam)
        q = list(p)
        q[i - 1] = p[i - 1] * p[j - 1]
        return q

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        i, j, lam = self._chart()
        return self._inverse(p, i - 1, j - 1, sig.m - 1 if lam else i - 1, lam)


@dataclass(frozen=True)
class BlowUpYX(_BlowUp):
    """Chart of the y-x blow-up family pi_{m+i,j}.

    Finite lam: y_i <- x_j*(lam + y_i) (signature preserved);
    lam = +-inf: x_j <- x_new * x_j, y_i <- +-x_new with a new x-variable
    appended, dropping y_i.
    """

    KIND = "blowup_yx"

    def validate(self, sig: Signature) -> None:
        if not (1 <= self.i <= sig.n and 1 <= self.j <= sig.m):
            raise TransformError(f"indices ({self.i},{self.j}) out of range for {sig}")

    def result_sig(self, sig: Signature) -> Signature:
        if isinstance(self.lam, str):
            return Signature(sig.m + 1, sig.n - 1)
        return sig

    @cached_property
    def _sign_chart(self) -> SignChart:
        """y_i <- +-x_new, the first half of the chart at lam = +-inf."""
        return SignChart(self.i, 1 if self.lam is INF else -1)

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        m, j = f.sig.m, self.j - 1
        if isinstance(self.lam, str):  # the sign chart, then x_j <- x_new * x_j
            to_x = self._sign_chart._to_x

            def rewrite(e):
                negate = to_x(e, m)
                e[m] += e[j]
                return negate

            return _monomial_pull(f, self.result_sig(f.sig), f.precision, rewrite)
        return self._pull(f, m + self.i - 1, j, m + self.i - 1, self.lam)

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        m, j = sig.m, self.j - 1
        if isinstance(self.lam, str):  # x_j <- x_new * x_j, then the sign chart
            q = list(p)
            q[j] = p[m] * p[j]
            return self._sign_chart._forward(q, m)
        return self._forward(p, m + self.i - 1, j, m + self.i - 1, self.lam)

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        m, j = sig.m, self.j - 1
        if isinstance(self.lam, str):  # the sign chart, then x_j <- x_j / x_new
            q = self._sign_chart._inverse(p, m)
            if q is None or q[m] == 0:
                return None
            q[j] = p[j] / q[m]
            return None if q[j] < 0 else q
        return self._inverse(p, m + self.i - 1, j, m + self.i - 1, self.lam)


@dataclass(frozen=True)
class BlowUpYY(_BlowUp):
    """Chart of the y-y blow-up family pi_{m+i,m+j}: y_i <- y_j*(lam + y_i)."""

    KIND = "blowup_yy"

    def __post_init__(self):
        super().__post_init__()
        if self.lam is NEG_INF:
            raise TransformError("y-y charts use lam in Q or inf")

    def validate(self, sig: Signature) -> None:
        if not (1 <= self.i <= sig.n and 1 <= self.j <= sig.n):
            raise TransformError(f"indices ({self.i},{self.j}) out of range for {sig}")
        if self.i == self.j:
            raise TransformError("y-y chart requires i != j")

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        i, j, lam = self._chart()
        m = f.sig.m
        return self._pull(f, m + i - 1, m + j - 1, m + i - 1, lam)

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        i, j, lam = self._chart()
        return self._forward(p, sig.m + i - 1, sig.m + j - 1, sig.m + i - 1, lam)

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        i, j, lam = self._chart()
        return self._inverse(p, sig.m + i - 1, sig.m + j - 1, sig.m + i - 1, lam)


@dataclass(frozen=True)
class Tschirnhausen(ElementaryTransform):
    """Translation y_j <- y_j + h(x, other y's), h(0) = 0.

    ``h`` is a series over (m, n-1); its y-variables are the ambient
    y-variables other than y_j, in order.  ``j = 0`` means the last one."""

    KIND = "tschirnhausen"
    h: Series  # over (m, n-1)
    j: int = 0

    def __post_init__(self):
        if self.h.constant_term() != 0:
            raise TransformError("Tschirnhausen center must vanish at the origin")

    def _index(self, sig: Signature) -> int:
        return sig.n if self.j == 0 else self.j

    def validate(self, sig: Signature) -> None:
        if sig.n < 1:
            raise TransformError("Tschirnhausen needs at least one y-variable")
        if not 1 <= self._index(sig) <= sig.n:
            raise TransformError(f"index {self.j} out of range for {sig}")
        if self.h.sig != Signature(sig.m, sig.n - 1):
            raise SignatureMismatch(
                f"center over {self.h.sig}, expected {Signature(sig.m, sig.n - 1)}"
            )

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        j = self._index(f.sig)
        rep = y_var(f.sig, j, f.precision) + insert_y(self.h, j)
        # substitute_y requires zero constant term; rep = y_j + h qualifies
        return substitute_y(f, {j: rep})

    def _center(self, p: Sequence, sig: Signature) -> tuple[int, Rational]:
        """Position ``k`` of y_j in ``p`` and h at the other coordinates,
        rounded once to a float when ``p[k]`` is one."""
        k = sig.m + self._index(sig) - 1
        return k, _value(self.h, list(p[:k]) + list(p[k + 1 :]), isinstance(p[k], float))

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        k, hval = self._center(p, sig)
        q = list(p)
        q[k] = p[k] + hval
        return q

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        k, hval = self._center(p, sig)
        q = list(p)
        q[k] = p[k] - hval
        return q

    def to_json(self) -> dict:
        return {
            "kind": self.KIND,
            "h": render(self.h),
            "h_sig": list(self.h.sig),
            "h_prec": str(self.h.precision),
            "j": self.j,
        }


@dataclass(frozen=True)
class Linear(ElementaryTransform):
    """y_k <- y_k + c_k * y_i for k < i."""

    KIND = "linear"
    i: int
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(Fraction(v) for v in self.c))

    def validate(self, sig: Signature) -> None:
        if not 1 <= self.i <= sig.n:
            raise TransformError(f"index {self.i} out of range for {sig}")
        if len(self.c) != self.i - 1:
            raise TransformError(f"coefficient tuple must have length {self.i - 1}")

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        reps = {}
        for k, ck in enumerate(self.c, start=1):
            if ck == 0:
                continue
            reps[k] = y_var(f.sig, k, f.precision) + y_var(
                f.sig, self.i, f.precision
            ).scale(ck)
        if not reps:
            return f
        return substitute_y(f, reps)

    @cached_property
    def _c_float(self) -> tuple:
        return tuple(map(float, self.c))

    def _shift(self, p: Sequence, sig: Signature, op) -> Point:
        """p with ``op(y_k, c_k * y_i)`` for each y_k, k < i."""
        yi = p[sig.m + self.i - 1]
        q = list(p)
        for k, ck in enumerate(_constant(yi, self.c, self._c_float), start=sig.m):
            q[k] = op(p[k], ck * yi)
        return q

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        return self._shift(p, sig, add)

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        return self._shift(p, sig, sub)


@dataclass(frozen=True)
class RamifyX(ElementaryTransform):
    """x_i <- x_i^gamma (gamma > 0 rational); exponents scale by gamma."""

    KIND = "ramify_x"
    i: int
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma <= 0:
            raise TransformError("ramification exponent must be positive")

    def validate(self, sig: Signature) -> None:
        if not 1 <= self.i <= sig.m:
            raise TransformError(f"index {self.i} out of range for {sig}")

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        k, gamma = self.i - 1, self.gamma

        def rewrite(e):
            e[k] = _x_exponent(e[k] * gamma)
            return False

        return _monomial_pull(f, f.sig, _substitution_precision(f.precision, [gamma]), rewrite)

    @cached_property
    def _exponents(self) -> tuple:
        """``(e, float(e))`` for the forward exponent gamma and the inverse 1/gamma."""
        inverse = 1 / self.gamma
        return (self.gamma, float(self.gamma)), (inverse, float(inverse))

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        if p[self.i - 1] < 0:  # -0.0 is not: it maps to 0
            raise TransformError(f"negative x-coordinate {p[self.i - 1]} at position {self.i}")
        q = list(p)
        q[self.i - 1] = _power_numeric(p[self.i - 1], *self._exponents[0])
        return q

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        if p[self.i - 1] < 0:
            return None
        q = list(p)
        q[self.i - 1] = _power_numeric(p[self.i - 1], *self._exponents[1])
        return q


def _power_numeric(v, e: Fraction, e_float: float):
    """v^e: exact for a positive ``Fraction`` with a rational power, else the
    float power with ``e_float = float(e)``."""
    if v == 0:
        return Fraction(0) if e > 0 else None
    if isinstance(v, Fraction) and v > 0:
        p = _rational_power(v, e)
        if p is not None:
            return p
    return float(v) ** e_float


@dataclass(frozen=True)
class RamifyY(ElementaryTransform):
    """y_i <- sign * y_i^d with d >= 1 a natural number."""

    KIND = "ramify_y"
    i: int
    d: int
    sign: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise TransformError("y-ramification degree must be >= 1")
        if self.sign not in (1, -1):
            raise TransformError("sign must be +1 or -1")

    def validate(self, sig: Signature) -> None:
        if not 1 <= self.i <= sig.n:
            raise TransformError(f"index {self.i} out of range for {sig}")

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        k, d, negative = f.sig.m + self.i - 1, self.d, self.sign < 0

        def rewrite(e):
            b = e[k]
            e[k] = b * d
            return negative and b % 2 == 1

        return _monomial_pull(f, f.sig, f.precision, rewrite)

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        m = sig.m
        q = list(p)
        q[m + self.i - 1] = self.sign * p[m + self.i - 1] ** self.d
        return q

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        m = sig.m
        v = self.sign * p[m + self.i - 1]
        if self.d % 2 == 1:
            root = math.copysign(abs(float(v)) ** (1.0 / self.d), v)
        else:
            if v < 0:
                return None
            root = float(v) ** (1.0 / self.d)
        q = list(p)
        q[m + self.i - 1] = root
        return q


@dataclass(frozen=True)
class SignChart(ElementaryTransform):
    """y_i <- sign * x_new, turning y_i into a nonnegative x-variable
    (the new variable is appended after x_m)."""

    KIND = "sign_chart"
    i: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise TransformError("sign must be +1 or -1")

    def validate(self, sig: Signature) -> None:
        if not 1 <= self.i <= sig.n:
            raise TransformError(f"index {self.i} out of range for {sig}")

    def result_sig(self, sig: Signature) -> Signature:
        return Signature(sig.m + 1, sig.n - 1)

    def _to_x(self, e: list, m: int) -> bool:
        """The pullback's rewrite over m x-variables: y_i's exponent b moves
        to the new x_{m+1}; the sign changes when b is odd and sign is -1."""
        b = e.pop(m + self.i - 1)
        e.insert(m, b)
        return self.sign < 0 and b % 2 == 1

    def pullback(self, f: Series) -> Series:
        self.validate(f.sig)
        m = f.sig.m
        return _monomial_pull(f, self.result_sig(f.sig), f.precision, lambda e: self._to_x(e, m))

    def _forward(self, p: Sequence, m: int) -> Point:
        nys = list(p[m + 1 :])
        nys.insert(self.i - 1, self.sign * p[m])
        return list(p[:m]) + nys

    def _inverse(self, p: Sequence, m: int) -> Optional[Point]:
        v = self.sign * p[m + self.i - 1]
        if v < 0:
            return None
        nys = list(p[m:])
        del nys[self.i - 1]
        return list(p[:m]) + [v] + nys

    def forward_point_sig(self, p: Sequence, sig: Signature) -> Point:
        return self._forward(p, sig.m)

    def inverse_point(self, p: Sequence, sig: Signature) -> Optional[Point]:
        return self._inverse(p, sig.m)


_KINDS = {
    cls.KIND: cls
    for cls in (BlowUpXX, BlowUpYX, BlowUpYY, Linear, RamifyX, RamifyY, SignChart)
}


_REQUIRED = object()


def _json_field(d: dict, kind: str, name: str, convert=None, default=_REQUIRED):
    """``d[name]`` passed through ``convert``.  A missing field without a
    ``default``, or a value that ``convert`` rejects with ``TypeError`` or
    ``ValueError``, raises ``TransformError`` naming the kind and the field."""
    if not isinstance(d, dict) or name not in d:
        if default is _REQUIRED:
            raise TransformError(f"{kind} JSON has no field {name!r}")
        return default
    v = d[name]
    try:
        return v if convert is None else convert(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise TransformError(f"{kind} JSON has a bad {name!r}: {v!r}") from None


def _of_type(cls: type):
    """Converter that passes values of exactly type ``cls`` (so ``True`` is
    not an int) and rejects others with ``TypeError``."""

    def check(v):
        if type(v) is not cls:
            raise TypeError
        return v

    return check


def _json_signature(v) -> Signature:
    """The ``Signature`` of a JSON ``[m, n]`` of nonnegative ints."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise TypeError
    m, n = map(_of_type(int), v)
    if m < 0 or n < 0:
        raise ValueError
    return Signature(m, n)


def _fractions(v) -> tuple:
    if not isinstance(v, (list, tuple)):
        raise TypeError
    return tuple(Fraction(c) for c in v)


def _lambda(v) -> Lambda:
    return v if v in (INF, NEG_INF) else Fraction(v)


# JSON converter per dataclass field annotation (``f.type`` is its text)
_FIELD_CONVERTERS = {"int": _of_type(int), "tuple": _fractions, "Lambda": _lambda}


def transform_from_json(d: dict) -> ElementaryTransform:
    """Inverse of ``to_json``; malformed input raises ``TransformError``
    naming the kind and the field."""
    kind = _json_field(d, "transform", "kind", _of_type(str))
    if kind == Tschirnhausen.KIND:
        from .parser import parse_series

        h_sig = _json_field(d, kind, "h_sig", _json_signature)
        precision = _json_field(d, kind, "h_prec", Fraction)
        # a parsed product certifies more than its factors' precision; the
        # center keeps exactly the precision it was written with
        h = _json_field(d, kind, "h", lambda text: parse_series(text, h_sig, precision))
        h = h.truncate(precision)
        return Tschirnhausen(h, _json_field(d, kind, "j", _of_type(int), 0))
    if kind not in _KINDS:
        raise TransformError(f"unknown transform kind {kind!r}")
    cls = _KINDS[kind]
    return cls(**{
        f.name: _json_field(d, kind, f.name, _FIELD_CONVERTERS.get(f.type, Fraction))
        for f in fields(cls)
    })


# -- chains -------------------------------------------------------------------


def chain_sigs(chain: Sequence[ElementaryTransform], sig: Signature) -> list[Signature]:
    """Signatures along the chain, starting from the upstream signature."""
    sigs = [sig]
    for t in chain:
        t.validate(sigs[-1])
        sigs.append(t.result_sig(sigs[-1]))
    return sigs


def pullback_chain(chain: Sequence[ElementaryTransform], f: Series) -> Series:
    """Left-to-right composition: F o nu_1 o ... o nu_N."""
    for idx, t in enumerate(chain):
        try:
            f = t.pullback(f)
        except SeriesError as exc:
            raise TransformError(f"step {idx + 1} ({t.describe()}): {exc}") from exc
    return f


def forward_chain(
    chain: Sequence[ElementaryTransform], p: Sequence, sig: Signature
) -> Point:
    """Image of a leaf point under nu_1 o ... o nu_N."""
    return _forward_walk(chain, chain_sigs(chain, sig), p)


def inverse_chain(
    chain: Sequence[ElementaryTransform], p: Sequence, sig: Signature
) -> Optional[Point]:
    """Numeric preimage of an upstream point through the whole chain."""
    return _inverse_walk(chain, chain_sigs(chain, sig), p)


def _forward_walk(
    chain: Sequence[ElementaryTransform], sigs: Sequence[Signature], p: Sequence
) -> Point:
    """``forward_chain`` with the chain's ``chain_sigs`` already computed."""
    q = list(p)
    for t, s in zip(reversed(chain), reversed(sigs[:-1])):
        q = t.forward_point_sig(q, s)
    return q


def _inverse_walk(
    chain: Sequence[ElementaryTransform], sigs: Sequence[Signature], p: Sequence
) -> Optional[Point]:
    """``inverse_chain`` with the chain's ``chain_sigs`` already computed."""
    q = list(p)
    for t, s in zip(chain, sigs[:-1]):
        q = t.inverse_point(q, s)
        if q is None:
            return None
    return q


def chain_to_json(chain: Sequence[ElementaryTransform]) -> list:
    return [t.to_json() for t in chain]
