"""Shared helpers for the test suite."""

from fractions import Fraction
import random

from hypothesis import settings

from gpseries.series import Series, Signature, monomial
from gpseries.parser import parse_series

# Every run draws the same examples: they are seeded from each test alone,
# and no example database replays failures found in another run.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def ps(text: str, m: int, n: int, prec=8) -> Series:
    """Parse a series over the (m, n) signature."""
    return parse_series(text, Signature(m, n), Fraction(prec))


def canonical_rational(q) -> bool:
    """Whether ``q`` has the canonical type of its value: an ``int`` when
    integral, else a ``Fraction`` with denominator > 1."""
    return type(q) is int or type(q) is Fraction and q.denominator > 1


def random_series(
    rng: random.Random,
    sig: Signature,
    prec=8,
    nterms: int = 4,
    max_den: int = 2,
    fractional_x: bool = True,
    coeff_den: int = 3,
) -> Series:
    """Sparse random series with small exact-rational coefficients, of
    denominators up to ``coeff_den``."""
    terms = {}
    for _ in range(nterms):
        xs = tuple(
            Fraction(rng.randint(0, 4), rng.randint(1, max_den) if fractional_x else 1)
            for _ in range(sig.m)
        )
        ys = tuple(rng.randint(0, 4) for _ in range(sig.n))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, coeff_den))
        terms[(xs, ys)] = terms.get((xs, ys), Fraction(0)) + coeff
    return Series(sig, terms, Fraction(prec))


def random_unit(rng: random.Random, sig: Signature, prec=8, nterms: int = 3) -> Series:
    s = random_series(rng, sig, prec, nterms)
    # force a nonzero constant term
    zero_exp = (tuple([Fraction(0)] * sig.m), tuple([0] * sig.n))
    terms = dict(s.terms)
    terms[zero_exp] = Fraction(rng.randint(1, 5))
    return Series(sig, terms, Fraction(prec))
