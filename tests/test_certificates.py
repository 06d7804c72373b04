"""An exact check of the engine's leaves that uses none of the engine's
algebra.

Each leaf's chain is composed in sympy from the definitions of its transforms
(``upstream_coordinates``), the input is substituted into it exactly, and
``f o chain - monomial * unit`` must vanish below the claimed precision.  A
monomialisation leaf claims the precision of the series it was finished
with; a division-chain factor claims its unit's precision plus the degree of
its monomial, the precision of the pulled factor.  The check must also
reject every unit with one coefficient raised by 1.
"""

from fractions import Fraction

import pytest
import sympy

from gpseries.monomialize import division_chain, monomialize
from gpseries.series import Series, Signature, monomial, total_degree
from gpseries.transforms import RamifyX
from conftest import ps
from test_kernel_sympy import to_expr, truncated_terms, upstream_coordinates, xsyms, ysyms
from test_monomialize import CHAIN_FAMILIES, NAMED_INPUTS


def pulled_back(f: Series, chain) -> tuple:
    """``f o chain`` as an expanded sympy expression in the leaf's
    variables, and the leaf's signature."""
    expr, sig = to_expr(f), f.sig
    for t in chain:
        up = list(xsyms(sig.m)) + list(ysyms(sig.n))
        expr = expr.subs(dict(zip(up, upstream_coordinates(t, sig))), simultaneous=True)
        sig = t.result_sig(sig)
    # the symbols are not declared positive, so sympy keeps (x1*x2)^(2/3)
    # and (x1^2)^(1/3) whole unless forced apart into powers of the variables
    expr = sympy.expand(expr, power_base=True, force=True)
    if any(isinstance(p.base, sympy.Pow) for p in expr.atoms(sympy.Pow)):
        expr = sympy.expand(sympy.powdenest(expr, force=True), power_base=True, force=True)
    return expr, sig


def defect(pulled, sig: Signature, mono, unit: Series, precision) -> dict:
    """The terms of ``pulled - X^mono * unit`` below ``precision``; the zero
    series' terms when ``mono`` is None."""
    if mono is None:
        return truncated_terms(pulled, sig, precision)
    x_mono = to_expr(monomial(sig, mono[0], mono[1], precision))
    return truncated_terms(pulled - x_mono * to_expr(unit), sig, precision)


def raised(unit: Series) -> Series:
    """``unit`` with the coefficient of its first term of highest degree
    raised by 1: a change just below the claimed precision."""
    top = max(unit.terms, key=total_degree)
    return Series(unit.sig, {**unit.terms, top: unit.terms[top] + 1}, unit.precision)


def test_the_check_reads_nested_fractional_powers():
    # x1 <- x1^2 on x1^(1/3) gives (x1^2)^(1/3), which must read as x1^(2/3)
    sig = Signature(1, 1)
    f = ps("x1^(1/3) + x1^(1/3)*y1", 1, 1)
    pulled, leaf_sig = pulled_back(f, [RamifyX(1, 2)])
    assert leaf_sig == sig
    unit = ps("1 + y1", 1, 1, prec=Fraction(22, 3))
    assert defect(pulled, sig, ((Fraction(2, 3),), (0,)), unit, 8) == {}
    assert defect(pulled, sig, ((Fraction(2, 3),), (0,)), raised(unit), 8) != {}


@pytest.mark.parametrize("text,m,n", NAMED_INPUTS)
def test_every_leaf_is_its_exact_pullback(text, m, n):
    f = ps(text, m, n)
    for leaf in monomialize(f).leaf_results():
        pulled, sig = pulled_back(f, leaf.chain)
        assert sig == leaf.sig
        assert defect(pulled, sig, leaf.monomial, leaf.unit, leaf.precision) == {}, leaf.chain
        if leaf.unit is not None:
            mutated = raised(leaf.unit)
            assert defect(pulled, sig, leaf.monomial, mutated, leaf.precision) != {}


OVER_CLAIM = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="division-chain factors over-claim their precision (ROADMAP item 1)",
)


@pytest.mark.parametrize(
    "texts",
    [
        pytest.param(texts, id=f"family-{k}", marks=[OVER_CLAIM] if k < 2 else [])
        for k, texts in enumerate(CHAIN_FAMILIES)
    ],
)
def test_every_chain_factor_is_its_exact_pullback(texts):
    inputs = [ps(t, 1, 1) for t in texts]
    over_claims = []
    for chain, leaf_sig, forms in division_chain(inputs).branches:
        for s, nf in zip(inputs, forms):
            if nf is None:
                continue
            pulled, sig = pulled_back(s, chain)
            assert sig == leaf_sig
            claim = nf.unit.precision + total_degree(nf.monomial)
            assert defect(pulled, sig, nf.monomial, raised(nf.unit), claim) != {}
            if defect(pulled, sig, nf.monomial, nf.unit, claim):
                over_claims.append((s, chain))
    assert over_claims == []
