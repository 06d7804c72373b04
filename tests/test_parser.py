"""Input language: series expressions, sign conditions, file headers."""

from fractions import Fraction

import pytest

from gpseries.series import Signature, monomial, x_var, y_var
from gpseries.parser import (
    ParseError,
    parse_basic_set,
    parse_file,
    parse_header,
    parse_series,
)
from conftest import ps

SIG11 = Signature(1, 1)


def test_constant_and_rational():
    assert ps("3", 1, 1).constant_term() == 3
    assert ps("2/3", 1, 1).constant_term() == Fraction(2, 3)


def test_variables():
    assert ps("x1", 1, 1) == x_var(SIG11, 1, 8)
    assert ps("y1", 1, 1) == y_var(SIG11, 1, 8)


def test_fractional_x_exponent():
    s = ps("x1^(1/2)", 1, 0)
    assert s == monomial(Signature(1, 0), [Fraction(1, 2)], [], 8)


def test_negative_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        ps("x1^(-1/2)", 1, 0)


def test_fractional_y_exponent_rejected():
    with pytest.raises(ParseError):
        ps("y1^(1/2)", 1, 1)


def test_fractional_power_of_sum_rejected():
    with pytest.raises(ParseError):
        ps("(x1 + 1)^(1/2)", 1, 0)


@pytest.mark.parametrize("prec", [Fraction(1), Fraction(3, 4)], ids=str)
def test_fractional_x_exponent_at_precision_at_most_one(prec):
    # x1 itself has degree 1, so it is parsed above precision 1 and then cut
    root = monomial(SIG11, [Fraction(1, 2)], [0], prec)
    assert parse_series("x1^(1/2) + y1^2", SIG11, prec) == root
    (piece,) = parse_basic_set("x1^(1/2) - y1 > 0", SIG11, prec).pieces
    assert piece == [(root, "GT0")]


def test_product_keeps_its_gained_precision():
    assert ps("x1*y1", 1, 1, prec=3).precision == 4
    (piece,) = parse_basic_set("x1*y1 > 0", SIG11, 3).pieces
    assert piece[0][0].precision == 4


def test_precedence():
    assert ps("1 + 2*x1^2", 1, 0).eq_mod_precision(
        ps("1", 1, 0) + ps("x1", 1, 0) * ps("x1", 1, 0).scale(2)
    )
    # unary minus binds looser than '^'
    assert ps("-x1^2", 1, 0).eq_mod_precision(-(ps("x1", 1, 0) ** 2))


def test_parentheses_and_products():
    lhs = ps("(1 + y1)*x1^(5/2)", 1, 1)
    rhs = ps("x1^(5/2) + x1^(5/2)*y1", 1, 1)
    assert lhs.eq_mod_precision(rhs)


def test_unknown_variable():
    with pytest.raises(ParseError) as exc:
        ps("x2", 1, 1)
    assert "x2" in str(exc.value)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        ps("x1 x1", 1, 1)


def test_trailing_semicolon_ok():
    assert ps("x1;", 1, 1) == ps("x1", 1, 1)


def test_statement_end_is_one_optional_semicolon():
    for text in ("x1;;", "x1; x1"):
        with pytest.raises(ParseError, match="trailing input"):
            ps(text, 1, 1)
    assert parse_basic_set("x1 > 0;", SIG11, 8) == parse_basic_set("x1 > 0", SIG11, 8)
    with pytest.raises(ParseError, match="trailing input ';'") as exc:
        parse_basic_set("x1 > 0;;", SIG11, 8)
    assert exc.value.pos == 7


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        ps("1 + @", 1, 1)
    assert exc.value.pos == 4


@pytest.mark.parametrize("text, pos", [("1/0", 2), ("x1^(1/0)", 6), ("y1 + 2/00", 7)])
def test_zero_denominator_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match="zero denominator") as exc:
        parse_series(text, SIG11, 8)
    assert exc.value.pos == pos
    with pytest.raises(ParseError, match="zero denominator") as exc:
        parse_basic_set(f"{text} > 0 | x1 > 0", SIG11, 8)
    assert exc.value.pos == pos


def test_basic_set_single_conjunction():
    b = parse_basic_set("y1^2 - x1^2 = 0 & x1 > 0", SIG11, 8)
    assert b.sig == SIG11
    assert len(b.pieces) == 1
    (piece,) = b.pieces
    assert [rel for _, rel in piece] == ["EQ0", "GT0"]
    assert piece[0][0].eq_mod_precision(ps("y1^2 - x1^2", 1, 1))


def test_basic_set_union():
    b = parse_basic_set("x1 > 0 | y1 = 0", SIG11, 8)
    assert len(b.pieces) == 2


def test_basic_set_bad_relation():
    with pytest.raises(ParseError):
        parse_basic_set("x1 = 1", SIG11, 8)


def test_parse_header():
    assert parse_header("vars x:2 y:1") == Signature(2, 1)
    assert parse_header("  vars x : 0 y : 3 ;") == Signature(0, 3)
    with pytest.raises(ParseError):
        parse_header("vars z:1")


def test_parse_file():
    sig, stmts = parse_file("vars x:1 y:1\nx1 + y1;\ny1^2 - x1^2;\n")
    assert sig == SIG11
    assert len(stmts) == 2
    assert parse_series(stmts[0], sig, 8).eq_mod_precision(ps("x1 + y1", 1, 1))


def test_parse_file_empty():
    with pytest.raises(ParseError):
        parse_file("   ")
