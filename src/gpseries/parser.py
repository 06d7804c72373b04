"""Recursive-descent parser for the series / basic-set input DSL.

Grammar (whitespace insignificant)::

    file     := header statement*
    header   := 'vars' 'x' ':' nat 'y' ':' nat ';'?
    statement:= (expr | setexpr) ';'
    setexpr  := conj ('|' conj)*
    conj     := atomrel ('&' atomrel)*
    atomrel  := expr ('=' '0' | '>' '0')
    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' exponent)?
    atom     := rational | var | '(' expr ')' | '-' atom
    exponent := integer | '(' integer '/' integer ')'

Variables are named positionally: ``x1..xm`` and ``y1..yn``.  Rational
exponents are only allowed on x-variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .series import Rational, Series, Signature, SignatureMismatch, constant, monomial, x_var, y_var


class ParseError(ValueError):
    """Syntax or elaboration error with a 0-based character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[a-zA-Z_][a-zA-Z_0-9]*)"
    r"|(?P<op>[-+*^()/;&|=><:]))"
)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature, precision: Rational):
        self.tokens = _tokenize(text)
        self.i = 0
        self.sig = sig
        # below precision 1 a degree-1 x-variable would be 0 by the time
        # ``_power`` reads it: parse at 2 instead, and ``cut`` each result
        self.requested = Fraction(precision)
        self.precision = precision if self.requested > 1 else 2

    def cut(self, value: Series) -> Series:
        """``value`` truncated to the requested precision when the request is
        at most 1; otherwise ``value`` as parsed, whose precision can exceed
        the request, since a product of variables gains its order
        (``x1^3`` requested at 8 comes back at 10; ROADMAP item 11)."""
        return value if self.requested > 1 else value.truncate(self.requested)

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].pos if self.tokens else 0
            raise ParseError("unexpected end of input", last)
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def end_statement(self) -> None:
        """Accept one optional ';', then require the end of the input."""
        if not self.at_end() and self.peek().text == ";":
            self.next()
        if not self.at_end():
            raise ParseError(f"trailing input {self.peek().text!r}", self.peek().pos)

    # -- grammar ----------------------------------------------------------

    def expr(self) -> Series:
        value = self.term()
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.next()
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs
        return value

    def term(self) -> Series:
        value = self.factor()
        while (tok := self.peek()) is not None and tok.text == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self) -> Series:
        value = self.atom()
        tok = self.peek()
        if tok is not None and tok.text == "^":
            self.next()
            exp, pos = self.exponent()
            value = self._power(value, exp, pos)
        return value

    def _power(self, base: Series, exp: Fraction, pos: int) -> Series:
        if exp < 0:
            raise ParseError("negative exponent", pos)
        if exp.denominator == 1:
            return base ** int(exp)
        # fractional power: only a bare x-variable qualifies
        if len(base.terms) == 1:
            ((xs, ys),) = base.terms
            coeff = next(iter(base.terms.values()))
            nz = [e for e in xs if e != 0]
            if coeff == 1 and not any(ys) and len(nz) == 1 and nz[0] == 1:
                i = next(k for k, e in enumerate(xs) if e != 0)
                nxs = list(xs)
                nxs[i] = exp
                return monomial(self.sig, nxs, ys, self.precision)
        if any(any(ys) for (_, ys) in base.terms):
            raise ParseError("fractional y-power", pos)
        raise ParseError(
            "fractional exponents are only allowed on single x-variables", pos
        )

    def atom(self) -> Series:
        tok = self.next()
        if tok.text == "-":
            # unary minus binds looser than '^': -x1^2 is -(x1^2)
            return -self.factor()
        if tok.text == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "num":
            num = int(tok.text)
            nxt = self.peek()
            if nxt is not None and nxt.text == "/":
                self.next()
                return constant(self.sig, Fraction(num, self.denominator()), self.precision)
            return constant(self.sig, num, self.precision)
        if tok.kind == "name":
            return self.variable(tok)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def variable(self, tok: _Token) -> Series:
        m = re.fullmatch(r"([xy])(\d+)", tok.text)
        if not m:
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        idx = int(m.group(2))
        if m.group(1) == "x":
            if not 1 <= idx <= self.sig.m:
                raise ParseError(f"unknown variable x{idx}", tok.pos)
            return x_var(self.sig, idx, self.precision)
        if not 1 <= idx <= self.sig.n:
            raise ParseError(f"unknown variable y{idx}", tok.pos)
        return y_var(self.sig, idx, self.precision)

    def exponent(self) -> tuple[Fraction, int]:
        tok = self.next()
        if tok.kind == "num":
            return Fraction(int(tok.text)), tok.pos
        if tok.text == "-":
            follow = self.next()
            if follow.kind != "num":
                raise ParseError("expected integer exponent", follow.pos)
            return Fraction(-int(follow.text)), tok.pos
        if tok.text == "(":
            sign = 1
            num = self.next()
            if num.text == "-":
                sign = -1
                num = self.next()
            if num.kind != "num":
                raise ParseError("expected integer", num.pos)
            self.expect("/")
            den = self.denominator()
            self.expect(")")
            return Fraction(sign * int(num.text), den), tok.pos
        raise ParseError("expected exponent", tok.pos)

    def denominator(self) -> int:
        den = self.next()
        if den.kind != "num":
            raise ParseError("expected denominator", den.pos)
        if int(den.text) == 0:
            raise ParseError("zero denominator", den.pos)
        return int(den.text)

    # -- basic sets ---------------------------------------------------------

    def atomrel(self) -> tuple[Series, str]:
        s = self.expr()
        tok = self.next()
        if tok.text not in ("=", ">"):
            raise ParseError(f"expected '= 0' or '> 0', found {tok.text!r}", tok.pos)
        zero = self.next()
        if zero.text != "0":
            raise ParseError("relations must compare against 0", zero.pos)
        return s, ("EQ0" if tok.text == "=" else "GT0")

    def conj(self) -> list[tuple[Series, str]]:
        atoms = [self.atomrel()]
        while (tok := self.peek()) is not None and tok.text == "&":
            self.next()
            atoms.append(self.atomrel())
        return atoms

    def setexpr(self) -> list[list[tuple[Series, str]]]:
        pieces = [self.conj()]
        while (tok := self.peek()) is not None and tok.text == "|":
            self.next()
            pieces.append(self.conj())
        return pieces


def parse_series(text: str, sig: Signature, precision: Rational) -> Series:
    """Parse a single series expression (trailing ';' optional)."""
    p = _Parser(text, sig, precision)
    value = p.expr()
    p.end_statement()
    return p.cut(value)


@dataclass
class BasicSetExpr:
    """Finite union of conjunctions of sign conditions on series."""

    sig: Signature
    pieces: list[list[tuple[Series, str]]]  # relation is "EQ0" or "GT0"

    def __post_init__(self):
        # membership reads a point once, for every constraint, over ``sig``
        for s in (s for conj in self.pieces for s, _ in conj):
            if s.sig != self.sig:
                raise SignatureMismatch(f"constraint over {s.sig} in a set over {self.sig}")


def parse_basic_set(text: str, sig: Signature, precision: Rational) -> BasicSetExpr:
    """Parse a basic-set description (trailing ';' optional)."""
    p = _Parser(text, sig, precision)
    pieces = p.setexpr()
    p.end_statement()
    return BasicSetExpr(sig, [[(p.cut(s), rel) for s, rel in conj] for conj in pieces])


_HEADER = re.compile(r"vars\s+x\s*:\s*(\d+)\s+y\s*:\s*(\d+)\s*;?")


def parse_header(line: str) -> Signature:
    """Parse a signature header line like ``vars x:2 y:1``."""
    m = _HEADER.fullmatch(line.strip())
    if not m:
        raise ParseError(f"bad header {line!r}", 0)
    return Signature(int(m.group(1)), int(m.group(2)))


def parse_file(text: str):
    """Parse a DSL file: header, then ';'-terminated statements.

    Returns (signature, list of statement texts).
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty input", 0)
    lines = stripped.split("\n", 1)
    sig = parse_header(lines[0])
    rest = lines[1] if len(lines) > 1 else ""
    statements = [s.strip() for s in rest.split(";") if s.strip()]
    return sig, statements
