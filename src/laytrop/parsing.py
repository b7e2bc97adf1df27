"""Text grammar for scalars, layered polynomials, and Puiseux expressions.

Scalar literals: ``v`` is tangible with value v; ``(l|v)`` carries layer l;
``(inf|v)`` carries the infinite layer.  Values are exact rationals written
``p/q`` or integers.  Polynomial terms join with ``+``; a term multiplies a
coefficient literal with variable powers ``x1^e1*...*xn^en``.  Puiseux terms
are products of rationals, ``t^(e)`` powers, and (in polynomial mode) powers
of the variable ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import INF, Layer, LayeredSemiring
from .errors import ParseError
from .polynomials import LayeredPolynomial
from .puiseux import PuiseuxPolynomial, PuiseuxSeries


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "op"
    text: str
    line: int
    column: int


_OPS = set("+-*/^()|")


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    return tokens


class _Stream:
    def __init__(self, tokens: List[Token], text: str):
        self.tokens = tokens
        self.pos = 0
        end_line = text.count("\n") + 1
        end_col = len(text) - (text.rfind("\n") + 1) + 1
        self.end = (end_line, end_col)

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self.end)
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok and tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {text or kind}, found end of input", *self.end)
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {text or kind}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        if tok is None:
            raise ParseError(message, *self.end)
        raise ParseError(f"{message}, found {tok.text!r}", tok.line, tok.column)

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)


def _parse_rational(s: _Stream) -> Fraction:
    sign = -1 if s.accept("op", "-") else 1
    numerator = int(s.expect("int").text)
    if s.accept("op", "/"):
        denominator = int(s.expect("int").text)
        if denominator == 0:
            s.fail("zero denominator")
        return Fraction(sign * numerator, denominator)
    return Fraction(sign * numerator)


def _parse_signed_int(s: _Stream) -> int:
    sign = -1 if s.accept("op", "-") else 1
    return sign * int(s.expect("int").text)


def _parse_layer(s: _Stream) -> Layer:
    if s.accept("name", "inf"):
        return INF
    return int(s.expect("int").text)


# ---------------------------------------------------------------------------
# Scalars and points


def _parse_scalar(s: _Stream, semiring: LayeredSemiring) -> LayeredScalar:
    if s.accept("op", "("):
        first_is_inf = s.peek() and s.peek().kind == "name" and s.peek().text == "inf"
        if first_is_inf or _looks_like_layer(s):
            layer = _parse_layer(s)
            s.expect("op", "|")
            value = _parse_rational(s)
            s.expect("op", ")")
            return semiring.scalar(value, layer)
        value = _parse_rational(s)
        s.expect("op", ")")
        return semiring.scalar(value)
    return semiring.scalar(_parse_rational(s))


def _looks_like_layer(s: _Stream) -> bool:
    # inside parens: "INT |" starts a layered literal, otherwise a bare value
    tok = s.peek()
    if tok is None or tok.kind != "int":
        return False
    after = s.tokens[s.pos + 1] if s.pos + 1 < len(s.tokens) else None
    return after is not None and after.kind == "op" and after.text == "|"


def parse_scalar(text: str, semiring: LayeredSemiring) -> LayeredScalar:
    s = _Stream(tokenize(text), text)
    scalar = _parse_scalar(s, semiring)
    s.done()
    return scalar


def parse_point(text: str, semiring: LayeredSemiring) -> Tuple[LayeredScalar, ...]:
    """A comma-separated list of scalar literals (commas outside parens)."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return tuple(parse_scalar(part, semiring) for part in parts)


# ---------------------------------------------------------------------------
# Layered polynomials


def _parse_varpow(s: _Stream, laurent: bool) -> Tuple[int, int]:
    tok = s.expect("name")
    if not (tok.text.startswith("x") and tok.text[1:].isdigit() and int(tok.text[1:]) >= 1):
        raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
    index = int(tok.text[1:]) - 1
    exponent = 1
    if s.accept("op", "^"):
        exponent = _parse_signed_int(s)
    if exponent < 0 and not laurent:
        raise ParseError("negative exponents need Laurent mode", tok.line, tok.column)
    return index, exponent


def parse_polynomial(text: str, semiring: LayeredSemiring,
                     laurent: bool = False, nvars: Optional[int] = None) -> LayeredPolynomial:
    """Parse polynomial text; duplicate exponent vectors merge by layered addition."""
    s = _Stream(tokenize(text), text)
    terms = []
    max_index = -1
    while True:
        coefficient = semiring.one()
        exponents: dict = {}
        saw_factor = False
        while True:
            tok = s.peek()
            if tok is None:
                break
            if tok.kind == "name" and tok.text != "inf":
                index, exponent = _parse_varpow(s, laurent)
                exponents[index] = exponents.get(index, 0) + exponent
                max_index = max(max_index, index)
            elif tok.kind == "int" or (tok.kind == "op" and tok.text in "(-"):
                coefficient = semiring.mul(coefficient, _parse_scalar(s, semiring))
            else:
                s.fail("expected a coefficient or variable power")
            saw_factor = True
            if not s.accept("op", "*"):
                break
        if not saw_factor:
            s.fail("expected a term")
        terms.append((coefficient, exponents))
        if not s.accept("op", "+"):
            break
    s.done()
    if nvars is None:
        nvars = max(max_index + 1, 1)
    elif max_index + 1 > nvars:
        raise ParseError(f"variable x{max_index + 1} exceeds the declared {nvars} variables")
    coeffs = []
    for coefficient, exponents in terms:
        vector = tuple(exponents.get(i, 0) for i in range(nvars))
        coeffs.append((vector, coefficient))
    return LayeredPolynomial(semiring, nvars, coeffs, laurent)


# ---------------------------------------------------------------------------
# Puiseux series and polynomials


def _parse_puiseux_factor(s: _Stream, allow_variable: bool) -> Tuple[Fraction, Fraction, int]:
    """One factor as (coefficient, t-exponent, variable degree)."""
    tok = s.peek()
    if tok is None:
        s.fail("expected a factor")
    if tok.kind == "name" and tok.text == "t":
        s.next()
        exponent = Fraction(0)
        if s.accept("op", "^"):
            if s.accept("op", "("):
                exponent = _parse_rational(s)
                s.expect("op", ")")
            else:
                exponent = Fraction(_parse_signed_int(s))
        else:
            exponent = Fraction(1)
        return Fraction(1), exponent, 0
    if allow_variable and tok.kind == "name" and tok.text == "L":
        s.next()
        degree = 1
        if s.accept("op", "^"):
            degree = int(s.expect("int").text)
        return Fraction(1), Fraction(0), degree
    if tok.kind == "op" and tok.text == "(":
        s.next()
        value = _parse_rational(s)
        s.expect("op", ")")
        return value, Fraction(0), 0
    if tok.kind == "int" or (tok.kind == "op" and tok.text == "-"):
        return _parse_rational(s), Fraction(0), 0
    s.fail("expected a coefficient, t power, or variable power")


def _parse_puiseux_terms(text: str, allow_variable: bool):
    s = _Stream(tokenize(text), text)
    terms = []
    while True:
        coefficient, exponent, degree = Fraction(1), Fraction(0), 0
        while True:
            c, e, d = _parse_puiseux_factor(s, allow_variable)
            coefficient *= c
            exponent += e
            degree += d
            if not s.accept("op", "*"):
                break
        terms.append((coefficient, exponent, degree))
        if not s.accept("op", "+"):
            break
    s.done()
    return terms


def parse_puiseux(text: str) -> PuiseuxSeries:
    """Parse a Puiseux series; duplicate exponents merge, zero terms drop."""
    terms = _parse_puiseux_terms(text, allow_variable=False)
    return PuiseuxSeries.from_terms((e, c) for c, e, _ in terms)


def parse_puiseux_polynomial(text: str) -> PuiseuxPolynomial:
    """Parse a polynomial in the variable L with Puiseux series coefficients."""
    terms = _parse_puiseux_terms(text, allow_variable=True)
    return PuiseuxPolynomial.from_coeffs((d, PuiseuxSeries.term(c, e)) for c, e, d in terms)
