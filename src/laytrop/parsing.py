"""Text grammar for scalars, layered polynomials, and Puiseux expressions.

Scalar literals: ``v`` is tangible with value v; ``(l|v)`` carries layer l;
``(inf|v)`` carries the infinite layer.  Values are exact rationals written
``p/q`` or integers.  Polynomials and Puiseux text share one sum-of-products
grammar, ``factor ('*' factor)* ('+' factor ('*' factor)*)*``, so a dangling
``*`` or ``+`` is refused.  A layered factor is a scalar literal or a
variable power ``xi^e`` or ``xi^(e)`` with a signed int ``e``; a Puiseux factor
is a rational, a ``t^(e)`` power, or (in polynomial mode) a power of ``L``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import prod
from typing import Callable, List, Optional, Tuple

from .core import INF, Layer, LayeredScalar, LayeredSemiring
from .errors import ParseError
from .polynomials import LayeredPolynomial
from .puiseux import PuiseuxPolynomial, PuiseuxSeries

# ``\d`` matches exactly the digits ``int()`` reads: ``٣`` is one, ``²`` is not.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d_]\w*)|(?P<op>[-+*/^()|,])|(?P<bad>\S)")
_VARIABLE = re.compile(r"x(\d+)")


class _Stream:
    """The tokens of one text as (kind, text, offset) triples.

    An operator's kind is its own character; the other kinds are ``int``,
    ``name`` and a final ``end``.  Line and column are computed from the
    offset only when an error is raised.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind, word = m.lastgroup, m.group()
            if kind == "bad":
                raise self.error(f"unexpected character {word!r}", m.start())
            self.tokens.append((word if kind == "op" else kind, word, m.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0

    def error(self, message: str, offset: int) -> ParseError:
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def accept(self, word: str) -> bool:
        if self.tokens[self.pos][1] == word:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> str:
        found, word, offset = self.tokens[self.pos]
        if found != kind:
            shown = "end of input" if found == "end" else repr(word)
            raise self.error(f"expected {kind}, found {shown}", offset)
        self.pos += 1
        return word

    def number(self, digits: str, offset: int) -> int:
        try:
            return int(digits)
        except ValueError:   # past the interpreter's limit on integer digits
            raise self.error(f"integer of {len(digits)} digits is too long", offset)

    def integer(self) -> int:
        offset = self.tokens[self.pos][2]
        return self.number(self.expect("int"), offset)

    def fail(self, message: str):
        kind, word, offset = self.tokens[self.pos]
        raise self.error(message if kind == "end" else f"{message}, found {word!r}", offset)

    def done(self) -> None:
        kind, word, offset = self.tokens[self.pos]
        if kind != "end":
            raise self.error(f"trailing input {word!r}", offset)


def _sum_of_products(s: _Stream, factor: Callable) -> List[list]:
    """``factor ('*' factor)* ('+' factor ('*' factor)*)*``: the factors of each term."""
    terms = []
    while True:
        product = [factor(s)]
        while s.accept("*"):
            product.append(factor(s))
        terms.append(product)
        if not s.accept("+"):
            s.done()
            return terms


def _parse_signed_int(s: _Stream) -> int:
    sign = -1 if s.accept("-") else 1
    return sign * s.integer()


def _parse_rational(s: _Stream) -> Fraction:
    numerator = _parse_signed_int(s)
    denominator = s.integer() if s.accept("/") else 1
    if denominator == 0:
        s.fail("zero denominator")
    return Fraction(numerator, denominator)


# ---------------------------------------------------------------------------
# Scalars and points


def _parse_scalar(s: _Stream, semiring: LayeredSemiring) -> LayeredScalar:
    if not s.accept("("):
        return semiring.scalar(_parse_rational(s))
    layer: Layer = 1
    kind, word, _ = s.tokens[s.pos]
    # "(inf|v)" and "(l|v)" carry a layer; anything else is a bare value
    if word == "inf" or (kind == "int" and s.tokens[s.pos + 1][0] == "|"):
        layer = INF if s.accept("inf") else s.integer()
        s.expect("|")
    value = _parse_rational(s)
    s.expect(")")
    return semiring.scalar(value, layer)


def parse_scalar(text: str, semiring: LayeredSemiring) -> LayeredScalar:
    s = _Stream(text)
    scalar = _parse_scalar(s, semiring)
    s.done()
    return scalar


def parse_point(text: str, semiring: LayeredSemiring) -> Tuple[LayeredScalar, ...]:
    """Comma-separated scalar literals, ``scalar (',' scalar)*``."""
    s = _Stream(text)
    point = [_parse_scalar(s, semiring)]
    while s.accept(","):
        point.append(_parse_scalar(s, semiring))
    s.done()
    return tuple(point)


# ---------------------------------------------------------------------------
# Layered polynomials


def _layered_factor(s: _Stream, semiring: LayeredSemiring, laurent: bool):
    """A scalar literal, or a variable power as (variable index, exponent)."""
    kind, word, offset = s.tokens[s.pos]
    if kind == "name" and word != "inf":
        s.pos += 1
        variable = _VARIABLE.fullmatch(word)
        index = s.number(variable[1], offset) - 1 if variable else -1
        if index < 0:
            raise s.error(f"unknown variable {word!r}", offset)
        exponent = 1
        if s.accept("^"):
            bracketed = s.accept("(")
            exponent = _parse_signed_int(s)
            if bracketed:
                s.expect(")")
        if exponent < 0 and not laurent:
            raise s.error("negative exponents need Laurent mode", offset)
        return index, exponent
    if kind in ("int", "(", "-"):
        return _parse_scalar(s, semiring)
    s.fail("expected a term" if kind == "end" else "expected a coefficient or variable power")


def parse_polynomial(text: str, semiring: LayeredSemiring,
                     laurent: bool = False, nvars: Optional[int] = None) -> LayeredPolynomial:
    """Parse polynomial text; duplicate exponent vectors merge by layered addition."""
    terms = _sum_of_products(_Stream(text), partial(_layered_factor, semiring=semiring,
                                                    laurent=laurent))
    arity = max((f[0] + 1 for product in terms for f in product if isinstance(f, tuple)),
                default=0)
    if nvars is None:
        nvars = max(arity, 1)
    elif arity > nvars:
        raise ParseError(f"variable x{arity} exceeds the declared {nvars} variables")
    coeffs = []
    for product in terms:
        coefficient, vector = semiring.one(), [0] * nvars
        for factor in product:
            if isinstance(factor, tuple):
                vector[factor[0]] += factor[1]
            else:
                coefficient = semiring.mul(coefficient, factor)
        coeffs.append((tuple(vector), coefficient))
    return LayeredPolynomial(semiring, nvars, coeffs, laurent)


# ---------------------------------------------------------------------------
# Puiseux series and polynomials


def _puiseux_factor(s: _Stream, allow_variable: bool) -> Tuple[Fraction, Fraction, int]:
    """One factor as (coefficient, t-exponent, variable degree)."""
    kind, word, _ = s.tokens[s.pos]
    if word == "t":
        s.pos += 1
        if not s.accept("^"):
            return Fraction(1), Fraction(1), 0
        if s.accept("("):
            exponent = _parse_rational(s)
            s.expect(")")
            return Fraction(1), exponent, 0
        return Fraction(1), Fraction(_parse_signed_int(s)), 0
    if allow_variable and word == "L":
        s.pos += 1
        return Fraction(1), Fraction(0), s.integer() if s.accept("^") else 1
    if s.accept("("):
        value = _parse_rational(s)
        s.expect(")")
        return value, Fraction(0), 0
    if kind in ("int", "-"):
        return _parse_rational(s), Fraction(0), 0
    s.fail("expected a factor" if kind == "end"
           else "expected a coefficient, t power, or variable power")


def _puiseux_monomials(text: str, allow_variable: bool):
    """Each term of Puiseux text as (coefficient, t-exponent, variable degree)."""
    terms = _sum_of_products(_Stream(text),
                             partial(_puiseux_factor, allow_variable=allow_variable))
    return [(prod(c for c, _, _ in product), sum(e for _, e, _ in product),
             sum(d for _, _, d in product)) for product in terms]


def parse_puiseux(text: str) -> PuiseuxSeries:
    """Parse a Puiseux series; duplicate exponents merge, zero terms drop."""
    return PuiseuxSeries.from_terms((e, c) for c, e, _ in _puiseux_monomials(text, False))


def parse_puiseux_polynomial(text: str) -> PuiseuxPolynomial:
    """Parse a polynomial in the variable L with Puiseux series coefficients."""
    return PuiseuxPolynomial.from_coeffs((d, PuiseuxSeries.term(c, e))
                                         for c, e, d in _puiseux_monomials(text, True))
