"""Text grammar for scalars, layered polynomials, and Puiseux expressions.

Scalar literals: ``v`` is tangible with value v; ``(l|v)`` carries layer l;
``(inf|v)`` carries the infinite layer.  Values are exact rationals written
``p/q`` or integers.  Polynomials and Puiseux text share one sum-of-products
grammar, ``factor ('*' factor)* ('+' factor ('*' factor)*)*``, so a dangling
``*`` or ``+`` is refused.  A layered factor is a scalar literal or a
variable power ``xi^e`` or ``xi^(e)`` with a signed int ``e``; a Puiseux factor
is a rational, a ``t^(e)`` power, or (in polynomial mode) a power of ``L``.

Readers walk the tokens of one ``findall`` once, checking each scalar literal as
they read it; a term's scalars multiply, and the polynomial is filled, unchecked.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction
from math import prod

from .core import INF, LayeredScalar, LayeredSemiring, SortFlavor, ValueFlavor
from .errors import DomainError, ParseError
from .polynomials import LayeredPolynomial
from .puiseux import PuiseuxPolynomial, PuiseuxSeries

# An int, a name or an operator; a character that starts none of them reads as
# "".  ``\d`` matches exactly the digits ``int()`` reads, as ``str.isdecimal``
# does: ``٣`` is one, ``²`` is not, and starts a name.
_TOKEN = re.compile(r"([-+*/^()|,]|\d+|[^\W\d_]\w*)|\S")


class _Scan:
    """The tokens of one text as plain strings, ended by ``""``, read by index.  A
    character that starts no token is refused first, before any syntax error."""

    def __init__(self, text: str):
        self.text, self.tokens = text, _TOKEN.findall(text)
        if "" in self.tokens:
            bad = next(m[0] for m in _TOKEN.finditer(text) if m[1] is None)
            raise self.error(self.tokens.index(""), f"unexpected character {bad!r}")
        self.tokens.append("")

    def error(self, at: int, message: str) -> ParseError:
        """A ParseError at the line and column where token ``at`` starts."""
        text = self.text
        offset = [*(m.start() for m in _TOKEN.finditer(text)), len(text)][at]
        return ParseError(message, text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset))

    def fail(self, at: int, message: str):
        word = self.tokens[at]
        raise self.error(at, f"{message}, found {word!r}" if word else message)

    def expect(self, at: int, kind: str) -> int:
        """The index after token ``at``, which must be ``kind``: an int, or that word."""
        found = self.tokens[at]
        if not (found.isdecimal() if kind == "int" else found == kind):
            shown = repr(found) if found else "end of input"
            raise self.error(at, f"expected {kind}, found {shown}")
        return at + 1

    def done(self, at: int) -> None:
        if self.tokens[at]:
            raise self.error(at, f"trailing input {self.tokens[at]!r}")

    def integer(self, at: int, digits: str | None = None) -> int:
        """The int of token ``at``, or of ``digits`` read from it."""
        if digits is None:
            self.expect(at, "int")
            digits = self.tokens[at]
        try:
            return int(digits)
        except ValueError:   # past the interpreter's limit on integer digits
            raise self.error(at, f"integer of {len(digits)} digits is too long")

    def signed_int(self, at: int) -> tuple[int, int]:
        """``'-'? int`` at token ``at``, and the index after it."""
        if self.tokens[at] == "-":
            return -self.integer(at + 1), at + 2
        return self.integer(at), at + 1

    def rational(self, at: int) -> tuple[Fraction, int]:
        """``'-'? int ('/' int)?`` at token ``at`` as one Fraction, and the index after it."""
        numerator, at = self.signed_int(at)
        if self.tokens[at] != "/":
            return Fraction(numerator), at
        denominator = self.integer(at + 1)
        if denominator == 0:
            self.fail(at + 2, "zero denominator")
        return Fraction(numerator, denominator), at + 2

    @classmethod
    def whole(cls, text: str, read: Callable[["_Scan", int], tuple]):
        """What ``read(scan, 0)`` reads of ``text``, which must leave no token."""
        s = cls(text)
        value, at = read(s, 0)
        s.done(at)
        return value

    def products(self, factor: Callable[[int], tuple]) -> list[list]:
        """``factor ('*' factor)* ('+' factor ('*' factor)*)*``: the factors of
        each term; ``factor(at)`` reads one and returns it with the index after it."""
        tokens, terms, at = self.tokens, [], 0
        while True:
            item, at = factor(at)
            product = [item]
            while tokens[at] == "*":
                item, at = factor(at + 1)
                product.append(item)
            terms.append(product)
            if tokens[at] != "+":
                self.done(at)
                return terms
            at += 1


# ---------------------------------------------------------------------------
# Scalars and points


def _scalar(s: _Scan, at: int, sorts: SortFlavor,
            values: ValueFlavor) -> tuple[LayeredScalar, int]:
    """The scalar literal at token ``at``, checked, and the index after it."""
    tokens, layer = s.tokens, 1
    bracketed = tokens[at] == "("
    at += bracketed
    word = tokens[at]
    # "(inf|v)" and "(l|v)" carry a layer; anything else is a bare value
    if bracketed and (word == "inf" or (word.isdecimal() and tokens[at + 1] == "|")):
        layer = INF if word == "inf" else s.integer(at)
        at = s.expect(at + 1, "|")
    value, at = s.rational(at)
    if bracketed:
        at = s.expect(at, ")")
    return LayeredScalar(sorts.check(layer), values.check(value)), at


def parse_scalar(text: str, semiring: LayeredSemiring) -> LayeredScalar:
    return _Scan.whole(text, lambda s, at: _scalar(s, at, semiring.sorts, semiring.values))


def parse_point(text: str, semiring: LayeredSemiring) -> tuple[LayeredScalar, ...]:
    """Comma-separated scalar literals, ``scalar (',' scalar)*``."""
    s, point, at = _Scan(text), [], -1
    while not point or s.tokens[at] == ",":
        scalar, at = _scalar(s, at + 1, semiring.sorts, semiring.values)
        point.append(scalar)
    s.done(at)
    return tuple(point)


# ---------------------------------------------------------------------------
# Layered polynomials


def parse_polynomial(text: str, semiring: LayeredSemiring,
                     laurent: bool = False, nvars: int | None = None) -> LayeredPolynomial:
    """Parse polynomial text; duplicate exponent vectors merge by layered addition."""
    s, sorts, values = _Scan(text), semiring.sorts, semiring.values
    tokens = s.tokens

    def factor(at):
        """A checked scalar literal, or a variable power as (variable index, exponent)."""
        word = tokens[at]
        if word == "(" or word == "-" or word.isdecimal():
            return _scalar(s, at, sorts, values)
        if not word[:1].isalnum() or word == "inf":   # the end, an operator, or inf
            s.fail(at, "expected a coefficient or variable power" if word else "expected a term")
        variable = word[0] == "x" and word[1:].isdecimal()   # x(\d+)
        index = s.integer(at, word[1:]) - 1 if variable else -1
        if index < 0:
            raise s.error(at, f"unknown variable {word!r}")
        exponent, after = 1, at + 1
        if tokens[after] == "^":
            bracketed = tokens[after + 1] == "("
            exponent, after = s.signed_int(after + 1 + bracketed)
            after = s.expect(after, ")") if bracketed else after
        if exponent < 0 and not laurent:
            raise s.error(at, "negative exponents need Laurent mode")
        return (index, exponent), after

    terms = s.products(factor)
    arity = max((f[0] + 1 for product in terms for f in product if type(f) is tuple), default=0)
    if nvars is None:
        nvars = max(arity, 1)
    elif type(nvars) is not int or nvars < 1:
        raise DomainError(f"variable count {nvars!r} must be a positive integer")
    elif arity > nvars:
        raise ParseError(f"variable x{arity} exceeds the declared {nvars} variables")
    mul, items, zero = sorts.mul, [], [0] * nvars
    for product in terms:
        coefficient, vector = None, zero.copy()
        for f in product:
            if type(f) is tuple:
                vector[f[0]] += f[1]
            else:
                coefficient = f if coefficient is None else LayeredScalar(
                    mul(coefficient.layer, f.layer), coefficient.value + f.value)
        items.append((tuple(vector), semiring.one() if coefficient is None else coefficient))
    if laurent:
        # Negative powers act on values by negation, so the flavor must be a group.
        values.check(Fraction(-1))
    return object.__new__(LayeredPolynomial)._fill(semiring, nvars, items, laurent)


# ---------------------------------------------------------------------------
# Puiseux series and polynomials


def _puiseux_monomials(text: str, allow_variable: bool):
    """Each term of Puiseux text as (coefficient, t-exponent, variable degree)."""
    s = _Scan(text)

    def factor(at):
        """One factor as (coefficient, t-exponent, variable degree)."""
        word = s.tokens[at]
        if word == "t":
            if s.tokens[at + 1] != "^":
                return (1, 1, 0), at + 1
            bracketed = s.tokens[at + 2] == "("   # t^(p/q), or t^n with a signed int n
            exponent, after = (s.rational if bracketed else s.signed_int)(at + 2 + bracketed)
            return (1, exponent, 0), s.expect(after, ")") if bracketed else after
        if allow_variable and word == "L":
            if s.tokens[at + 1] != "^":
                return (1, 0, 1), at + 1
            return (1, 0, s.integer(at + 2)), at + 3
        if word == "(" or word == "-" or word.isdecimal():
            value, after = s.rational(at + (word == "("))
            return (value, 0, 0), s.expect(after, ")") if word == "(" else after
        s.fail(at, "expected a coefficient, t power, or variable power" if word
               else "expected a factor")

    return [(prod(c for c, _, _ in product), sum(e for _, e, _ in product),
             sum(d for _, _, d in product)) for product in s.products(factor)]


def parse_puiseux(text: str) -> PuiseuxSeries:
    """Parse a Puiseux series; duplicate exponents merge, zero terms drop."""
    return PuiseuxSeries.from_terms((e, c) for c, e, _ in _puiseux_monomials(text, False))


def parse_puiseux_polynomial(text: str) -> PuiseuxPolynomial:
    """Parse a polynomial in the variable L with Puiseux series coefficients."""
    return PuiseuxPolynomial.from_coeffs((d, PuiseuxSeries.term(c, e))
                                         for c, e, d in _puiseux_monomials(text, True))
