"""Finite-support Puiseux series over the rationals, and exploded scalars.

A series is a finite sum of terms c * t^e with rational coefficient c and
rational exponent e.  The order valuation ``val`` is the negative of the
lowest exponent, and ``leading`` is the coefficient of that lowest term.
Exploded scalars pair a value with the leading coefficient ("sort"); a sort
of 0 marks a corner ghost produced by leading-term cancellation.

Series terms and polynomial coefficients share one canonical form: keys
strictly increasing, no zero values.  Two places merge like keys and sort:
``_collect`` for sums and validated input (``from_terms`` and
``from_coeffs`` validate before it), and ``_accumulate`` for every product
(series, polynomial ``*``/``**``, and ``_root_sums`` for known roots): each
factor is lifted once to int terms, a root's straight from its own terms
(no -r series is built), and one convolution loop accumulates them.  A
polynomial reads one degree, or the lowest term per degree, off such sums:
a product keeps its own and decodes ``coeffs`` on first read (``_decode``),
any other builds them from ``coeffs``.  Constructors take exact rationals
only: int (not bool) and Fraction.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from operator import itemgetter, mul

from .core import Record, exact, power
from .errors import DomainError

Term = tuple[Fraction, Fraction]  # (exponent, coefficient)


def _collect(pairs: Iterable[tuple], zero) -> tuple:
    """The canonical form of (key, value) pairs: like keys summed, values equal
    to ``zero`` dropped, keys ascending."""
    acc: dict = {}
    for key, value in pairs:
        prior = acc.get(key)
        acc[key] = value if prior is None else prior + value
    return tuple(sorted(((k, v) for k, v in acc.items() if v != zero), key=itemgetter(0)))


def _accumulate(factors: Iterable[Iterable[tuple]], roots: Iterable[PuiseuxSeries] = ()) -> tuple:
    """The product of polynomials, each given as (degree, series) pairs, and of
    variable - r for each series r of ``roots``, as int sums
    ``(acc, scale, width, den)``.

    Every exponent is multiplied by ``scale``, the lcm of all exponent
    denominators, and each factor's coefficients by ``q``, the lcm of that
    factor's coefficient denominators; a root's terms are lifted straight
    into its factor, negated as ints.  Products accumulate in one int dict
    ``acc`` keyed by k * width + d, for scaled exponent k and degree d below
    ``width``, so ``divmod`` decodes a key even for negative k; each sum is
    a coefficient times ``den``, the product of every ``q``."""
    factors = [[(d, e, c) for d, series in f for e, c in series.terms] for f in factors]
    roots = [r.terms for r in roots]
    scale = lcm(*(e.denominator for f in factors for _, e, _ in f),
                *(e.denominator for terms in roots for e, _ in terms))
    width = 1 + len(roots) + sum(max((d for d, _, _ in f), default=0) for f in factors)
    lifted, den = [], 1
    for f in factors:
        q = lcm(*(c.denominator for _, _, c in f))
        den *= q
        if not f:  # a zero factor
            return {}, scale, width, den
        terms = [(e.numerator * (scale // e.denominator) * width + d,
                  c.numerator * (q // c.denominator)) for d, e, c in f]
        lifted.append((*terms[0], terms[1:]))
    for terms in roots:
        q = lcm(*(c.denominator for _, c in terms))
        den *= q
        lifted.append((1, q, [(e.numerator * (scale // e.denominator) * width,
                               -c.numerator * (q // c.denominator)) for e, c in terms]))
    acc = {0: 1}
    for k0, v0, rest in lifted:
        # The first term's keys are distinct, so they seed the dict as is.
        nxt = {k1 + k0: v1 * v0 for k1, v1 in acc.items()}
        for k2, v2 in rest:
            for k1, v1 in acc.items():
                key = k1 + k2
                nxt[key] = nxt.get(key, 0) + v1 * v2
        acc = nxt
    return acc, scale, width, den


def _decode(acc: dict, scale: int, width: int, den: int) -> tuple:
    """The canonical coefficients of int sums, each distinct exponent built once."""
    coeffs: dict = {}
    exponent = cache(lambda k: Fraction(k, scale))
    for key, v in sorted(acc.items()):
        if v:
            k, d = divmod(key, width)
            coeffs.setdefault(d, []).append((exponent(k), Fraction(v, den)))
    return tuple((d, PuiseuxSeries(tuple(terms))) for d, terms in sorted(coeffs.items()))


def _product(sums: tuple) -> "PuiseuxPolynomial":
    """The polynomial of int sums from ``_accumulate``; it keeps them, and builds
    ``coeffs`` with ``_decode`` on first read."""
    f = object.__new__(PuiseuxPolynomial)
    f.__dict__["_sums"] = sums
    return f


def _matches(f: "PuiseuxPolynomial", acc: dict, scale: int, width: int, den: int) -> bool:
    """Whether f has the int sums: compared as ints, zero sums dropped, if f's own
    sums are on the same scales, else as f's coefficients against the decoded sums."""
    if f._sums[1:] == (scale, width, den):
        return {k: v for k, v in f._sums[0].items() if v} == {k: v for k, v in acc.items() if v}
    return f.coeffs == _decode(acc, scale, width, den)


class PuiseuxSeries(Record, frozen=True):
    """Immutable (exponent, coefficient) terms in canonical form."""

    terms: tuple[Term, ...]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "PuiseuxSeries":
        return cls(_collect(((Fraction(exact(e, "exponent")), Fraction(exact(c, "coefficient")))
                             for e, c in pairs), 0))

    @classmethod
    def zero(cls) -> "PuiseuxSeries":
        return cls(())

    @classmethod
    def one(cls) -> "PuiseuxSeries":
        return _ONE

    @classmethod
    def term(cls, coefficient, exponent) -> "PuiseuxSeries":
        c, e = Fraction(exact(coefficient, "coefficient")), Fraction(exact(exponent, "exponent"))
        return cls(((e, c),) if c else ())

    @classmethod
    def constant(cls, coefficient) -> "PuiseuxSeries":
        return cls.term(coefficient, 0)

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def val(self) -> Fraction:
        """The order valuation: negative of the lowest exponent."""
        if not self.terms:
            raise DomainError("the zero series has no valuation")
        return -self.terms[0][0]

    def leading(self) -> Fraction:
        """The coefficient of the lowest-exponent term."""
        if not self.terms:
            raise DomainError("the zero series has no leading coefficient")
        return self.terms[0][1]

    def is_unit(self) -> bool:
        """Whether the valuation is 0, i.e. the lowest exponent is 0."""
        return self.val() == 0

    # -- field arithmetic -----------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return PuiseuxSeries(_collect(self.terms + other.terms, 0))

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return _product(_accumulate((((0, self),), ((0, other),)))).coefficient(0)

    def __pow__(self, m: int) -> "PuiseuxSeries":
        if type(m) is not int or m < 0:
            raise DomainError(f"series exponent {m!r} must be a non-negative integer")
        return power(self, m, mul, PuiseuxSeries.one())

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(_format_poly_term(c, e, 0) for e, c in self.terms)


#: The series 1, shared: records are frozen.
_ONE = PuiseuxSeries(((Fraction(0), Fraction(1)),))

# ---------------------------------------------------------------------------
# Univariate polynomials with series coefficients


class PuiseuxPolynomial(Record, frozen=True):
    """A polynomial in one variable over the series field, in canonical form.

    Stored as (degree, coefficient) pairs with strictly increasing degrees
    and nonzero coefficients; the empty tuple is the zero polynomial.
    Ordinary ring arithmetic (with subtraction) applies.  A product built by
    ``_product`` keeps its int sums ``_sums`` and has no ``coeffs`` until the
    first read of them; any other polynomial builds ``_sums`` on first read.
    """

    coeffs: tuple[tuple[int, PuiseuxSeries], ...]

    def __getattr__(self, name):
        if name == "_sums":
            value = _accumulate((self.coeffs,))
        elif name == "coeffs" and "_sums" in self.__dict__:
            value = _decode(*self._sums)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = value
        return value

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, PuiseuxSeries] | Iterable[tuple[int, PuiseuxSeries]]
                    ) -> "PuiseuxPolynomial":
        """From a degree -> series map, or (degree, series) pairs whose like degrees add."""
        items = list(coeffs.items() if isinstance(coeffs, Mapping) else coeffs)
        for degree, _ in items:
            if type(degree) is not int or degree < 0:
                raise DomainError(f"degree {degree!r} must be a non-negative integer")
        return cls(_collect(items, PuiseuxSeries.zero()))

    @classmethod
    def zero(cls) -> "PuiseuxPolynomial":
        return cls(())

    @classmethod
    def variable(cls) -> "PuiseuxPolynomial":
        return cls(((1, PuiseuxSeries.one()),))

    @classmethod
    def constant(cls, series: PuiseuxSeries) -> "PuiseuxPolynomial":
        return cls.from_coeffs({0: series})

    @classmethod
    def from_roots(cls, roots: Iterable[PuiseuxSeries],
                   lead: PuiseuxSeries = PuiseuxSeries.one()) -> "PuiseuxPolynomial":
        """lead * prod(variable - r) over the given roots; monic by default."""
        return _product(_root_sums(roots, lead))

    @cached_property
    def lowest_terms(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """(degree, exponent, coefficient) of each coefficient's lowest term, degrees
        ascending: all that val and leading read, from the lowest key with a nonzero
        sum per degree."""
        acc, scale, width, den = self._sums
        low = {key % width: key for key in sorted(acc, reverse=True) if acc[key]}
        return tuple((d, Fraction(key // width, scale), Fraction(acc[key], den))
                     for d, key in sorted(low.items()))

    @property
    def is_zero(self) -> bool:
        return not self.lowest_terms

    def degree(self) -> int:
        if self.is_zero:
            raise DomainError("the zero polynomial has no degree")
        return self.lowest_terms[-1][0]

    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _, _ in self.lowest_terms)

    def coefficient(self, degree: int) -> PuiseuxSeries:
        acc, scale, width, den = self._sums
        keys = sorted(k for k, v in acc.items() if v and k % width == degree)
        return PuiseuxSeries(tuple((Fraction(k // width, scale), Fraction(acc[k], den)) for k in keys))

    def __add__(self, other: "PuiseuxPolynomial") -> "PuiseuxPolynomial":
        return PuiseuxPolynomial(_collect(self.coeffs + other.coeffs, PuiseuxSeries.zero()))

    def __neg__(self) -> "PuiseuxPolynomial":
        return PuiseuxPolynomial(tuple((d, -c) for d, c in self.coeffs))

    def __sub__(self, other: "PuiseuxPolynomial") -> "PuiseuxPolynomial":
        return self + (-other)

    def __mul__(self, other: "PuiseuxPolynomial") -> "PuiseuxPolynomial":
        return _product(_accumulate((self.coeffs, other.coeffs)))

    def __pow__(self, m: int) -> "PuiseuxPolynomial":
        if type(m) is not int or m < 0:
            raise DomainError(f"polynomial exponent {m!r} must be a non-negative integer")
        return power(self, m, mul, PuiseuxPolynomial.constant(PuiseuxSeries.one()))

    def __call__(self, x: PuiseuxSeries) -> PuiseuxSeries:
        """Horner's rule: one series product and one sum per degree."""
        coeffs = dict(self.coeffs)
        total = PuiseuxSeries.zero()
        for d in range(self.coeffs[-1][0] if self.coeffs else -1, -1, -1):
            total = total * x + coeffs.get(d, PuiseuxSeries.zero())
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for d, series in sorted(self.coeffs, reverse=True):
            for e, c in series.terms:
                pieces.append(_format_poly_term(c, e, d))
        return " + ".join(pieces)


def _root_sums(roots: Iterable[PuiseuxSeries], lead: PuiseuxSeries) -> tuple:
    """The int sums of lead * prod(variable - r), lead taken as the first factor."""
    return _accumulate((((0, lead),),), roots)


def _format_poly_term(coefficient: Fraction, exponent: Fraction, degree: int) -> str:
    factors = []
    if coefficient != 1 or (exponent == 0 and degree == 0):
        factors.append(str(coefficient) if coefficient >= 0 else f"({coefficient})")
    if exponent != 0:
        factors.append("t" if exponent == 1 else f"t^({exponent})")
    if degree == 1:
        factors.append("L")
    elif degree > 1:
        factors.append(f"L^{degree}")
    return "*".join(factors)


# ---------------------------------------------------------------------------
# Exploded scalars


class ExplodedScalar(Record, frozen=True):
    """A (sort, value) pair keeping the residue-field shadow of a valuation.

    Addition keeps the larger value; on ties the sorts add classically in
    the residue field, so opposite leading coefficients cancel to sort 0.
    """

    sort: Fraction
    value: Fraction

    @classmethod
    def of(cls, sort, value) -> "ExplodedScalar":
        return cls(Fraction(exact(sort, "sort")), Fraction(exact(value, "value")))

    @classmethod
    def one(cls) -> "ExplodedScalar":
        return cls(Fraction(1), Fraction(0))

    @property
    def is_corner_ghost(self) -> bool:
        return self.sort == 0

    def __add__(self, other: "ExplodedScalar") -> "ExplodedScalar":
        if self.value > other.value:
            return self
        if self.value < other.value:
            return other
        return ExplodedScalar(self.sort + other.sort, self.value)

    def __mul__(self, other: "ExplodedScalar") -> "ExplodedScalar":
        return ExplodedScalar(self.sort * other.sort, self.value + other.value)

    def __pow__(self, m: int) -> "ExplodedScalar":
        if type(m) is not int or m < 0:
            raise DomainError(f"exploded exponent {m!r} must be a non-negative integer")
        return ExplodedScalar(self.sort ** m, self.value * m)

    def __str__(self):
        return f"({self.sort}|{self.value})"
