"""Congruences over finite point sets, varieties, and coordinate semirings.

Over a finite point set X, two polynomials are congruent when they evaluate
identically on X.  A set of generating pairs cuts out the variety of grid
points where every pair agrees; the Zariski round trip verifies that this
correspondence is a stable antitone Galois connection on probe families.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, partial

from .core import LayeredScalar, LayeredSemiring, Record
from .errors import DomainError
from .polynomials import (GridSpec, LayeredPolynomial, Line, Point, _agree, _lattice, _lattice_lines,
                          _lattice_row, _layer_sum, _merged, _points, _walk)


class FinitePointSet(Record, frozen=True):
    """Deduplicated points of a common arity; may be empty (an empty variety)."""

    points: tuple[Point, ...]

    @classmethod
    def of(cls, points: Iterable[Point]) -> "FinitePointSet":
        unique = tuple(dict.fromkeys(map(tuple, points)))
        if len(set(map(len, unique))) > 1:
            raise DomainError("points of mixed arity in one set")
        return cls(unique)

    def union(self, other: "FinitePointSet") -> "FinitePointSet":
        return FinitePointSet.of(self.points + other.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.points)

    def __contains__(self, point):
        return tuple(point) in self._members


Pair = tuple[LayeredPolynomial, LayeredPolynomial]


def congruent_on(f: LayeredPolynomial, g: LayeredPolynomial, x: FinitePointSet) -> bool:
    """Pointwise full scalar equality over the set (layers included).  All points
    are checked before any is evaluated, so a refusal does not depend on their
    order; f and g are then evaluated on one integer scale for the whole set."""
    f._compatible(g)
    if not len(x):
        raise DomainError("congruence needs a non-empty point set")
    return _congruent(f, g, [f._check_point(a) for a in x])


def _congruent(f: LayeredPolynomial, g: LayeredPolynomial, points: Iterable[Point]) -> bool:
    """``congruent_on`` unchecked: f and g must evaluate the points (iterated three times)."""
    scale = math.lcm(*(c.value.denominator for h in (f, g) for c in h.coeffs.values()),
                     *(c.value.denominator for a in points for c in a))
    return all(a == b for a, b in zip(_evaluations(f, points, scale), _evaluations(g, points, scale)))


def _evaluations(f: LayeredPolynomial, points: Iterable[Point], scale: int) -> Iterator[tuple]:
    """(value times ``scale``, layer) of f at each point, lazily, from ``f._profiles``."""
    sorts = f.semiring.sorts
    return ((values[tied[0]], _layer_sum(sorts, layers, tied))
            for values, layers, tied in f._profiles(points, scale))


def variety_of(pairs: Sequence[Pair], grid: GridSpec) -> FinitePointSet:
    """Grid points, in product order, where every generating pair evaluates equally.

    One lattice scan decides all pairs, so an invalid grid raises
    ``DomainError`` whatever their order.  An empty generator list describes
    the diagonal congruence, whose variety is the whole grid: it is refused
    with ``DomainError`` rather than listed (``zariski_roundtrip`` counts it).
    """
    if not pairs:
        raise DomainError("an empty generator list (the diagonal congruence) has the "
                          "whole grid as its variety, which is not listed")
    rows = [row for row, _ in _lattice(_pair_tasks(pairs), grid)]
    return FinitePointSet(_points(_walk(rows, grid.counts), grid))


def _pair_tasks(pairs: Sequence[Pair]) -> list:
    return [((f, g), partial(_agree, len(f.coeffs))) for f, g in pairs]


# ---------------------------------------------------------------------------
# Coordinate semirings


class CoordinateFunction(Record, frozen=True):
    """A polynomial seen through its evaluation vector on a fixed point set.

    Equality and hashing use the vector alone; the witness records one
    originating polynomial.
    """

    vector: tuple
    witness: LayeredPolynomial

    def __eq__(self, other):
        return isinstance(other, CoordinateFunction) and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def add(self, other: "CoordinateFunction") -> "CoordinateFunction":
        sr = self.witness.semiring
        vector = tuple(sr.add(a, b) for a, b in zip(self.vector, other.vector))
        return CoordinateFunction(vector, self.witness.add(other.witness))

    def mul(self, other: "CoordinateFunction") -> "CoordinateFunction":
        sr = self.witness.semiring
        vector = tuple(sr.mul(a, b) for a, b in zip(self.vector, other.vector))
        return CoordinateFunction(vector, self.witness.mul(other.witness))


def quotient_map(f: LayeredPolynomial, x: FinitePointSet) -> CoordinateFunction:
    """The semiring homomorphism sending a polynomial to its evaluation vector.
    Every point is checked before any is evaluated, as in ``congruent_on``."""
    if not len(x):
        raise DomainError("coordinate functions need a non-empty point set")
    points = [f._check_point(a) for a in x]
    scale = math.lcm(*(c.value.denominator for c in f.coeffs.values()),
                     *(c.value.denominator for a in points for c in a))
    return CoordinateFunction(tuple(LayeredScalar(layer, Fraction(value, scale))
                                    for value, layer in _evaluations(f, points, scale)), f)


def coordinate_semiring(x: FinitePointSet,
                        basis: Sequence[LayeredPolynomial]) -> tuple[CoordinateFunction, ...]:
    """Distinct evaluation-vector representatives of the given polynomials."""
    out: list[CoordinateFunction] = []
    seen = set()
    for f in basis:
        cf = quotient_map(f, x)
        if cf.vector not in seen:
            seen.add(cf.vector)
            out.append(cf)
    return tuple(out)


def restrict(cf: CoordinateFunction, y: FinitePointSet, x: FinitePointSet) -> CoordinateFunction:
    """Project a coordinate function on Y down to a subset X (vector projection)."""
    index = {p: i for i, p in enumerate(y)}
    try:
        picks = [index[p] for p in x]
    except KeyError:
        raise DomainError("restriction target is not a subset of the source point set")
    return CoordinateFunction(tuple(cf.vector[i] for i in picks), cf.witness)


# ---------------------------------------------------------------------------
# Zariski round trip


class ZariskiReport(Record):
    """Outcome of ``zariski_roundtrip``: the variety size, the probe count and each law."""

    variety_size: int
    probe_pairs: int
    diagonal: bool
    stable: bool
    antitone_generators: bool
    antitone_points: bool
    union_law: bool

    @property
    def passed(self) -> bool:
        return (self.stable and self.antitone_generators
                and self.antitone_points and self.union_law)

    def to_json(self) -> dict:
        return {**vars(self), "pass": self.passed}


def _accepted(accepts, indices: Sequence[tuple[int, ...]]) -> bool:
    """Whether a probe's pair agrees on a set of lattice indices: its lattice
    form's judge at every one of them."""
    return all(map(accepts, indices))


def _random_poly(rng: random.Random, template: LayeredPolynomial) -> LayeredPolynomial:
    sr = template.semiring
    coeffs = {}
    values = range(-3, 4) if sr.values.completion() is sr.values else range(4)  # negatives need a group
    for _ in range(rng.randint(1, 3)):
        exponents = tuple(rng.randint(0, 2) for _ in range(template.nvars))
        coeffs[exponents] = sr.scalar(rng.choice(values))
    return LayeredPolynomial(sr, template.nvars, coeffs, template.laurent)


def _probe_lines(pairs: Sequence[Pair], grid: GridSpec, rng: random.Random
                 ) -> tuple[list[tuple[list[Line], list[Line]]], tuple]:
    """(probes, axes): the generators plus derived pairs known to lie in the
    same congruence, each side as the int lines of ``_lattice_lines`` on the
    grid, and the axes on their scale.  The generators and one random h per
    pair are lifted once, on one scale, after ``_lattice_lines``' checks; the
    sums and products f + h, f * h, f1 + f2 and f1 * f2 are formed on those
    ints, as ``LayeredPolynomial.add`` and ``mul`` would form them."""
    hs = [_random_poly(rng, f) for f, _ in pairs]
    lines, axes = _lattice_lines([*(f for pair in pairs for f in pair), *hs], grid)
    sorts = hs[0].semiring.sorts
    sides = list(zip(lines[:-len(hs):2], lines[1:-len(hs):2]))
    probes = list(sides)
    for (f, g), h in zip(sides, lines[-len(hs):]):
        probes.append((_merge(sorts, f + h), _merge(sorts, g + h)))
        probes.append((_product(sorts, f, h), _product(sorts, g, h)))
    for (f1, g1), (f2, g2) in zip(sides, sides[1:]):
        probes.append((_merge(sorts, f1 + f2), _merge(sorts, g1 + g2)))
        probes.append((_product(sorts, f1, f2), _product(sorts, g1, g2)))
    return probes, axes


def _merge(sorts, lines: Iterable[Line]) -> list[Line]:
    """Lines of equal exponents merged as ``LayeredPolynomial._fill`` merges
    their scalars, in order: the larger int wins, and equal ints add their
    layers with ``sorts.add``; the result in support (exponent) order."""
    merged = {}
    for e, v, layer in lines:
        old = merged.get(e)
        if old is None or v > old[0]:
            merged[e] = v, layer
        elif v == old[0]:
            merged[e] = v, sorts.add(old[1], layer)
    return [(e, *merged[e]) for e in sorted(merged)]


def _product(sorts, f: list[Line], h: list[Line]) -> list[Line]:
    """The lines of f * h as ``LayeredPolynomial.mul`` forms it: exponents and
    ints add, layers multiply with ``sorts.mul``, term pairs merged in order."""
    return _merge(sorts, [(tuple(map(operator.add, e1, e2)), v1 + v2, sorts.mul(l1, l2))
                          for e1, v1, l1 in f for e2, v2, l2 in h])


def zariski_roundtrip(pairs: Sequence[Pair], grid: GridSpec,
                      seed: int = 0) -> ZariskiReport:
    """Verify stability of the variety and both antitone laws on a probe family.

    The probes start with the pairs, so one walk gives all three varieties,
    compared as kept ranges: one step per row and per kept range.  Each probe
    is formed on the ints of its factors' lines (``_probe_lines``), and no
    polynomial is built for it.  The point
    laws judge a sample of lattice indices, drawn by rank, through each
    probe's lattice form, which the walk's setup checked: no point is built.
    No pairs generate the diagonal congruence, whose variety is the whole
    grid: it is counted, not listed, and every law holds trivially.
    """
    if not pairs:
        grid.check(LayeredSemiring())
        return ZariskiReport(math.prod(grid.counts), 0, True, True, True, True, True)
    import random  # loaded only when a command draws
    rng = random.Random(seed)
    probes, axes = _probe_lines(pairs, grid, rng)
    sorts = pairs[0][0].semiring.sorts
    cuts = (max(1, len(pairs) - 1), len(pairs), len(probes))
    forms = [_lattice_row(f + g, axes, sorts, partial(_agree, len(f))) for f, g in probes]
    # Points only: a snapshot's layers are minima over its own tasks.
    smaller, variety, probed = (_merged(r[:3] for r in snapshot)
                                for snapshot in _walk([row for row, _ in forms], grid.counts, cuts))
    stable = probed == variety
    # variety <= smaller iff joining them leaves smaller (two sorted runs: a linear sort)
    antitone_generators = _merged(sorted(smaller + variety)) == smaller
    antitone_points = union_law = True
    # rng.sample draws the same positions from range(total) as from the listed grid.
    total = math.prod(grid.counts)
    sample = [grid.index(rank) for rank in rng.sample(range(total), min(6, total))]
    small = sample[: max(1, len(sample) // 2)]
    rest = sample[len(small):]
    large = small + rest
    for _, accepts in forms:
        on_small, on_large = _accepted(accepts, small), _accepted(accepts, large)
        if on_large and not on_small:
            antitone_points = False
        # I(small ∪ rest) = I(small) ∧ I(rest); a one-point sample has no rest
        if rest and on_large != (on_small and _accepted(accepts, rest)):
            union_law = False

    return ZariskiReport(
        variety_size=sum(hi - lo for _, lo, hi in variety),
        probe_pairs=len(probes),
        diagonal=False,
        stable=stable,
        antitone_generators=antitone_generators,
        antitone_points=antitone_points,
        union_law=union_law,
    )
