"""Layered (Laurent) polynomials as functions.

Evaluation follows the pointwise semiring laws: the value of a polynomial
at a point is the layered sum over its monomials, so layers accumulate at
ties.  Corner roots are points where the evaluated scalar is ghost over
every monomial's sort; cluster roots are points where a single dominant
monomial already evaluates to a ghost.  Exact univariate corner roots come
from the breakpoints of the upper envelope of the coefficient data; essential
monomials are certified at witness points or decided by one exact rational LP
over the monomials not yet found dominated, in every dimension.
These exact solvers read coefficients through one lift, ``_lift``.
Grid scans build that envelope once per row, over the monomials' slope
classes, and walk its segments: a row of m monomials costs O(m), not O(m * points).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from .core import INF, Layer, LayeredScalar, LayeredSemiring, Record, TRIVIAL, exact, power
from .errors import DomainError

Exponents = Tuple[int, ...]
Point = Tuple[LayeredScalar, ...]


class LayeredPolynomial:
    """A finite map from integer exponent vectors to layered coefficients.

    The map is never empty (the semiring has no zero), duplicate exponent
    vectors are merged by layered addition, and negative exponents require
    Laurent mode over a value flavor closed under negation.
    """

    __slots__ = ("semiring", "nvars", "coeffs", "laurent")

    def __init__(self, semiring: LayeredSemiring, nvars: int,
                 coeffs, laurent: bool = False):
        if type(nvars) is not int or nvars < 1:
            raise DomainError(f"variable count {nvars!r} must be a positive integer")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        checked = []
        for exponents, scalar in items:
            exponents = tuple(exponents)
            if len(exponents) != nvars or not all(type(e) is int for e in exponents):
                raise DomainError(f"exponent vector {exponents!r} does not have {nvars} integer entries")
            if not laurent and any(e < 0 for e in exponents):
                raise DomainError(f"negative exponent in {exponents!r} outside Laurent mode")
            checked.append((exponents, semiring.check(scalar)))
        if not checked:
            raise DomainError("a polynomial needs at least one monomial")
        if laurent:
            # Negative powers act on values by negation, so the flavor must be a group.
            semiring.values.check(Fraction(-1))
        self._fill(semiring, nvars, checked, laurent)

    def _fill(self, semiring: LayeredSemiring, nvars: int, items, laurent: bool) -> "LayeredPolynomial":
        """Set the fields from valid (exponents, scalar) items, merging equal
        exponent vectors by the unchecked layered sum; returns self."""
        merged: Dict[Exponents, LayeredScalar] = {}
        for exponents, scalar in items:
            merged[exponents] = semiring._add(merged[exponents], scalar) if exponents in merged else scalar
        self.semiring, self.nvars, self.laurent = semiring, nvars, laurent
        # Support order fixes the order in which tie layers are summed.
        self.coeffs = dict(sorted(merged.items()))
        return self

    def _like(self, items) -> "LayeredPolynomial":
        """A polynomial over this view, arity and mode, built unchecked from valid
        items: sums and products of valid polynomials are valid in every flavor."""
        return object.__new__(LayeredPolynomial)._fill(self.semiring, self.nvars, items, self.laurent)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, semiring: LayeredSemiring, nvars: int,
                 scalar: LayeredScalar) -> "LayeredPolynomial":
        return cls(semiring, nvars, {(0,) * nvars: scalar})

    @classmethod
    def variable(cls, semiring: LayeredSemiring, nvars: int, index: int) -> "LayeredPolynomial":
        exponents = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(semiring, nvars, {exponents: semiring.one()})

    # -- structure ---------------------------------------------------------------

    def support(self) -> Tuple[Exponents, ...]:
        return tuple(self.coeffs)

    def coefficient(self, exponents: Exponents) -> LayeredScalar:
        return self.coeffs[tuple(exponents)]

    def __eq__(self, other):
        return (isinstance(other, LayeredPolynomial)
                and self.semiring == other.semiring
                and self.nvars == other.nvars
                and self.laurent == other.laurent
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"LayeredPolynomial({self!s})"

    def __str__(self):
        pieces = []
        for exponents in sorted(self.coeffs, reverse=True):
            pieces.append(_format_monomial(self.coeffs[exponents], exponents))
        return " + ".join(pieces)

    def _compatible(self, other: "LayeredPolynomial") -> None:
        if self.semiring != other.semiring:
            raise DomainError("polynomials live over different semiring views")
        if self.nvars != other.nvars or self.laurent != other.laurent:
            raise DomainError("polynomials differ in arity or Laurent mode")

    # -- semiring arithmetic -----------------------------------------------------

    def add(self, other: "LayeredPolynomial") -> "LayeredPolynomial":
        self._compatible(other)
        return self._like([*self.coeffs.items(), *other.coeffs.items()])

    def mul(self, other: "LayeredPolynomial") -> "LayeredPolynomial":
        self._compatible(other)
        sorts = self.semiring.sorts
        return self._like([(tuple(map(operator.add, e1, e2)),
                            LayeredScalar(sorts.mul(c1.layer, c2.layer), c1.value + c2.value))
                           for e1, c1 in self.coeffs.items() for e2, c2 in other.coeffs.items()])

    def pow(self, m: int) -> "LayeredPolynomial":
        if type(m) is not int or m < 1:
            raise DomainError(f"polynomial power {m!r} must be a positive integer")
        return power(self, m, LayeredPolynomial.mul, None)

    # -- evaluation ----------------------------------------------------------------

    def _check_point(self, point: Point) -> Point:
        point = tuple(point)
        if len(point) != self.nvars:
            raise DomainError(f"point has arity {len(point)}, polynomial expects {self.nvars}")
        for coordinate in point:
            self.semiring.check(coordinate)
        return point

    def monomial_value(self, exponents: Exponents, point: Point) -> LayeredScalar:
        """Evaluate the single monomial with the given exponent vector."""
        exponents = tuple(exponents)
        return self._like([(exponents, self.coeffs[exponents])]).evaluate(point)

    def _profile(self, point: Point, scale: Optional[int] = None
                 ) -> Tuple[int, List[int], List[Layer], Tuple[int, ...]]:
        """(scale, values, layers, tied): each monomial's value times the common
        denominator ``scale`` as an int and its layer, in support order, and the
        indices tied at the best value.  Validates the point, unless the caller
        did and gives a ``scale`` that every denominator divides; the rest is raw
        int and sort arithmetic on valid data, and layer 1 leaves layers alone."""
        if scale is None:
            point = self._check_point(point)
            scale = math.lcm(*(c.value.denominator for c in self.coeffs.values()),
                             *(x.value.denominator for x in point))
        sorts = self.semiring.sorts
        coords = [(x.value.numerator * (scale // x.value.denominator), x.layer) for x in point]
        values, layers = [], []
        for exponents, c in self.coeffs.items():
            value, layer = c.value.numerator * (scale // c.value.denominator), c.layer
            for (xv, xl), e in zip(coords, exponents):
                if e != 0:
                    value += e * xv
                    layer = layer if xl == 1 else sorts.mul(layer, sorts.pow(xl, e))
            values.append(value)
            layers.append(layer)
        best = (min if self.semiring.descending else max)(values)
        return scale, values, layers, tuple(i for i, v in enumerate(values) if v == best)

    def _scaled(self, point: Point, scale: Optional[int] = None) -> Tuple[int, int, Layer]:
        """(scale, value times scale, layer) of the evaluated scalar; see ``_profile``."""
        scale, values, layers, tied = self._profile(point, scale)
        return scale, values[tied[0]], _layer_sum(self.semiring.sorts, layers, tied)

    def evaluate(self, point: Point) -> LayeredScalar:
        scale, value, layer = self._scaled(point)
        return LayeredScalar(layer, Fraction(value, scale))

    def dominant_part(self, point: Point) -> Tuple[Exponents, ...]:
        """Exponent vectors of the monomials whose value ties the evaluated value."""
        support = tuple(self.coeffs)
        return tuple(support[i] for i in self._profile(point)[3])

    def layering(self, point: Point) -> Layer:
        """The layer of the evaluated scalar; its level sets stratify loci."""
        return self.evaluate(point).layer

    # -- roots ----------------------------------------------------------------------

    def is_corner_root(self, point: Point, scale: Optional[int] = None) -> bool:
        """Whether the evaluation is ghost over every monomial's sort.

        Over the trivial flavor every sort is a ghost sort, so the criterion
        there is the classical one: at least two tied dominant monomials.
        A ``scale`` skips the check of the point, as in ``_profile``.
        """
        _, _, layers, tied = self._profile(point, scale)
        return _verdict(self.semiring.sorts, layers, tied)[0]

    def is_cluster_root(self, point: Point) -> bool:
        """Whether a single dominant monomial already evaluates to a ghost.

        The trivial flavor has no ghost layers to record clustering, so no
        cluster roots exist there.
        """
        _, _, layers, tied = self._profile(point)
        return _verdict(self.semiring.sorts, layers, tied)[1]


def _layer_sum(sorts, layers: Sequence[Layer], tied: Sequence[int]) -> Layer:
    """Layered sum of the tied monomials' layers, in support order."""
    return functools.reduce(sorts.add, [layers[i] for i in tied])


def _verdict(sorts, layers: Sequence[Layer], tied: Sequence[int]) -> Tuple[bool, bool]:
    """(corner root, cluster root) from monomial layers and the tied indices."""
    if sorts is TRIVIAL:
        return len(tied) >= 2, False
    total = _layer_sum(sorts, layers, tied)
    corner = all(sorts.is_ghost_sort(total, layer) for layer in layers)
    return corner, len(tied) == 1 and sorts.is_ghost_sort(total, 1)


def _format_monomial(scalar: LayeredScalar, exponents: Exponents) -> str:
    factors = []
    for i, e in enumerate(exponents):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e != 0:
            factors.append(f"x{i + 1}^{e}")
    if not factors:
        return str(scalar)
    if scalar.layer == 1 and scalar.value == 0:
        return "*".join(factors)
    return "*".join([str(scalar)] + factors)


# ---------------------------------------------------------------------------
# Grids


class GridSpec(Record, frozen=True):
    """A finite rational sampling box: per-axis (lower, upper, step) triples.

    Axis i samples ``lower + k * step`` for ``k < counts[i]``, with its layer (default 1).
    Bounds and steps are exact rationals, int (not bool) or Fraction; layers are
    int (not bool) or inf, and ``check`` refuses those a view does not allow.
    """

    axes: Tuple[Tuple[Fraction, Fraction, Fraction], ...]
    layers: Optional[Tuple[Layer, ...]] = None

    def __post_init__(self):
        for lower, upper, step in self.axes:
            for v, what in zip((lower, upper, step), ("lower bound", "upper bound", "step")):
                exact(v, "grid " + what)
            if step <= 0:
                raise DomainError(f"grid step {step} must be positive")
            if lower > upper:
                raise DomainError(f"grid bounds {lower} > {upper}")
        if self.layers is not None and len(self.layers) != len(self.axes):
            raise DomainError("per-axis layers must match the number of axes")
        for layer in self.layers or ():
            if type(layer) is not int and layer != INF:
                raise DomainError(f"grid layer {layer!r} is not an int or inf")

    @classmethod
    def uniform(cls, lower, upper, step, nvars: int, layer: Layer = 1) -> "GridSpec":
        axis = tuple(Fraction(v) if type(v) is int else v for v in (lower, upper, step))
        return cls((axis,) * nvars, (layer,) * nvars)

    @property
    def nvars(self) -> int:
        return len(self.axes)

    @functools.cached_property
    def counts(self) -> Tuple[int, ...]:
        return tuple((upper - lower) // step + 1 for lower, upper, step in self.axes)

    @functools.cached_property
    def origin(self) -> Point:
        return self.point(0)

    def check(self, semiring: LayeredSemiring) -> None:
        """Raise the error of the first coordinate, axis by axis, that ``semiring``
        refuses.  An axis has one layer, and each value flavor is closed under adding
        a positive difference of its values, so ``lower`` and ``lower + step`` decide."""
        for axis, count in enumerate(self.counts):
            for k in range(min(count, 2)):
                semiring.check(self.coordinate(axis, k))

    def coordinate(self, axis: int, k: int) -> LayeredScalar:
        """Sampled coordinate k of an axis, unchecked (see ``check``)."""
        lower, _, step = self.axes[axis]
        return LayeredScalar(self.layers[axis] if self.layers else 1, lower + k * step)

    def point(self, rank: int) -> Point:
        """The sampled point of a rank in product order (last axis fastest), unchecked."""
        index = []
        for count in reversed(self.counts):
            rank, k = divmod(rank, count)
            index.insert(0, k)
        return tuple(map(self.coordinate, range(self.nvars), index))

    def points(self, semiring: LayeredSemiring) -> List[Point]:
        self.check(semiring)
        return [self.point(rank) for rank in range(math.prod(self.counts))]


# ---------------------------------------------------------------------------
# Loci and layering maps


def _common(polynomials: Sequence[LayeredPolynomial]) -> Sequence[LayeredPolynomial]:
    if not polynomials:
        raise DomainError("an empty polynomial set has no locus")
    first = polynomials[0]
    for f in polynomials[1:]:
        first._compatible(f)
    return polynomials


def _scan(tasks, grid: GridSpec, cuts: Optional[Sequence[int]] = None):
    """Kept ranges ``(prefix, lo, hi, layer)`` in canonical form (``_merged``):
    indices lo <= k < hi of the last axis, on the row at lattice ``prefix``,
    where the judge of every task accepts, the layer being the minimum over
    tasks of the tied monomials' layer sum.  With ascending ``cuts`` (n >= 1),
    a list of those for each ``tasks[:n]``, from one walk.  No point is built.

    A task is ``(polynomials, judge)``: the group's monomials are laid end to
    end, and ``judge(sorts, layers, tied)`` sees their layers and the indices
    tied at the group's best value.  Each axis has one layer, so monomial
    layers, and hence verdicts and layer sums given the tied set, are the
    same at every point.  Rows are set up first, so any member the grid
    cannot evaluate raises.  A row intersects the tasks' kept ranges in
    order and stops at the first that keeps nothing.
    """
    polynomials = _common([f for group, _ in tasks for f in group])
    grid.check(polynomials[0].semiring)
    rows = [_lattice_row(group, grid, judge) for group, judge in tasks]
    ends = cuts or (len(tasks),)
    outs = [[] for _ in ends]
    for prefix in itertools.product(*map(range, grid.counts[:-1])):
        kept, done = rows[0](prefix), 1
        for n, out in zip(ends, outs):
            while kept and done < n:
                kept, done = _intersect(kept, rows[done](prefix)), done + 1
            out.extend((prefix, *r) for r in kept)
    return list(map(_merged, outs)) if cuts else _merged(outs[0])


def _merged(ranges) -> List[Tuple]:
    """Ranges ``(prefix, lo, hi, *rest)`` sorted by (prefix, lo), each run of
    overlapping or touching ranges with one prefix and one rest joined: the
    canonical form of what they cover, so equal coverage gives equal lists."""
    out = []
    for prefix, lo, hi, *rest in ranges:
        if out and out[-1][0] == prefix and out[-1][2] >= lo and list(out[-1][3:]) == rest:
            lo, hi = out[-1][1], max(hi, out.pop()[2])
        out.append((prefix, lo, hi, *rest))
    return out


def _points(ranges, grid: GridSpec, layering: bool = False) -> Tuple:
    """The grid points of kept ranges, in order; with ``layering``, (point,
    layer) pairs.  Coordinates are built once each, and only for kept points."""
    *outer, last = [functools.cache(functools.partial(grid.coordinate, axis))
                    for axis in range(grid.nvars)]
    out = []
    for prefix, lo, hi, layer in ranges:
        head = (itertools.repeat(axis(k)) for axis, k in zip(outer, prefix))
        points = zip(*head, map(last, range(lo, hi)))
        out.extend(zip(points, itertools.repeat(layer)) if layering else points)
    return tuple(out)


def _intersect(a, b):
    """Overlaps of two sorted lists of disjoint half-open index ranges, sorted,
    each range with a layer; an overlap keeps the smaller one."""
    return [(lo, hi, min(x, y)) for p, q, x in a for r, s, y in b
            if (lo := max(p, r)) < (hi := min(q, s))]


def _lattice_row(group: Sequence[LayeredPolynomial], grid: GridSpec, judge):
    """A map from a lattice prefix to the kept index ranges along the last
    axis, each with the layer sum of the set tied on it.

    Scaled by a common denominator and negated in a descending view, monomial
    i is the line ``start_i + k * slope_i`` in the lattice index k.  Per row,
    each slope class (fixed per task) gives one line: its top start, with the
    members reaching it (identical lines) as its lane.  A monotone stack keeps
    the upper envelope, lines meeting it only at a vertex included; a segment
    takes one ceiling division, and at a lattice vertex the lanes of all lines
    meeting there tie, in index order.  A row of m monomials costs O(m).
    """
    profiles = [f._profile(grid.origin) for f in group]
    sr = group[0].semiring
    sign = -1 if sr.descending else 1
    scale = math.lcm(*(p[0] for p in profiles), *(step.denominator for _, _, step in grid.axes))
    steps = [sign * int(step * scale) for _, _, step in grid.axes]
    base, layers, deltas = [], [], []
    for f, (origin_scale, values, f_layers, _) in zip(group, profiles):
        base += [sign * v * (scale // origin_scale) for v in values]
        layers += f_layers
        deltas += [list(map(operator.mul, exponents, steps)) for exponents in f.coeffs]
    *columns, slopes = zip(*deltas)
    classes = [(d, tuple(members)) for d, members in itertools.groupby(
        sorted(range(len(slopes)), key=slopes.__getitem__), slopes.__getitem__)]
    n = grid.counts[-1]
    kept_layer = functools.cache(lambda ties: _layer_sum(sr.sorts, layers, ties)
                                 if judge(sr.sorts, layers, ties) else None)

    def row(prefix: Tuple[int, ...]) -> List[Tuple[int, int, Layer]]:
        starts = base
        for p, column in zip(prefix, columns):
            starts = [s + p * c for s, c in zip(starts, column)] if p else starts
        hull = []
        for d, members in classes:
            if len(members) == 1:
                s, lane = starts[members[0]], members
            else:
                s = max(map(starts.__getitem__, members))
                lane = tuple(i for i in members if starts[i] == s)
            while len(hull) > 1 and (hull[-1][1] - s) * (hull[-1][0] - hull[-2][0]) \
                    < (hull[-2][1] - hull[-1][1]) * (d - hull[-1][0]):
                hull.pop()
            hull.append((d, s, lane))
        pieces, k, j, last = [], 0, 0, len(hull) - 1
        while k < n:
            d, s, ties = hull[j]
            # k < ceil(crossing with the next line) keeps this line alone on top
            stop = min(n, -((hull[j + 1][1] - s) // (hull[j + 1][0] - d))) if j < last else n
            if k < stop:
                pieces.append((k, stop, ties))
                k = stop
            j += 1
            if k < n and j <= last and hull[j][1] + hull[j][0] * k == s + d * k:
                # lines j - 1, j, ... meet at the lattice vertex k
                while j < last and hull[j + 1][1] + hull[j + 1][0] * k == s + d * k:
                    ties, j = ties + hull[j][2], j + 1
                pieces.append((k, k + 1, tuple(sorted(ties + hull[j][2]))))
                k += 1
        return [(lo, hi, layer) for lo, hi, ties in pieces if (layer := kept_layer(ties)) is not None]

    return row


def _agree(split: int, sorts, layers: Sequence[Layer], tied: Sequence[int]) -> bool:
    """Pair-task judge, f's ``split`` monomials first: f(a) == g(a) iff both
    sides tie at the joint best value with equal layer sums."""
    k = sum(i < split for i in tied)
    return (0 < k < len(tied)
            and _layer_sum(sorts, layers, tied[:k]) == _layer_sum(sorts, layers, tied[k:]))


def _locus_ranges(polynomials: Sequence[LayeredPolynomial], grid: GridSpec,
                  combined: bool) -> List[Tuple]:
    """``_scan`` of the corner locus, or with ``combined`` of the combined locus."""
    judge = (lambda *args: any(_verdict(*args))) if combined else (lambda *args: _verdict(*args)[0])
    return _scan([([f], judge) for f in polynomials], grid)


def corner_locus(polynomials: Sequence[LayeredPolynomial], grid: GridSpec, *,
                 layering: bool = False) -> Tuple:
    """Grid points that are corner roots of every polynomial in the set; with
    ``layering``, (point, ``layering_map_set`` at the point) pairs."""
    return _points(_locus_ranges(polynomials, grid, False), grid, layering)


def combined_locus(polynomials: Sequence[LayeredPolynomial], grid: GridSpec, *,
                   layering: bool = False) -> Tuple:
    """Grid points that are corner or cluster roots of every polynomial in the
    set; with ``layering``, (point, ``layering_map_set`` at the point) pairs."""
    return _points(_locus_ranges(polynomials, grid, True), grid, layering)


def layering_map_set(polynomials: Sequence[LayeredPolynomial], point: Point) -> Layer:
    """The minimum layer over a set of polynomials at one point."""
    polynomials = _common(polynomials)
    return min(f.layering(point) for f in polynomials)


def component(f: LayeredPolynomial, exponents: Exponents, grid: GridSpec) -> Tuple[Point, ...]:
    """Grid points where the chosen monomial alone realizes f exactly (layer included)."""
    exponents = tuple(exponents)
    if exponents not in f.coeffs:
        raise DomainError(f"{exponents!r} is not a monomial of the polynomial")
    j = tuple(f.coeffs).index(exponents)
    return _points(_scan([([f], lambda sorts, layers, tied:
                           j in tied and layers[j] == _layer_sum(sorts, layers, tied))], grid), grid)


def principal_open(f: LayeredPolynomial, grid: GridSpec) -> Tuple[Point, ...]:
    """The complement of the corner locus of f within the grid."""
    return _points(_scan([([f], lambda *args: not _verdict(*args)[0])], grid), grid)


# ---------------------------------------------------------------------------
# Exact univariate corner roots and essentiality


def _lift(monomials: Collection[Tuple[Exponents, LayeredScalar]],
          semiring: LayeredSemiring) -> Tuple[int, int, List[Tuple[int, ...]]]:
    """(sign, scale, lifted): each monomial (e, c) as the int row
    ``(*e, sign * c * scale)``, ``scale`` one common denominator and ``sign``
    -1 in a descending view, as min(c + e.x) = -max(-c + e.(-x))."""
    sign = -1 if semiring.descending else 1
    scale = math.lcm(*(c.value.denominator for _, c in monomials))
    return sign, scale, [(*e, sign * c.value.numerator * (scale // c.value.denominator))
                         for e, c in monomials]


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _upper_hull(points: List[Tuple[int, Fraction]]) -> List[Tuple[int, Fraction]]:
    """Strict upper concave hull of points sorted by abscissa; collinear middles drop."""
    hull: List[Tuple[int, Fraction]] = []
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    return hull


def univariate_corner_roots(f: LayeredPolynomial) -> Tuple[Tuple[Fraction, int], ...]:
    """Exact (root, tie multiplicity) pairs, sorted by root.

    Roots are the breakpoints of the upper envelope of c + e*x over the
    monomials (e, c): consecutive essential exponents i < j tie at
    x = (c_i - c_j)/(j - i), with multiplicity j - i.  A descending view
    negates values and roots, as min(c + e*x) = -max(-c + e*(-x)).
    """
    if f.nvars != 1:
        raise DomainError("exact corner roots require a univariate polynomial")
    sign, scale, lifted = _lift(f.coeffs.items(), f.semiring)
    hull = _upper_hull(sorted(lifted))
    return tuple(sorted((Fraction(sign * (ci - cj), (j - i) * scale), j - i)
                        for (i, ci), (j, cj) in zip(hull, hull[1:])))


def essential_monomials(f: LayeredPolynomial) -> Tuple[Exponents, ...]:
    """Sorted exponent vectors of the monomials that strictly dominate somewhere.

    By Farkas' lemma, monomial e with value c_e wins strictly at some real
    point iff no convex combination of the other monomials o, with
    sum(l_o * o) = e, reaches sum(l_o * c_o) >= c_e: iff the lifted (e, c_e)
    is a vertex of the upper hull.  Certify: at the origin and at far * (k*q -
    the k exponents' sum) per monomial q, far > 2 max|c|, the monomials tied at
    the top lift to a hull face, whose lexicographically first and last points
    are vertices.  Prune: an LP that finds a monomial dominated drops it from
    later LPs' columns, as the hull is that of its vertices.  One exact LP
    then decides each uncertified monomial.  A descending view negates values.
    """
    _, _, lifted = _lift(f.coeffs.items(), f.semiring)
    k, far = len(lifted), 1 + 2 * max(abs(p[-1]) for p in lifted)
    total = [sum(column) for column in zip(*lifted)][:-1]
    certified = set()
    for x in [[0] * f.nvars] + [[far * (k * a - t) for a, t in zip(q, total)] for q in lifted]:
        values = [p[-1] + sum(map(operator.mul, p, x)) for p in lifted]
        top = max(values)
        certified.update((values.index(top), k - 1 - values[::-1].index(top)))
    # Rows: sum l_o (o - e) = 0, sum l_o = 1, sum l_o (c_o - c_e) - slack = 0.
    slack = [0] * f.nvars + [0, -1]
    rhs = [0] * f.nvars + [1, 0]
    pool = dict.fromkeys(lifted)
    for i, p in enumerate(lifted):
        if i not in certified:
            columns = [[a - b for a, b in zip(q[:-1], p)] + [1, q[-1] - p[-1]]
                       for q in pool if q is not p]
            if _feasible(columns + [slack], rhs) is not None:
                del pool[p]
    return tuple(e for e, p in zip(f.coeffs, lifted) if p in pool)


def _feasible(columns: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[List[Fraction]]:
    """Some x >= 0 solving sum_j x_j * columns[j] = rhs (integers, rhs >= 0), or None.

    Phase one of the simplex method: one artificial variable per row starts
    basic and their sum is minimised under Bland's rule, which cannot cycle.
    An artificial that leaves the basis is dropped, so artificial columns
    are never stored.  Pivoting is fraction-free: the tableau is kept as
    integers over the last pivot (a positive determinant), and every update
    divides exactly, so a basic variable's value is its row's rhs over det.
    """
    n = len(columns)
    rows = [list(row) for row in zip(*columns, rhs)]
    # The artificials sum to (cost[-1] - sum_j cost[j] * x_j) / det.
    cost = [sum(entries) for entries in zip(*rows)]
    basis = list(range(n, n + len(rows)))
    det = 1
    while True:
        s = next((j for j in range(n) if cost[j] > 0), None)
        if s is None:
            if cost[-1]:
                return None
            x = [Fraction(0)] * n
            for row, j in zip(rows, basis):
                if j < n:
                    x[j] = Fraction(row[-1], det)
            return x
        r = None
        for i, row in enumerate(rows):
            if row[s] > 0 and (r is None or (row[-1] * rows[r][s], basis[i])
                                < (rows[r][-1] * row[s], basis[r])):
                r = i
        pivot, p = rows[r], rows[r][s]
        for row in rows + [cost]:
            if row is not pivot:
                k = row[s]
                row[:] = [(x * p - k * y) // det for x, y in zip(row, pivot)]
        basis[r], det = s, p


# ---------------------------------------------------------------------------
# Functional equality


def functionally_equal(f: LayeredPolynomial, g: LayeredPolynomial) -> bool:
    """Whether f and g evaluate alike at every tangible rational point.

    Exact in every arity.  An integer view compares the rational extension
    of its polynomials; ``_difference`` names a point where they differ.
    """
    return _difference(f, g) is None


def _difference(f: LayeredPolynomial, g: LayeredPolynomial) -> Optional[Tuple[Fraction, ...]]:
    """Coordinates of a tangible point where f and g differ, or None.

    At a tangible point each monomial keeps its coefficient's layer, and the
    monomials tied at the best value lift to the points (e, c_e) on one face
    of the upper hull of f's and g's monomials together, so f == g iff
    ``_agree`` holds on every face.  Judging the smallest face of each hull
    point suffices: it makes the vertices agree, and by induction on
    dimension each face's layer sum regroups into its vertices' layers and
    the sums over smaller faces.  A descending view runs on negated values,
    as ``essential_monomials`` does.
    """
    f._compatible(g)
    monomials = [*f.coeffs.items(), *g.coeffs.items()]
    sign, scale, lifted = _lift(monomials, f.semiring)
    points = sorted(set(lifted))

    def tied(a: Sequence[Fraction]) -> frozenset:
        values = [p[-1] + sum(map(operator.mul, p[:-1], a)) for p in points]
        top = max(values)
        return frozenset(p for p, v in zip(points, values) if v == top)

    def tie(top, below=None) -> Optional[List[Fraction]]:
        """A point where ``top`` ties at the best value and ``below`` lies at
        least 1 under it.  Unknowns: lam = 1 + mu, y and s (each split in
        two) and a slack per other point, in lam*c_p + p.y + slack_p = s."""
        rows = []
        for p in points:
            *e, c = p
            row = [c, *e, *(-x for x in e), -1, 1] + [int(p == q) for q in points if q != top]
            rhs = -c - (p == below)
            rows.append(row + [rhs] if rhs >= 0 else [-x for x in row] + [-rhs])
        *columns, rhs = zip(*rows)
        x = _feasible(columns, rhs)
        if x is None:
            return None
        n = f.nvars
        return [(x[1 + k] - x[1 + n + k]) / (1 + x[0]) for k in range(n)]

    split, layers = len(f.coeffs), [c.layer for _, c in monomials]
    for p in points:
        a = tie(p)
        if a is None:
            continue
        # Where p ties, its smallest face ties at the average of that point
        # and one point per other tied point that can be pushed below.
        found = [a] + [b for q in tied(a) - {p} if (b := tie(p, q)) is not None]
        mid = [sum(xs) / len(found) for xs in zip(*found)]
        face = tied(mid)
        if not _agree(split, f.semiring.sorts, layers,
                      tuple(i for i, q in enumerate(lifted) if q in face)):
            return tuple(sign * x / scale for x in mid)
    return None
