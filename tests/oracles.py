"""Independent oracles and random generators shared by the test suite.

The brute-force corner detector works from first principles (direct
rational evaluation of every monomial and an argmax), never touching the
hull-based solver it is used to check.  The essentiality oracle decides
the primal strict system by Fourier-Motzkin elimination, never touching
the simplex it is used to check.  The functional-equality reference
evaluates point by point, never touching the hull or the lattice scan.  The Puiseux
references accumulate terms in dicts and evaluate term by term with
repeated products, never touching the shared canonical-form collector, the
integer product kernel or Horner's rule; the initial-form identity checks
claimed roots on leading coefficients alone.  The exploded reference folds
its terms by exploded addition, never taking the closed form.  The Kapranov
reference judges a verified trial on Fractions, by exhaustive ties, chords
and exploded addition, never sharing the trial's int scale.  The
layered-polynomial references merge like exponents in their own dict loops, and the Newton-polygon reference finds hull vertices
by testing chords, never touching the shared monotone-chain hull.  The grid
reference steps along each axis and validates every coordinate, never
touching the closed-form check or the lattice index arithmetic.  The
round-trip reference scans each of its three varieties on its own through
``variety_of``, never sharing one walk between them.  The locus-output
reference renders the points of the public loci as dicts through ``json``
or ``csv``, never touching the CLI's integer coordinate texts or its streaming.
The record references are ``dataclasses`` built from field lists written out
here, never touching the package's record base or reading its classes.
"""

import csv
import dataclasses
import io
import itertools
import json
import math
import random
from fractions import Fraction

from laytrop import (INF, DomainError, ExplodedScalar, LayeredPolynomial, LayeredScalar,
                     LayeredSemiring, PuiseuxPolynomial, PuiseuxSeries,
                     combined_locus, corner_locus, explode_poly, trop_poly)
from laytrop.congruence import (FinitePointSet, ZariskiReport, _probe_family, congruent_on,
                                variety_of)
from laytrop.core import SortFlavor, format_layer


def brute_corner_roots(monomials):
    """Corner roots of a tangible univariate polynomial, by exhaustive ties.

    ``monomials`` is a list of (exponent, value) pairs.  Candidate points are
    all pairwise ties, midpoints between consecutive candidates, and outer
    points; a candidate is a corner root when at least two monomials attain
    the maximum there.  Multiplicity is the exponent spread of the argmax.
    """
    candidates = set()
    for i, (e1, c1) in enumerate(monomials):
        for e2, c2 in monomials[i + 1:]:
            if e1 != e2:
                candidates.add(Fraction(c1 - c2, e2 - e1))
    if not candidates:
        return ()
    ordered = sorted(candidates)
    probes = set(ordered)
    probes.add(ordered[0] - 1)
    probes.add(ordered[-1] + 1)
    for a, b in zip(ordered, ordered[1:]):
        probes.add((a + b) / 2)
    roots = []
    for x in sorted(probes):
        values = [(c + e * x, e) for e, c in monomials]
        top = max(v for v, _ in values)
        winners = [e for v, e in values if v == top]
        if len(winners) >= 2:
            roots.append((x, max(winners) - min(winners)))
    return tuple(roots)


def brute_lower_hull(points):
    """Vertices of the lower convex hull of points with distinct abscissas, by
    chords in O(n^3): the outermost points are vertices, and a middle point is
    one iff it lies strictly below every chord from a point on its left to a
    point on its right, so collinear middle points are not vertices."""
    points = sorted(points)

    def below(p, a, b):
        return (p[1] - a[1]) * (b[0] - a[0]) < (b[1] - a[1]) * (p[0] - a[0])

    return [p for k, p in enumerate(points)
            if all(below(p, a, b) for a in points[:k] for b in points[k + 1:])]


def _strictly_feasible(rows, nvars):
    """Decide a system of strict linear inequalities a.x < b over the rationals.

    Fourier-Motzkin elimination; combinations of strict inequalities stay
    strict, and density of the rationals makes the test exact.  The row
    count can grow doubly exponentially, so keep inputs small.
    """
    for k in range(nvars):
        positive, negative, rest = [], [], []
        for a, b in rows:
            if a[k] > 0:
                positive.append((a, b))
            elif a[k] < 0:
                negative.append((a, b))
            else:
                rest.append((a, b))
        for ap, bp in positive:
            for an, bn in negative:
                sp, sn = -an[k], ap[k]
                a = [sp * x + sn * y for x, y in zip(ap, an)]
                rest.append((a, sp * bp + sn * bn))
        rows = rest
    return all(b > 0 for _, b in rows)


def fm_essential(f):
    """Sorted exponent vectors e for which c_o + o.x < c_e + e.x (every other o)
    has a rational solution x, in the max convention; the dual view's min
    convention negates every value (and x)."""
    sign = -1 if f.semiring.descending else 1
    kept = []
    for e in sorted(f.coeffs):
        ce = sign * f.coeffs[e].value
        rows = [([Fraction(o - x) for o, x in zip(other, e)], ce - sign * c.value)
                for other, c in f.coeffs.items() if other != e]
        if _strictly_feasible(rows, f.nvars):
            kept.append(e)
    return tuple(kept)


def tie_samples(f, grid):
    """One point on each pairwise tie hyperplane of f's monomials per grid
    anchor (at most 24 anchors): the first coordinate the two exponent
    vectors differ in is solved for, the others come from the anchor."""
    anchors = brute_grid(grid)
    anchors = anchors[::max(1, len(anchors) // 24)]
    samples = []
    for (e1, c1), (e2, c2) in itertools.combinations(f.coeffs.items(), 2):
        d = [a - b for a, b in zip(e1, e2)]
        k = next(i for i, di in enumerate(d) if di)
        for anchor in anchors:
            rest = sum(d[m] * anchor[m].value for m in range(f.nvars) if m != k)
            point = list(anchor)
            point[k] = LayeredScalar(anchor[k].layer, (c2.value - c1.value - rest) / d[k])
            samples.append(tuple(point))
    return samples


def _solve(rows):
    """The unique solution of the square system a.x = b, one (a, b) per row, or None."""
    n = len(rows)
    m = [[Fraction(x) for x in a] + [Fraction(b)] for a, b in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                k = m[r][col] / m[col][col]
                m[r] = [x - k * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def tie_vertices(f, g):
    """Tangible points where some nvars + 1 monomials of f and g, taken
    together, take equal values: the candidate vertices of the cells on
    which the tied set is constant."""
    monomials = {*f.coeffs.items(), *g.coeffs.items()}
    points = set()
    for (e0, c0), *rest in itertools.combinations(monomials, f.nvars + 1):
        x = _solve([([a - b for a, b in zip(e, e0)], c0.value - c.value) for e, c in rest])
        if x is not None:
            points.add(tuple(LayeredScalar(1, v) for v in x))
    return points


def pointwise_functionally_equal(f, g, grid):
    """Functional equality decided point by point: both sides are evaluated
    at every grid point, every tie sample of either side and every tie
    vertex of the two together."""
    points = set(brute_grid(grid)) | tie_vertices(f, g)
    for poly in (f, g):
        points.update(tie_samples(poly, grid))
    return all(f.evaluate(a) == g.evaluate(a) for a in points)


def random_value(rng, span=9, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_layer(rng, allow_inf=True):
    if allow_inf and rng.random() < 0.15:
        return INF
    return rng.randint(1, 5)


def random_scalar(rng, sr: LayeredSemiring, allow_inf=True):
    if sr.sorts.name == "trivial":
        layer = 1
    elif sr.sorts.name == "super":
        layer = INF if (allow_inf and rng.random() < 0.3) else 1
    else:
        layer = random_layer(rng, allow_inf)
    return sr.scalar(random_value(rng), layer)


def random_series(rng, max_terms=4, allow_zero=False):
    n = rng.randint(0 if allow_zero else 1, max_terms)
    exponents = set()
    while len(exponents) < n:
        exponents.add(random_value(rng, span=6, den=3))
    terms = [(e, random_value(rng, span=9, den=5) or Fraction(1)) for e in exponents]
    return PuiseuxSeries.from_terms((e, c) for e, c in terms)


def reference_series(pairs):
    """The canonical series of (exponent, coefficient) pairs, by dict accumulation."""
    acc = {}
    for exponent, coefficient in pairs:
        e = Fraction(exponent)
        acc[e] = acc.get(e, Fraction(0)) + Fraction(coefficient)
    return PuiseuxSeries(tuple((e, c) for e, c in sorted(acc.items()) if c != 0))


def reference_series_add(p, q):
    return reference_series(p.terms + q.terms)


def reference_series_mul(p, q):
    return reference_series((e1 + e2, c1 * c2) for e1, c1 in p.terms for e2, c2 in q.terms)


def _reference_polynomial(acc):
    return PuiseuxPolynomial(tuple((d, c) for d, c in sorted(acc.items()) if not c.is_zero))


def reference_poly_add(f, g):
    acc = dict(f.coeffs)
    for d, c in g.coeffs:
        acc[d] = reference_series_add(acc.get(d, PuiseuxSeries.zero()), c)
    return _reference_polynomial(acc)


def reference_poly_mul(f, g):
    acc = {}
    for d1, c1 in f.coeffs:
        for d2, c2 in g.coeffs:
            product = reference_series_mul(c1, c2)
            acc[d1 + d2] = reference_series_add(acc.get(d1 + d2, PuiseuxSeries.zero()), product)
    return _reference_polynomial(acc)


def reference_from_roots(roots, lead=None):
    """lead * prod(L - r), one linear factor at a time by ``reference_poly_mul``."""
    out = PuiseuxPolynomial.constant(PuiseuxSeries.one() if lead is None else lead)
    for r in roots:
        out = reference_poly_mul(out, PuiseuxPolynomial.from_coeffs({1: PuiseuxSeries.one(), 0: -r}))
    return out


def initial_form_identity(f, roots):
    """Whether claimed roots of f satisfy the Newton-Puiseux initial-form identity.

    The zero roots must number the lowest degree of f.  Each segment of the
    lower hull of (d, lowest exponent of a_d), of slope m from d0 to d1, must
    carry the nonzero claimed roots of lowest exponent -m, and
    sum lead(a_d) * y^(d - d0) over the points on the segment must equal
    lead(a_d1) * prod(y - lead(r)) over those roots, as rational polynomials
    in y; no other nonzero root may be claimed.  Every split f = lead(f) *
    prod(L - r) satisfies it, so False refuses a claim and True decides
    nothing.  Works on leading coefficients only, by schoolbook products of
    rational coefficient lists, never touching the series kernel.
    """
    coeffs = dict(f.coeffs)
    nonzero = [r for r in roots if not r.is_zero]
    if len(roots) - len(nonzero) != f.coeffs[0][0]:
        return False
    hull = brute_lower_hull([(d, c.terms[0][0]) for d, c in f.coeffs])
    placed = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        edge = [Fraction(0)] * (x2 - x1 + 1)
        for d in range(x1, x2 + 1):
            if d in coeffs and coeffs[d].terms[0][0] == y1 + slope * (d - x1):
                edge[d - x1] = coeffs[d].terms[0][1]
        claimed = [coeffs[x2].terms[0][1]]
        for r in nonzero:
            if r.terms[0][0] == -slope:
                placed += 1
                lead = r.terms[0][1]
                claimed = [a - lead * b for a, b in zip([0] + claimed, claimed + [0])]
        if edge != claimed:
            return False
    return placed == len(nonzero)


def reference_poly_call(f, x):
    """f(x) term by term: the sum of c * x^d, each power by d repeated products."""
    total = PuiseuxSeries.zero()
    for d, c in f.coeffs:
        power = PuiseuxSeries.one()
        for _ in range(d):
            power = reference_series_mul(power, x)
        total = reference_series_add(total, reference_series_mul(c, power))
    return total


def reference_exploded_eval(coeffs, point):
    """An exploded polynomial at a point, term by term: c_d * point ** d for
    each degree in ascending order, folded left to right by exploded
    addition, never taking the closed-form max over scaled values."""
    if not coeffs:
        raise DomainError("an empty exploded polynomial cannot be evaluated")
    total = None
    for d in sorted(coeffs):
        term = coeffs[d] * point ** d
        total = term if total is None else total + term
    return total


def reference_kapranov_checks(f, roots, semiring, trop=trop_poly, explode=explode_poly):
    """The verdicts of ``kapranov_verify`` for f with roots that pass its identity
    check, on Fractions: (forward, reverse, exploded, corner roots as texts with
    multiplicities, sorted valuations).  ``trop`` and ``explode`` stand in for
    the two maps, so a perturbed map can be given to both sides.

    Forward evaluates each root's valuation through the public, checking
    ``is_corner_root``; corner roots come from exhaustive ties and the Newton
    valuations from the chord hull of (degree, lowest exponent); each corner
    root is checked by term-by-term exploded addition at every root of that
    valuation.  Nothing here takes a common int scale, the monotone-chain
    hull or the exploded closed form.
    """
    tropicalized = trop(semiring, f)
    corner = brute_corner_roots([(d, c.value) for (d,), c in tropicalized.coeffs.items()])
    hull = brute_lower_hull([(d, c.terms[0][0]) for d, c in f.coeffs])
    newton = sorted(v for (x1, y1), (x2, y2) in zip(hull, hull[1:])
                    for v in [(y2 - y1) / (x2 - x1)] * (x2 - x1))
    known = sorted(r.val() for r in roots)
    forward = all(tropicalized.is_corner_root((semiring.scalar(r.val()),)) for r in roots)
    reverse = sorted(x for x, m in corner for _ in range(m)) == newton == known
    exploded = explode(f)
    ghosts = all(any(reference_exploded_eval(exploded, ExplodedScalar(r.leading(), r.val())).is_corner_ghost
                     for r in roots if r.val() == x0)
                 for x0, _ in corner)
    return forward, reverse, ghosts, [(str(x), m) for x, m in corner], known


def reference_layered_add(f, g):
    """f + g, merging g's monomials into a copy of f's coefficient dict."""
    sr = f.semiring
    acc = dict(f.coeffs)
    for exponents, scalar in g.coeffs.items():
        acc[exponents] = sr.add(acc[exponents], scalar) if exponents in acc else scalar
    return LayeredPolynomial(sr, f.nvars, acc, f.laurent)


def reference_layered_mul(f, g):
    """f * g, merging every pairwise product into a dict, in pair order."""
    sr = f.semiring
    acc = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            term = sr.mul(c1, c2)
            acc[e] = sr.add(acc[e], term) if e in acc else term
    return LayeredPolynomial(sr, f.nvars, acc, f.laurent)


def random_tangible_univariate(rng, sr: LayeredSemiring, max_degree=8):
    exponents = rng.sample(range(max_degree + 1), rng.randint(2, min(9, max_degree + 1)))
    coeffs = {(e,): sr.scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
              for e in exponents}
    return LayeredPolynomial(sr, 1, coeffs)


def random_poly(rng, sr: LayeredSemiring, nvars, max_terms=4, tangible=False,
                exponent_span=2):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, exponent_span) for _ in range(nvars))
        layer = 1 if tangible else random_layer(rng, allow_inf=False)
        coeffs[e] = sr.scalar(random_value(rng, span=4, den=2), layer)
    return LayeredPolynomial(sr, nvars, coeffs)


def brute_grid(grid):
    """Grid points in product order, built directly as (layer, lower + k*step)."""
    layers = grid.layers or (1,) * len(grid.axes)
    axes = []
    for (lower, upper, step), layer in zip(grid.axes, layers):
        count = int((upper - lower) / step) + 1
        axes.append([LayeredScalar(layer, lower + k * step) for k in range(count)])
    return list(itertools.product(*axes))


def reference_grid_points(grid, semiring: LayeredSemiring):
    """Grid points in product order, every coordinate stepped to by repeated
    addition and validated in turn by ``semiring.scalar``, axis by axis: the
    per-coordinate reference for the closed-form ``GridSpec.check``."""
    layers = grid.layers or (1,) * len(grid.axes)
    axes = []
    for (lower, upper, step), layer in zip(grid.axes, layers):
        axis, v = [], lower
        while v <= upper:
            axis.append(semiring.scalar(v, layer))
            v += step
        axes.append(axis)
    return list(itertools.product(*axes))


def reference_monomial_value(f, exponents, point):
    """One monomial's value by the semiring's own ``mul`` and ``pow``, one
    coordinate at a time (coordinates under a zero exponent are skipped)."""
    sr = f.semiring
    term = f.coeffs[tuple(exponents)]
    for x, e in zip(point, exponents):
        if e != 0:
            term = sr.mul(term, sr.pow(x, e))
    return term


def brute_judge(f, point):
    """Everything the locus code decides about f at a point, from first principles.

    Each monomial is evaluated by direct rational arithmetic, with its layer
    raised by repeated multiplication in the flavor's table; the best value
    is an argmax (argmin in the dual view) and the evaluated layer is the
    flavor sum of the tied layers in exponent order.  Returns a dict with
    ``dominant``, ``value``, ``layer``, ``corner``, ``cluster`` and
    ``components`` (the exponents whose monomial equals the evaluation).
    Negative powers leave the layer alone: callers only ask for them at
    tangible coordinates.
    """
    sorts = f.semiring.sorts
    sign = -1 if f.semiring.descending else 1
    profile = []
    for e in sorted(f.coeffs):
        c = f.coeffs[e]
        value, layer = Fraction(c.value), c.layer
        for x, k in zip(point, e):
            value += k * x.value
            for _ in range(k):
                layer = sorts.mul(layer, x.layer)
        profile.append((e, value, layer))
    top = max(sign * v for _, v, _ in profile)
    tied = [(e, layer) for e, v, layer in profile if sign * v == top]
    total = tied[0][1]
    for _, layer in tied[1:]:
        total = sorts.add(total, layer)
    trivial = sorts.name == "trivial"
    return {
        "dominant": tuple(e for e, _ in tied),
        "value": sign * top,
        "layer": total,
        "corner": (len(tied) >= 2 if trivial else
                   all(sorts.is_ghost_sort(total, layer) for _, _, layer in profile)),
        "cluster": not trivial and len(tied) == 1 and sorts.is_ghost_sort(total, 1),
        "components": {e for e, layer in tied if layer == total},
    }


class SaturatingSorts(SortFlavor):
    """Counts that saturate past 3: layers {1, 2, 3, inf}, so 2 * 2 = inf, not 4.

    A flavor where Python's ``**`` on layers and repeated ``mul`` differ.
    """

    name = "sat3"

    def check(self, k):
        if k in (1, 2, 3, INF):
            return k
        raise DomainError(f"layer {k!r} is not in {{1, 2, 3, inf}}")

    def add(self, k, l):
        return k + l if k + l <= 3 else INF

    def mul(self, k, l):
        return k * l if k * l <= 3 else INF

    def is_ghost_sort(self, m, ell):
        return m == INF or (ell != INF and m > ell)


SATURATING = SaturatingSorts()


def reference_roundtrip(pairs, grid, seed=0):
    """The Zariski round trip with one ``variety_of`` scan per variety: the
    pairs first, then the probe family, then ``pairs[:-1]``."""
    if not pairs:
        grid.check(LayeredSemiring())
        return ZariskiReport(math.prod(grid.counts), 0, True, True, True, True, True)
    variety = variety_of(pairs, grid)
    rng = random.Random(seed)
    probes = _probe_family(pairs, rng)
    stable = set(variety_of(probes, grid).points) == set(variety.points)

    smaller = variety_of(pairs[:-1], grid) if len(pairs) >= 2 else variety
    antitone_generators = set(variety.points) <= set(smaller.points)

    antitone_points = union_law = True
    total = math.prod(grid.counts)
    sample = [grid.point(rank) for rank in rng.sample(range(total), min(6, total))]
    small = FinitePointSet.of(sample[: max(1, len(sample) // 2)])
    rest = FinitePointSet.of(sample[len(small):])
    large = small.union(rest)
    for f, g in probes:
        on_small, on_large = congruent_on(f, g, small), congruent_on(f, g, large)
        if on_large and not on_small:
            antitone_points = False
        if len(rest) and on_large != (on_small and congruent_on(f, g, rest)):
            union_law = False
    return ZariskiReport(len(variety), len(probes), False, stable, antitone_generators,
                         antitone_points, union_law)


def reference_locus_output(polynomials, grid, combined, fmt):
    """What ``laytrop locus`` prints for a parsed set and grid: one dict per
    (point, layering) pair of ``corner_locus`` or ``combined_locus``, each
    coordinate as ``str`` of its ``Fraction``, the list printed at once by
    ``json.dumps``, or written by ``csv`` under its header."""
    locus = combined_locus if combined else corner_locus
    records = [{"point": [str(c.value) for c in a],
                "layers": [format_layer(c.layer) for c in a],
                "layering": format_layer(layer)}
               for a, layer in locus(polynomials, grid, layering=True)]
    if fmt == "json":
        return json.dumps(records) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("point", "layers", "layering"))
    writer.writerows((" ".join(r["point"]), " ".join(r["layers"]), r["layering"])
                     for r in records)
    return out.getvalue()


def _reference_record(name, fields, frozen=True, **methods):
    return dataclasses.make_dataclass(name, fields, frozen=frozen, namespace=methods)


#: name -> a dataclass with the fields, defaults, frozenness and own methods of
#: the package's record class of that name.
REFERENCE_RECORDS = {cls.__name__: cls for cls in [
    _reference_record("LayeredScalar", ["layer", "value"]),
    _reference_record("GridSpec", ["axes", ("layers", object, dataclasses.field(default=None))]),
    _reference_record("PuiseuxSeries", ["terms"]),
    _reference_record("PuiseuxPolynomial", ["coeffs"]),
    _reference_record("ExplodedScalar", ["sort", "value"]),
    _reference_record("NewtonSegment", ["slope", "length"]),
    _reference_record("NewtonPolygon", ["support", "segments"]),
    _reference_record("FinitePointSet", ["points"]),
    _reference_record("CoordinateFunction", ["vector", "witness"],
                      __eq__=lambda self, other: (isinstance(other, type(self))
                                                  and self.vector == other.vector),
                      __hash__=lambda self: hash(self.vector)),
    _reference_record("ZariskiReport", ["variety_size", "probe_pairs", "diagonal", "stable",
                                        "antitone_generators", "antitone_points", "union_law"],
                      frozen=False),
    _reference_record("KapranovReport", ["f", "known_roots", "known_vals", "corner_roots",
                                         "forward_ok", "reverse_ok", "exploded_ok"], frozen=False),
    _reference_record("TrialSummary", ["trials", "failures"], frozen=False),
]}
