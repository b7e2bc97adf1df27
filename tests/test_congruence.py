"""Congruences over finite point sets, varieties, and the Zariski round trip."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from laytrop import congruence
from laytrop import (COUNTING, INF, INTEGERS, NATURALS, RATIONALS, SUPERTROPICAL,
                     TRIVIAL, DomainError, FinitePointSet, GridSpec,
                     LayeredPolynomial, LayeredScalar, LayeredSemiring, congruent_on,
                     coordinate_semiring, corner_locus, quotient_map, restrict,
                     variety_of, zariski_roundtrip)
from laytrop.parsing import parse_polynomial
from laytrop.polynomials import _agree, _lattice_lines, _lattice_row, _points, _scan

from oracles import (SATURATING, brute_grid, random_poly, reference_layered_add,
                     reference_layered_mul, reference_monomial_value, reference_probe_family,
                     reference_roundtrip, reference_value)

NAT = LayeredSemiring(COUNTING, RATIONALS)
NATURAL = LayeredSemiring(COUNTING, NATURALS)


def tangible(nvars, mapping):
    return LayeredPolynomial(NAT, nvars, {e: NAT.scalar(v) for e, v in mapping.items()})


def points(*coords):
    return FinitePointSet.of(tuple(NAT.scalar(v) for v in p) for p in coords)


def test_congruence_is_reflexive_and_detects_inessential_monomials():
    x = points((0,), (1,), (-3,))
    f = tangible(1, {(2,): 0, (1,): 0, (0,): 4})
    g = tangible(1, {(2,): 0, (0,): 4})
    assert congruent_on(f, f, x)
    assert congruent_on(f, g, x)


def test_symmetric_products_split_at_equal_coordinates():
    def build(builder):
        x, y, z = (LayeredPolynomial.variable(NAT, 3, i) for i in range(3))
        left = x.add(y).add(z).mul(x.mul(y).add(x.mul(z)).add(y.mul(z)))
        right = x.add(y).mul(x.add(z)).mul(y.add(z))
        return left, right

    left, right = build(NAT)
    with_diagonal = points((1, 1, 1), (0, 2, 5))
    assert not congruent_on(left, right, with_diagonal)
    off_diagonal = points((0, 2, 5), (-1, 0, 3))
    assert congruent_on(left, right, off_diagonal)


def test_empty_point_set_rejected():
    f = tangible(1, {(1,): 0})
    with pytest.raises(DomainError):
        congruent_on(f, f, FinitePointSet.of([]))


def test_congruence_axioms_hold_on_random_data():
    rng = random.Random(31)
    x = points((0,), (2,), (-1,))
    for _ in range(60):
        f, g, h = (random_poly(rng, NAT, 1) for _ in range(3))
        assert congruent_on(f, f, x)
        if congruent_on(f, g, x):
            assert congruent_on(g, f, x)
            if congruent_on(g, h, x):
                assert congruent_on(f, h, x)
            assert congruent_on(f.add(h), g.add(h), x)
            assert congruent_on(f.mul(h), g.mul(h), x)


def test_membership_hashes_each_point_once():
    hashes = [0]

    class Counted:
        def __init__(self, n):
            self.n = n

        def __eq__(self, other):
            return isinstance(other, Counted) and self.n == other.n

        def __hash__(self):
            hashes[0] += 1
            return hash(self.n)

    x = FinitePointSet.of((Counted(n),) for n in range(50))
    hashes[0] = 0
    assert all((Counted(n),) in x for n in range(5))
    assert (Counted(99),) not in x
    assert hashes[0] <= 50 + 6
    assert x == FinitePointSet.of((Counted(n),) for n in range(50))


def test_variety_of_forced_value():
    gens = [(LayeredPolynomial.variable(NAT, 1, 0),
             LayeredPolynomial.constant(NAT, 1, NAT.scalar(2)))]
    grid = GridSpec.uniform(-4, 4, 1, 1)
    v = variety_of(gens, grid)
    assert [p[0].value for p in v] == [2]


def test_variety_from_point_congruence_recovers_the_points():
    x = points((1, 2), (0, 0))
    grid = GridSpec.uniform(-2, 2, 1, 2)
    rng = random.Random(32)
    gens = []
    for _ in range(8):
        f, g = random_poly(rng, NAT, 2), random_poly(rng, NAT, 2)
        if congruent_on(f, g, x):
            gens.append((f, g))
    if gens:
        v = variety_of(gens, grid)
        assert all(p in v for p in x)


def test_union_congruence_is_the_conjunction():
    rng = random.Random(33)
    x = points((0,), (1,))
    y = points((-2,), (3,))
    for _ in range(60):
        f, g = random_poly(rng, NAT, 1), random_poly(rng, NAT, 1)
        assert congruent_on(f, g, x.union(y)) == \
            (congruent_on(f, g, x) and congruent_on(f, g, y))


def test_empty_generators_are_refused():
    # The diagonal variety is the whole grid: refused at once, never listed,
    # even on a row of 10**9 + 1 points; the round trip counts it instead.
    grid = GridSpec.uniform(-5, 5, Fraction(1, 10 ** 8), 1)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="empty generator list"):
        variety_of([], grid)
    assert time.perf_counter() - start < 0.1
    assert zariski_roundtrip([], grid).variety_size == 10 ** 9 + 1


def test_quotient_map_is_a_homomorphism():
    rng = random.Random(34)
    x = points((0,), (1,), (2,))
    for _ in range(40):
        f, g = random_poly(rng, NAT, 1), random_poly(rng, NAT, 1)
        assert quotient_map(f, x).add(quotient_map(g, x)) == quotient_map(f.add(g), x)
        assert quotient_map(f, x).mul(quotient_map(g, x)) == quotient_map(f.mul(g), x)
        assert (quotient_map(f, x) == quotient_map(g, x)) == congruent_on(f, g, x)


def test_coordinate_semiring_representatives():
    x = points((0,), (1,))
    f = tangible(1, {(2,): 0, (1,): 0, (0,): 4})
    g = tangible(1, {(2,): 0, (0,): 4})
    h = tangible(1, {(0,): -7})
    reps = coordinate_semiring(x, [f, g, h])
    assert len(reps) == 2  # f and g collapse to one coordinate function


def test_restriction_is_vector_projection():
    y = points((0,), (1,), (2,))
    x = points((2,), (0,))
    f = tangible(1, {(1,): 0})
    cf = quotient_map(f, y)
    projected = restrict(cf, y, x)
    assert projected.vector == (f.evaluate((NAT.scalar(2),)), f.evaluate((NAT.scalar(0),)))
    with pytest.raises(DomainError):
        restrict(cf, y, points((9,)))


def test_roundtrip_on_forced_generator():
    gens = [(LayeredPolynomial.variable(NAT, 1, 0),
             LayeredPolynomial.constant(NAT, 1, NAT.scalar(2)))]
    report = zariski_roundtrip(gens, GridSpec.uniform(-4, 4, 1, 1))
    assert report.passed and report.variety_size == 1 and not report.diagonal
    # a one-point grid leaves the union law nothing to split
    report = zariski_roundtrip(gens, GridSpec.uniform(2, 2, 1, 1))
    assert report.passed and report.variety_size == 1


def test_roundtrip_samples_ranks_of_the_listed_grid(monkeypatch):
    # The sample is what rng.sample draws from the grid listed in product
    # order, so round-trip verdicts do not depend on how points are drawn.
    gens = [(tangible(2, {(1, 0): 0, (0, 0): 1}), tangible(2, {(0, 1): 0, (0, 0): 1}))]
    grid = GridSpec(((Fraction(-2), Fraction(1), Fraction(1)),
                     (Fraction(0), Fraction(3), Fraction(1, 2))))
    rng = random.Random(5)
    reference_probe_family(gens, rng)
    expected = tuple(rng.sample(grid.points(NAT), 6))
    judged = []
    monkeypatch.setattr(congruence, "_accepted", lambda accepts, indices: judged.append(indices))
    zariski_roundtrip(gens, grid, seed=5)
    # small, then small and rest together, as lattice indices of those points
    assert tuple(tuple(map(grid.coordinate, range(2), index)) for index in judged[1]) == expected


def test_roundtrip_on_a_billion_point_row():
    # Both pairs agree only at 0, so every variety is that one point of the
    # 10**9 + 1, and the six sampled points are decoded from their ranks.
    x = LayeredPolynomial.variable(NAT, 1, 0)
    zero = LayeredPolynomial.constant(NAT, 1, NAT.one())
    gens = [(x, zero), (x.mul(x), zero)]
    grid = GridSpec.uniform(-5, 5, Fraction(1, 10 ** 8), 1)
    assert grid.counts == (10 ** 9 + 1,)
    assert variety_of(gens, grid).points == ((NAT.scalar(0),),)
    assert zariski_roundtrip(gens, grid, seed=1).to_json() == {
        "variety_size": 1, "probe_pairs": 8, "diagonal": False, "stable": True,
        "antitone_generators": True, "antitone_points": True, "union_law": True,
        "pass": True}


def test_roundtrip_on_a_billion_point_row_whose_variety_is_half_of_it():
    # x1 + 0 and x1 agree exactly where x1 > 0: 5 * 10**8 points of the
    # 10**9 + 1, which the round trip compares as kept ranges, not as points.
    f, g = (parse_polynomial(text, NAT) for text in ("x1 + 0", "x1"))
    grid = GridSpec.uniform(-5, 5, Fraction(1, 10 ** 8), 1)
    start = time.perf_counter()
    report = zariski_roundtrip([(f, f), (f, g)], grid)
    assert report.variety_size == 5 * 10 ** 8 and report.passed
    assert time.perf_counter() - start < 1


def test_stable_and_antitone_laws_compare_the_snapshots(monkeypatch):
    # Both laws hold on every real scan, so only doctored snapshots can show
    # that the round trip compares its snapshots instead of assuming the laws.
    f, g = (parse_polynomial(text, NAT) for text in ("x1 + 0", "x1"))
    pairs, grid, walk = [(f, f), (f, g)], GridSpec.uniform(-2, 2, 1, 1), congruence._walk
    assert zariski_roundtrip(pairs, grid).passed

    def doctor(change):
        monkeypatch.setattr(congruence, "_walk",
                            lambda rows, counts, cuts: change(*walk(rows, counts, cuts)))
        return zariski_roundtrip(pairs, grid)

    report = doctor(lambda smaller, variety, probed: [smaller, variety, []])
    assert not report.stable and report.antitone_generators
    # the variety is x1 > 0; cut the last point off the smaller variety
    report = doctor(lambda smaller, variety, probed: [
        [(p, lo, hi - 1, layer) for p, lo, hi, layer in smaller], variety, probed])
    assert report.stable and not report.antitone_generators


def test_congruence_refuses_a_bad_point_whatever_the_order():
    # x1 + 0 and x1 differ at (1|-1), so a judge that stopped there never saw
    # (5|0), whose layer the supertropical flavor refuses.
    sup = LayeredSemiring(SUPERTROPICAL, RATIONALS)
    f, g = (parse_polynomial(text, sup) for text in ("x1 + 0", "x1"))
    good, bad = (LayeredScalar(1, Fraction(-1)),), (LayeredScalar(5, Fraction(0)),)
    for order in ((good, bad), (bad, good)):
        with pytest.raises(DomainError, match="layer 5 is not in the supertropical flavor"):
            congruent_on(f, g, FinitePointSet.of(order))


def test_adding_generators_never_grows_the_variety():
    rng = random.Random(35)
    grid = GridSpec.uniform(-3, 3, 1, 2)
    for _ in range(20):
        gens = [(random_poly(rng, NAT, 2), random_poly(rng, NAT, 2))
                for _ in range(rng.randint(2, 3))]
        big = variety_of(gens, grid)
        small = variety_of(gens[:-1], grid)
        assert set(big.points) <= set(small.points)


def test_roundtrip_on_corner_congruence_of_a_line():
    line = tangible(2, {(1, 0): 0, (0, 1): 0, (0, 0): 0})
    grid = GridSpec.uniform(-2, 2, 1, 2)
    # pairs equating the dominant monomials cut out pieces of the corner locus
    x1 = LayeredPolynomial.variable(NAT, 2, 0)
    x2 = LayeredPolynomial.variable(NAT, 2, 1)
    gens = [(x1, x2)]
    report = zariski_roundtrip(gens, grid, seed=3)
    assert report.passed
    v = variety_of(gens, grid)
    assert all(p[0] == p[1] for p in v)
    # on the equalizer, the points where the tied pair also dominates are
    # exactly the corner roots of the line
    locus = set(corner_locus([line], grid))
    for p in v:
        assert (p in locus) == (p[0].value >= 0)


def test_roundtrip_reports_diagonal_degeneracy():
    report = zariski_roundtrip([], GridSpec.uniform(0, 1, 1, 1))
    assert report.diagonal and report.passed
    assert list(report.to_json()) == ["variety_size", "probe_pairs", "diagonal", "stable",
                                      "antitone_generators", "antitone_points", "union_law",
                                      "pass"]


def test_union_law_judges_the_rest_of_the_sample(monkeypatch):
    gens = [(LayeredPolynomial.variable(NAT, 2, 0), LayeredPolynomial.variable(NAT, 2, 1))]
    grid = GridSpec.uniform(-2, 2, 1, 2)
    assert zariski_roundtrip(gens, grid, seed=4).passed
    # a judge that reads only a set's first point breaks I(X ∪ Y) = I(X) ∧ I(Y)
    monkeypatch.setattr(congruence, "_accepted", lambda accepts, indices: accepts(indices[0]))
    assert not zariski_roundtrip(gens, grid, seed=4).union_law


def test_roundtrip_draws_probe_values_the_view_accepts():
    # Probe coefficients were drawn from -3..3 on every view, so a natural
    # view refused some seeds with "value -3 is negative".
    f, g = (parse_polynomial(text, NATURAL) for text in ("x1^2 + 1", "2*x1 + 1"))
    for seed in range(5):
        report = zariski_roundtrip([(f, g)], GridSpec.uniform(0, 4, 1, 1), seed=seed)
        assert report.passed and report.variety_size == 1


VIEWS = [NAT, LayeredSemiring(SUPERTROPICAL, RATIONALS), LayeredSemiring(TRIVIAL, RATIONALS),
         LayeredSemiring(COUNTING, INTEGERS), LayeredSemiring(SATURATING, RATIONALS), NATURAL]
VIEWS += [sr.dual() for sr in VIEWS]


def _random_view(rng):
    """(sr, laurent, nvars, value, poly): a view, a mode and an arity drawn from
    rng, with draws of a value of the view and of a polynomial of some terms."""
    sr = rng.choice(VIEWS)
    laurent = sr.values is RATIONALS and rng.random() < 0.3
    nvars = rng.randint(1, 2)
    layers = ([1] if sr.sorts is TRIVIAL else [1, INF] if sr.sorts is SUPERTROPICAL
              else [1, 1, 2, 3, INF])

    def value():
        v = Fraction(rng.randint(-4, 4), 1 if sr.values is not RATIONALS else rng.choice([1, 2, 3]))
        return abs(v) if sr.values is NATURALS else v

    def poly(terms, arity=nvars):
        return LayeredPolynomial(sr, arity, {
            tuple(rng.randint(-2 if laurent else 0, 2) for _ in range(arity)):
                sr.scalar(value(), rng.choice(layers)) for _ in range(terms)}, laurent)

    return sr, laurent, nvars, value, poly


def _roundtrip_case(rng):
    """(pairs, grid): 1-3 pairs over one view, some of them (f, f + m), now and
    then an incompatible one, on a small grid that may be refused."""
    sr, laurent, nvars, value, poly = _random_view(rng)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        f = poly(rng.randint(1, 4))
        pairs.append((f, f.add(poly(1))) if rng.random() < 0.5 else (f, poly(rng.randint(1, 4))))
    if rng.random() < 0.05:
        # wrong arity, and over another view: which mismatch is named depends on the order of checks
        other = rng.choice([view for view in VIEWS if view != sr])
        stranger = LayeredPolynomial(other, nvars + 1, {(0,) * (nvars + 1): other.one()})
        pairs.insert(rng.randrange(len(pairs) + 1), (poly(2, nvars + 1), stranger))
    axes = []
    for _ in range(nvars):
        step = Fraction(1) if rng.random() < 0.5 else Fraction(1, rng.choice([2, 3]))
        lower = Fraction(rng.randint(-1 if sr.values is NATURALS else -3, 3), rng.choice([1, 1, 2]))
        axes.append((lower, lower + step * rng.randint(0, (12, 5)[nvars - 1]), step))
    grid_layers = tuple(rng.choice([1, 1, 2, INF]) for _ in range(nvars))
    return pairs, GridSpec(tuple(axes), grid_layers)


def _brute_variety(pairs, grid, layering):
    """Grid points where every pair evaluates equally; with ``layering``, each
    with the least layer of f(a) + g(a) over the pairs."""
    sorts = pairs[0][0].semiring.sorts
    out = []
    for a in brute_grid(grid):
        values = [(f.evaluate(a), g.evaluate(a)) for f, g in pairs]
        if all(x == y for x, y in values):
            out.append((a, min(sorts.add(x.layer, y.layer) for x, y in values)) if layering else a)
    return tuple(out)


def _outcome(roundtrip, pairs, grid, seed):
    try:
        return roundtrip(pairs, grid, seed=seed).to_json()
    except DomainError as error:
        return f"DomainError: {error}"


def test_roundtrip_matches_three_separate_variety_scans():
    rng = random.Random(1515)
    seen, refused, sizes = set(), 0, set()
    for i in range(240):
        pairs, grid = _roundtrip_case(rng)
        expected = _outcome(reference_roundtrip, pairs, grid, i)
        assert _outcome(zariski_roundtrip, pairs, grid, i) == expected, (pairs, grid, i)
        if isinstance(expected, str):
            refused += 1
            continue
        sr = pairs[0][0].semiring
        seen.add((sr, pairs[0][0].laurent, max(grid.layers), len(pairs)))
        sizes.add(expected["variety_size"] > 0)
        # Each snapshot of the one walk is the scan of that prefix on its own.
        tasks = congruence._pair_tasks(reference_probe_family(pairs, random.Random(i)))
        for cuts in ((max(1, len(pairs) - 1), len(pairs), len(tasks)),
                     tuple(sorted(rng.choices(range(1, len(tasks) + 1), k=3)))):
            layering = rng.random() < 0.5
            snapshots = _scan(tasks, grid, cuts=cuts)
            assert snapshots == [_scan(tasks[:n], grid) for n in cuts], (pairs, grid, cuts)
            for n, ranges in zip(cuts, snapshots):
                # canonical: sorted, nonempty, and no two ranges of a row touch with one layer
                assert all(lo < hi for _, lo, hi, _ in ranges)
                assert all((a[0], a[2]) <= (b[0], b[1]) and (a[0], a[2], a[3]) != (b[0], b[1], b[3])
                           for a, b in zip(ranges, ranges[1:])), ranges
                if n == len(pairs):
                    assert _points(ranges, grid, layering) == _brute_variety(pairs, grid, layering)
    assert {view for view, *_ in seen} == set(VIEWS)
    assert any(laurent for _, laurent, _, _ in seen)
    assert {layer for *_, layer, _ in seen} == {1, 2, INF}
    assert {count for *_, count in seen} == {1, 2, 3}
    assert sizes == {True, False} and refused >= 20


def _judged(judge, *args):
    try:
        return judge(*args)
    except DomainError as error:
        return f"DomainError: {error}"


def _per_point_congruent_on(f, g, x):
    """``all(f.evaluate(a) == g.evaluate(a) for a in x)`` with every point
    checked first, by evaluating the constant 0 there (which checks arity and
    coordinates and no more): ``all`` alone stops at the first point where f
    and g differ, so whether a later bad point is refused would depend on order."""
    unit = LayeredPolynomial.constant(f.semiring, f.nvars, f.semiring.one())
    for a in x:
        unit.evaluate(a)
    return all(f.evaluate(a) == g.evaluate(a) for a in x)


def test_one_pass_congruence_matches_per_point_evaluation():
    rng = random.Random(1616)
    seen, verdicts = set(), []
    for _ in range(400):
        sr, laurent, nvars, value, poly = _random_view(rng)
        f = poly(rng.randint(1, 4))
        g = rng.choice([f, f.add(poly(1)), poly(rng.randint(1, 4))])
        arity = nvars + (rng.random() < 0.05)
        layers = [rng.choice([1, 1, 2, INF]) for _ in range(arity)]
        x = FinitePointSet.of(tuple(LayeredScalar(layer, value() + Fraction(rng.random() < 0.05, 2))
                                    for layer in layers) for _ in range(rng.randint(1, 4)))
        expected = _judged(_per_point_congruent_on, f, g, x)
        assert _judged(congruent_on, f, g, x) == expected, (f, g, x)
        verdicts.append(expected)
        if not isinstance(expected, str):
            seen.add((sr, laurent, max(layers)))
    assert {view for view, _, _ in seen} == set(VIEWS)
    assert any(laurent for _, laurent, _ in seen)
    assert {layer for *_, layer in seen} == {1, 2, INF}
    assert {True, False} <= set(verdicts)
    refusals = " ".join(v for v in verdicts if isinstance(v, str))
    for kind in ("is not in the", "has arity", "is not an integer", "is not invertible"):
        assert kind in refusals


def _per_point_quotient_map(f, x):
    """The evaluation vector by ``f.evaluate`` point by point, with every point
    checked first, as in ``_per_point_congruent_on``."""
    unit = LayeredPolynomial.constant(f.semiring, f.nvars, f.semiring.one())
    for a in x:
        unit.evaluate(a)
    return tuple(f.evaluate(a) for a in x)


def test_one_scale_quotient_map_matches_per_point_evaluation():
    rng = random.Random(2020)
    seen, refusals, reordered = set(), [], 0
    for _ in range(400):
        sr, laurent, nvars, value, poly = _random_view(rng)
        f = poly(rng.randint(1, 4))
        arity = nvars + (rng.random() < 0.05)
        x = FinitePointSet.of(
            tuple(LayeredScalar(rng.choice([1, 1, 2, INF]), value() + Fraction(rng.random() < 0.05, 2))
                  for _ in range(arity)) for _ in range(rng.randint(1, 4)))
        expected = _judged(_per_point_quotient_map, f, x)
        got = _judged(lambda f, x: quotient_map(f, x).vector, f, x)
        assert got == expected and repr(got) == repr(expected), (f, x)
        if isinstance(expected, str):
            refusals.append(expected)
            # Point by point with no check first, an earlier point can only
            # differ by failing in evaluation, when a negative power meets a
            # non-unit layer; the refusal names the first point the check fails.
            plain = _judged(lambda f, x: tuple(f.evaluate(a) for a in x), f, x)
            if plain != expected:
                assert "is not invertible" in plain, (f, x)
                reordered += 1
        else:
            seen.add((sr, laurent))
    assert {view for view, _ in seen} == set(VIEWS) and any(laurent for _, laurent in seen)
    for kind in ("is not in the", "has arity", "is not an integer", "is not invertible"):
        assert kind in " ".join(refusals)
    assert 0 < reordered < len(refusals) // 4
    with pytest.raises(DomainError, match="coordinate functions need a non-empty point set"):
        quotient_map(tangible(1, {(1,): 0}), FinitePointSet.of([]))


def test_round_trip_comparison_matches_the_checked_congruence():
    # congruent_on's one-scale comparison, unchecked as ``_congruent``, must
    # agree with evaluation point by point on every point set the round trip
    # can draw (its own lattice judge is compared in the lattice tests below).
    rng = random.Random(1919)
    compared = set()
    for i in range(120):
        pairs, grid = _roundtrip_case(rng)
        try:
            zariski_roundtrip(pairs, grid, seed=i)
        except DomainError:
            continue
        total = math.prod(grid.counts)
        sample = [grid.point(rank) for rank in rng.sample(range(total), min(6, total))]
        # every prefix and suffix, so a verdict can turn on any one point
        sets = [FinitePointSet.of(part) for cut in range(len(sample))
                for part in (sample[:cut + 1], sample[cut:])]
        for f, g in reference_probe_family(pairs, random.Random(i)):
            for x in sets:
                verdict = _per_point_congruent_on(f, g, x)
                assert congruence._congruent(f, g, x) == congruent_on(f, g, x) == verdict, (f, g, x)
                compared.add(verdict)
    assert compared == {True, False}


def _reference_setup(probes, grid):
    """What setting up the probes' lattice forms must refuse, in order: mixed
    views or arities, a grid the view refuses, a grid of another arity, then
    the first monomial, in task and support order, that the reference
    monomial value refuses at the grid's first point."""
    polynomials = [f for pair in probes for f in pair]
    for f in polynomials[1:]:
        polynomials[0]._compatible(f)
    grid.check(polynomials[0].semiring)
    origin = brute_grid(grid)[0]
    for f in polynomials:
        f._check_point(origin)
        for e in f.coeffs:
            reference_monomial_value(f, e, origin)


def test_lattice_judge_matches_congruent_on_at_decoded_points():
    # The round trip judges lattice indices through each probe's lattice form;
    # on random ranks of random grids, each verdict must be congruent_on's at
    # the decoded point, and the reference monomial values' comparison.
    rng = random.Random(3030)
    seen, verdicts, refusals = set(), set(), []
    for i in range(240):
        pairs, grid = _roundtrip_case(rng)
        if rng.random() < 0.05:  # one axis too many
            grid = GridSpec(grid.axes + grid.axes[:1], grid.layers + grid.layers[:1])
        try:
            probes = reference_probe_family(pairs, random.Random(i))
        except DomainError:
            probes = pairs  # pairs of mixed arity or view: the setup must refuse them
        expected = _judged(_reference_setup, probes, grid)
        try:
            forms = congruence._lattice(congruence._pair_tasks(probes), grid)
        except DomainError as error:
            # refused while the forms are set up, before any row is walked
            assert isinstance(expected, str) and f"DomainError: {error}" == expected, (pairs, grid)
            refusals.append(expected)
            continue
        assert expected is None, (pairs, grid, expected)
        listed, total = brute_grid(grid), math.prod(grid.counts)
        ranks = rng.sample(range(total), min(6, total))
        for (f, g), (_, accepts) in zip(probes, forms):
            for rank in ranks:
                point, index = listed[rank], grid.index(rank)
                verdict = accepts(index)
                assert verdict == congruent_on(f, g, FinitePointSet.of([point])) \
                    == (reference_value(f, point) == reference_value(g, point)), (f, g, point)
                verdicts.add(verdict)
            for cut in range(1, len(ranks) + 1):
                for part in (ranks[:cut], ranks[cut - 1:]):
                    x = FinitePointSet.of(listed[r] for r in part)
                    assert congruence._accepted(accepts, [grid.index(r) for r in part]) \
                        == congruent_on(f, g, x), (f, g, x)
        sr = pairs[0][0].semiring
        seen.add((sr, pairs[0][0].laurent, max(grid.layers),
                  any(step.denominator > 1 for _, _, step in grid.axes)))
    assert {view for view, *_ in seen} == set(VIEWS)
    assert any(laurent for _, laurent, *_ in seen)
    assert {layer for *_, layer, _ in seen} == {1, 2, INF}
    assert {fractional for *_, fractional in seen} == {True, False}
    assert verdicts == {True, False}
    for kind in ("is not in the", "is not invertible", "differ in arity", "has arity"):
        assert kind in " ".join(refusals), kind


def test_lattice_forms_refuse_a_ghost_layer_to_a_negative_power_before_any_row(monkeypatch):
    # x1^-1 at a grid layer of 2 or inf: the forms' setup raises the text of
    # the layer's power, whatever the pair's order, and no row is walked.
    f = parse_polynomial("x1^-1 + 0", NAT, laurent=True)
    g = parse_polynomial("x1 + 0", NAT, laurent=True)
    walked = []
    monkeypatch.setattr(congruence, "_walk", lambda *args: walked.append(args))
    for layer in (2, INF):
        grid = GridSpec.uniform(-2, 2, Fraction(1, 2), 1, layer)
        for pairs in ([(f, g)], [(g, f)], [(g, g), (f, f)]):
            text = f"layer {'inf' if layer == INF else layer} is not invertible"
            assert _judged(_reference_setup, pairs, grid) == f"DomainError: {text}"
            with pytest.raises(DomainError, match=text):
                congruence._lattice(congruence._pair_tasks(pairs), grid)
            with pytest.raises(DomainError, match=text):
                zariski_roundtrip(pairs, grid)
    assert walked == []


def _probe_setup(make, pairs, grid, seed):
    """(lines of each probe side, axes, each probe's rows at every prefix and
    verdicts at every lattice index), or the DomainError text: the probe pairs
    ``make(pairs, grid, rng)`` gives, each set up by ``_lattice_row``."""
    try:
        probes, axes = make(pairs, grid, random.Random(seed))
        sorts = pairs[0][0].semiring.sorts
        forms = [_lattice_row(f + g, axes, sorts, functools.partial(_agree, len(f)))
                 for f, g in probes]
    except DomainError as error:
        return f"DomainError: {error}"
    prefixes = list(itertools.product(*map(range, grid.counts[:-1])))
    indices = list(itertools.product(*map(range, grid.counts)))
    return probes, axes, [([row(p) for p in prefixes], [accepts(k) for k in indices])
                          for row, accepts in forms]


def _reference_probes(pairs, grid, rng):
    """The oracle's add/mul probes, after the round trip's check of the pairs'
    views and arities, each side lifted by the polynomials' lattice setup."""
    sides = [f for pair in pairs for f in pair]
    for f in sides[1:]:
        sides[0]._compatible(f)
    polynomials = [f for pair in reference_probe_family(pairs, rng) for f in pair]
    lines, axes = _lattice_lines(polynomials, grid)
    return list(zip(lines[::2], lines[1::2])), axes


def _collisions(pairs, rng):
    """Whether some derived probe merged monomials of equal, and of unequal,
    values: the oracle's products and sums before ``_fill`` merges them."""
    seen = set()
    hs = [congruence._random_poly(rng, f) for f, _ in pairs]
    factors = [(a, b) for (f, g), h in zip(pairs, hs) for a, b in ((f, h), (g, h))]
    factors += [(a, b) for (f1, g1), (f2, g2) in zip(pairs, pairs[1:]) for a, b in ((f1, f2), (g1, g2))]
    for a, b in factors:
        terms = [*a.coeffs.items(), *b.coeffs.items()]
        for items in ([(e, c.value) for e, c in terms],
                      [(tuple(map(sum, zip(e1, e2))), c1.value + c2.value)
                       for e1, c1 in a.coeffs.items() for e2, c2 in b.coeffs.items()]):
            values = {}
            for e, v in items:
                values.setdefault(e, []).append(v)
            for group in values.values():
                seen.update("equal" if x == y else "unequal"
                            for x, y in itertools.combinations(group, 2))
    return seen


def test_probe_lines_match_the_polynomial_probes_lattice_setup():
    # The round trip forms its probes on the generators' int lines.  Each must
    # have what the oracle's add/mul probe, set up as a polynomial, has: the
    # same exponents, ints and coefficient layers in support order, f's count
    # as the split, the same axes (so the same starts and slopes), and the same
    # folded layers, hence rows and verdicts; or the same refusal, in order.
    rng = random.Random(4040)
    seen, refusals, collisions = set(), [], set()
    for i in range(240):
        pairs, grid = _roundtrip_case(rng)
        expected = _probe_setup(_reference_probes, pairs, grid, i)
        assert _probe_setup(congruence._probe_lines, pairs, grid, i) == expected, (pairs, grid, i)
        if isinstance(expected, str):
            refusals.append(expected)
            continue
        sr = pairs[0][0].semiring
        seen.add((sr, pairs[0][0].laurent, max(grid.layers)))
        collisions |= _collisions(pairs, random.Random(i))
    assert {view for view, *_ in seen} == set(VIEWS)
    assert any(laurent for _, laurent, _ in seen)
    assert {layer for *_, layer in seen} == {1, 2, INF}
    assert collisions == {"equal", "unequal"}
    for kind in ("is not invertible", "differ in arity", "different semiring views", "is not in the"):
        assert kind in " ".join(refusals), kind


def test_unchecked_add_and_mul_match_the_checked_references():
    rng = random.Random(1717)
    seen = set()
    for _ in range(300):
        sr, laurent, nvars, value, poly = _random_view(rng)
        f, g = poly(rng.randint(1, 4)), poly(rng.randint(1, 4))
        merged = LayeredPolynomial(sr, nvars, [*f.coeffs.items(), *g.coeffs.items()], laurent)
        for got, expected in ((f.add(g), reference_layered_add(f, g)), (f.add(g), merged),
                              (f.mul(g), reference_layered_mul(f, g))):
            assert got == expected and list(got.coeffs) == list(expected.coeffs), (f, g)
        seen.add((sr, laurent))
    assert {view for view, _ in seen} == set(VIEWS) and any(laurent for _, laurent in seen)
    other = LayeredPolynomial.constant(NAT.dual(), 1, NAT.one())
    for op in (LayeredPolynomial.add, LayeredPolynomial.mul):
        with pytest.raises(DomainError, match="polynomials live over different semiring views"):
            op(tangible(1, {(1,): 0}), other)
