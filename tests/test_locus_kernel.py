"""The lattice grid scan and the per-point kernel against a brute-force oracle.

Every locus, variety and predicate here is recomputed by
``oracles.brute_judge``, which evaluates monomials directly and never calls
laytrop's predicates; functional equality is checked against the pointwise
reference ``oracles.pointwise_functionally_equal``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from laytrop import (COUNTING, INF, INTEGERS, NATURALS, RATIONALS, SUPERTROPICAL,
                     TRIVIAL, DomainError, GridSpec, LayeredPolynomial,
                     LayeredScalar, LayeredSemiring, combined_locus, component,
                     corner_locus, essential_monomials, functionally_equal,
                     layering_map_set, principal_open, univariate_corner_roots,
                     variety_of)
from laytrop.polynomials import _difference, _points, _scan

from oracles import (SATURATING, brute_grid, brute_judge, fm_essential,
                     pointwise_functionally_equal, reference_grid_points)

NAT = LayeredSemiring(COUNTING, RATIONALS)
SUP = LayeredSemiring(SUPERTROPICAL, RATIONALS)
TRIV = LayeredSemiring(TRIVIAL, RATIONALS)
NAT_INT = LayeredSemiring(COUNTING, INTEGERS)
SAT = LayeredSemiring(SATURATING, RATIONALS)

SEMIRINGS = [NAT, SUP, TRIV, NAT.dual(), SUP.dual(), TRIV.dual(), NAT_INT, SAT]
STEPS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)]


def assert_matches_oracle(polynomials, grid):
    points = brute_grid(grid)
    judged = {a: [brute_judge(f, a) for f in polynomials] for a in points}

    def where(test):
        return tuple(a for a in points if all(test(j) for j in judged[a]))

    assert corner_locus(polynomials, grid) == where(lambda j: j["corner"])
    assert combined_locus(polynomials, grid) == where(lambda j: j["corner"] or j["cluster"])
    for i, f in enumerate(polynomials):
        assert principal_open(f, grid) == tuple(a for a in points if not judged[a][i]["corner"])
        for e in f.coeffs:
            expected = tuple(a for a in points if e in judged[a][i]["components"])
            assert component(f, e, grid) == expected
        for a in points[::5]:
            j = judged[a][i]
            assert f.dominant_part(a) == j["dominant"]
            assert f.evaluate(a) == LayeredScalar(j["layer"], j["value"])
            assert f.layering(a) == j["layer"]
            assert f.is_corner_root(a) == j["corner"]
            assert f.is_cluster_root(a) == j["cluster"]
    # Pairs of every kind: neighbours (sides with their own denominators and
    # monomial counts), the identity pair of a lone polynomial, and f against
    # f + g, which agree where g stays strictly below f.
    n = len(polynomials)
    sides = polynomials + [f.add(polynomials[(i + 1) % n]) for i, f in enumerate(polynomials)]
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    agree = {}
    for a in points:
        scalars = [(j["value"], j["layer"])
                   for j in judged[a] + [brute_judge(h, a) for h in sides[n:]]]
        agree[a] = [scalars[i] == scalars[k] for i, k in pairs]
    generators = [(sides[i], sides[k]) for i, k in pairs]
    assert variety_of(generators, grid).points == tuple(a for a in points if all(agree[a]))
    for m, pair in enumerate(generators):
        assert variety_of([pair], grid).points == tuple(a for a in points if agree[a][m])


def _random_layer(rng, sr):
    if sr.sorts is TRIVIAL:
        return 1
    return rng.choice([1, 1, 2, 3, INF] if sr.sorts is not SUPERTROPICAL else [1, 1, INF])


def _random_value(rng, sr):
    den = 1 if sr.values is INTEGERS else rng.choice([1, 2, 3])
    return Fraction(rng.randint(-6, 6), den)


def _random_case(rng):
    sr = rng.choice(SEMIRINGS)
    nvars = rng.randint(1, 3)
    laurent = sr.values is not INTEGERS and rng.random() < 0.3
    low = -2 if laurent else 0
    polynomials = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(low, 3) for _ in range(nvars))
            coeffs[e] = sr.scalar(_random_value(rng, sr), _random_layer(rng, sr))
        polynomials.append(LayeredPolynomial(sr, nvars, coeffs, laurent))
    side = {1: 24, 2: 8, 3: 4}[nvars]
    axes, layers = [], []
    for _ in range(nvars):
        step = Fraction(1) if sr.values is INTEGERS else rng.choice(STEPS)
        lower = _random_value(rng, sr) / 2 if sr.values is not INTEGERS else _random_value(rng, sr)
        axes.append((lower, lower + step * rng.randint(0, side), step))
        layers.append(1 if laurent or rng.random() < 0.6 else rng.choice([1, 2, INF]))
    return polynomials, GridSpec(tuple(axes), tuple(layers))


def _layer_allowed(sr, layer):
    try:
        sr.sorts.check(layer)
    except DomainError:
        return False
    return True


def test_kernel_matches_brute_force_on_random_polynomials():
    rng = random.Random(2024)
    checked = refused = 0
    views = set()
    for _ in range(160):
        polynomials, grid = _random_case(rng)
        if not all(_layer_allowed(polynomials[0].semiring, layer) for layer in grid.layers):
            with pytest.raises(DomainError):
                corner_locus(polynomials, grid)
            with pytest.raises(DomainError):
                variety_of([(f, f) for f in polynomials], grid)
            refused += 1
            continue
        assert_matches_oracle(polynomials, grid)
        views.add(polynomials[0].semiring)
        checked += 1
    assert checked >= 100 and refused >= 5 and len(views) == len(SEMIRINGS)


def test_tropical_plane_matches_oracle():
    f = LayeredPolynomial(NAT, 2, {(1, 0): NAT.one(), (0, 1): NAT.one(), (0, 0): NAT.one()})
    assert_matches_oracle([f], GridSpec.uniform(-3, 3, 1, 2))


def test_laurent_and_dual_views_match_oracle():
    for sr in (NAT, NAT.dual(), SUP.dual()):
        ghost = sr.e(INF if sr.sorts is SUPERTROPICAL else 2)
        f = LayeredPolynomial(sr, 2, {(-1, 0): sr.scalar(1), (0, 1): ghost,
                                      (1, -2): sr.scalar(Fraction(1, 3)), (0, 0): sr.scalar(0)},
                              laurent=True)
        g = LayeredPolynomial(sr, 2, {(1, 1): sr.scalar(0), (0, 0): sr.scalar(-1)}, laurent=True)
        grid = GridSpec.uniform(Fraction(-3, 2), Fraction(3, 2), Fraction(1, 7), 2)
        assert_matches_oracle([f, g], grid)


def test_saturating_layers_on_a_layered_grid_match_oracle():
    f = LayeredPolynomial(SAT, 2, {(2, 0): SAT.one(), (0, 1): SAT.scalar(1), (0, 0): SAT.scalar(2)})
    grid = GridSpec(((Fraction(-2), Fraction(2), Fraction(1, 3)),) * 2, (2, 1))
    assert_matches_oracle([f], grid)


@pytest.mark.parametrize("scan", [
    lambda fs, grid: corner_locus(fs, grid),
    lambda fs, grid: combined_locus(fs, grid),
    lambda fs, grid: principal_open(fs[-1], grid),
    lambda fs, grid: component(fs[-1], next(iter(fs[-1].coeffs)), grid),
    lambda fs, grid: variety_of([(f, f.add(f)) for f in fs], grid),
], ids=["corner", "combined", "principal_open", "component", "variety"])
def test_invalid_grids_are_refused(scan):
    one = NAT.one()
    inverse = LayeredPolynomial(NAT, 1, {(-1,): one, (0,): one}, laurent=True)
    never_corner = LayeredPolynomial(NAT, 1, {(0,): one}, laurent=True)
    with pytest.raises(DomainError):  # negative exponent on a layered coordinate
        scan([inverse], GridSpec.uniform(-1, 1, 1, 1, layer=2))
    with pytest.raises(DomainError):  # refused even after a member with no corners
        scan([never_corner, inverse], GridSpec.uniform(-1, 1, 1, 1, layer=INF))
    integral = LayeredPolynomial(NAT_INT, 1, {(1,): NAT_INT.one(), (0,): NAT_INT.one()})
    with pytest.raises(DomainError):  # fractional grid over integer values
        scan([integral], GridSpec.uniform(-1, 1, Fraction(1, 2), 1))
    for sr, layer in ((SUP, 2), (TRIV, INF), (SAT, 4)):
        f = LayeredPolynomial(sr, 1, {(1,): sr.one(), (0,): sr.one()})
        with pytest.raises(DomainError):  # grid layer outside the flavor
            scan([f], GridSpec.uniform(-1, 1, 1, 1, layer=layer))
    with pytest.raises(DomainError):  # grid arity differs from the polynomial's
        scan([integral], GridSpec.uniform(-1, 1, 1, 2))


def test_univariate_roots_and_essentials_follow_the_view():
    # Roots are the ties of at least two dominant monomials, with the exponent
    # spread as multiplicity; in one variable the essential monomials are the
    # sole winners between consecutive ties and beyond the outermost ones.
    rng = random.Random(41)
    for i in range(320):
        sr = SEMIRINGS[i % len(SEMIRINGS)]
        coeffs = {(rng.randint(-2, 5),): sr.scalar(_random_value(rng, sr), _random_layer(rng, sr))
                  for _ in range(rng.randint(1, 6))}
        f = LayeredPolynomial(sr, 1, coeffs, laurent=True)
        data = [(e, c.value) for (e,), c in f.coeffs.items()]
        ties = sorted({Fraction(c1 - c2, e2 - e1)
                       for (e1, c1), (e2, c2) in itertools.combinations(data, 2)})
        between = [(x + y) / 2 for x, y in zip(ties, ties[1:])]
        outside = [ties[0] - 1, ties[-1] + 1] if ties else [Fraction(0)]
        judged = {x: brute_judge(f, (LayeredScalar(1, x),))["dominant"]
                  for x in ties + between + outside}
        roots = tuple((x, judged[x][-1][0] - judged[x][0][0]) for x in ties if len(judged[x]) > 1)
        essential = tuple(sorted({d[0] for d in judged.values() if len(d) == 1}))
        assert univariate_corner_roots(f) == roots, f
        assert essential_monomials(f) == fm_essential(f) == essential, f


def _rational(f):
    """f over the view with the same layers and rational values."""
    sr = LayeredSemiring(f.semiring.sorts, RATIONALS, f.semiring.descending)
    return LayeredPolynomial(sr, f.nvars, f.coeffs, f.laurent)


def test_functional_equality_matches_pointwise_oracle():
    rng = random.Random(42)
    outcomes = []
    for i in range(80):
        sr = SEMIRINGS[i // 5 % len(SEMIRINGS)]  # each view meets all five kinds of g
        integer = sr.values is INTEGERS
        nvars = rng.randint(2, 3)
        laurent = rng.random() < 0.3
        low = -1 if laurent else 0
        mid = tuple(rng.randint(low + 1, 2) for _ in range(nvars))
        d = (1,) + tuple(rng.randint(-1, 1) for _ in range(nvars - 1))
        a = tuple(x - y for x, y in zip(mid, d))
        b = tuple(x + y for x, y in zip(mid, d))
        coeffs = {e: sr.scalar(_random_value(rng, sr)) for e in (a, b)}
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(low, 3) for _ in range(nvars))
            if e != mid:
                coeffs[e] = sr.scalar(_random_value(rng, sr), _random_layer(rng, sr))
        f = LayeredPolynomial(sr, nvars, coeffs, laurent)
        kind = i % 5
        if kind == 2:
            g = LayeredPolynomial(sr, nvars, {e: sr.scalar(_random_value(rng, sr))
                                              for e in (a, b, mid)}, laurent)
        elif kind == 3:
            # f plus some of its own monomials with new layers.
            relayered = {e: sr.scalar(c.value, _random_layer(rng, sr))
                         for e, c in coeffs.items() if rng.random() < 0.5}
            g = f.add(LayeredPolynomial(sr, nvars, relayered or {a: coeffs[a]}, laurent))
        elif kind == 4:
            g = LayeredPolynomial(sr, nvars, dict(coeffs), laurent)
        else:
            # A monomial on the chord of a and b ties them on their hyperplane;
            # one strictly behind the chord is inessential, so f + it == f.
            # Integer views round behind the chord when it is off the lattice.
            sign = -1 if sr.descending else 1
            chord = (coeffs[a].value + coeffs[b].value) / 2 - sign * Fraction(kind, 2)
            if integer:
                chord = sign * math.floor(sign * chord)
            g = f.add(LayeredPolynomial(sr, nvars, {mid: sr.scalar(chord)}, laurent))
        equal = functionally_equal(f, g)
        witness = _difference(f, g)
        assert equal == (witness is None), (f, g)
        # An integer view compares its rational extension.
        f_q, g_q = _rational(f), _rational(g)
        if equal:
            side = 5 if nvars == 2 else 3
            step = rng.choice(STEPS)
            lower = _random_value(rng, sr) / 2
            grid = GridSpec.uniform(lower, lower + side * step, step, nvars)
            assert pointwise_functionally_equal(f_q, g_q, grid), (f, g, grid)
        else:
            point = tuple(LayeredScalar(1, x) for x in witness)
            assert f_q.evaluate(point) != g_q.evaluate(point), (f, g, witness)
        outcomes.append(equal)
    assert 20 <= sum(outcomes) <= 60


def test_integer_views_compare_their_rational_extension():
    # x1*x2 lifts into the triangle of f's three monomials, so it ties only
    # where all four do, at (1/2, 1/2): f and g agree at every integer point.
    f = LayeredPolynomial(NAT_INT, 2, {(4, 0): NAT_INT.scalar(-2), (0, 4): NAT_INT.scalar(-2),
                                       (0, 0): NAT_INT.one()})
    g = f.add(LayeredPolynomial(NAT_INT, 2, {(1, 1): NAT_INT.scalar(-1)}))
    assert all(f.evaluate(a) == g.evaluate(a) for a in GridSpec.uniform(-3, 3, 1, 2).points(NAT_INT))
    assert not functionally_equal(f, g) and functionally_equal(f, f)
    assert _difference(f, g) == (Fraction(1, 2), Fraction(1, 2))
    point = (LayeredScalar(1, Fraction(1, 2)),) * 2
    assert _rational(f).evaluate(point) != _rational(g).evaluate(point)


# ---------------------------------------------------------------------------
# The envelope walk: rows judged breakpoint to breakpoint


def assert_variety_matches_evaluate(pairs, grid):
    points = brute_grid(grid)
    expected = tuple(a for a in points if all(f.evaluate(a) == g.evaluate(a) for f, g in pairs))
    assert variety_of(pairs, grid).points == expected


def _walk_case(rng):
    """Rows long enough to cross several breakpoints, with steep monomials."""
    sr = rng.choice(SEMIRINGS)
    nvars = rng.randint(1, 2)
    laurent = sr.values is not INTEGERS and rng.random() < 0.3
    low = -3 if laurent else 0
    polynomials = []
    for _ in range(rng.randint(2, 3)):
        coeffs = {}
        for _ in range(rng.randint(2, 8)):
            e = tuple(rng.randint(low, 5) for _ in range(nvars))
            coeffs[e] = sr.scalar(_random_value(rng, sr), _random_layer(rng, sr))
        polynomials.append(LayeredPolynomial(sr, nvars, coeffs, laurent))
    allowed = [1] if sr.sorts is TRIVIAL else [1, INF] if sr.sorts is SUPERTROPICAL else [1, 2, INF]
    axes, layers = [], []
    for length in ((120,), (10, 40))[nvars - 1]:
        step = Fraction(1) if sr.values is INTEGERS else rng.choice(STEPS)
        lower = _random_value(rng, sr)
        axes.append((lower, lower + step * rng.randint(0, length), step))
        layers.append(1 if laurent else rng.choice(allowed))
    return polynomials, GridSpec(tuple(axes), tuple(layers))


def test_envelope_walk_matches_brute_force_on_long_rows():
    rng = random.Random(909)
    seen = set()
    for _ in range(40):
        polynomials, grid = _walk_case(rng)
        assert_matches_oracle(polynomials, grid)
        f, g, *rest = polynomials
        # A pair sharing f's monomials puts identical lines on both sides.
        pairs = [(f, g), (f, f.add(g)), *((h, h.add(f)) for h in rest)]
        assert_variety_matches_evaluate(pairs, grid)
        for pair in pairs:
            assert_variety_matches_evaluate([pair], grid)
        seen.add((f.semiring, f.laurent, grid.layers[-1], len(polynomials)))
    assert len({s[0] for s in seen}) == len(SEMIRINGS)
    assert {s[2] for s in seen} == {1, 2, INF} and {s[3] for s in seen} == {2, 3}
    assert any(s[1] for s in seen)


def _tangible(sr, nvars, mapping):
    return LayeredPolynomial(sr, nvars, {e: sr.scalar(Fraction(v)) for e, v in mapping.items()})


def test_a_long_row_with_breakpoints_on_and_off_the_lattice():
    # Breakpoints at -1 (a lattice point) and 1/2 (between two, 997 being
    # odd); the dual view negates both.
    for sr in (NAT, NAT.dual()):
        sign = -1 if sr.descending else 1
        f = _tangible(sr, 1, {(3,): sign * Fraction(-1, 2), (2,): 0, (0,): sign * -2})
        assert univariate_corner_roots(f) == tuple(sorted([(sign * Fraction(-1), 2),
                                                           (sign * Fraction(1, 2), 1)]))
        grid = GridSpec.uniform(-2, 2, Fraction(1, 997), 1)
        assert corner_locus([f], grid) == ((sr.scalar(sign * -1),),)
        assert_matches_oracle([f, _tangible(sr, 1, {(1,): 0, (0,): Fraction(1, 3)})], grid)


def assert_scan_layering_matches_evaluation(polynomials, grid):
    """Each locus with ``layering=True`` gives the plain call's points, in
    order, each with ``layering_map_set`` (and the brute-force minimum) there;
    returns the located pairs of both loci."""
    located = []
    for locus in (corner_locus, combined_locus):
        pairs = locus(polynomials, grid, layering=True)
        assert tuple(a for a, _ in pairs) == locus(polynomials, grid)
        for a, layer in pairs:
            assert layer == layering_map_set(polynomials, a), (polynomials, grid, a)
            assert layer == min(brute_judge(f, a)["layer"] for f in polynomials)
        located += pairs
    return located


def test_scan_layering_matches_layering_map_set():
    rng = random.Random(5150)
    cases, layers, refused = set(), set(), 0
    for i in range(160):
        polynomials, grid = (_walk_case if i % 2 else _random_case)(rng)
        if not all(_layer_allowed(polynomials[0].semiring, layer) for layer in grid.layers):
            for locus in (corner_locus, combined_locus):
                with pytest.raises(DomainError):
                    locus(polynomials, grid, layering=True)
            refused += 1
            continue
        located = assert_scan_layering_matches_evaluation(polynomials, grid)
        cases.add((polynomials[0].semiring, polynomials[0].laurent, max(grid.layers),
                   len(polynomials) > 1, bool(located)))
        layers.update(layer for _, layer in located)
    assert {c[0] for c in cases} == set(SEMIRINGS) and refused >= 3
    found = [c[1:4] for c in cases if c[4]]   # (laurent, grid layer, several) of nonempty loci
    assert any(laurent for laurent, _, _ in found)
    assert {layer for _, layer, _ in found} >= {1, 2, INF}
    assert any(several for _, _, several in found)
    assert layers >= {2, 3, INF}


def test_scan_layering_on_long_rows_with_off_lattice_breakpoints():
    # As in the row above: breakpoints at -1 (on the lattice) and 1/2 (off
    # it, 97 being odd); ghost coefficients and grid layers give the kept
    # points layers other than 1.
    for sr in (NAT, NAT.dual(), SUP, SUP.dual(), TRIV, TRIV.dual(), SAT):
        sign = -1 if sr.descending else 1
        ghost = 1 if sr.sorts is TRIVIAL else INF if sr.sorts is SUPERTROPICAL else 2
        f = LayeredPolynomial(sr, 1, {(3,): sr.scalar(sign * Fraction(-1, 2), ghost),
                                      (2,): sr.scalar(0), (0,): sr.scalar(sign * -2, ghost)})
        g = _tangible(sr, 1, {(1,): 0, (0,): Fraction(1, 3)})
        for layer in {1, ghost}:
            grid = GridSpec.uniform(-2, 2, Fraction(1, 97), 1, layer=layer)
            assert assert_scan_layering_matches_evaluation([f], grid)
            assert_scan_layering_matches_evaluation([f, g], grid)
            assert_scan_layering_matches_evaluation([f, f.add(g)], grid)


def test_ties_of_three_and_four_lines_at_one_breakpoint():
    for sr in (NAT, SUP.dual(), TRIV):
        cubic = _tangible(sr, 1, {(3,): 0, (2,): 0, (1,): 0, (0,): 0})
        assert corner_locus([cubic], GridSpec.uniform(-2, 2, Fraction(1, 3), 1)) == ((sr.scalar(0),),)
        plane = _tangible(sr, 2, {(1, 0): 0, (0, 1): 0, (0, 0): 0, (1, 1): -5})
        assert_matches_oracle([cubic.add(_tangible(sr, 1, {(0,): 1})), cubic],
                              GridSpec.uniform(-2, 2, Fraction(1, 3), 1))
        assert_matches_oracle([plane], GridSpec.uniform(-2, 2, Fraction(1, 2), 2))


def test_breakpoint_strictly_between_lattice_points():
    f = _tangible(NAT, 1, {(1,): 0, (0,): Fraction(1, 2)})
    grid = GridSpec.uniform(-3, 3, 1, 1)
    assert corner_locus([f], grid) == ()
    assert principal_open(f, grid) == tuple(brute_grid(grid))
    assert [a[0].value for a in component(f, (1,), grid)] == [1, 2, 3]
    assert [a[0].value for a in component(f, (0,), grid)] == [-3, -2, -1, 0]
    assert_matches_oracle([f], grid)


def test_parallel_and_zero_slope_lines():
    # Along x2, x1*x2 and x2 are parallel; x1^2 and 3 have slope zero.
    f = _tangible(NAT, 2, {(1, 1): 0, (0, 1): 1, (2, 0): 0, (0, 0): 3})
    g = _tangible(NAT, 2, {(1, 0): 0, (0, 0): 1})
    grid = GridSpec.uniform(-4, 4, Fraction(1, 2), 2)
    assert_matches_oracle([f, g], grid)
    # Parallel lines on the two sides of a pair never meet: x1 and 1*x1,
    # each above its constant -10 on the whole grid.
    h = _tangible(NAT, 1, {(1,): 0, (0,): -10})
    shifted = _tangible(NAT, 1, {(1,): 1, (0,): -10})
    line = GridSpec.uniform(-3, 3, Fraction(1, 3), 1)
    assert variety_of([(h, shifted)], line).points == ()
    assert_variety_matches_evaluate([(h, shifted), (h, h.add(_tangible(NAT, 1, {(0,): 0})))], line)


def test_identical_lines_of_a_pair_share_one_lane():
    # x1 is a monomial of both sides, so they agree wherever it dominates.
    for sr in (NAT, NAT.dual(), SUP, TRIV):
        sign = -1 if sr.descending else 1
        f = _tangible(sr, 1, {(1,): 0, (0,): 0})
        g = _tangible(sr, 1, {(1,): 0, (0,): sign * -5})
        grid = GridSpec.uniform(-8, 8, Fraction(1, 4), 1)
        expected = tuple(a for a in brute_grid(grid) if sign * a[0].value > 0
                         or (sr.sorts is TRIVIAL and sign * a[0].value == 0))
        assert variety_of([(f, g)], grid).points == expected
        assert_variety_matches_evaluate([(f, g), (g, f.add(g))], grid)


def test_a_row_stops_at_the_first_task_that_keeps_nothing():
    def refuse(*args):
        raise AssertionError("judged after the running intersection was empty")

    f = _tangible(NAT, 2, {(1, 0): 0, (0, 1): 0, (0, 0): 0})
    grid = GridSpec.uniform(-2, 2, Fraction(1, 2), 2)
    nothing, everything = ([f], lambda *args: False), ([f], lambda *args: True)
    assert _scan([nothing, ([f], refuse)], grid) == []
    full, *empty = _scan([everything, nothing, ([f], refuse)], grid, cuts=(1, 2, 3))
    assert _points(full, grid) == tuple(brute_grid(grid)) and empty == [[], []]
    # The first polynomial has no corner root on the grid: its root is at 0.
    g = _tangible(NAT, 1, {(1,): 0, (0,): 0})
    h = _tangible(NAT, 1, {(2,): 0, (1,): 2, (0,): 4})
    line = GridSpec.uniform(1, 6, Fraction(1, 3), 1)
    assert corner_locus([g], line) == () and corner_locus([h], line) != ()
    assert corner_locus([g, h], line) == combined_locus([g, h], line, layering=True) == ()
    assert_matches_oracle([g, h], line)


def test_one_point_rows():
    f = _tangible(NAT, 2, {(1, 0): 0, (0, 1): 0, (0, 0): 0})
    for axes in (((-1, 1, 1), (0, 0, 1)), ((0, 0, 1), (-2, 2, Fraction(1, 2))), ((0, 0, 1),) * 2):
        grid = GridSpec(tuple(tuple(map(Fraction, axis)) for axis in axes))
        assert_matches_oracle([f, _tangible(NAT, 2, {(0, 1): 0, (0, 0): 0})], grid)


def test_a_million_point_row_matches_exact_roots():
    # An independent oracle: the corner locus of a tangible univariate
    # polynomial is the set of its exact roots that lie on the grid.
    f = _tangible(NAT, 1, {(5,): -7, (3,): Fraction(-1, 2), (2,): 0, (1,): Fraction(1, 3),
                           (0,): 2})
    lower, step = Fraction(-5), Fraction(1, 100000)
    grid = GridSpec.uniform(lower, 5, step, 1)
    roots = [r for r, _ in univariate_corner_roots(f)]
    on_grid = tuple((NAT.scalar(r),) for r in roots if ((r - lower) / step).denominator == 1)
    assert 0 < len(on_grid) < len(roots)
    assert corner_locus([f], grid) == on_grid


def test_a_billion_point_row_matches_exact_roots():
    # As above, on rows of 10**9 + 1 points; the bivariate copy of f ignores
    # x1, so its locus is each of three rows times the roots on the grid.
    coeffs = {5: -7, 3: Fraction(-1, 2), 2: 0, 1: Fraction(1, 3), 0: 2}
    f = _tangible(NAT, 1, {(e,): v for e, v in coeffs.items()})
    lower, step = Fraction(-5), Fraction(1, 10 ** 8)
    roots = [r for r, _ in univariate_corner_roots(f)]
    on_grid = [NAT.scalar(r) for r in roots if ((r - lower) / step).denominator == 1]
    assert 0 < len(on_grid) < len(roots)
    row = GridSpec.uniform(lower, 5, step, 1)
    assert row.counts == (10 ** 9 + 1,)
    assert corner_locus([f], row) == tuple((r,) for r in on_grid)
    rows = GridSpec(((Fraction(-1), Fraction(1), Fraction(1)), row.axes[0]))
    f2 = _tangible(NAT, 2, {(0, e): v for e, v in coeffs.items()})
    assert corner_locus([f2], rows) == tuple((NAT.scalar(a), r) for a in (-1, 0, 1) for r in on_grid)


# ---------------------------------------------------------------------------
# Grid axes read as (lower, step, count), checked in closed form


NAT_NAT = LayeredSemiring(COUNTING, NATURALS)


def _random_grid(rng):
    """Axes that may be one point long, end between lattice points, or carry
    a layer, lower bound or step the view refuses."""
    axes = []
    for _ in range(rng.randint(1, 3)):
        step = Fraction(rng.randint(1, 4), rng.choice([1, 1, 1, 2, 3]))
        lower = Fraction(rng.randint(-3, 4), rng.choice([1, 1, 1, 2]))
        upper = lower + rng.choice([0, step * rng.randint(1, 4),
                                    Fraction(rng.randint(0, 9), rng.choice([1, 2, 5]))])
        axes.append((lower, upper, step))
    layers = tuple(rng.choice([1, 1, 1, 1, 2, 3, INF, 4]) for _ in axes)
    return GridSpec(tuple(axes), layers)


def test_closed_form_grid_check_matches_the_per_coordinate_reference():
    rng = random.Random(1009)
    views = SEMIRINGS + [NAT_NAT]
    seen, errors = set(), set()
    for i in range(900):
        sr = views[i % len(views)]
        grid = _random_grid(rng)
        f = LayeredPolynomial(sr, grid.nvars, {(0,) * grid.nvars: sr.one(),
                                              (1,) * grid.nvars: sr.scalar(rng.randint(0, 2))})
        try:
            expected = reference_grid_points(grid, sr)
        except DomainError as err:
            for scan in (grid.points, lambda sr: corner_locus([f], grid),
                         lambda sr: variety_of([(f, f.add(f))], grid)):
                with pytest.raises(DomainError) as caught:
                    scan(sr)
                assert str(caught.value) == str(err), (sr, grid)
            errors.add(str(err).split()[0] + (" negative" if "negative" in str(err) else ""))
            continue
        assert grid.points(sr) == expected, (sr, grid)
        assert corner_locus([f], grid) == tuple(a for a in expected if brute_judge(f, a)["corner"])
        seen.add(sr)
        for (lower, upper, step), count in zip(grid.axes, grid.counts):
            seen.add("one point" if count == 1 else
                     "uneven" if (upper - lower) % step else "even")
    assert seen == set(views) | {"one point", "uneven", "even"}
    assert errors == {"layer", "value", "value negative"}


# ---------------------------------------------------------------------------
# The per-row upper hull of slope classes, against the brute-force oracle


HULL_VIEWS = [NAT, NAT.dual(), SUP, SUP.dual(), TRIV, TRIV.dual(), SAT]


def _ghost(sr):
    return 1 if sr.sorts is TRIVIAL else INF if sr.sorts is SUPERTROPICAL else 2


def _layered(sr, nvars, mapping, laurent=False):
    """A polynomial from {exponents: (value, ghost?)}; a ghost takes the view's ghost layer."""
    return LayeredPolynomial(sr, nvars, {e: sr.scalar(Fraction(v), _ghost(sr) if g else 1)
                                         for e, (v, g) in mapping.items()}, laurent)


def assert_hull_matches_oracle(polynomials, grid):
    assert_matches_oracle(polynomials, grid)
    assert_scan_layering_matches_evaluation(polynomials, grid)


@pytest.mark.parametrize("sr", HULL_VIEWS, ids=str)
def test_three_and_four_lines_concurrent_on_and_off_the_lattice(sr):
    # Value -e * x0 puts every monomial x^e through (x0, 0), so the middle
    # lines meet the envelope only at that vertex: x0 = 1 is a lattice point
    # of the row (-2 + k/3), x0 = 1/2 lies between two.  A ghost middle line
    # changes the vertex's layer sum, and g shares the vertex with f.
    grid = GridSpec.uniform(-2, 2, Fraction(1, 3), 1)
    for x0 in (Fraction(1), Fraction(1, 2)):
        for support in ((0, 2, 5), (0, 1, 2, 3)):
            f = _layered(sr, 1, {(e,): (-e * x0, i == 1) for i, e in enumerate(support)})
            g = _layered(sr, 1, {(1,): (-x0, True), (4,): (-4 * x0, False), (6,): (-6 * x0 - 1, False)})
            assert_hull_matches_oracle([f, g], grid)
            assert_hull_matches_oracle([g, f.add(g)], grid)
        on_lattice = (x0 + 2) * 3 == int((x0 + 2) * 3)
        assert corner_locus([f], grid) == (((sr.scalar(x0),),) if on_lattice else ())


@pytest.mark.parametrize("sr", HULL_VIEWS, ids=str)
def test_hull_vertices_at_the_first_and_last_index_of_a_row(sr):
    # Every line of f meets at 0, which is index 0 of [0, 2], index n - 1 of
    # [-2, 0] and the only index of [0, 0]; on the 2-variable grid the rows
    # of the x1 * x2 term move the vertex along x2.
    f = _layered(sr, 1, {(0,): (0, False), (1,): (0, True), (3,): (0, False)})
    g = _layered(sr, 1, {(0,): (0, True), (2,): (0, False)})
    for bounds in ((0, 2), (-2, 0), (0, 0)):
        assert_hull_matches_oracle([f, g], GridSpec.uniform(*bounds, Fraction(1, 2), 1))
    h = _layered(sr, 2, {(0, 0): (0, False), (1, 1): (0, True), (0, 2): (0, False), (1, 0): (1, False)})
    for bounds in ((0, 2), (-2, 0)):
        assert_hull_matches_oracle([h], GridSpec.uniform(*bounds, Fraction(1, 2), 2))


@pytest.mark.parametrize("sr", HULL_VIEWS, ids=str)
def test_envelope_segments_wholly_outside_the_row(sr):
    # The product of the factors x + r breaks at each r: -6 and -3 lie left of
    # the row [-1, 2], 5 right of it, and 1/4 and 1/3 bound a segment that
    # holds no lattice point (step 1/2), so tangible f has no root on the row.
    f = LayeredPolynomial.constant(sr, 1, sr.one())
    for r in (-6, -3, Fraction(1, 4), Fraction(1, 3), 5):
        f = f.mul(_layered(sr, 1, {(1,): (0, False), (0,): (r, False)}))
    g = _layered(sr, 1, {(7,): (-40, False), (0,): (9, True)})
    grid = GridSpec.uniform(-1, 2, Fraction(1, 2), 1)
    assert_hull_matches_oracle([f], grid)
    assert_hull_matches_oracle([f, g], grid)
    assert corner_locus([f], grid) == ()


@pytest.mark.parametrize("sr", HULL_VIEWS, ids=str)
def test_slope_classes_with_lines_tied_at_the_top(sr):
    # Along x2 the monomials x1^a * x2 (a = 0, 1, 2) form one slope class,
    # their starts c_a + a * x1 tie at x1 = 1: all three for c = (0, -1, -2),
    # two with the third below for c = (0, -1, -3).  Ghost members change the
    # lane's layer sum; rows x1 = 1 hold the ties.
    for cs in ((0, -1, -2), (0, -1, -3)):
        f = _layered(sr, 2, {(0, 1): (cs[0], False), (1, 1): (cs[1], True), (2, 1): (cs[2], False),
                             (0, 0): (Fraction(1, 2), False), (0, 3): (-2, True)})
        g = _layered(sr, 2, {(1, 1): (cs[1], False), (0, 1): (cs[0], True), (1, 0): (0, False)})
        grid = GridSpec(((Fraction(-1), Fraction(2), Fraction(1, 2)),
                         (Fraction(-3), Fraction(3), Fraction(1, 3))))
        assert_hull_matches_oracle([f, g], grid)
        assert_hull_matches_oracle([f], grid)


def test_forty_and_more_monomials():
    # Small values against exponents up to 47 crowd the breakpoints near 0,
    # where many lines meet at and between lattice points.
    rng = random.Random(4040)
    for sr in HULL_VIEWS:
        exponents = rng.sample(range(48), 44)
        f = _layered(sr, 1, {(e,): (Fraction(rng.randint(-4, 4), rng.choice([1, 2])),
                                    rng.random() < 0.2) for e in exponents})
        assert len(f.coeffs) >= 40
        assert_hull_matches_oracle([f], GridSpec.uniform(-1, 1, Fraction(1, 24), 1))
        support = rng.sample(list(itertools.product(range(7), repeat=2)), 42)
        h = _layered(sr, 2, {e: (rng.randint(-3, 3), rng.random() < 0.2) for e in support})
        assert_hull_matches_oracle([h], GridSpec.uniform(-2, 2, Fraction(1, 2), 2))


def test_hull_on_laurent_and_three_variable_grids_in_every_view():
    rng = random.Random(77)
    seen = set()
    for i in range(42):
        sr = SEMIRINGS[i % len(SEMIRINGS)]
        laurent = sr.values is not INTEGERS and i % 3 != 0
        low = -2 if laurent else 0
        polynomials = [LayeredPolynomial(sr, 3, {tuple(rng.randint(low, 3) for _ in range(3)):
                                                 sr.scalar(_random_value(rng, sr), _random_layer(rng, sr))
                                                 for _ in range(rng.randint(3, 9))}, laurent)
                       for _ in range(rng.choice([1, 2]))]
        step = Fraction(1) if sr.values is INTEGERS else rng.choice(STEPS)
        axes = tuple((lower, lower + step * count, step)
                     for lower, count in zip((Fraction(-1), Fraction(0), _random_value(rng, sr)), (2, 3, 9)))
        layers = (1, 1, 1) if laurent or sr.sorts is TRIVIAL else (1, 1, _ghost(sr))
        assert_hull_matches_oracle(polynomials, GridSpec(axes, layers))
        seen.add((sr, laurent))
    assert {s for s, _ in seen} == set(SEMIRINGS) and {l for _, l in seen} == {False, True}
