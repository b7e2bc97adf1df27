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

from laytrop import (COUNTING, INF, INTEGERS, RATIONALS, SUPERTROPICAL,
                     TRIVIAL, DomainError, GridSpec, LayeredPolynomial,
                     LayeredScalar, LayeredSemiring, combined_locus, component,
                     corner_locus, essential_monomials, functionally_equal,
                     principal_open, univariate_corner_roots, variety_of)

from oracles import (SATURATING, brute_grid, brute_judge, fm_essential,
                     pointwise_functionally_equal)

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


def test_functional_equality_matches_pointwise_oracle():
    rng = random.Random(42)
    outcomes = []
    for i in range(60):
        sr = SEMIRINGS[i // 4 % len(SEMIRINGS)]  # each view meets all four kinds of g
        integer = sr.values is INTEGERS
        nvars = rng.randint(2, 3)
        laurent = rng.random() < 0.3
        low = -1 if laurent else 0
        mid = tuple(rng.randint(low + 1, 2) for _ in range(nvars))
        d = (1,) + tuple(rng.randint(-1, 1) for _ in range(nvars - 1))
        a = tuple(x - y for x, y in zip(mid, d))
        b = tuple(x + y for x, y in zip(mid, d))
        coeffs = {e: sr.scalar(_random_value(rng, sr), _random_layer(rng, sr)) for e in (a, b)}
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(low, 3) for _ in range(nvars))
            if e != mid:
                coeffs[e] = sr.scalar(_random_value(rng, sr), _random_layer(rng, sr))
        f = LayeredPolynomial(sr, nvars, coeffs, laurent)
        if i % 4 == 2:
            g = LayeredPolynomial(sr, nvars, {e: sr.scalar(_random_value(rng, sr))
                                              for e in (a, b, mid)}, laurent)
        elif i % 4 == 3:
            # Lone monomials have no tie samples: only the grid can tell them apart.
            f = LayeredPolynomial(sr, nvars, {a: coeffs[a]}, laurent)
            g = LayeredPolynomial(sr, nvars, {a: sr.scalar(coeffs[a].value,
                                                           _random_layer(rng, sr))}, laurent)
        else:
            # A monomial on the chord of a and b ties them on their hyperplane;
            # one strictly behind the chord is inessential, so f + it == f.
            # Integer views round behind the chord when it is off the lattice.
            sign = -1 if sr.descending else 1
            chord = (coeffs[a].value + coeffs[b].value) / 2 - sign * Fraction(i % 4, 2)
            if integer:
                chord = sign * math.floor(sign * chord)
            g = f.add(LayeredPolynomial(sr, nvars, {mid: sr.scalar(chord)}, laurent))
        side = 5 if nvars == 2 else 3
        step = rng.choice([Fraction(1), Fraction(2)] if integer else STEPS)
        lower = _random_value(rng, sr) // 2 if integer else _random_value(rng, sr) / 2
        layer = 1 if laurent else rng.choice([layer for layer in (1, 2, INF)
                                              if _layer_allowed(sr, layer)])
        grid = GridSpec.uniform(lower, lower + side * step, step, nvars, layer)
        outcome = functionally_equal(f, g, grid)
        assert outcome.equal == pointwise_functionally_equal(f, g, grid), (f, g, grid)
        assert not outcome.exact
        outcomes.append(outcome.equal)
    assert 10 <= sum(outcomes) <= 50


def test_functional_equality_skips_tie_samples_off_an_integer_view():
    # The tie of x1^2 and 1 lies at x1 = 1/2, which is not a point of this view.
    f = LayeredPolynomial(NAT_INT, 2, {(2, 0): NAT_INT.one(), (0, 0): NAT_INT.scalar(1),
                                       (0, 1): NAT_INT.one()})
    outcome = functionally_equal(f, f, GridSpec.uniform(-2, 2, 1, 2))
    assert outcome.equal and not outcome.exact
