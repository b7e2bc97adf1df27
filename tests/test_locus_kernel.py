"""The lattice grid scan and the per-point kernel against a brute-force oracle.

Every locus and predicate here is recomputed by ``oracles.brute_judge``,
which evaluates monomials directly and never calls laytrop's predicates.
"""

import random
from fractions import Fraction

import pytest

from laytrop import (COUNTING, INF, INTEGERS, RATIONALS, SUPERTROPICAL,
                     TRIVIAL, DomainError, GridSpec, LayeredPolynomial,
                     LayeredScalar, LayeredSemiring, combined_locus, component,
                     corner_locus, principal_open)

from oracles import SATURATING, brute_grid, brute_judge

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
    for _ in range(160):
        polynomials, grid = _random_case(rng)
        if not all(_layer_allowed(polynomials[0].semiring, layer) for layer in grid.layers):
            with pytest.raises(DomainError):
                corner_locus(polynomials, grid)
            refused += 1
            continue
        assert_matches_oracle(polynomials, grid)
        checked += 1
    assert checked >= 100 and refused >= 5


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
], ids=["corner", "combined", "principal_open", "component"])
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
