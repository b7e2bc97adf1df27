"""Layered polynomial functions: evaluation, roots, loci, and essentiality."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from laytrop import (COUNTING, INF, NATURALS, RATIONALS, SUPERTROPICAL,
                     TRIVIAL, DomainError, GridSpec, LayeredPolynomial, LayeredScalar,
                     LayeredSemiring, combined_locus, component, corner_locus,
                     essential_monomials, functionally_equal,
                     layering_map_set, principal_open, univariate_corner_roots)

from laytrop.polynomials import _difference

from oracles import (SATURATING, brute_corner_roots, random_poly, random_scalar,
                     random_tangible_univariate, random_value, reference_layered_add,
                     reference_layered_mul, reference_monomial_value)

NAT = LayeredSemiring(COUNTING, RATIONALS)
SUP = LayeredSemiring(SUPERTROPICAL, RATIONALS)
TRIV = LayeredSemiring(TRIVIAL, RATIONALS)
SAT = LayeredSemiring(SATURATING, RATIONALS)


def poly(sr, nvars, coeffs, laurent=False):
    return LayeredPolynomial(sr, nvars, coeffs, laurent)


def tangible(sr, nvars, mapping):
    return poly(sr, nvars, {e: sr.scalar(v) for e, v in mapping.items()})


def pt(sr, *values):
    return tuple(sr.scalar(v) for v in values)


QUADRATIC = tangible(NAT, 1, {(2,): 0, (1,): 3, (0,): 4})


# ---------------------------------------------------------------------------
# Evaluation


def test_plane_sum_evaluates_with_tie_layers():
    f = tangible(NAT, 2, {(1, 0): 0, (0, 1): 0, (0, 0): 0})
    assert f.evaluate(pt(NAT, 0, 0)) == NAT.scalar(0, 3)


def test_evaluation_at_layered_point():
    f = tangible(NAT, 1, {(1,): 0, (0,): 2})
    assert f.evaluate((NAT.scalar(4, 2),)) == NAT.scalar(4, 2)


def test_constant_evaluates_to_itself():
    c = NAT.scalar(Fraction(7, 3), 2)
    f = LayeredPolynomial.constant(NAT, 2, c)
    assert f.evaluate(pt(NAT, 5, -1)) == c


def test_arity_mismatch_rejected():
    with pytest.raises(DomainError):
        QUADRATIC.evaluate(pt(NAT, 1, 2))


def test_laurent_evaluation():
    f = poly(NAT, 1, {(-1,): NAT.one(), (0,): NAT.one()}, laurent=True)
    assert f.evaluate((NAT.scalar(2),)) == NAT.scalar(0)
    assert f.evaluate((NAT.scalar(-3),)) == NAT.scalar(3)
    with pytest.raises(DomainError):
        f.evaluate((NAT.scalar(2, 2),))  # non-invertible layer under a negative power


def test_laurent_mode_needs_group_values():
    # natural values admit no negation, so Laurent mode is rejected there
    sr = LayeredSemiring(COUNTING, NATURALS)
    poly(sr, 1, {(1,): sr.scalar(1)})  # plain mode is fine
    with pytest.raises(DomainError):
        poly(sr, 1, {(-1,): sr.scalar(1)}, laurent=True)


def test_negative_exponents_rejected_without_laurent():
    with pytest.raises(DomainError):
        poly(NAT, 1, {(-1,): NAT.one()})


def test_empty_polynomial_rejected():
    with pytest.raises(DomainError):
        poly(NAT, 1, {})


# ---------------------------------------------------------------------------
# Semiring of polynomials


def test_duplicate_exponents_merge_by_layered_addition():
    f = poly(NAT, 1, [((1,), NAT.one()), ((1,), NAT.one())])
    assert f.coeffs == {(1,): NAT.scalar(0, 2)}


def test_add_and_mul_match_the_reference_merge():
    rng = random.Random(16)
    for sr in (NAT, SUP, TRIV, SAT, NAT.dual(), SUP.dual(), TRIV.dual(), SAT.dual()):
        layers = [1] if sr.sorts is TRIVIAL else [1, INF] if sr.sorts is SUPERTROPICAL else [1, 2, 3, INF]
        for _ in range(40):
            nvars, laurent = rng.randint(1, 3), rng.random() < 0.3

            def draw():
                return poly(sr, nvars, [
                    (tuple(rng.randint(-2 if laurent else 0, 2) for _ in range(nvars)),
                     sr.scalar(random_value(rng, den=6), rng.choice(layers)))
                    for _ in range(rng.randint(1, 5))], laurent)

            f, g = draw(), draw()
            assert f.add(g) == reference_layered_add(f, g), (f, g)
            assert f.mul(g) == reference_layered_mul(f, g), (f, g)


def test_symmetric_products_differ_in_layers():
    x, y, z = (LayeredPolynomial.variable(NAT, 3, i) for i in range(3))
    left = x.add(y).add(z).mul(x.mul(y).add(x.mul(z)).add(y.mul(z)))
    right = x.add(y).mul(x.add(z)).mul(y.add(z))
    assert left.coeffs[(1, 1, 1)].layer == 3
    assert right.coeffs[(1, 1, 1)].layer == 2


def test_self_addition_doubles_layers():
    doubled = QUADRATIC.add(QUADRATIC)
    assert all(c.layer == 2 for c in doubled.coeffs.values())


def test_evaluation_is_a_homomorphism():
    rng = random.Random(12)
    grid = GridSpec.uniform(-2, 2, 1, 2)
    for _ in range(60):
        f = random_poly(rng, NAT, 2)
        g = random_poly(rng, NAT, 2)
        for a in rng.sample(grid.points(NAT), 4):
            assert f.add(g).evaluate(a) == NAT.add(f.evaluate(a), g.evaluate(a))
            assert f.mul(g).evaluate(a) == NAT.mul(f.evaluate(a), g.evaluate(a))


def test_function_level_power_identity():
    rng = random.Random(13)
    for _ in range(60):
        f = random_poly(rng, NAT, 1, tangible=True)
        g = random_poly(rng, NAT, 1, tangible=True)
        m = rng.randint(2, 4)
        a = (NAT.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),)
        if f.evaluate(a).value != g.evaluate(a).value:
            lhs = f.add(g).pow(m).evaluate(a)
            rhs = f.pow(m).add(g.pow(m)).evaluate(a)
            assert lhs == rhs


def test_power_matches_repeated_multiplication():
    # Square-and-multiply regroups the products, which is exact in every
    # distributive flavor (a saturating one is not, so it is left out).
    rng = random.Random(14)
    for sr in (NAT, SUP, TRIV):
        for _ in range(40):
            nvars = rng.randint(1, 2)
            f = poly(sr, nvars, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                                 random_scalar(rng, sr) for _ in range(rng.randint(1, 4))})
            m = rng.randint(1, 9)
            expected = f
            for _ in range(m - 1):
                expected = expected.mul(f)
            assert f.pow(m) == expected, (f, m)
    with pytest.raises(DomainError):
        QUADRATIC.pow(0)


# ---------------------------------------------------------------------------
# Dominant parts and roots


def test_dominant_part_of_quadratic():
    assert QUADRATIC.dominant_part(pt(NAT, 3)) == ((1,), (2,))
    assert QUADRATIC.dominant_part(pt(NAT, 0)) == ((0,),)
    single = tangible(NAT, 1, {(2,): 1})
    assert single.dominant_part(pt(NAT, 5)) == ((2,),)


def test_corner_root_detection():
    assert QUADRATIC.is_corner_root(pt(NAT, 3))
    assert not QUADRATIC.is_corner_root(pt(NAT, 5))


def test_corner_root_checks_every_point():
    # The public predicate takes no scale, so it never trusts one: x = 1/2 is
    # judged on its own denominator, and a layer-0 point is refused.
    f = tangible(NAT, 1, {(1,): 0, (0,): 0})
    assert f.is_corner_root((LayeredScalar(1, Fraction(0)),))
    assert not f.is_corner_root((LayeredScalar(1, Fraction(1, 2)),))
    with pytest.raises(DomainError, match="layer 0"):
        f.is_corner_root((LayeredScalar(0, Fraction(0)),))
    with pytest.raises(TypeError):
        f.is_corner_root((LayeredScalar(1, Fraction(1, 2)),), 1)


def test_ghost_coefficient_dominating_alone_is_a_corner_root_over_super():
    f = poly(SUP, 1, {(1,): SUP.scalar(5, INF), (0,): SUP.one()})
    a = pt(SUP, 0)
    assert f.dominant_part(a) == ((1,),)
    assert f.is_corner_root(a)


def test_cluster_roots():
    f = tangible(NAT, 1, {(1,): 0, (0,): 2})
    assert f.is_cluster_root((NAT.scalar(4, 2),))
    assert not f.is_cluster_root(pt(NAT, 4))          # tangible point, layer stays 1
    assert not f.is_cluster_root(pt(NAT, 2))          # corner point: two dominants


def test_corner_and_cluster_roots_exclusive_on_finite_layers():
    rng = random.Random(14)
    for _ in range(200):
        f = random_poly(rng, NAT, 1)
        a = (NAT.scalar(Fraction(rng.randint(-3, 3)), rng.randint(1, 3)),)
        assert not (f.is_corner_root(a) and f.is_cluster_root(a))


def test_trivial_flavor_uses_tie_counting():
    f = tangible(TRIV, 1, {(2,): 0, (1,): 3, (0,): 4})
    assert f.is_corner_root(pt(TRIV, 3))
    assert not f.is_corner_root(pt(TRIV, 5))
    assert not f.is_cluster_root(pt(TRIV, 5))


# ---------------------------------------------------------------------------
# Loci


def test_tropical_line_locus_is_three_rays():
    f = tangible(NAT, 2, {(1, 0): 0, (0, 1): 0, (0, 0): 0})
    grid = GridSpec.uniform(-2, 2, 1, 2)
    expected = {(0, 0), (1, 1), (2, 2), (0, -1), (0, -2), (-1, 0), (-2, 0)}
    got = {(a[0].value, a[1].value) for a in corner_locus([f], grid)}
    assert got == expected


def test_intersection_of_two_lines_is_a_point():
    f1 = tangible(NAT, 2, {(1, 0): 0, (0, 0): 1})
    f2 = tangible(NAT, 2, {(0, 1): 0, (0, 0): -1})
    grid = GridSpec.uniform(-2, 2, 1, 2)
    got = corner_locus([f1, f2], grid)
    assert [(a[0].value, a[1].value) for a in got] == [(1, -1)]


def test_constant_has_empty_corner_locus():
    f = tangible(NAT, 1, {(0,): 2})
    assert corner_locus([f], GridSpec.uniform(-2, 2, 1, 1)) == ()


def test_empty_polynomial_set_rejected():
    with pytest.raises(DomainError):
        corner_locus([], GridSpec.uniform(0, 1, 1, 1))


def test_combined_locus_on_tangible_data_equals_corner_locus():
    rng = random.Random(15)
    grid = GridSpec.uniform(-2, 2, 1, 1)
    for _ in range(40):
        f = random_poly(rng, NAT, 1, tangible=True)
        assert combined_locus([f], grid) == corner_locus([f], grid)


def test_layered_grid_picks_up_cluster_roots():
    f = tangible(NAT, 1, {(1,): 0, (0,): 2})
    grid = GridSpec.uniform(3, 5, 1, 1, layer=2)
    assert corner_locus([f], grid) == ()
    got = combined_locus([f], grid)
    assert [a[0].value for a in got] == [3, 4, 5]


def test_ghost_constant_covers_everything():
    f = poly(NAT, 1, {(0,): NAT.scalar(2, 2)})
    grid = GridSpec.uniform(-2, 2, 1, 1)
    assert len(combined_locus([f], grid)) == 5


def test_joint_locus_is_the_intersection_of_member_loci():
    rng = random.Random(27)
    grid = GridSpec.uniform(-2, 2, 1, 2)
    for _ in range(20):
        f = random_poly(rng, NAT, 2, tangible=True)
        g = random_poly(rng, NAT, 2, tangible=True)
        joint = set(corner_locus([f, g], grid))
        assert joint == set(corner_locus([f], grid)) & set(corner_locus([g], grid))


def test_evaluation_is_nu_compatible():
    # coordinatewise nu-equivalent points give nu-equivalent values
    rng = random.Random(28)
    for _ in range(60):
        f = random_poly(rng, NAT, 2)
        values = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        a = tuple(NAT.scalar(v, rng.randint(1, 3)) for v in values)
        b = tuple(NAT.scalar(v, rng.randint(1, 3)) for v in values)
        assert f.evaluate(a).value == f.evaluate(b).value


def test_locus_commutes_with_domain_restriction():
    f = tangible(NAT, 2, {(1, 0): 0, (0, 1): 0, (0, 0): 0})
    fine = GridSpec.uniform(-2, 2, 1, 2)
    coarse = GridSpec.uniform(-2, 2, 2, 2)
    fine_locus = set(corner_locus([f], fine))
    coarse_points = set(coarse.points(NAT))
    assert set(corner_locus([f], coarse)) == fine_locus & coarse_points


# ---------------------------------------------------------------------------
# Layering maps


def two_ray_family(k):
    return tangible(NAT, 2, {(k, 0): 0, (0, 1): 0, (0, 0): 0})


def test_layering_of_two_ray_family_member():
    f = two_ray_family(2)
    assert f.layering(pt(NAT, 0, 0)) == 3
    assert f.layering(pt(NAT, 0, -1)) == 2
    assert f.layering(pt(NAT, 1, 2)) == 2      # on the curve 2*a1 = a2 > 0
    assert f.layering(pt(NAT, 5, 1)) == 1


def test_family_minimum_kills_single_member_ties():
    family = [two_ray_family(k) for k in range(1, 6)]
    assert layering_map_set(family, pt(NAT, 0, 0)) == 3
    assert layering_map_set(family, pt(NAT, 0, -2)) == 2
    assert layering_map_set(family, pt(NAT, -1, 0)) == 2
    assert layering_map_set(family, pt(NAT, 1, 1)) == 1   # only k = 1 ties here
    with pytest.raises(DomainError):
        layering_map_set([], pt(NAT, 0, 0))


def test_layering_distinguishes_sets_at_layered_points():
    family = [tangible(NAT, 1, {(1,): 0, (0,): 2}),
              tangible(NAT, 1, {(1,): 0, (0,): 3})]
    assert layering_map_set(family, (NAT.scalar(4, 2),)) == 2
    assert layering_map_set(family, pt(NAT, 4)) == 1


# ---------------------------------------------------------------------------
# Components and principal opens


def test_components_partition_off_the_corner():
    f = tangible(NAT, 1, {(1,): 0, (0,): 0})
    grid = GridSpec.uniform(-2, 2, 1, 1)
    variable_side = [a[0].value for a in component(f, (1,), grid)]
    constant_side = [a[0].value for a in component(f, (0,), grid)]
    assert variable_side == [1, 2]
    assert constant_side == [-2, -1]


def test_component_of_single_monomial_is_everything():
    f = tangible(NAT, 2, {(1, 1): 5})
    grid = GridSpec.uniform(-1, 1, 1, 2)
    assert len(component(f, (1, 1), grid)) == 9
    with pytest.raises(DomainError):
        component(f, (2, 0), grid)


def test_principal_open_is_the_corner_complement():
    grid = GridSpec.uniform(-2, 2, 1, 1)
    f = tangible(NAT, 1, {(1,): 0, (0,): 0})
    opens = set(principal_open(f, grid))
    assert opens == set(grid.points(NAT)) - set(corner_locus([f], grid))
    constant = tangible(NAT, 1, {(0,): 7})
    assert len(principal_open(constant, grid)) == 5


def test_principal_open_equals_union_of_components():
    rng = random.Random(16)
    grid = GridSpec.uniform(-2, 2, 1, 2)
    for _ in range(20):
        f = random_poly(rng, NAT, 2, tangible=True)
        union = set()
        for e in f.support():
            union.update(component(f, e, grid))
        assert union == set(principal_open(f, grid))


def test_products_shrink_principal_opens_no_faster_than_intersections():
    rng = random.Random(17)
    grid = GridSpec.uniform(-2, 2, 1, 2)
    for _ in range(25):
        f = random_poly(rng, NAT, 2, tangible=True)
        g = random_poly(rng, NAT, 2, tangible=True)
        df = set(principal_open(f, grid))
        dg = set(principal_open(g, grid))
        dfg = set(principal_open(f.mul(g), grid))
        assert df & dg <= dfg


# ---------------------------------------------------------------------------
# Exact univariate corner roots


def test_quadratic_breakpoints():
    assert univariate_corner_roots(QUADRATIC) == ((Fraction(1), 1), (Fraction(3), 1))


def test_gap_gives_multiplicity():
    f = tangible(NAT, 1, {(2,): 0, (0,): 0})
    assert univariate_corner_roots(f) == ((Fraction(0), 2),)


def test_single_monomial_has_no_roots():
    assert univariate_corner_roots(tangible(NAT, 1, {(3,): 1})) == ()


def test_solver_agrees_with_brute_force():
    # A min view's roots are the negated max roots of the negated data.
    rng = random.Random(18)
    for sr in (NAT, NAT.dual()):
        sign = -1 if sr.descending else 1
        for _ in range(150):
            f = random_tangible_univariate(rng, sr)
            data = [(e[0], sign * c.value) for e, c in sorted(f.coeffs.items())]
            expected = tuple(sorted((sign * x, m) for x, m in brute_corner_roots(data)))
            assert univariate_corner_roots(f) == expected


def test_roots_match_grid_corner_detection():
    rng = random.Random(19)
    for _ in range(40):
        f = random_tangible_univariate(rng, NAT, max_degree=5)
        roots = dict(univariate_corner_roots(f))
        probes = set(roots)
        for x in list(roots):
            probes.update({x - Fraction(1, 7), x + Fraction(1, 7)})
        for x in sorted(probes):
            a = (NAT.scalar(x),)
            assert f.is_corner_root(a) == (x in roots)


def test_sort_counts_dominant_monomials():
    rng = random.Random(20)
    for _ in range(100):
        f = random_poly(rng, NAT, 2, tangible=True)
        a = pt(NAT, Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        assert f.evaluate(a).layer == len(f.dominant_part(a))


# ---------------------------------------------------------------------------
# Essential monomials and functional equality


def test_all_quadratic_monomials_essential():
    assert essential_monomials(QUADRATIC) == ((0,), (1,), (2,))


def test_dominated_middle_monomial_is_inessential():
    f = tangible(NAT, 1, {(2,): 0, (1,): 0, (0,): 4})
    assert essential_monomials(f) == ((0,), (2,))


def test_single_monomial_is_essential():
    f = tangible(NAT, 2, {(1, 2): -5})
    assert essential_monomials(f) == ((1, 2),)


def test_multivariate_essentiality_matches_sampling():
    rng = random.Random(21)
    grid = GridSpec.uniform(-6, 6, Fraction(1, 2), 2)
    for _ in range(25):
        f = random_poly(rng, NAT, 2, tangible=True)
        exact = set(essential_monomials(f))
        seen = set()
        for a in grid.points(NAT):
            dom = f.dominant_part(a)
            if len(dom) == 1:
                seen.add(dom[0])
        assert seen <= exact


def test_four_variable_essentiality_is_exact():
    f = tangible(NAT, 4, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 0,
                          (0, 0, 1, 0): 0, (0, 0, 0, 1): 0})
    assert essential_monomials(f) == f.support()


def test_functional_equality_removes_inessential_monomials():
    f = tangible(NAT, 1, {(2,): 0, (1,): 0, (0,): 4})
    g = tangible(NAT, 1, {(2,): 0, (0,): 4})
    assert functionally_equal(f, g) is True


def test_collinear_monomial_still_contributes_layers():
    f = tangible(NAT, 1, {(2,): 0, (1,): 1, (0,): 2})
    g = tangible(NAT, 1, {(2,): 0, (0,): 2})
    assert not functionally_equal(f, g)    # the tie at 1 gains a layer
    assert _difference(f, g) == (1,)
    f_triv = tangible(TRIV, 1, {(2,): 0, (1,): 1, (0,): 2})
    g_triv = tangible(TRIV, 1, {(2,): 0, (0,): 2})
    assert functionally_equal(f_triv, g_triv)


def test_symmetric_products_as_functions():
    def build(sr):
        x, y, z = (LayeredPolynomial.variable(sr, 3, i) for i in range(3))
        left = x.add(y).add(z).mul(x.mul(y).add(x.mul(z)).add(y.mul(z)))
        right = x.add(y).mul(x.add(z)).mul(y.add(z))
        return left, right

    left, right = build(NAT)
    assert not functionally_equal(left, right)
    assert _difference(left, right) == (0, 0, 0)   # only there does x1*x2*x3 tie
    left_t, right_t = build(TRIV)
    assert functionally_equal(left_t, right_t)


def test_functional_equality_is_reflexive():
    assert functionally_equal(QUADRATIC, QUADRATIC)
    assert not functionally_equal(tangible(NAT, 2, {(1, 0): 0}), tangible(NAT, 2, {(0, 1): 0}))


def test_functional_equality_sees_a_triple_point_off_every_grid():
    # f and g differ only at the origin, (3|0) against (4|0), where x1*x2
    # ties the three monomials of f; no pairwise tie hyperplane sees it.
    f = tangible(NAT, 2, {(3, 0): 0, (0, 3): 0, (0, 0): 0})
    g = f.add(tangible(NAT, 2, {(1, 1): 0}))
    assert not functionally_equal(f, g)
    assert _difference(f, g) == (0, 0)
    assert f.evaluate(pt(NAT, 0, 0)) == NAT.scalar(0, 3)
    assert g.evaluate(pt(NAT, 0, 0)) == NAT.scalar(0, 4)


def test_functional_equality_certifies_scaled_dual_witnesses():
    # Values over the denominator q, in a max and a min view: g differs only
    # on a ray where x1*x2 ties the chord's ends, so a witness mapped back
    # through the wrong scale or sign evaluates alike.
    for sr in (NAT, NAT.dual()):
        sign = -1 if sr.descending else 1
        for q in range(2, 7):
            f = poly(sr, 2, {(2, 0): sr.scalar(Fraction(2, q)), (0, 2): sr.scalar(0),
                             (0, 0): sr.scalar(sign * Fraction(4, q))})
            g = f.add(poly(sr, 2, {(1, 1): sr.scalar(Fraction(1, q), 2)}))
            witness = _difference(f, g)
            a = tuple(sr.scalar(x) for x in witness)
            assert f.evaluate(a) != g.evaluate(a), (sr, q)


# ---------------------------------------------------------------------------
# Grids


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(((Fraction(0), Fraction(1), Fraction(0)),))
    with pytest.raises(DomainError):
        GridSpec(((Fraction(2), Fraction(1), Fraction(1)),))
    grid = GridSpec.uniform(Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), 1)
    assert [a[0].value for a in grid.points(NAT)] == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]


_GRID_BUILDERS = [
    ("lower bound", lambda v: GridSpec(((v, 3, 1),))),
    ("upper bound", lambda v: GridSpec(((0, v, 1),), (1,))),
    ("step", lambda v: GridSpec(((0, 3, Fraction(1, 2)), (0, 3, v)))),
    ("lower bound", lambda v: GridSpec.uniform(v, 3, 1, 2)),
    ("upper bound", lambda v: GridSpec.uniform(0, v, 1, 1, layer=2)),
    ("step", lambda v: GridSpec.uniform(0, 3, v, 3)),
]


@pytest.mark.parametrize("layer", [1.0, True, Fraction(1), "1", Decimal(1), 2, INF],
                         ids=["float", "bool", "Fraction", "str", "Decimal", "int", "inf"])
def test_grid_layers_are_ints_or_inf_only(layer):
    # A grid is refused when it is built, naming the layer; before, 1.0 and
    # True were accepted and refused only once a scan checked the grid.
    # Whether a view allows an int layer stays with ``GridSpec.check``.
    axes = ((0, 1, 1), (0, 2, Fraction(1, 2)))
    builds = (lambda: GridSpec(axes, (1, layer)), lambda: GridSpec.uniform(0, 1, 1, 2, layer=layer))
    for build in builds:
        if type(layer) is int or layer == INF:
            assert build().layers[-1] == layer
        else:
            with pytest.raises(DomainError) as refused:
                build()
            assert str(refused.value) == f"grid layer {layer!r} is not an int or inf"


@pytest.mark.parametrize("what, build", _GRID_BUILDERS,
                         ids=[f"{i}-{w}" for i, (w, _) in enumerate(_GRID_BUILDERS)])
@pytest.mark.parametrize("v", [0.5, 2.0, True, "1/2", Decimal("0.5"), 2, Fraction(1, 2)],
                         ids=["float", "integral float", "bool", "str", "Decimal", "int", "Fraction"])
def test_grid_bounds_are_exact_rationals_only(what, build, v):
    # A grid is refused when it is built, naming the bound; before, a float
    # bound was accepted and refused only once a scan reached its axis, and
    # ``uniform`` turned 0.5 and "1/2" into Fraction(1, 2).
    if type(v) not in (int, Fraction):
        with pytest.raises(DomainError) as refused:
            build(v)
        assert str(refused.value) == f"grid {what} {v!r} is not an int or a Fraction"
    else:
        build(v)


def test_monomial_value_matches_the_coordinatewise_reference():
    # Over every flavor, both orientations and Laurent mode, at points with
    # ghost coordinates: a negative power of a ghost refuses in both, and
    # only the asked monomial's exponents matter, not the other monomials'.
    rng = random.Random(62)
    checked = refused = 0
    for base, layers in ((NAT, (1, 2, 5, INF)), (SUP, (1, INF)), (TRIV, (1,)),
                         (SAT, (1, 2, 3, INF))):
        for sr in (base, base.dual()):
            def scalar():
                return sr.scalar(random_value(rng), rng.choice(layers))
            for laurent in (False, True):
                low = -2 if laurent else 0
                for _ in range(30):
                    nvars = rng.randint(1, 3)
                    f = poly(sr, nvars, {tuple(rng.randint(low, 2) for _ in range(nvars)):
                                         scalar() for _ in range(4)}, laurent)
                    a = tuple(scalar() for _ in range(nvars))
                    for e in f.coeffs:
                        try:
                            expected = reference_monomial_value(f, e, a)
                        except DomainError as err:
                            with pytest.raises(DomainError, match=str(err)):
                                f.monomial_value(e, a)
                            refused += 1
                            continue
                        assert f.monomial_value(list(e), a) == expected, (f, e, a)
                        checked += 1
    assert checked > 500 and refused > 10


def test_profiles_match_the_term_by_term_reference():
    # The batch kernel lifts the coefficients once per call and yields each
    # point's profile lazily: every monomial's value as an int on the caller's
    # scale, its layer, and the indices tied at the best value, as the
    # monomials evaluated one at a time give them.  A point the view cannot
    # evaluate (a negative power of a ghost) raises there, after the points
    # before it were yielded.  Every flavor, both orientations, Laurent mode.
    rng = random.Random(28)
    checked = refused = 0
    for base, layers in ((NAT, (1, 2, 5, INF)), (SUP, (1, INF)), (TRIV, (1,)),
                         (SAT, (1, 2, 3, INF))):
        for sr in (base, base.dual()):
            def scalar():
                return sr.scalar(random_value(rng), rng.choice(layers))
            for laurent in (False, True):
                low = -2 if laurent else 0
                for _ in range(15):
                    nvars = rng.randint(1, 3)
                    f = poly(sr, nvars, {tuple(rng.randint(low, 2) for _ in range(nvars)):
                                         scalar() for _ in range(4)}, laurent)
                    points = [tuple(scalar() for _ in range(nvars)) for _ in range(rng.randint(1, 5))]
                    scale = rng.choice([1, 2, 6]) * math.lcm(
                        *(c.value.denominator for c in f.coeffs.values()),
                        *(x.value.denominator for a in points for x in a))
                    profiles = f._profiles(iter(points), scale)
                    for a in points:
                        try:
                            terms = [reference_monomial_value(f, e, a) for e in f.coeffs]
                        except DomainError as err:
                            with pytest.raises(DomainError, match=re.escape(str(err))):
                                next(profiles)
                            refused += 1
                            break
                        values = [t.value * scale for t in terms]
                        best = (min if sr.descending else max)(values)
                        got = next(profiles)
                        assert all(type(v) is int for v in got[0])
                        assert got == (values, [t.layer for t in terms],
                                       tuple(i for i, v in enumerate(values) if v == best)), (f, a)
                        checked += 1
                    else:
                        assert next(profiles, None) is None
    assert checked > 300 and refused > 10
