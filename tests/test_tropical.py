"""Tropicalization of series and polynomials, plain and exploded."""

import random
from fractions import Fraction

import pytest

from laytrop import (DomainError, ExplodedScalar, LayeredPolynomial, LayeredSemiring,
                     PuiseuxPolynomial, PuiseuxSeries, apply_value_map,
                     explode_poly, explode_scalar, exploded_eval, trop_poly,
                     trop_scalar)

from laytrop.core import SORT_FLAVORS, VALUE_FLAVORS

from oracles import random_series, reference_exploded_eval

SR = LayeredSemiring()


def test_scalar_tropicalization():
    assert trop_scalar(SR, PuiseuxSeries.term(1, -1)) == SR.scalar(1)
    assert trop_scalar(SR, PuiseuxSeries.term(2, 0)) == SR.scalar(0)
    with pytest.raises(DomainError):
        trop_scalar(SR, PuiseuxSeries.zero())


def test_scalar_tropicalization_is_multiplicative():
    rng = random.Random(2)
    for _ in range(200):
        p, q = random_series(rng), random_series(rng)
        assert trop_scalar(SR, p * q) == SR.mul(trop_scalar(SR, p), trop_scalar(SR, q))


def test_subadditivity_transfer():
    rng = random.Random(8)
    for _ in range(300):
        p, q = random_series(rng), random_series(rng)
        if (p + q).is_zero:
            continue
        image = trop_scalar(SR, p + q)
        bound = SR.add(trop_scalar(SR, p), trop_scalar(SR, q))
        assert image.value <= bound.value
        cancels = p.val() == q.val() and p.leading() + q.leading() == 0
        assert (image.value < bound.value) == cancels


def test_polynomial_tropicalization():
    # val(t^-1 + 2) = 1 and val(2*t^-1) = 1, computed by series arithmetic
    middle = -(PuiseuxSeries.term(1, -1) + PuiseuxSeries.term(2, 0))
    low = PuiseuxSeries.term(2, -1)
    f = PuiseuxPolynomial.from_coeffs({2: PuiseuxSeries.one(), 1: middle, 0: low})
    assert middle.val() == 1 and low.val() == 1
    image = trop_poly(SR, f)
    assert image.coeffs == {(2,): SR.scalar(0), (1,): SR.scalar(1), (0,): SR.scalar(1)}


def test_linear_tropicalization_and_degree():
    f = PuiseuxPolynomial.from_coeffs(
        {1: PuiseuxSeries.one(), 0: PuiseuxSeries.one()})
    image = trop_poly(SR, f)
    assert image.coeffs == {(1,): SR.scalar(0), (0,): SR.scalar(0)}
    rng = random.Random(4)
    for _ in range(50):
        coeffs = {d: random_series(rng) for d in range(rng.randint(1, 5) + 1)}
        g = PuiseuxPolynomial.from_coeffs(coeffs)
        assert trop_poly(SR, g).support()[-1][0] == g.degree()


def test_exploded_scalar_map():
    p = PuiseuxSeries.from_terms([(-2, 3), (5, 1)])
    assert explode_scalar(p) == ExplodedScalar.of(3, 2)


def test_exploded_detects_leading_cancellation():
    p = PuiseuxSeries.from_terms([(-1, 2), (0, 1)])
    q = PuiseuxSeries.from_terms([(-1, -2), (3, 5)])
    total = p + q
    assert not total.is_zero and total.val() < max(p.val(), q.val())
    summed = explode_scalar(p) + explode_scalar(q)
    assert summed.is_corner_ghost and summed.value == 1


def test_exploded_polynomial_and_projections():
    f = PuiseuxPolynomial.from_coeffs(
        {1: PuiseuxSeries.one(), 0: -PuiseuxSeries.term(1, -1)})
    image = explode_poly(f)
    assert image == {1: ExplodedScalar.of(1, 0), 0: ExplodedScalar.of(-1, 1)}
    # forgetting the sort recovers the plain tropicalization values
    plain = trop_poly(SR, f)
    assert {d: x.value for d, x in image.items()} == \
        {e[0]: c.value for e, c in plain.coeffs.items()}
    assert {d: x.sort for d, x in image.items()} == \
        {d: c.leading() for d, c in f.coeffs}


def test_exploded_product_leading_behaviour():
    rng = random.Random(6)
    for _ in range(100):
        f = PuiseuxPolynomial.from_coeffs({0: random_series(rng), 1: random_series(rng)})
        g = PuiseuxPolynomial.from_coeffs({0: random_series(rng), 2: random_series(rng)})
        fg = f * g
        if fg.is_zero:
            continue
        top = fg.degree()
        assert explode_poly(fg)[top] == \
            explode_poly(f)[f.degree()] * explode_poly(g)[g.degree()]


def test_exploded_eval():
    coeffs = {0: ExplodedScalar.of(2, 0), 1: ExplodedScalar.of(-1, 0)}
    out = exploded_eval(coeffs, ExplodedScalar.of(2, 0))
    assert out.is_corner_ghost
    with pytest.raises(DomainError):
        exploded_eval({}, ExplodedScalar.one())


def _random_exploded(rng, point, degrees=9, den=6):
    """A random degree -> exploded scalar map, on up to 6 degrees below ``degrees``,
    whose top terms at ``point`` often tie, half of those ties with sorts that
    cancel.  Values and sorts are ints or fractions of denominators up to ``den``;
    every scalar is built by ``ExplodedScalar.of``, so sorts and values are exact
    Fractions."""
    number = lambda: rng.choice([rng.randint(-6, 6), Fraction(rng.randint(-12, 12), rng.randint(1, den))])
    degrees = rng.sample(range(degrees), rng.randint(1, 6))
    coeffs = {d: ExplodedScalar.of(number() or 1, number()) for d in degrees}
    if len(degrees) >= 2 and rng.random() < 0.6:
        # Lift the first two degrees to one value above every other term.
        (d1, d2), x = degrees[:2], point.value
        top = max(c.value + d * x for d, c in coeffs.items()) + rng.randint(0, 2)
        sort = coeffs[d1].sort
        if point.sort != 0 and rng.random() < 0.5:
            other = Fraction(-sort * point.sort ** d1, point.sort ** d2)
        else:
            other = coeffs[d2].sort
        coeffs[d1] = ExplodedScalar.of(sort, top - d1 * x)
        coeffs[d2] = ExplodedScalar.of(other, top - d2 * x)
    return coeffs


def test_exploded_eval_matches_the_term_by_term_reference():
    rng = random.Random(17)
    cancelled = ties = 0
    for i in range(400):
        sort = 0 if i % 10 == 0 else rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-8, 8), 3)])
        point = ExplodedScalar.of(sort, rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 5))]))
        coeffs = _random_exploded(rng, point)
        if i % 10 == 0:
            coeffs.setdefault(0, ExplodedScalar.of(rng.randint(1, 5), rng.randint(-3, 3)))
        out = exploded_eval(coeffs, point)
        assert out == reference_exploded_eval(coeffs, point), (coeffs, point)
        cancelled += out.is_corner_ghost and point.sort != 0
        ties += sum(c.value + d * point.value == out.value for d, c in coeffs.items()) >= 2
    assert cancelled >= 30 and ties >= 100


def test_exploded_eval_matches_the_reference_at_high_degree():
    # Degrees up to 40 and sort denominators up to 9: the int sort sum carries
    # q^(40 - d) on each term for a point sort p/q, and is 0 exactly where the
    # term-by-term Fraction sum cancels.
    rng = random.Random(40)
    cancelled = ties = 0
    for i in range(300):
        sort = 0 if i % 10 == 0 else Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 9))
        point = ExplodedScalar.of(sort, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        coeffs = _random_exploded(rng, point, degrees=41, den=9)
        if i % 10 == 0:
            coeffs.setdefault(0, ExplodedScalar.of(rng.randint(1, 5), rng.randint(-3, 3)))
        out = exploded_eval(coeffs, point)
        assert out == reference_exploded_eval(coeffs, point), (coeffs, point)
        cancelled += out.is_corner_ghost and point.sort != 0
        ties += sum(c.value + d * point.value == out.value for d, c in coeffs.items()) >= 2
    assert cancelled >= 30 and ties >= 100, (cancelled, ties)


def _random_puiseux_polynomial(rng):
    """A product of random roots, or a polynomial from random coefficients whose
    lowest exponents are mostly ints of either sign, some fractions."""
    if rng.random() < 0.5:
        return PuiseuxPolynomial.from_roots([random_series(rng, max_terms=2)
                                             for _ in range(rng.randint(1, 4))])
    coeffs = {}
    for d in rng.sample(range(7), rng.randint(1, 4)):
        low = rng.choice([rng.randint(-3, 3)] * 3 + [Fraction(rng.randint(-5, 5), rng.randint(2, 3))])
        coeffs[d] = PuiseuxSeries.from_terms([(low, rng.choice([-2, 1, Fraction(1, 3)])),
                                              (low + Fraction(1, 2), 1)])
    return PuiseuxPolynomial.from_coeffs(coeffs)


@pytest.mark.parametrize("values", sorted(VALUE_FLAVORS))
@pytest.mark.parametrize("sorts", sorted(SORT_FLAVORS))
def test_trop_poly_matches_the_checking_constructors(sorts, values):
    # trop_poly checks each value once and builds the polynomial unchecked; the
    # reference builds every scalar with semiring.scalar and the polynomial with
    # the checking constructor, from f.coeffs.  Both build the same polynomial,
    # or both refuse with the same error: a fractional valuation over integer
    # values, a negative one over natural values.
    rng = random.Random(f"{sorts}/{values}")
    base = LayeredSemiring(SORT_FLAVORS[sorts], VALUE_FLAVORS[values])
    outcomes = {"built": 0, "not an integer": 0, "negative": 0}
    for i in range(120):
        sr = base.dual() if i % 2 else base
        f = _random_puiseux_polynomial(rng)
        try:
            expected = LayeredPolynomial(sr, 1, {(d,): sr.scalar(c.val()) for d, c in f.coeffs})
        except DomainError as refusal:
            with pytest.raises(DomainError) as got:
                trop_poly(sr, f)
            assert type(got.value) is type(refusal) and str(got.value) == str(refusal)
            outcomes["negative" if "negative" in str(refusal) else "not an integer"] += 1
            continue
        got = trop_poly(sr, f)
        assert got == expected and str(got) == str(expected)
        assert [(e, c.layer, c.value, type(c.value)) for e, c in got.coeffs.items()] == \
            [(e, c.layer, c.value, type(c.value)) for e, c in expected.coeffs.items()]
        outcomes["built"] += 1
    assert outcomes["built"] >= 10, outcomes
    assert (outcomes["not an integer"] >= 10) == (values != "rational"), outcomes
    assert (outcomes["negative"] >= 10) == (values == "natural"), outcomes


@pytest.mark.parametrize("coeffs", [
    {},
    {-1: ExplodedScalar.one()},
    {0: ExplodedScalar.one(), 2: ExplodedScalar.of(3, 1), -2: ExplodedScalar.of(1, 0)},
    {Fraction(1, 2): ExplodedScalar.one(), 1: ExplodedScalar.of(2, 1)},
    {1.5: ExplodedScalar.one(), -3: ExplodedScalar.one(), 0: ExplodedScalar.one()},
    {Fraction(-1, 2): ExplodedScalar.one(), -1: ExplodedScalar.one()},
])
def test_exploded_eval_refuses_like_the_reference(coeffs):
    point = ExplodedScalar.of(2, Fraction(1, 3))
    with pytest.raises(DomainError) as expected:
        reference_exploded_eval(coeffs, point)
    with pytest.raises(DomainError) as got:
        exploded_eval(coeffs, point)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", ["a", None])
def test_exploded_eval_refuses_keys_that_do_not_order_with_ints(key):
    # The keys are checked before they are ordered, so a str or None key next
    # to an int key is refused, not a TypeError from sorting them.
    with pytest.raises(DomainError) as refused:
        exploded_eval({1: ExplodedScalar.one(), key: ExplodedScalar.one()}, ExplodedScalar.one())
    assert str(refused.value) == f"exploded exponent {key!r} must be a non-negative integer"


@pytest.mark.parametrize("coeffs, point, message", [
    ({0: ExplodedScalar(1, 0), 1: ExplodedScalar(-1, 0)}, ExplodedScalar(1.5, 0),
     "sort 1.5 is not an int or a Fraction"),
    ({0: ExplodedScalar(1, 0)}, ExplodedScalar(1, 0.5), "value 0.5 is not an int or a Fraction"),
    ({0: ExplodedScalar(1, 0), 2: ExplodedScalar(0.5, 1)}, ExplodedScalar.one(),
     "sort 0.5 is not an int or a Fraction"),
    ({1: ExplodedScalar(1, 2.0)}, ExplodedScalar.one(), "value 2.0 is not an int or a Fraction"),
    ({0: ExplodedScalar(True, 0)}, ExplodedScalar.one(), "sort True is not an int or a Fraction"),
], ids=["point-sort", "point-value", "coefficient-sort", "coefficient-value", "bool-sort"])
def test_exploded_eval_refuses_inexact_sorts_and_values(coeffs, point, message):
    # The bare record constructor takes floats and bools; ExplodedScalar.of refuses them.
    with pytest.raises(DomainError) as refused:
        exploded_eval(coeffs, point)
    assert str(refused.value) == message


def test_value_maps_apply_componentwise():
    double = lambda v: 2 * v
    x = SR.scalar(Fraction(3, 2), 2)
    assert apply_value_map(x, double, SR) == SR.scalar(3, 2)
    f = trop_poly(SR, PuiseuxPolynomial.from_coeffs(
        {1: PuiseuxSeries.one(), 0: PuiseuxSeries.term(1, -2)}))
    g = apply_value_map(f, double)
    assert g.coeffs[(0,)] == SR.scalar(4)
    rng = random.Random(9)
    for _ in range(100):
        p, q = random_series(rng), random_series(rng)
        lhs = apply_value_map(trop_scalar(SR, p * q), double, SR)
        rhs = SR.mul(apply_value_map(trop_scalar(SR, p), double, SR),
                     apply_value_map(trop_scalar(SR, q), double, SR))
        assert lhs == rhs
