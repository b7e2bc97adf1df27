"""Puiseux series arithmetic, the order valuation, and exploded scalars."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from laytrop import (DomainError, ExplodedScalar, LayeredSemiring, PuiseuxPolynomial,
                     PuiseuxSeries, explode_poly, newton_polygon, random_split_product,
                     root_valuations, trop_poly)
from laytrop.puiseux import _accumulate, _matches, _product, _root_sums

from oracles import (random_series, reference_from_roots, reference_poly_add,
                     reference_poly_call, reference_poly_mul, reference_series,
                     reference_series_add, reference_series_mul, reference_trial_draws)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
term_lists = st.lists(st.tuples(rationals, rationals), max_size=5)
series = st.builds(lambda ts: PuiseuxSeries.from_terms(ts), term_lists)


def s(text_terms):
    return PuiseuxSeries.from_terms(text_terms)


def test_addition_merges_disjoint_exponents():
    p = PuiseuxSeries.term(1, -1) + PuiseuxSeries.term(2, 0)
    assert p.terms == ((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(2)))


def test_multiplication_by_zero_annihilates():
    p = s([(-1, 1), (0, 2)])
    assert (p * PuiseuxSeries.zero()).is_zero


def test_coefficient_cancellation_drops_terms():
    assert (PuiseuxSeries.term(1, 0) + PuiseuxSeries.term(-1, 0)).is_zero


def test_valuation_examples():
    assert PuiseuxSeries.term(1, -1).val() == 1
    assert PuiseuxSeries.term(2, 0).val() == 0
    assert s([(Fraction(-1, 2), 3), (0, 2)]).val() == Fraction(1, 2)
    with pytest.raises(DomainError):
        PuiseuxSeries.zero().val()


def test_leading_coefficient_examples():
    assert s([(-2, 3), (0, 5)]).leading() == 3
    assert PuiseuxSeries.term(7, Fraction(1, 2)).leading() == 7
    with pytest.raises(DomainError):
        PuiseuxSeries.zero().leading()


def test_unit_detection():
    assert s([(0, 2), (1, 1)]).is_unit()
    assert not PuiseuxSeries.term(1, -1).is_unit()


@given(series, series)
def test_unit_submonoid_closed_under_product(p, q):
    if not p.is_zero and not q.is_zero:
        # Units multiply to units, but t^a * t^-a = 1 is a unit of two non-units.
        assert (p * q).is_unit() == (p.val() + q.val() == 0)


@given(series, series)
def test_valuation_is_multiplicative(p, q):
    if not p.is_zero and not q.is_zero:
        assert (p * q).val() == p.val() + q.val()
        assert (p * q).leading() == p.leading() * q.leading()


@given(series, series)
def test_valuation_subadditivity_and_strict_drop(p, q):
    if p.is_zero or q.is_zero:
        return
    total = p + q
    bound = max(p.val(), q.val())
    cancels = p.val() == q.val() and p.leading() + q.leading() == 0
    if total.is_zero:
        assert cancels
    else:
        assert total.val() <= bound
        assert (total.val() < bound) == cancels


@given(series, series, series)
def test_field_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero
    assert p * PuiseuxSeries.one() == p


def test_polynomial_from_roots_and_evaluation():
    r1, r2 = PuiseuxSeries.term(1, -1), PuiseuxSeries.term(2, 0)
    f = PuiseuxPolynomial.from_roots([r1, r2])
    assert f.degree() == 2
    assert f(r1).is_zero and f(r2).is_zero
    assert not f(PuiseuxSeries.term(5, 0)).is_zero


def test_polynomial_ring_arithmetic():
    x = PuiseuxPolynomial.variable()
    c = PuiseuxPolynomial.constant(PuiseuxSeries.term(3, 1))
    f = x * x - c
    assert f.support() == (0, 2)
    assert (f - f).is_zero
    assert (f ** 2).degree() == 4


def test_zero_coefficients_are_dropped():
    f = PuiseuxPolynomial.from_coeffs({2: PuiseuxSeries.one(), 1: PuiseuxSeries.zero()})
    assert f.support() == (2,)


# ---------------------------------------------------------------------------
# Differential checks against the dict-accumulate and term-by-term references


def assert_canonical(p):
    exponents = [e for e, _ in p.terms]
    assert exponents == sorted(set(exponents))
    assert all(type(e) is Fraction and type(c) is Fraction and c != 0 for e, c in p.terms)


def assert_canonical_polynomial(f):
    degrees = [d for d, _ in f.coeffs]
    assert degrees == sorted(set(degrees)) and all(d >= 0 for d in degrees)
    for _, c in f.coeffs:
        assert not c.is_zero
        assert_canonical(c)


def partner_series(rng, p):
    """Zero, p's negative, p's negative plus a tail, p's exponents with new
    coefficients, or an unrelated series: sums that cancel in full, in part
    or not at all."""
    kind = rng.randrange(5)
    if kind == 0:
        return PuiseuxSeries.zero()
    if kind == 1:
        return -p
    if kind == 2:
        return -p + random_series(rng)
    if kind == 3:
        return PuiseuxSeries.from_terms((e, rng.choice([-c, c + 1, 2 * c])) for e, c in p.terms)
    return random_series(rng, allow_zero=True)


def random_polynomial(rng):
    """Sparse degrees up to 5 (gaps included), degree 0 alone, or zero."""
    kind = rng.randrange(6)
    if kind == 0:
        return PuiseuxPolynomial.zero()
    degrees = [0] if kind == 1 else rng.sample(range(6), rng.randint(1, 3))
    return PuiseuxPolynomial.from_coeffs({d: random_series(rng, max_terms=2) for d in degrees})


def partner_polynomial(rng, f):
    kind = rng.randrange(4)
    if kind == 0:
        return -f
    if kind == 1:
        return -f + random_polynomial(rng)
    if kind == 2:
        # Same degrees, some coefficients cancelling exactly.
        return PuiseuxPolynomial.from_coeffs(
            {d: -c if rng.random() < 0.5 else partner_series(rng, c) for d, c in f.coeffs})
    return random_polynomial(rng)


def test_from_terms_matches_reference():
    rng = random.Random(5)
    for _ in range(400):
        pairs = [(rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 3))]),
                  rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 4))]))
                 for _ in range(rng.randint(0, 8))]
        pairs += [(e, -Fraction(c)) for e, c in pairs if rng.random() < 0.3]  # cancel some
        p = PuiseuxSeries.from_terms(pairs)
        assert p == reference_series(pairs), pairs
        assert_canonical(p)


def test_series_arithmetic_matches_reference():
    rng = random.Random(6)
    for _ in range(500):
        p = random_series(rng, allow_zero=True)
        q = partner_series(rng, p)
        for got, expected in ((p + q, reference_series_add(p, q)),
                              (q + p, reference_series_add(q, p)),
                              (p * q, reference_series_mul(p, q))):
            assert got == expected, (p, q)
            assert_canonical(got)


def test_polynomial_arithmetic_and_evaluation_match_reference():
    rng = random.Random(7)
    zeros = 0
    for _ in range(200):
        f = random_polynomial(rng)
        g = partner_polynomial(rng, f)
        x = random_series(rng, max_terms=2, allow_zero=rng.random() < 0.2)
        total, product = f + g, f * g
        zeros += total.is_zero
        assert total == reference_poly_add(f, g), (f, g)
        assert product == reference_poly_mul(f, g), (f, g)
        assert_canonical_polynomial(total)
        assert_canonical_polynomial(product)
        for h in (f, g, total, product):
            value = h(x)
            assert value == reference_poly_call(h, x), (h, x)
            assert_canonical(value)
        # Evaluation is a ring homomorphism.
        assert product(x) == f(x) * g(x)
        assert total(x) == f(x) + g(x)
    assert zeros >= 20


def test_powers_match_repeated_reference_products():
    rng = random.Random(9)
    for _ in range(60):
        p = random_series(rng, max_terms=3, allow_zero=rng.random() < 0.1)
        f = random_polynomial(rng)
        m = rng.randint(0, 7)
        series, polynomial = PuiseuxSeries.one(), PuiseuxPolynomial.constant(PuiseuxSeries.one())
        for _ in range(m):
            series = reference_series_mul(series, p)
            polynomial = reference_poly_mul(polynomial, f)
        assert p ** m == series, (p, m)
        assert f ** m == polynomial, (f, m)
    with pytest.raises(DomainError):
        PuiseuxSeries.one() ** -1
    with pytest.raises(DomainError):
        PuiseuxPolynomial.zero() ** -1


def kernel_series(rng, denominators, max_terms=3):
    """Up to ``max_terms`` terms, exponent denominators from {1, 2, 3, 7} and
    coefficient denominators from ``denominators``; zero when terms cancel."""
    return PuiseuxSeries.from_terms(
        (Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))),
         Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.choice(denominators)))
        for _ in range(rng.randint(1, max_terms)))


LARGE = (1, 4, 10 ** 9 + 7, 2 ** 61 - 1)


def test_from_roots_matches_repeated_reference_products():
    rng = random.Random(12)
    assert PuiseuxPolynomial.from_roots([]) == PuiseuxPolynomial.constant(PuiseuxSeries.one())
    assert PuiseuxPolynomial.from_roots([PuiseuxSeries.zero()]) == PuiseuxPolynomial.variable()
    seen = {"zero": 0, "repeated": 0, "cancelled": 0}
    for _ in range(150):
        roots = [kernel_series(rng, LARGE) if rng.random() < 0.85 else PuiseuxSeries.zero()
                 for _ in range(rng.randint(0, 5))]
        if roots and rng.random() < 0.3:
            roots.append(rng.choice(roots))
            seen["repeated"] += 1
        if rng.random() < 0.3:
            r = kernel_series(rng, LARGE)
            # (L - r)(L + r) = L^2 - r^2: the L coefficient cancels.
            assert PuiseuxPolynomial.from_roots([r, -r]).support() == (0, 2)
            roots += [r, -r]
            seen["cancelled"] += 1
        rng.shuffle(roots)
        seen["zero"] += any(r.is_zero for r in roots)
        lead = rng.choice([None, kernel_series(rng, LARGE)])
        f = (PuiseuxPolynomial.from_roots(roots) if lead is None
             else PuiseuxPolynomial.from_roots(roots, lead))
        assert f == reference_from_roots(roots, lead), (roots, lead)
        assert_canonical_polynomial(f)
        assert f.is_zero or f.degree() == len(roots)
    assert min(seen.values()) >= 20, seen


def cancelling_roots(rng):
    """Roots whose product's sums cancel: zero, repeated and opposite roots, and
    pairs whose sum loses its lowest term.  With only zero roots beside them,
    opposite roots cancel a whole degree."""
    zeros_only = rng.random() < 0.3
    roots = [kernel_series(rng, LARGE, 2) if rng.random() < 0.85 and not zeros_only
             else PuiseuxSeries.zero() for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 2)):
        r = kernel_series(rng, LARGE, 2)
        if r.is_zero:
            continue
        kind = rng.randrange(3)
        if kind == 0:
            roots += [r, r]
        elif kind == 1:
            roots += [r, -r]
        else:
            # -(r + s) has no term at r's lowest exponent: a zero sum below nonzero ones.
            e, c = r.terms[0]
            roots += [r, PuiseuxSeries.from_terms([(e, -c), (e + Fraction(1, 2), 1)])]
    rng.shuffle(roots)
    return roots


def outcome(read, f):
    try:
        return read(f)
    except DomainError as error:
        return DomainError, str(error)


SR = LayeredSemiring()
PRODUCT_READS = {
    "coeffs": lambda f: f.coeffs,
    "str": str,
    "repr": repr,
    "is_zero": lambda f: f.is_zero,
    "degree": lambda f: f.degree(),
    "support": lambda f: f.support(),
    "coefficient": lambda f: [f.coefficient(d) for d in range(-1, 12)],
    "lowest_terms": lambda f: f.lowest_terms,
    "trop_poly": lambda f: (trop_poly(SR, f), str(trop_poly(SR, f))),
    "explode_poly": lambda f: list(explode_poly(f).items()),
    "newton_polygon": newton_polygon,
    "root_valuations": root_valuations,
}


def test_product_reads_match_the_reference():
    # A product keeps its int sums and decodes only what is read; every public
    # read must see what it sees on the product built term by term.  That
    # decoded reference builds its own sums on first read, and its structural
    # reads must give what its terms give.
    rng = random.Random(21)
    seen = {"zero root": 0, "lowest sum cancelled": 0, "degree cancelled": 0, "zero": 0}
    for _ in range(200):
        roots = cancelling_roots(rng)
        lead = rng.choice([PuiseuxSeries.one(), kernel_series(rng, LARGE)] * 4 + [PuiseuxSeries.zero()])
        expected = reference_from_roots(roots, lead)
        coeffs = expected.coeffs  # the structural reads, straight from the reference's terms
        structure = {
            "is_zero": not coeffs,
            "degree": coeffs[-1][0] if coeffs else (DomainError, "the zero polynomial has no degree"),
            "support": tuple(d for d, _ in coeffs),
            "coefficient": [dict(coeffs).get(d, PuiseuxSeries.zero()) for d in range(-1, 12)],
            "lowest_terms": tuple((d, *c.terms[0]) for d, c in coeffs),
        }
        for name, read in PRODUCT_READS.items():
            f = PuiseuxPolynomial.from_roots(roots, lead)
            want = structure[name] if name in structure else outcome(read, expected)
            assert outcome(read, f) == want, (name, roots, lead)
            assert outcome(read, PuiseuxPolynomial(coeffs)) == want, (name, roots, lead)
            if name not in ("coeffs", "str", "repr"):
                assert "coeffs" not in vars(f), name  # read off the sums alone
        f = PuiseuxPolynomial.from_roots(roots, lead)
        assert f == expected and expected == f and hash(f) == hash(expected)
        assert_canonical_polynomial(f)
        acc, _, width, _ = f._sums
        degrees = {}
        for key in sorted(acc):
            degrees.setdefault(key % width, []).append(acc[key])
        seen["zero root"] += any(r.is_zero for r in roots)
        seen["lowest sum cancelled"] += any(not v[0] and any(v) for v in degrees.values())
        seen["degree cancelled"] += any(not any(v) for v in degrees.values())
        seen["zero"] += expected.is_zero
    assert min(seen.values()) >= 10, seen


def polynomial_of(terms):
    """The canonical polynomial of (degree, exponent, coefficient) triples."""
    by_degree = {}
    for d, e, c in terms:
        by_degree.setdefault(d, []).append((e, c))
    return PuiseuxPolynomial.from_coeffs({d: PuiseuxSeries.from_terms(ts) for d, ts in by_degree.items()})


def near_misses(rng, f, width):
    """(kind, g) pairs where g differs from the nonzero f in one place."""
    terms = [(d, e, c) for d, series in f.coeffs for e, c in series.terms]
    i = rng.randrange(len(terms))
    d, e, c = terms[i]
    others = terms[:i] + terms[i + 1:]
    return [
        ("coefficient", polynomial_of([*others, (d, e, c * rng.choice((2, -1, Fraction(1, 3))))])),
        # The caller checks that 11 does not divide scale, nor 101 den.
        ("exponent off scale", polynomial_of([*others, (d, e + Fraction(1, 11), c)])),
        ("coefficient off den", polynomial_of([*others, (d, e, c + Fraction(1, 101))])),
        ("degree at width", polynomial_of([*terms, (width, e, c)])),
        ("dropped term", polynomial_of(others)),
        ("extra term", polynomial_of([*terms, (rng.randrange(width), Fraction(rng.randint(-6, 6), 2),
                                               Fraction(rng.choice((-3, 3)), 5))])),
    ]


def on_scales(g, scale, width, den):
    """g as a product keeping int sums on the given scales, or, where one of its
    terms has no sum there, as a product on its own scales."""
    acc = {}
    for d, series in g.coeffs:
        for e, c in series.terms:
            if d >= width or scale % e.denominator or den % c.denominator:
                return g * PuiseuxPolynomial.constant(PuiseuxSeries.one())
            acc[e.numerator * (scale // e.denominator) * width + d] = c.numerator * (den // c.denominator)
    return _product((acc, scale, width, den))


def test_int_identity_agrees_with_fraction_equality():
    # The kapranov_verify identity compares f with the int sums of
    # lead * prod(L - r); == on the reference product is the oracle.  f built
    # term by term, and a product on other scales, are compared as decoded
    # coefficients; a product keeping sums on the identity's scales is
    # compared as a dict.
    rng = random.Random(19)
    refused, paths = {}, {"dict": 0, "decoded": 0}
    for _ in range(120):
        roots = [kernel_series(rng, LARGE) for _ in range(rng.randint(0, 5))]
        if roots and rng.random() < 0.3:
            r = rng.choice(roots)
            roots += [-r]  # cancels the middle coefficient of (L - r)(L + r)
        lead = rng.choice([PuiseuxSeries.one(), kernel_series(rng, LARGE, 1),
                           kernel_series(rng, LARGE)])
        if lead.is_zero:
            continue
        f = reference_from_roots(roots, lead)
        sums = _root_sums(roots, lead)
        acc, scale, width, den = sums
        product = PuiseuxPolynomial.from_roots(roots, lead)
        assert product._sums[1:] == (scale, width, den)
        # Zero sums are no terms, and sums on another den are compared decoded.
        padded = _product(({**acc, rng.choice([-1, 1]) * (max(map(abs, acc)) + 1): 0}, scale, width, den))
        rescaled = _product(({k: 3 * v for k, v in acc.items()}, scale, width, 3 * den))
        for g in (f, product, padded, rescaled):
            assert _matches(g, *sums), (roots, lead)
        assert scale % 11 and den % 101
        for kind, g in near_misses(rng, f, width):
            kept = on_scales(g, scale, width, den)
            assert g != f and not _matches(g, *sums) and not _matches(kept, *sums), (kind, g, roots, lead)
            refused[kind] = refused.get(kind, 0) + 1
            paths["dict" if kept._sums[1:] == (scale, width, den) else "decoded"] += 1
    assert min(refused.values()) >= 50 and min(paths.values()) >= 50, (refused, paths)


def test_int_identity_refuses_each_near_miss():
    # Each refused f here would pass an int comparison of its terms, scaled onto
    # the identity's scales, that left out one check; decoded equality needs none.
    one, two, t = (PuiseuxSeries.constant(1), PuiseuxSeries.constant(2),
                   PuiseuxSeries.term(1, 1))
    cases = [
        # Every term of L^2 + 2 matches L^2 - 3L + 2; only the count of
        # nonzero sums refuses it.
        ([(2, 0, 1), (0, 0, 2)], [one, two], one, False),
        # t^(1/2) has a denominator not dividing scale 1: scaled by floor
        # division it would take the key of t^0.
        ([(2, 0, 1), (1, 0, -3), (0, Fraction(1, 2), 2)], [one, two], one, False),
        # 1/2 has a denominator not dividing den 1: scaled by floor division
        # it would match the cancelled middle sum of (L - 1)(L + 1).
        ([(2, 0, 1), (1, 0, Fraction(1, 2)), (0, 0, -1)], [one, -one], one, False),
        # Degree 1 is width 1 here: k * width + d would alias t * L^0.
        ([(1, 0, 1), (0, 0, 1)], [], one + t, False),
        # The cancelled middle sum of (L - 2t)(L + 2t) is no coefficient.
        ([(2, 0, 1), (1, 1, 1), (0, 2, -4)], [two * t, -(two * t)], one, False),
        ([(2, 0, 1), (0, 2, -4)], [two * t, -(two * t)], one, True),
        # A non-unit lead scales every coefficient.
        ([(1, -2, 3), (0, -2, -3)], [one], PuiseuxSeries.term(3, -1), False),
        ([(1, -1, 3), (0, -1, -3)], [one], PuiseuxSeries.term(3, -1), True),
        # An empty root list leaves the lead alone.
        ([(0, 0, 1)], [], two, False),
        ([(0, 0, 2)], [], two, True),
    ]
    for terms, roots, lead, equal in cases:
        f = polynomial_of(terms)
        assert (f == reference_from_roots(roots, lead)) == equal, terms
        assert _matches(f, *_root_sums(roots, lead)) == equal, terms


def generic_root_sums(roots, lead):
    """lead * prod(L - r) by the generic lift: each factor given as (degree,
    series) pairs, with -r built as a series."""
    one = PuiseuxSeries.one()
    return _accumulate([((0, lead),), *(((1, one), (0, -r)) for r in roots)])


def test_root_lift_matches_the_generic_lift_and_the_reference():
    # _root_sums lifts each root's terms straight into L - r, negating the
    # coefficients as ints; its sums, zero sums and scales included, are the
    # generic lift's, on the least width (one more than the degree), and
    # their polynomial is the reference product.  Roots come from the CLI's
    # draw at degrees 1-12 (where random_split_product's roots must be the
    # terms c*t^e the reference draw gives), and from zero, repeated,
    # opposite and multi-term roots; leads are 1, one term, several terms,
    # or 0.
    rng = random.Random(33)
    cases = []
    draws = reference_trial_draws(12, 60, 2033)
    trial_rng = random.Random(2033)
    for pairs in draws:
        f, roots = random_split_product(trial_rng, trial_rng.randint(1, 12))
        assert roots == [PuiseuxSeries.term(c, e) for c, e in pairs]
        for r in roots:
            assert_canonical(r)
        assert f == reference_from_roots(roots), pairs
        cases.append((roots, PuiseuxSeries.one()))
    assert {len(pairs) for pairs in draws} == set(range(1, 13))
    for _ in range(120):
        roots = rng.choice([cancelling_roots(rng),
                            [kernel_series(rng, LARGE) for _ in range(rng.randint(0, 4))]])
        lead = rng.choice([PuiseuxSeries.one(), kernel_series(rng, LARGE, 1),
                           kernel_series(rng, LARGE), PuiseuxSeries.zero()])
        cases.append((roots, lead))
    seen = {"zero root": 0, "repeated": 0, "opposite": 0, "multi-term root": 0,
            "multi-term lead": 0, "zero lead": 0}
    for roots, lead in cases:
        sums = _root_sums(roots, lead)
        assert sums == generic_root_sums(roots, lead) and sums[2] == len(roots) + 1, (roots, lead)
        assert _product(sums) == reference_from_roots(roots, lead), (roots, lead)
        seen["zero root"] += any(r.is_zero for r in roots)
        seen["repeated"] += len(set(roots)) < len(roots)
        seen["opposite"] += any(-r in roots for r in roots if not r.is_zero)
        seen["multi-term root"] += any(len(r.terms) > 1 for r in roots)
        seen["multi-term lead"] += len(lead.terms) > 1
        seen["zero lead"] += lead.is_zero
    assert min(seen.values()) >= 10, seen


def test_products_with_unrelated_denominators_match_reference():
    rng = random.Random(13)
    for _ in range(150):
        f, g = (PuiseuxPolynomial.from_coeffs(
                    (d, kernel_series(rng, dens)) for d in rng.sample(range(6), rng.randint(1, 4)))
                for dens in ((3, 7, 10 ** 9 + 7), (2, 10, 2 ** 61 - 1)))
        for product, expected in ((f * g, reference_poly_mul(f, g)),
                                  (g * f, reference_poly_mul(g, f)),
                                  (f * -f, reference_poly_mul(f, -f))):
            assert product == expected, (f, g)
            assert_canonical_polynomial(product)


def test_a_zero_factor_makes_a_zero_product():
    # The product kernel seeds each factor's sums from its first term, and a
    # zero factor has none: series and polynomial products with a zero factor
    # on either side, or between two factors, are zero, as by the reference.
    rng = random.Random(29)
    zero_series, zero = PuiseuxSeries.zero(), PuiseuxPolynomial.zero()
    for _ in range(30):
        p = random_series(rng)
        assert p * zero_series == zero_series * p == reference_series_mul(p, zero_series) == zero_series
        assert zero_series ** rng.randint(1, 3) == zero_series
        f = PuiseuxPolynomial.from_roots([random_series(rng) for _ in range(rng.randint(1, 3))])
        for product in (f * zero, zero * f, zero * zero, f * PuiseuxPolynomial.constant(zero_series),
                        _product(_accumulate((f.coeffs, (), f.coeffs))),
                        PuiseuxPolynomial.from_roots([p], zero_series)):
            assert product.is_zero and product == zero == reference_poly_mul(f, zero), f
            assert product.lowest_terms == () and product.coefficient(0) == zero_series


def test_from_coeffs_pairs_add_like_degrees():
    rng = random.Random(8)
    for _ in range(200):
        pairs = [(rng.randint(0, 4), random_series(rng, max_terms=2, allow_zero=True))
                 for _ in range(rng.randint(0, 6))]
        pairs += [(d, -c) for d, c in pairs if rng.random() < 0.3]
        expected = PuiseuxPolynomial.zero()
        for d, c in pairs:
            expected = reference_poly_add(expected, PuiseuxPolynomial.from_coeffs({d: c}))
        f = PuiseuxPolynomial.from_coeffs(pairs)
        assert f == expected, pairs
        assert_canonical_polynomial(f)
    with pytest.raises(DomainError):
        PuiseuxPolynomial.from_coeffs([(1, PuiseuxSeries.one()), (-1, PuiseuxSeries.one())])


# ---------------------------------------------------------------------------
# Exploded scalars


def test_exploded_addition_rules():
    add = lambda a, b: ExplodedScalar.of(*a) + ExplodedScalar.of(*b)
    assert add((2, 5), (3, 5)) == ExplodedScalar.of(5, 5)
    ghost = add((2, 5), (-2, 5))
    assert ghost == ExplodedScalar.of(0, 5) and ghost.is_corner_ghost
    assert add((2, 5), (9, 1)) == ExplodedScalar.of(2, 5)


def test_exploded_multiplication_rules():
    mul = lambda a, b: ExplodedScalar.of(*a) * ExplodedScalar.of(*b)
    assert mul((2, 5), (3, 1)) == ExplodedScalar.of(6, 6)
    assert mul((0, 5), (3, 1)) == ExplodedScalar.of(0, 6)
    x = ExplodedScalar.of(4, -2)
    assert x * ExplodedScalar.one() == x


def test_exploded_addition_laws():
    rng = random.Random(11)
    for _ in range(300):
        xs = [ExplodedScalar.of(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-3, 3)))
              for _ in range(3)]
        a, b, c = xs
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)


@given(series, series)
def test_explosion_is_multiplicative(p, q):
    from laytrop import explode_scalar
    if not p.is_zero and not q.is_zero:
        assert explode_scalar(p * q) == explode_scalar(p) * explode_scalar(q)


@given(series, series)
def test_exploded_addition_agrees_with_field_addition_without_cancellation(p, q):
    from laytrop import explode_scalar
    if p.is_zero or q.is_zero or (p + q).is_zero:
        return
    summed = explode_scalar(p) + explode_scalar(q)
    if not summed.is_corner_ghost:
        assert summed == explode_scalar(p + q)
    else:
        # a corner ghost marks exactly the leading cancellation
        assert (p + q).val() < max(p.val(), q.val())


def test_random_series_oracle_is_sane():
    rng = random.Random(3)
    for _ in range(50):
        p = random_series(rng)
        assert not p.is_zero
        assert all(c != 0 for _, c in p.terms)
        assert list(p.terms) == sorted(p.terms)
