"""Newton polygons, root valuations, and the correspondence verifier."""

import json
import random
from fractions import Fraction

import pytest

from laytrop import (DomainError, LayeredSemiring, PuiseuxPolynomial,
                     PuiseuxSeries, bourbaki_extension, kapranov_verify,
                     newton_polygon, random_split_product, root_valuations,
                     trop_poly, univariate_corner_roots,
                     verify_random_products)

from oracles import brute_lower_hull, initial_form_identity, random_value, reference_from_roots

SR = LayeredSemiring()


def series(c, e):
    return PuiseuxSeries.term(c, e)


def split_product(*roots):
    rs = [series(c, e) for c, e in roots]
    return PuiseuxPolynomial.from_roots(rs), rs


def test_newton_polygon_of_mixed_quadratic():
    f, _ = split_product((1, -1), (2, 0))
    np = newton_polygon(f)
    assert np.support == ((0, Fraction(-1)), (1, Fraction(-1)), (2, Fraction(0)))
    assert [(s.slope, s.length) for s in np.segments] == [(0, 1), (1, 1)]


def test_monomial_has_empty_polygon():
    f = PuiseuxPolynomial.from_coeffs({3: series(5, 2)})
    assert newton_polygon(f).segments == ()
    assert root_valuations(f) == ()


def test_binomial_polygon_has_one_long_segment():
    m = 4
    f = PuiseuxPolynomial.from_coeffs(
        {m: PuiseuxSeries.one(), 0: -series(1, -m)})
    segments = newton_polygon(f).segments
    assert [(s.slope, s.length) for s in segments] == [(1, m)]
    assert root_valuations(f) == (1, 1, 1, 1)


def test_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        newton_polygon(PuiseuxPolynomial.zero())


def random_newton_case(rng):
    """A Puiseux polynomial of degree <= 12 with coefficients of up to four
    terms; about half the lowest exponents lie on one line, so the support
    has collinear points."""
    a, b = random_value(rng, span=3, den=2), random_value(rng, span=2, den=3)
    coeffs = {}
    for d in rng.sample(range(13), rng.randint(1, 9)):
        low = a + b * d if rng.random() < 0.5 else random_value(rng, span=6, den=3)
        higher = [(low + Fraction(rng.randint(1, 6), rng.randint(1, 3)), random_value(rng))
                  for _ in range(rng.randint(0, 3))]
        coeffs[d] = PuiseuxSeries.from_terms([(low, rng.choice([-2, -1, 1, 3]))] + higher)
    return PuiseuxPolynomial.from_coeffs(coeffs)


def test_newton_polygon_matches_the_chord_oracle():
    rng = random.Random(28)
    for _ in range(300):
        f = random_newton_case(rng)
        polygon = newton_polygon(f)
        assert polygon.support == tuple((d, c.terms[0][0]) for d, c in sorted(f.coeffs))
        hull = brute_lower_hull(polygon.support)
        assert [(s.slope, s.length) for s in polygon.segments] == [
            ((y2 - y1) / (x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])], f


def test_root_valuations_of_known_products():
    f, _ = split_product((1, -1), (2, 0))
    assert root_valuations(f) == (0, 1)
    a = Fraction(3, 2)
    g, _ = split_product((1, a), (1, a))
    assert root_valuations(g) == (-a, -a)


def test_valuation_count_matches_degree():
    rng = random.Random(23)
    for _ in range(50):
        f, roots = random_split_product(rng, rng.randint(1, 6))
        assert len(root_valuations(f)) == len(roots) == f.degree()


def test_bourbaki_extension_ties_monomials():
    alpha = PuiseuxSeries.one()
    beta = PuiseuxSeries.from_terms([(-1, 1), (0, 5)])  # valuation 1
    v = bourbaki_extension(alpha, 2, beta, 1)
    assert v == 1
    assert bourbaki_extension(beta, 1, alpha, 2) == v
    with pytest.raises(DomainError):
        bourbaki_extension(alpha, 2, beta, 2)


def test_bourbaki_extension_reproduces_tie_points():
    rng = random.Random(24)
    for _ in range(50):
        f, _ = random_split_product(rng, rng.randint(2, 5))
        image = trop_poly(SR, f)
        hull_roots = dict(univariate_corner_roots(image))
        support = f.support()
        for i, j in zip(support, support[1:]):
            v = bourbaki_extension(f.coefficient(i), i, f.coefficient(j), j)
            a = (SR.scalar(v),)
            assert SR.nu_equivalent(image.monomial_value((i,), a),
                                    image.monomial_value((j,), a))
        # segment endpoints reproduce the corner roots themselves
        hull = [(d, -f.coefficient(d).val()) for d in support]
        for (i, _), (j, _) in zip(hull, hull[1:]):
            v = bourbaki_extension(f.coefficient(i), i, f.coefficient(j), j)
            if v in hull_roots:
                assert image.is_corner_root((SR.scalar(v),))


def test_verifier_on_distinct_valuations():
    f, roots = split_product((1, -1), (2, 0))
    report = kapranov_verify(f, roots)
    assert report.passed
    assert report.corner_roots == [("0", 1), ("1", 1)]
    # Roots and valuations are formatted when read, in the text they always had.
    assert report.roots == ["t^(-1)", "2"] and report.root_vals == ["0", "1"]
    assert json.dumps(report.to_json()) == (
        '{"poly": "L^2 + (-1)*t^(-1)*L + (-2)*L + 2*t^(-1)", "roots": ["t^(-1)", "2"], '
        '"valuations": ["0", "1"], "corner_roots": [{"root": "0", "mult": 1}, '
        '{"root": "1", "mult": 1}], "forward": true, "reverse": true, "exploded": true, '
        '"pass": true}')


def test_verifier_on_equal_valuations():
    f, roots = split_product((1, 1), (2, 1))
    report = kapranov_verify(f, roots)
    assert report.passed
    assert report.corner_roots == [("-1", 2)]


def test_verifier_on_linear_polynomial():
    f, roots = split_product((Fraction(5, 3), Fraction(-7, 2)))
    report = kapranov_verify(f, roots)
    assert report.passed
    assert report.corner_roots == [(str(Fraction(7, 2)), 1)]


def test_verifier_rejects_non_roots():
    f, roots = split_product((1, -1), (2, 0))
    with pytest.raises(DomainError):
        kapranov_verify(f, roots + [series(3, 0)])


def test_verifier_refuses_root_lists_that_do_not_factor_f():
    # Each claimed root annihilates f and the valuation multisets agree, yet
    # a repeated root stands in for a missing root of equal valuation.
    f, _ = split_product((1, 0), (2, 0))
    # (L - 1)^2 = L^2 - 2L + 1 first differs from f = L^2 - 3L + 2 at degree 0
    with pytest.raises(DomainError, match=r"not all the roots of L\^2 \+ \(-3\)\*L \+ 2, with "
                       r"multiplicity: at degree 0, f has 2 but lead\(f\) \* prod\(L - r\) has 1$"):
        kapranov_verify(f, [series(1, 0), series(1, 0)])
    f, roots = split_product((1, -1), (3, -1), (5, 2))
    with pytest.raises(DomainError):
        kapranov_verify(f, [series(1, -1), series(1, -1), series(5, 2)])
    with pytest.raises(DomainError):  # a partial list
        kapranov_verify(f, roots[:2])
    assert kapranov_verify(f, roots).passed


def test_refusal_prints_0_for_a_degree_absent_from_f():
    # Every term of f = L^2 + 2 is a term of L^2 - 3L + 2; they first differ
    # at degree 1, where f has no coefficient.
    f = PuiseuxPolynomial.from_coeffs({2: series(1, 0), 0: series(2, 0)})
    with pytest.raises(DomainError, match=r"not all the roots of L\^2 \+ 2, with multiplicity: at "
                       r"degree 1, f has 0 but lead\(f\) \* prod\(L - r\) has \(-3\)$"):
        kapranov_verify(f, [series(1, 0), series(2, 0)])


def test_refusal_text_names_the_lowest_differing_degree():
    # The refusal is decoded from the identity's int sums; the expected text
    # is built from the reference product instead.
    rng = random.Random(79)
    for _ in range(100):
        roots = [_random_root(rng) for _ in range(rng.randint(1, 4))]
        f = PuiseuxPolynomial.from_roots(roots)
        # A term below the top degree, absent from f or cancelling part of it.
        term = series(rng.choice((-1, 1)), Fraction(rng.randint(-2, 4), 2))
        g = f + PuiseuxPolynomial.from_coeffs({rng.randrange(f.degree()): term})
        product = reference_from_roots(roots, g.coeffs[-1][1])
        low = min(d for d in {*g.support(), *product.support()}
                  if g.coefficient(d) != product.coefficient(d))
        expected = (f"the claimed roots are not all the roots of {g}, with multiplicity: at degree "
                    f"{low}, f has {g.coefficient(low)} but lead(f) * prod(L - r) has "
                    f"{product.coefficient(low)}")
        with pytest.raises(DomainError) as refusal:
            kapranov_verify(g, roots)
        assert str(refusal.value) == expected


def test_verifier_refuses_a_zero_root_by_name():
    # f = L^2 - L factors as L * (L - 1): the identity holds, but the root 0
    # has no valuation, so the claim is refused naming both.
    roots = [PuiseuxSeries.zero(), PuiseuxSeries.one()]
    f = PuiseuxPolynomial.from_roots(roots)
    with pytest.raises(DomainError, match=r"claimed roots \[0, 1\] of L\^2 \+ \(-1\)\*L include 0"):
        kapranov_verify(f, roots)


def _random_root(rng):
    """c*t^e and up to two higher terms, e in {-1, 0, 1} so valuations repeat."""
    e = Fraction(rng.randint(-1, 1))
    terms = [(e, rng.choice([-3, -2, -1, 1, 2, 3]))]
    terms += [(e + Fraction(rng.randint(1, 3), 2), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
    return PuiseuxSeries.from_terms(terms)


def test_verifier_refuses_a_duplicated_or_perturbed_root():
    rng = random.Random(77)
    duplicated = 0
    for _ in range(150):
        roots = [_random_root(rng) for _ in range(rng.randint(2, 5))]
        f = PuiseuxPolynomial.from_roots(roots)
        assert kapranov_verify(f, roots).passed
        twins = [(i, j) for i, r in enumerate(roots) for j, q in enumerate(roots)
                 if i != j and r != q and r.val() == q.val()]
        if twins:
            i, j = rng.choice(twins)
            with pytest.raises(DomainError):
                kapranov_verify(f, roots[:j] + [roots[i]] + roots[j + 1:])
            duplicated += 1
        i = rng.randrange(len(roots))
        (e, c), *rest = roots[i].terms
        lead = c + rng.choice([n for n in (-2, -1, 1, 2) if c + n])
        with pytest.raises(DomainError):
            kapranov_verify(f, roots[:i] + [PuiseuxSeries(((e, lead), *rest))] + roots[i + 1:])
    assert duplicated >= 50


def test_verifier_agrees_with_the_initial_form_oracle():
    # f is built by the reference products and the oracle reads leading
    # coefficients only, so neither side of the check runs the product kernel.
    rng = random.Random(78)
    decided = undecided = 0
    for _ in range(150):
        roots = [_random_root(rng) for _ in range(rng.randint(1, 5))]
        f = reference_from_roots(roots)
        for claimed in (roots, roots[::-1]):
            assert initial_form_identity(f, claimed)
            assert kapranov_verify(f, claimed).passed
        wrong = []
        twins = [(i, j) for i, r in enumerate(roots) for j, q in enumerate(roots)
                 if i != j and r != q and r.val() == q.val()]
        if twins:
            i, j = rng.choice(twins)
            wrong.append(roots[:j] + [roots[i]] + roots[j + 1:])
        i = rng.randrange(len(roots))
        (e, c), *rest = roots[i].terms
        for head, tail in (((e, c + rng.choice([n for n in (-2, -1, 1, 2) if c + n])), rest),
                           ((e + rng.choice((-1, 1)), c), rest),
                           ((e, c), [(x, y + 1) for x, y in rest] or [(e + 5, Fraction(1))])):
            wrong.append(roots[:i] + [PuiseuxSeries.from_terms([head, *tail])] + roots[i + 1:])
        for claimed in wrong:
            with pytest.raises(DomainError):
                kapranov_verify(f, claimed)
            if initial_form_identity(f, claimed):
                undecided += 1
            else:
                decided += 1
    assert decided >= 300 and undecided >= 150, (decided, undecided)
    f, _ = split_product((1, 0), (2, 0))
    assert not initial_form_identity(f, [series(1, 0), series(1, 0)])


def test_verifier_refuses_descending_views():
    # The correspondence is stated in the max convention: a min view would
    # report these correct roots as one corner root 1/2 of multiplicity 2.
    f, roots = split_product((1, -1), (2, 0))
    with pytest.raises(DomainError):
        kapranov_verify(f, roots, SR.dual())
    with pytest.raises(DomainError):
        verify_random_products(3, 2, 0, SR.dual())


def test_cancelling_middle_coefficient():
    # opposite roots cancel the middle coefficient entirely
    f, roots = split_product((2, 1), (-2, 1))
    assert f.support() == (0, 2)
    assert kapranov_verify(f, roots).passed


def test_exploded_residual_detects_all_leads():
    from laytrop import ExplodedScalar, explode_poly, exploded_eval
    f, roots = split_product((1, -1), (2, -1), (7, 0))
    exploded = explode_poly(f)
    for r in roots:
        out = exploded_eval(exploded, ExplodedScalar(r.leading(), r.val()))
        assert out.is_corner_ghost
    # a unit with the right valuation but a wrong lead is not a residual root
    out = exploded_eval(exploded, ExplodedScalar.of(5, 1))
    assert not out.is_corner_ghost


def test_exploded_check_fails_when_a_corner_sort_moves(monkeypatch):
    # Degree 0 is a hull vertex, so moving its sort moves the exploded sum
    # at that corner root off sort 0; the plain checks never read the sorts.
    from laytrop import ExplodedScalar, kapranov
    explode_poly = kapranov.explode_poly

    def shifted(f):
        out = explode_poly(f)
        out[0] = ExplodedScalar(out[0].sort + 1, out[0].value)
        return out

    rng = random.Random(31)
    products = [split_product((1, -1), (2, 0))]
    products += [random_split_product(rng, rng.randint(1, 6)) for _ in range(20)]
    honest = [kapranov_verify(f, roots) for f, roots in products]
    monkeypatch.setattr(kapranov, "explode_poly", shifted)
    for (f, roots), before in zip(products, honest):
        after = kapranov_verify(f, roots)
        assert before.passed and after.exploded_ok is False and after.passed is False
        assert (after.forward_ok, after.reverse_ok) == (before.forward_ok, before.reverse_ok)


def test_random_trial_summary():
    summary = verify_random_products(degree=5, trials=40, seed=123)
    assert summary.passed and summary.trials == 40
    data = summary.to_json()
    assert data["pass"] is True and data["failures"] == []
    with pytest.raises(DomainError):
        verify_random_products(0, 1, 0)
