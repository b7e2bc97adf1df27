"""Acceptance suite: exact reproduction of the worked examples plus law batteries.

Each criterion runs at its stated size and prints one pass/fail line with
its runtime (use ``pytest -s`` to see them).  Every expected value is exact;
no tolerance is numeric.
"""

import random
import time
from fractions import Fraction

from laytrop import (COUNTING, INF, RATIONALS, SUPERTROPICAL, TRIVIAL,
                     ExplodedScalar, GridSpec, LayeredPolynomial,
                     LayeredSemiring, explode_scalar, functionally_equal,
                     layering_map_set, univariate_corner_roots,
                     verify_random_products, zariski_roundtrip)

from oracles import brute_corner_roots, random_poly, random_series, random_tangible_univariate

NAT = LayeredSemiring(COUNTING, RATIONALS)
SUP = LayeredSemiring(SUPERTROPICAL, RATIONALS)
TRIV = LayeredSemiring(TRIVIAL, RATIONALS)


def _finish(name, start, budget):
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} {name}  ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def tangible(sr, nvars, mapping):
    return LayeredPolynomial(sr, nvars, {e: sr.scalar(v) for e, v in mapping.items()})


# ---------------------------------------------------------------------------
# 1. Stacked two-ray family: layering values on a rational grid


def test_criterion_1_two_ray_family_layering():
    start = time.perf_counter()
    values = [Fraction(n, 2) for n in range(-10, 11)]  # 21 rational samples
    assert len(values) == 21

    def family(k):
        return tangible(NAT, 2, {(k, 0): 0, (0, 1): 0, (0, 0): 0})

    def expected(k, a1, a2):
        if a1 == 0 and a2 == 0:
            return 3
        if (a1 == 0 and a2 < 0) or (a2 == 0 and a1 < 0) or (k * a1 == a2 and a2 > 0):
            return 2
        return 1

    for k in (1, 2, 3):
        f = family(k)
        for a1 in values:
            for a2 in values:
                point = (NAT.scalar(a1), NAT.scalar(a2))
                assert f.layering(point) == expected(k, a1, a2), (k, a1, a2)

    members = [family(k) for k in range(1, 6)]
    for a1 in values:
        for a2 in values:
            point = (NAT.scalar(a1), NAT.scalar(a2))
            layer = layering_map_set(members, point)
            on_rays = (a1 == 0 and a2 < 0) or (a2 == 0 and a1 < 0)
            assert (layer == 2) == on_rays, (a1, a2, layer)

    shifted = [tangible(NAT, 1, {(1,): 0, (0,): 2}),
               tangible(NAT, 1, {(1,): 0, (0,): 3})]
    assert layering_map_set(shifted, (NAT.scalar(4, 2),)) == 2
    _finish("criterion 1 (two-ray family layering)", start, 1.0)


# ---------------------------------------------------------------------------
# 2. Symmetric products: coefficient layers and functional comparison


def test_criterion_2_symmetric_product_layers():
    start = time.perf_counter()

    def build(sr):
        x, y, z = (LayeredPolynomial.variable(sr, 3, i) for i in range(3))
        left = x.add(y).add(z).mul(x.mul(y).add(x.mul(z)).add(y.mul(z)))
        right = x.add(y).mul(x.add(z)).mul(y.add(z))
        return left, right

    left, right = build(NAT)
    assert left.coeffs[(1, 1, 1)].layer == 3
    assert right.coeffs[(1, 1, 1)].layer == 2

    assert not functionally_equal(left, right)

    left_t, right_t = build(TRIV)
    assert functionally_equal(left_t, right_t)
    _finish("criterion 2 (symmetric product layers)", start, 1.0)


# ---------------------------------------------------------------------------
# 3. Semiring and layer law battery


def test_criterion_3_law_battery():
    start = time.perf_counter()
    rng = random.Random(1003)

    def scalar(sr):
        if sr is SUP:
            layer = INF if rng.random() < 0.3 else 1
        else:
            layer = INF if rng.random() < 0.1 else rng.randint(1, 6)
        return sr.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), layer)

    for _ in range(10_000):
        x, y, z = scalar(NAT), scalar(NAT), scalar(NAT)
        add, mul = NAT.add, NAT.mul

        assert add(x, y) == add(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(x, y) == mul(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert mul(x, NAT.one()) == x

        s = add(x, y)
        assert s.value in (x.value, y.value)                      # nu-bipotence
        assert mul(x, y).layer == COUNTING.mul(x.layer, y.layer)  # sort law
        assert s.layer in (x.layer, y.layer, COUNTING.add(x.layer, y.layer))
        if x.value == y.value:
            assert s.layer == COUNTING.add(x.layer, y.layer)
            assert s.value == x.value
            if x.layer == INF:
                assert s == x                                     # inf absorbs

        k, l = rng.randint(1, 6), rng.randint(1, 6)
        assert NAT.mul(NAT.e(k), NAT.e(l)) == NAT.e(k * l)
        assert NAT.add(NAT.e(k), NAT.e(l)) == NAT.e(k + l)

        m = rng.randint(1, 6)
        lhs = NAT.pow(add(x, y), m)
        rhs = add(NAT.pow(x, m), NAT.pow(y, m))
        if x.value != y.value:
            assert lhs == rhs
        assert NAT.surpasses(lhs, rhs)

        if NAT.surpasses(x, y):
            assert NAT.surpasses(mul(x, z), mul(y, z))

        a, b, c = scalar(SUP), scalar(SUP), scalar(SUP)
        if SUP.surpasses(a, b):
            assert SUP.surpasses(SUP.add(a, c), SUP.add(b, c))
            assert SUP.surpasses(SUP.mul(a, c), SUP.mul(b, c))

    _finish("criterion 3 (semiring/layer laws, 10^4 triples)", start, 10.0)


# ---------------------------------------------------------------------------
# 4. Exact univariate roots against the brute-force oracle


def test_criterion_4_univariate_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(500):
        f = random_tangible_univariate(rng, NAT, max_degree=8)
        data = [(e[0], c.value) for e, c in sorted(f.coeffs.items())]
        solved = univariate_corner_roots(f)
        assert solved == brute_corner_roots(data), data
        # grid refinement: detection flips exactly at the computed roots
        roots = dict(solved)
        probes = set(roots)
        for x in roots:
            probes.update({x - Fraction(1, 13), x + Fraction(1, 13)})
        for x in probes:
            assert f.is_corner_root((NAT.scalar(x),)) == (x in roots)
    _finish("criterion 4 (univariate oracle, 500 polynomials)", start, 30.0)


# ---------------------------------------------------------------------------
# 5. Univariate correspondence on random split products


def test_criterion_5_valuation_correspondence():
    start = time.perf_counter()
    summary = verify_random_products(degree=6, trials=200, seed=1005, semiring=NAT)
    assert summary.trials == 200
    assert summary.passed, summary.failures[:3]
    _finish("criterion 5 (valuation correspondence, 200 products)", start, 30.0)


def test_high_degree_valuation_correspondence():
    start = time.perf_counter()
    summary = verify_random_products(degree=30, trials=10, seed=0)
    assert summary.trials == 10
    assert summary.passed, summary.failures[:3]
    _finish("criterion 5 at high degree (10 products of degree up to 30)", start, 5.0)


# ---------------------------------------------------------------------------
# 6. Valuation laws on random series pairs


def test_criterion_6_valuation_laws():
    start = time.perf_counter()
    rng = random.Random(1006)
    for _ in range(10_000):
        p = random_series(rng)
        if rng.random() < 0.3:
            # force a leading cancellation so the strict drop is exercised
            q = _cancelling_partner(p, random_series(rng))
        else:
            q = random_series(rng)

        assert (p * q).val() == p.val() + q.val()
        assert explode_scalar(p * q) == explode_scalar(p) * explode_scalar(q)

        total = p + q
        bound = max(p.val(), q.val())
        cancels = p.val() == q.val() and p.leading() + q.leading() == 0
        if total.is_zero:
            assert cancels
        else:
            assert total.val() <= bound
            assert (total.val() < bound) == cancels
    _finish("criterion 6 (valuation laws, 10^4 pairs)", start, 5.0)


def _cancelling_partner(p, tail):
    """A series with p's valuation, the opposite leading coefficient, and a tail."""
    from laytrop import PuiseuxSeries
    lowest = p.terms[0][0]
    head = PuiseuxSeries.term(-p.leading(), lowest)
    offset = lowest + 1 - tail.terms[0][0]
    shifted = PuiseuxSeries.from_terms((e + offset, c) for e, c in tail.terms)
    return head + shifted


# ---------------------------------------------------------------------------
# 7. Zariski round trips on random generator sets


def test_criterion_7_zariski_roundtrips():
    start = time.perf_counter()
    rng = random.Random(1007)
    grid = GridSpec.uniform(-5, 5, 1, 2)
    assert len(grid.points(NAT)) == 121
    for trial in range(50):
        gens = [(random_poly(rng, NAT, 2), random_poly(rng, NAT, 2))
                for _ in range(rng.randint(1, 3))]
        report = zariski_roundtrip(gens, grid, seed=trial)
        assert report.passed, report.to_json()
    _finish("criterion 7 (Zariski round trips, 50 sets)", start, 20.0)


# ---------------------------------------------------------------------------
# 8. Duality involution and the bipotence bridge


def test_criterion_8_duality_and_bipotence_bridge():
    start = time.perf_counter()
    rng = random.Random(1008)
    double_dual = NAT.dual().dual()
    dual = NAT.dual()
    for _ in range(10_000):
        layer = INF if rng.random() < 0.1 else rng.randint(1, 6)
        x = NAT.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), layer)
        y = NAT.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       rng.randint(1, 6))
        assert double_dual.add(x, y) == NAT.add(x, y)
        assert double_dual.mul(x, y) == NAT.mul(x, y)
        if x.value != y.value:
            assert dual.add(x, y) != NAT.add(x, y)  # genuinely reversed

        u = TRIV.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        v = TRIV.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        assert TRIV.le(u, v) == (u.value <= v.value)
        assert TRIV.add(u, v) in (u, v)
    _finish("criterion 8 (duality involution, bipotence bridge)", start, 5.0)
