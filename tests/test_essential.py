"""Essential monomials by the exact LP, against a Fourier-Motzkin oracle.

``oracles.fm_essential`` decides the primal strict system directly, by
elimination over the rationals; it never calls laytrop's simplex.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from laytrop import (COUNTING, INF, RATIONALS, SUPERTROPICAL, TRIVIAL,
                     LayeredPolynomial, LayeredSemiring, essential_monomials)
from laytrop.parsing import parse_polynomial

from oracles import fm_essential, random_value

NAT = LayeredSemiring(COUNTING, RATIONALS)
SUP = LayeredSemiring(SUPERTROPICAL, RATIONALS)
TRIV = LayeredSemiring(TRIVIAL, RATIONALS)

SEMIRINGS = [NAT, SUP, TRIV, NAT.dual(), SUP.dual(), TRIV.dual()]


def random_case(rng, sr, nvars):
    """A small polynomial with fractional and repeated values, where some
    monomials sit at the midpoint of two others, with the mean value
    (on a hull edge, not a vertex) or just above or below it."""
    laurent = rng.random() < 0.2
    low = -1 if laurent else 0
    values = {}
    for _ in range(rng.randint(1, 8)):
        e = tuple(rng.randint(2 * low, 3 if nvars < 3 else 2) for _ in range(nvars))
        values[e] = rng.choice([Fraction(0), Fraction(1, 2), random_value(rng, den=6)])
    for _ in range(rng.randint(0, 2)):
        a = rng.choice(list(values))
        step = [rng.randint(low, 1) for _ in a]
        mid = tuple(x + d for x, d in zip(a, step))
        b = tuple(x + 2 * d for x, d in zip(a, step))
        if any(step) and mid not in values and b not in values:
            values[b] = random_value(rng)
            values[mid] = (values[a] + values[b]) / 2 + rng.choice([0, 0, Fraction(1, 3), -1])
    layers = [1] if sr.sorts is TRIVIAL else [1, INF] if sr.sorts is SUPERTROPICAL else [1, 2, INF]
    coeffs = {e: sr.scalar(v, rng.choice(layers)) for e, v in values.items()}
    return LayeredPolynomial(sr, nvars, coeffs, laurent)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_lp_matches_fourier_motzkin(nvars):
    rng = random.Random(300 + nvars)
    for i in range(240):
        f = random_case(rng, SEMIRINGS[i % len(SEMIRINGS)], nvars)
        assert essential_monomials(f) == fm_essential(f), f


def test_edge_midpoints_are_inessential():
    line = {(0, 0): 0, (1, 1): 1, (2, 2): 2}
    f = LayeredPolynomial(NAT, 2, {e: NAT.scalar(v) for e, v in line.items()})
    assert essential_monomials(f) == ((0, 0), (2, 2))
    square = {(0, 0): 0, (2, 0): 0, (0, 2): 0, (2, 2): 0, (1, 1): 0, (1, 0): 0}
    g = LayeredPolynomial(SUP, 2, {e: SUP.scalar(v) for e, v in square.items()})
    assert essential_monomials(g) == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_four_variable_monomial_winning_far_from_the_origin():
    # (2, 1, 1, 1) wins only where x2 + x3 < -6 and 4 + x2 + x3 < x4 < -2,
    # outside any box scaled to the coefficient spread.
    f = LayeredPolynomial(NAT, 4, {(2, 2, 2, 0): NAT.scalar(1),
                                   (2, 1, 1, 2): NAT.scalar(-1),
                                   (2, 1, 1, 1): NAT.scalar(-3)})
    assert essential_monomials(f) == fm_essential(f) == ((2, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 0))
    witness = tuple(NAT.scalar(v) for v in (0, -5, -5, -4))
    assert f.dominant_part(witness) == ((2, 1, 1, 1),)


def test_29_term_trivariate_input_is_fast():
    # Fourier-Motzkin elimination (oracles.fm_essential) took 66 s on this
    # input (Python 3.11.7, 2-core x86-64); its answer is the one asserted here.
    rng = random.Random(0)
    coeffs = {}
    while len(coeffs) < 29:
        coeffs[tuple(rng.randint(0, 4) for _ in range(3))] = NAT.scalar(rng.randint(-9, 9))
    f = LayeredPolynomial(NAT, 3, coeffs)
    start = time.perf_counter()
    kept = essential_monomials(f)
    assert time.perf_counter() - start < 2.0
    assert set(f.coeffs) - set(kept) == {(0, 1, 1), (0, 4, 3), (1, 1, 1), (1, 2, 1), (1, 4, 1),
                                         (1, 4, 3), (2, 1, 2), (3, 3, 2), (4, 2, 3)}


def dense_case(rng, sr, nvars, terms, laurent):
    """``terms`` monomials from the 0..4 box (shifted to -2..2 in Laurent mode),
    with small values so that many monomials tie at the witness points."""
    low = -2 if laurent else 0
    box = list(itertools.product(range(low, low + 5), repeat=nvars))
    layers = [1] if sr.sorts is TRIVIAL else [1, INF] if sr.sorts is SUPERTROPICAL else [1, 2, INF]
    coeffs = {e: sr.scalar(rng.choice([rng.randint(-3, 3), random_value(rng, den=3)]), rng.choice(layers))
              for e in rng.sample(box, terms)}
    return LayeredPolynomial(sr, nvars, coeffs, laurent)


def test_dense_support_matches_fourier_motzkin():
    # The benchmark's slowest essential ops are dense bivariate supports of
    # 20-25 terms: certification at witness points and pruning both act here.
    rng = random.Random(2024)
    seen = set()
    for i in range(30):
        sr = SEMIRINGS[i % len(SEMIRINGS)]
        nvars, terms = (2, rng.randint(18, 25)) if i < 20 else (3, rng.randint(10, 15))
        f = dense_case(rng, sr, nvars, terms, laurent=i % 4 == 3)
        assert essential_monomials(f) == fm_essential(f), f
        seen.add((sr, f.laurent))
    assert {view for view, _ in seen} == set(SEMIRINGS) and any(laurent for _, laurent in seen)


def test_only_extreme_tied_monomials_are_certified():
    # All three tie at the origin; x1 lies between the other two, so only the
    # lexicographically first and last of the tied monomials are certified.
    f = LayeredPolynomial(NAT, 1, {(0,): NAT.scalar(0), (1,): NAT.scalar(0), (2,): NAT.scalar(0)})
    assert essential_monomials(f) == fm_essential(f) == ((0,), (2,))
    dual = TRIV.dual()
    g = LayeredPolynomial(dual, 2, {e: dual.scalar(0) for e in
                                    [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2)]})
    assert essential_monomials(g) == fm_essential(g) == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_only_dominated_monomials_leave_the_columns():
    # Exponent 7 is dominated only with the help of 6 and 8: by (6, 12) and
    # (8, 0), whose midpoint value 6 >= 5, while (4, 16) and (8, 0) give 4 < 5.
    # No witness point certifies 6, so its LP finds it essential before the
    # LP of 7 runs; 8 is certified.  Dropping either from the columns of the
    # later LP would keep 7.
    values = {0: 0, 2: 12, 4: 16, 6: 12, 7: 5, 8: 0}
    for sr in SEMIRINGS:
        sign = -1 if sr.descending else 1
        f = LayeredPolynomial(sr, 1, {(e,): sr.scalar(sign * v) for e, v in values.items()})
        assert essential_monomials(f) == fm_essential(f) == ((0,), (2,), (4,), (6,), (8,))


def test_wide_exponent_vector_is_fast():
    # Each witness point and each LP column has 10^5 entries here; a witness
    # family growing with 2^nvars or 3^nvars would never finish.
    f = parse_polynomial("x100000 + x1 + 0", NAT)
    start = time.perf_counter()
    kept = essential_monomials(f)
    assert time.perf_counter() - start < 10.0
    x1, x100000 = ((1,) + (0,) * 99999), ((0,) * 99999 + (1,))
    assert kept == ((0,) * 100000, x100000, x1)
