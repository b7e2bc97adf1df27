"""Essential monomials by the exact LP, against a Fourier-Motzkin oracle.

``oracles.fm_essential`` decides the primal strict system directly, by
elimination over the rationals; it never calls laytrop's simplex.  The LP
itself, ``_feasible``, is checked against ``oracles.reference_feasible``,
which tries every basic solution of a small system, and against
``oracles.reference_bland``, the same pivot rule on a ``Fraction`` tableau.
"""

import collections
import itertools
import operator
import random
import time
from fractions import Fraction

import pytest

from laytrop import (COUNTING, INF, RATIONALS, SUPERTROPICAL, TRIVIAL,
                     LayeredPolynomial, LayeredSemiring, essential_monomials)
from laytrop.parsing import parse_polynomial
from laytrop import polynomials
from laytrop.polynomials import _difference, _feasible

from oracles import fm_essential, random_value, reference_bland, reference_feasible

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


def test_wide_lp_drops_the_coordinates_every_monomial_shares(monkeypatch):
    # No witness point certifies x1, so one LP decides it; of its 10^5
    # coordinate rows only x1's and x100000's are nonzero.
    shapes = []

    def recording(rows, basis):
        shapes.append((len(rows), len(rows[0])))
        return _feasible(rows, basis)

    monkeypatch.setattr(polynomials, "_feasible", recording)
    f = parse_polynomial("0 + x1^2 + (-3)*x1 + x100000", NAT)
    assert essential_monomials(f) == ((0,) * 100000, (0,) * 99999 + (1,), (2,) + (0,) * 99999)
    assert shapes == [(4, 5)]


def random_system(rng):
    """Rows [*a, b] of a small integer system with b >= 0: at most 4 rows and
    7 columns, some of them zero, duplicate or unit columns, and b = 0 rows;
    half the time b = A.x0 for some x0 >= 0, so that many are feasible."""
    m, n = rng.randint(1, 4), rng.randint(1, 7)
    columns = []
    for j in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            columns.append([0] * m)
        elif kind == 1 and columns:
            columns.append(list(rng.choice(columns)))
        elif kind == 2:
            i = rng.randrange(m)
            columns.append([int(k == i) for k in range(m)])
        else:
            columns.append([rng.randint(-2, 2) for _ in range(m)])
    if rng.random() < 0.5:
        x0 = [rng.choice([0, 0, 1, 2]) for _ in range(n)]
        b = [sum(column[i] * x for column, x in zip(columns, x0)) for i in range(m)]
    else:
        b = [rng.choice([0, rng.randint(-3, 3)]) for _ in range(m)]
    rows = [[column[i] for column in columns] + [b[i]] for i in range(m)]
    return [row if row[-1] >= 0 else [-v for v in row] for row in rows]


def unit_basis(rows):
    """Per row, the first column that is 1 there and 0 in every other row, or None."""
    basis = [None] * len(rows)
    for j in range(len(rows[0]) - 1):
        column = [row[j] for row in rows]
        if column.count(1) == 1 and column.count(0) == len(rows) - 1 and basis[column.index(1)] is None:
            basis[column.index(1)] = j
    return basis


def test_feasible_matches_the_basic_solution_oracle():
    # The verdict is the oracle's from every starting basis: no unit column,
    # some of them, or one per row that has one; a solution is >= 0 and
    # solves every row exactly.
    rng = random.Random(32)
    seen = set()
    for _ in range(400):
        rows = random_system(rng)
        expected = reference_feasible(rows) is not None
        basis = unit_basis(rows)
        some = [j if rng.random() < 0.5 else None for j in basis]
        for start in ([None] * len(rows), some, basis):
            tableau = [list(row) for row in rows]
            x = _feasible(tableau, start)
            assert (x is not None) == expected, (rows, start)
            if x is not None:
                assert min(x) >= 0 and len(x) == len(rows[0]) - 1, (rows, start, x)
                assert all(sum(map(operator.mul, row, x)) == row[-1] for row in rows), (rows, start, x)
        columns = list(zip(*rows))[:-1]
        flags = {"feasible": expected, "infeasible": not expected,
                 "b = 0 row": any(row[-1] == 0 and any(row[:-1]) for row in rows),
                 "zero column": any(not any(c) for c in columns),
                 "duplicate column": len(set(columns)) < len(columns),
                 "partial basis": None in basis and any(j is not None for j in basis),
                 "full basis": None not in basis}
        seen.update(name for name, present in flags.items() if present)
    assert seen == {"feasible", "infeasible", "b = 0 row", "zero column", "duplicate column",
                    "partial basis", "full basis"}


def test_feasible_with_a_unit_column_in_every_row_does_not_pivot():
    # Columns 1 and 2 are unit columns; started basic, they already solve
    # the system, so no pivot touches the rows (the second row has b = 0).
    rows = [[2, 1, 0, -1, 3], [-1, 0, 1, 4, 0]]
    tableau = [list(row) for row in rows]
    assert _feasible(tableau, [1, 2]) == [0, 3, 0, 0]
    assert tableau == rows
    # With no unit column named, phase one pivots them in from artificials.
    assert _feasible([list(row) for row in rows], [None, None]) == [0, 3, 0, 0]


def test_ratio_test_ties_leave_by_the_smallest_basic_index():
    # After x0 pivots into row 2, x2 enters with ratio 0 in rows 1 and 2.  The
    # basic variable of row 2 is x0 (index 0), that of row 1 the artificial
    # 4 + 1, so Bland's rule pivots on row 2 and ends on [1, 0, 0, 2]; taking
    # the first tied row would end on [0, 1/2, 1/2, 1].
    rows = [[0, 1, 1, 1, 2], [0, -1, 1, 0, 0], [2, 0, 2, -1, 0]]
    assert _feasible([list(row) for row in rows], [None] * 3) == [1, 0, 0, 2]
    assert reference_bland(rows, [None] * 3) == ([1, 0, 0, 2], 1)
    # On random systems from every starting basis, the fraction-free tableau
    # ends on the basic solution of the Fraction tableau, pivot for pivot;
    # in many, a tie goes to a row other than the first tied one.
    rng = random.Random(3300)
    decided = 0
    for _ in range(1500):
        rows = random_system(rng)
        basis = unit_basis(rows)
        some = [j if rng.random() < 0.5 else None for j in basis]
        for start in ([None] * len(rows), some, basis):
            x, ties = reference_bland(rows, start)
            assert _feasible([list(row) for row in rows], start) == x, (rows, start)
            decided += ties > 0
    assert decided >= 30, decided


def test_callers_start_only_unit_columns_basic(monkeypatch):
    # Every LP that essential_monomials and _difference pose names, for each
    # row, a column that is 1 in that row and 0 in the others, or None; its
    # solution is >= 0 and exact, and a small one gets the oracle's verdict.
    # essential_monomials starts its slack basic and poses no zero row.
    calls, caller = [], [None]

    def recording(rows, basis):
        copy = [list(row) for row in rows]
        x = _feasible(rows, basis)
        calls.append((caller[0], copy, list(basis), x))
        return x

    monkeypatch.setattr(polynomials, "_feasible", recording)
    rng = random.Random(3200)
    for i in range(60):
        sr, nvars = SEMIRINGS[i % len(SEMIRINGS)], 1 + i % 3
        f = random_case(rng, sr, nvars)
        caller[0] = "essential"
        essential_monomials(f)
        caller[0] = "difference"
        moved = {e: sr.scalar(c.value + rng.choice([0, 0, 1, -1]), c.layer) for e, c in f.coeffs.items()}
        _difference(f, LayeredPolynomial(sr, nvars, moved, f.laurent))
        if i % 2:
            caller[0] = "essential"
            essential_monomials(dense_case(rng, sr, 2, rng.randint(5, 8), laurent=i % 4 == 3))
    started, checked = collections.Counter(), collections.Counter()
    for name, rows, basis, x in calls:
        for i, j in enumerate(basis):
            if j is not None:
                assert [row[j] for row in rows] == [int(k == i) for k in range(len(rows))], (name, rows, basis)
                started[name] += 1
        assert name != "essential" or all(any(row[:-1]) for row in rows), rows
        if x is not None:
            assert min(x) >= 0 and all(sum(map(operator.mul, row, x)) == row[-1] for row in rows)
        if len(rows) <= 4 and len(rows[0]) <= 9:
            assert (x is not None) == (reference_feasible(rows) is not None), (name, rows, basis)
            checked[name] += 1
    assert started["essential"] > 100, started
    assert checked["essential"] > 50 and checked["difference"] > 20, checked
