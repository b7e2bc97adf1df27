"""Seeded generators for the benchmark workloads.

Each generator turns a workload seed into a fixed list of CLI operations.
The program under test only ever sees the generated argv (and, for
``congruence-zariski``, the generated spec files); everything the output
checks need is kept alongside in ``Op.data``.

Every generator gets two random generators.  ``shape`` is the same on
every run and fixes what sets an op's cost: grid sizes, variants, monomial
counts, supports (exponent vectors) and the seeds the CLI draws its own
random inputs from.  ``rng`` comes from ``--seed`` and draws the content:
coefficient values and layers, sample points and, where they cost
nothing, layer flavors.  Those
decide the answers (which points are roots, which monomials are essential,
where pairs agree) but barely move the cost, so a metric's spread across
seeds measures the program and the machine, not a changed op mix.
Fourier-Motzkin elimination, for one, does the same row work for any
coefficients on a given support.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

INF = float("inf")
FLAVORS = ("nat", "super", "trivial")

Monomial = Tuple[Tuple[int, ...], object, Fraction]  # (exponents, layer, value)


@dataclass
class Op:
    """One CLI invocation and what its output check needs to know."""

    kind: str
    argv: List[str]
    units: int
    data: Dict = field(default_factory=dict)
    files: Dict[str, str] = field(default_factory=dict)  # relative name -> text


# ---------------------------------------------------------------------------
# Polynomial text


def _scalar_text(layer, value: Fraction) -> str:
    if layer == 1:
        return str(value) if value >= 0 else f"({value})"
    return f"({'inf' if layer == INF else layer}|{value})"


def poly_text(monomials: List[Monomial]) -> str:
    terms = []
    for exponents, layer, value in monomials:
        factors = [_scalar_text(layer, value)]
        for i, e in enumerate(exponents):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e:
                factors.append(f"x{i + 1}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _coefficient(rng: random.Random, flavor: str,
                 layered_share: float) -> Tuple[object, Fraction]:
    value = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 1, 2)))
    layer = 1
    if flavor != "trivial" and rng.random() < layered_share:
        layer = INF if flavor == "super" or rng.random() < 0.25 else rng.randint(2, 3)
    return layer, value


def _with_coefficients(rng: random.Random, exponents, flavor: str,
                       layered_share: float) -> List[Monomial]:
    return [(e,) + _coefficient(rng, flavor, layered_share) for e in exponents]


def _sample_support(rng: random.Random, pool, count: int, fixed=()):
    """Distinct exponent vectors in which every variable occurs.

    The CLI sizes a polynomial by its highest variable index, so a support
    that misses a variable would change the op's arity.
    """
    while True:
        support = list(fixed) + rng.sample([e for e in pool if e not in fixed],
                                           count - len(fixed))
        if all(any(e[i] for e in support) for i in range(len(pool[0]))):
            return support


def _bivariate_support(shape: random.Random, count: int):
    """``count`` exponent vectors of total degree at most 3 or 4, one of them exactly."""
    degree = shape.choice((3, 4))
    top = [(a, degree - a) for a in range(degree + 1)]
    lower = [(a, b) for a in range(degree) for b in range(degree - a)]
    return _sample_support(shape, top + lower, count, fixed=[shape.choice(top)])


# ---------------------------------------------------------------------------
# Workloads


def grid_axis(lo: int, hi: int, den: int) -> List[Fraction]:
    return [Fraction(lo) + Fraction(i, den) for i in range((hi - lo) * den + 1)]


def locus_grid(shape: random.Random, rng: random.Random) -> List[Op]:
    """``laytrop locus`` on bivariate polynomials, grids 33x33 to 81x81 plus two large ones.

    Densities on [-4, 4]^2 cycle with period 9 (steps 1/4 .. 1/10, the
    small grids more often), variants (plain, --combined, two polynomials,
    plain) with period 4, so each density meets each variant once per 36
    ops.  The two extra ops scan 121x121 = 14641 points.

    Coefficient layers and base values belong to the shape: a layered
    coefficient that dominates makes a two-dimensional patch of roots, and
    the size of that patch sets the op's output and emit cost.  The seed
    moves every value by a multiple of 1/2 up to 1, which shifts the tie
    lines and so changes which grid points are roots.
    """
    ops = []
    densities = (4, 4, 4, 4, 5, 5, 6, 8, 10)
    schedule = [(densities[i % 9], i % 4, 4 + i % 7, FLAVORS[(i + i // 9) % 3])
                for i in range(36)]
    schedule += [(12, 0, 5, "nat"), (12, 0, 6, "trivial")]
    for den, variant, count, flavor in schedule:
        counts = [count] + ([4 + (count + 3) % 7] if variant == 2 else [])
        bases = [_with_coefficients(shape, _bivariate_support(shape, c), flavor, 0.12)
                 for c in counts]
        polys = [[(e, layer, value + Fraction(rng.randint(-2, 2), 2))
                  for e, layer, value in base] for base in bases]
        lo, hi = (-5, 5) if den == 12 else (-4, 4)
        combined = variant == 1
        argv = ["locus", *map(poly_text, polys), f"--grid={lo}:{hi}:1/{den}", "--L", flavor]
        if combined:
            argv.append("--combined")
        side = (hi - lo) * den + 1
        ops.append(Op("locus", argv, side * side * len(polys),
                      {"polys": polys, "flavor": flavor, "combined": combined,
                       "axis": grid_axis(lo, hi, den)}))
    return ops


def kapranov_series(shape: random.Random, rng: random.Random) -> List[Op]:
    """``laytrop kapranov`` at degree 4..12 with 3..5 trials per op.

    The CLI draws each trial's degree and roots from its ``--seed``, so
    those seeds belong to the shape; the workload seed picks the flavors.
    """
    ops = []
    for i in range(54):
        degree, trials = 4 + i % 9, 3 + (i // 9) % 3
        argv = ["kapranov", "--degree", str(degree), "--trials", str(trials),
                "--seed", str(shape.randrange(10 ** 6)), "--L", rng.choice(FLAVORS)]
        ops.append(Op("kapranov", argv, trials, {"trials": trials}))
    return ops


def _cube_pool(nvars: int, span: int):
    pool = [()]
    for _ in range(nvars):
        pool = [e + (k,) for e in pool for k in range(span + 1)]
    return pool


def essential_fm(shape: random.Random, rng: random.Random) -> List[Op]:
    """``laytrop essential`` in 2 and 3 variables, plus univariate essential and roots.

    Exponents range over 0..4 per variable.  Fourier-Motzkin time grows
    steeply and unevenly with the monomial count in 3 variables, so sizes
    stop at 15 there, below the sizes where one support takes seconds.
    """
    plan = ([("essential", 2, 10 + i % 15) for i in range(45)]
            + [("essential", 3, 9 + i % 7) for i in range(42)]
            + [("essential", 1, 6 + i % 12) for i in range(12)]
            + [("roots", 1, 6 + i % 12) for i in range(12)])
    ops = []
    for kind, nvars, count in plan:
        pool = _cube_pool(nvars, 4) if nvars > 1 else _cube_pool(1, 24)
        flavor = rng.choice(FLAVORS)
        monomials = _with_coefficients(rng, _sample_support(shape, pool, count), flavor, 0.15)
        ops.append(Op(kind, [kind, poly_text(monomials), "--L", flavor],
                      count, {"monomials": monomials}))
    return ops


CONGRUENCE_AXIS = grid_axis(-2, 2, 4)  # 17 points per axis
SMALL_POOL = [(a, b) for a in range(3) for b in range(3)]


def congruence_zariski(shape: random.Random, rng: random.Random) -> List[Op]:
    """``laytrop congruence`` on spec files with 2-3 pairs on a 17x17 grid.

    One pair in each spec is (f, f + m) with a low extra monomial m, so the
    two sides agree wherever f stays above m: part of the grid, not all.
    Every third spec also lists explicit points for ``points_congruent``.
    """
    ops = []
    for i in range(30):
        npairs = 2 + i % 2
        supports = [_sample_support(shape, SMALL_POOL, shape.randint(2, 4))
                    for _ in range(2 * npairs - 1)]
        extra = shape.choice([e for e in SMALL_POOL if e not in supports[0]])
        flavor = FLAVORS[i % 3]
        polys = [_with_coefficients(rng, s, flavor, 0.25) for s in supports]
        f = polys.pop(0)
        pairs = [(f, f + [(extra, 1, Fraction(rng.randint(-6, -2)))])]
        pairs += list(zip(polys[::2], polys[1::2]))
        spec = {"pairs": [[poly_text(a), poly_text(b)] for a, b in pairs],
                "grid": "-2:2:1/4"}
        points = []
        if i % 3 == 0:
            points = [tuple(rng.choice(CONGRUENCE_AXIS) for _ in range(2)) for _ in range(8)]
            spec["points"] = [[str(c) for c in p] for p in points]
        name = f"spec{i:02d}.json"
        argv = ["congruence", name, "--seed", str(shape.randrange(1000)), "--L", flavor]
        units = len(CONGRUENCE_AXIS) ** 2 * npairs
        ops.append(Op("congruence", argv, units,
                      {"pairs": pairs, "flavor": flavor, "points": points},
                      files={name: json.dumps(spec)}))
    return ops


WORKLOADS = {
    "locus-grid": locus_grid,
    "kapranov-series": kapranov_series,
    "essential-fm": essential_fm,
    "congruence-zariski": congruence_zariski,
}


def generate(workload: str, seed: int) -> List[Op]:
    shape = random.Random(f"{workload}:shape")
    return WORKLOADS[workload](shape, random.Random(f"{workload}:{seed}"))


def write_files(ops: List[Op], directory: str) -> None:
    """Write every op's input files into ``directory`` and point its argv there."""
    for op in ops:
        for name, text in op.files.items():
            path = os.path.join(directory, name)
            with open(path, "w") as handle:
                handle.write(text)
            op.argv = [path if a == name else a for a in op.argv]
