"""Newton polygons and the univariate root-valuation correspondence.

For a univariate polynomial over the series field, the lower convex hull of
the points (degree, lowest exponent of the coefficient) determines the
valuations of all roots: a hull segment of slope s and horizontal length m
contributes the valuation s with multiplicity m (with val being the
negative of the lowest exponent, these coincide with the corner roots of
the tropicalized polynomial, and the lower hull is the mirrored upper hull
of (degree, val) shared with ``univariate_corner_roots``).  The verifier
checks this correspondence in both directions on polynomials built from
known roots, plus the exploded refinement through leading coefficients.
Once f passes the identity check, each trial runs on one int scale, that
of the identity's sums: every root valuation is read once, as an int on
it; forward evaluates the tropicalization there, and the exploded check
lifts the values of ``explode_poly(f)`` onto it once and finds each corner
root's tied degrees on ints.  Newton hulls ints on f's own exponent scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import LayeredScalar, LayeredSemiring, Record
from .errors import DomainError
from .polynomials import _upper_hull, univariate_corner_roots
from .puiseux import PuiseuxPolynomial, PuiseuxSeries, _matches, _product, _root_sums
# Trials take exploded_eval's closed form directly; the name stays importable
# here as kapranov.exploded_eval, which perfbench/tracing.py wraps.
from .tropical import _lifted, _ties, _tied_sort, explode_poly, exploded_eval, trop_poly


class NewtonSegment(Record, frozen=True):
    """One lower-hull segment: its slope and its horizontal length."""

    slope: Fraction
    length: int


class NewtonPolygon(Record, frozen=True):
    """Lower convex hull data of (degree, lowest exponent) support points."""

    support: Tuple[Tuple[int, Fraction], ...]
    segments: Tuple[NewtonSegment, ...]


def newton_polygon(f: PuiseuxPolynomial) -> NewtonPolygon:
    """The lower hull of the coefficient support, segments ordered by slope:
    the mirrored upper hull of (d, val), shared with ``univariate_corner_roots``,
    over ints on the exponent scale of f's own sums."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no Newton polygon")
    scale = f._sums[1]
    hull = _upper_hull([(d, -e.numerator * (scale // e.denominator)) for d, e, _ in f.lowest_terms])
    segments = tuple(
        NewtonSegment(Fraction(v1 - v2, (x2 - x1) * scale), x2 - x1)
        for (x1, v1), (x2, v2) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple((d, e) for d, e, _ in f.lowest_terms), segments)


def root_valuations(f: PuiseuxPolynomial) -> Tuple[Fraction, ...]:
    """Valuations of all roots, with multiplicity, sorted ascending.

    Each hull segment of slope s and length m contributes m copies of s:
    with val = -(lowest exponent), the valuation of a root on that segment
    is exactly the slope.
    """
    out: List[Fraction] = []
    for segment in newton_polygon(f).segments:
        out.extend([segment.slope] * segment.length)
    return tuple(sorted(out))


def bourbaki_extension(alpha: PuiseuxSeries, i: int, beta: PuiseuxSeries, j: int) -> Fraction:
    """The extended valuation making the monomials alpha*a^i and beta*a^j tie."""
    if i == j:
        raise DomainError("equal degrees give a degenerate tie")
    if alpha.is_zero or beta.is_zero:
        raise DomainError("tie coefficients must be nonzero")
    return (beta.val() - alpha.val()) / Fraction(i - j)


# ---------------------------------------------------------------------------
# Verification harness


class KapranovReport(Record):
    """Outcome of one correspondence check for a polynomial with known roots.

    Keeps the polynomial, the known roots and their valuations, and formats
    them only when read, through ``polynomial``, ``roots``, ``root_vals`` or
    ``to_json``; the CLI reports failed trials only.
    """

    f: PuiseuxPolynomial
    known_roots: Tuple[PuiseuxSeries, ...]
    known_vals: List[Fraction]
    corner_roots: List[Tuple[str, int]]
    forward_ok: bool
    reverse_ok: bool
    exploded_ok: bool

    @property
    def polynomial(self) -> str:
        return str(self.f)

    @property
    def roots(self) -> List[str]:
        return [str(r) for r in self.known_roots]

    @property
    def root_vals(self) -> List[str]:
        return [str(v) for v in self.known_vals]

    @property
    def passed(self) -> bool:
        return self.forward_ok and self.reverse_ok and self.exploded_ok

    def to_json(self) -> Dict:
        return {
            "poly": self.polynomial,
            "roots": self.roots,
            "valuations": self.root_vals,
            "corner_roots": [{"root": r, "mult": m} for r, m in self.corner_roots],
            "forward": self.forward_ok,
            "reverse": self.reverse_ok,
            "exploded": self.exploded_ok,
            "pass": self.passed,
        }


def kapranov_verify(f: PuiseuxPolynomial, known_roots: Sequence[PuiseuxSeries],
                    semiring: Optional[LayeredSemiring] = None) -> KapranovReport:
    """Check the root-valuation correspondence for f with its known roots.

    Refuses a zero known root, which has no valuation, and known roots that
    are not all the roots of f with multiplicity, i.e. unless
    f = lead(f) * prod(L - r), naming the lowest degree where the two
    sides' coefficients differ.  Then verifies that (a) the
    valuation of every known root is a corner root of the tropicalization,
    (b) the corner-root multiset equals both the Newton-polygon valuations
    and the known-root valuations, and (c) at every corner root the
    exploded evaluation at (leading coefficient, valuation) of some known
    root with that valuation has sort 0.  The correspondence is stated in
    the max convention, so a descending view is refused.
    """
    sr = semiring or LayeredSemiring()
    if sr.descending:
        raise DomainError("the root correspondence needs an ascending (max) view")
    if f.is_zero:
        raise DomainError("cannot verify the zero polynomial")
    if any(r.is_zero for r in known_roots):
        raise DomainError(f"the claimed roots [{', '.join(map(str, known_roots))}] of {f} "
                          "include 0, which has no valuation")
    sums = _root_sums(known_roots, f.coefficient(f.degree()))
    if not _matches(f, *sums):
        product = _product(sums)
        d = min(d for d in {*f.support(), *product.support()}
                if f.coefficient(d) != product.coefficient(d))
        raise DomainError(f"the claimed roots are not all the roots of {f}, with multiplicity: at "
                          f"degree {d}, f has {f.coefficient(d)} but lead(f) * prod(L - r) has "
                          f"{product.coefficient(d)}")

    # One int scale for the whole trial: every exponent of the roots, and so of
    # f, is a multiple of 1/scale.
    scale, lifted = _lifted(explode_poly(f), sums[1])
    vals = [r.val() for r in known_roots]
    ints = [v.numerator * (scale // v.denominator) for v in vals]
    known_vals = [vals[i] for i in sorted(range(len(vals)), key=ints.__getitem__)]

    tropicalized = trop_poly(sr, f)
    corner = univariate_corner_roots(tropicalized)
    corner_multiset = sorted(x for x, m in corner for _ in range(m))
    newton_vals = list(root_valuations(f))

    forward_ok = all(tropicalized.is_corner_root((LayeredScalar(1, sr.values.check(v)),), scale)
                     for v in vals)
    reverse_ok = corner_multiset == newton_vals == known_vals

    leads: Dict[int, List[Fraction]] = {}
    for r, k in zip(known_roots, ints):
        leads.setdefault(k, []).append(r.leading())

    def ghost_at(x0: Fraction) -> bool:
        """Whether the exploded sum at (lead, x0) has sort 0 for some known root of valuation x0."""
        k, off_scale = divmod(x0.numerator * scale, x0.denominator)
        if off_scale or k not in leads:
            return False
        tied = _ties(lifted, k)[1]
        return any(_tied_sort(tied, s) == 0 for s in leads[k])

    exploded_ok = all(ghost_at(x0) for x0, _ in corner)

    return KapranovReport(
        f=f,
        known_roots=tuple(known_roots),
        known_vals=known_vals,
        corner_roots=[(str(x), m) for x, m in corner],
        forward_ok=forward_ok,
        reverse_ok=reverse_ok,
        exploded_ok=exploded_ok,
    )


def random_split_product(rng: random.Random, degree: int) -> Tuple[PuiseuxPolynomial, List[PuiseuxSeries]]:
    """A product of (variable - c*t^e) factors with random rational c, e."""
    roots = []
    for _ in range(degree):
        c = Fraction(rng.choice([n for n in range(-9, 10) if n != 0]), rng.randint(1, 5))
        e = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        roots.append(PuiseuxSeries.term(c, e))
    return PuiseuxPolynomial.from_roots(roots), roots


class TrialSummary(Record):
    """Aggregate of repeated randomized correspondence checks."""

    trials: int
    failures: List[Dict]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> Dict:
        return {"pass": self.passed, "trials": self.trials, "failures": self.failures}


def verify_random_products(degree: int, trials: int, seed: int,
                           semiring: Optional[LayeredSemiring] = None) -> TrialSummary:
    """Run the verifier on random split products of degree up to ``degree``."""
    if degree < 1:
        raise DomainError("degree must be at least 1")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = random.Random(seed)
    summary = TrialSummary(trials, [])
    for _ in range(trials):
        f, roots = random_split_product(rng, rng.randint(1, degree))
        report = kapranov_verify(f, roots, semiring)
        if not report.passed:
            summary.failures.append(report.to_json())
    return summary
