"""Maps from valued Puiseux data into layered and exploded scalars.

A nonzero series tropicalizes to the tangible scalar (layer 1, val); a
polynomial tropicalizes coefficient-wise.  The exploded variants retain the
leading coefficient as the sort, which is what detects corner ghosts.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .core import LayeredScalar, LayeredSemiring
from .errors import DomainError
from .polynomials import LayeredPolynomial
from .puiseux import ExplodedScalar, PuiseuxPolynomial, PuiseuxSeries


def trop_scalar(semiring: LayeredSemiring, p: PuiseuxSeries) -> LayeredScalar:
    """The tangible image (layer 1, val(p)) of a nonzero series."""
    if p.is_zero:
        raise DomainError("the zero series has no tropicalization (no zero in the target)")
    return semiring.scalar(p.val())


def trop_poly(semiring: LayeredSemiring, f: PuiseuxPolynomial) -> LayeredPolynomial:
    """Coefficient-wise tropicalization; degrees are preserved."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no tropicalization")
    return LayeredPolynomial(
        semiring, 1, {(d,): semiring.scalar(-e) for d, e, _ in f.lowest_terms})


def explode_scalar(p: PuiseuxSeries) -> ExplodedScalar:
    """The refinement (leading(p), val(p)) keeping the residue-field shadow."""
    if p.is_zero:
        raise DomainError("the zero series has no exploded image")
    return ExplodedScalar(p.leading(), p.val())


def explode_poly(f: PuiseuxPolynomial) -> Dict[int, ExplodedScalar]:
    """Coefficient-wise exploded tropicalization as a degree -> scalar map."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no exploded image")
    return {d: ExplodedScalar(c, -e) for d, e, c in f.lowest_terms}


def exploded_eval(coeffs: Mapping[int, ExplodedScalar], point: ExplodedScalar) -> ExplodedScalar:
    """Evaluate an exploded polynomial; a sort-0 result marks a corner ghost.

    In closed form, as exploded addition keeps the larger value and adds
    sorts on ties: the value is max_d (v_d + d*x), over one int scale, and
    the sort is the sum of c_d * s^d over the degrees tied at that max.
    """
    if not coeffs:
        raise DomainError("an empty exploded polynomial cannot be evaluated")
    bad = [d for d in coeffs if type(d) is not int or d < 0]
    if bad:
        with suppress(TypeError):  # keys of mixed types have no order: name the first
            bad.sort()
        raise DomainError(f"exploded exponent {bad[0]!r} must be a non-negative integer")
    scale, lifted = _lifted(coeffs, point.value.denominator)
    top, tied = _ties(lifted, point.value.numerator * (scale // point.value.denominator))
    return ExplodedScalar(_tied_sort(tied, point.sort), Fraction(top, scale))


def _lifted(coeffs: Mapping[int, ExplodedScalar], scale: int) -> Tuple[int, List[Tuple]]:
    """(scale, lifted): the lcm of ``scale`` and every value denominator, and each
    degree d as (d, value times that lcm, sort)."""
    scale = lcm(scale, *(c.value.denominator for c in coeffs.values()))
    return scale, [(d, c.value.numerator * (scale // c.value.denominator), c.sort)
                   for d, c in coeffs.items()]


def _ties(lifted: Sequence[Tuple], x: int) -> Tuple[int, List[Tuple]]:
    """(top, tied): the max of v_d + d*x over ``lifted``, x on its scale, and the
    (d, sort) of each degree tied at it."""
    values = [v + d * x for d, v, _ in lifted]
    top = max(values)
    return top, [(d, c) for (d, _, c), value in zip(lifted, values) if value == top]


def _tied_sort(tied: Sequence[Tuple], s):
    """The sort sum of c_d * s^d over the tied degrees."""
    return sum(c * s ** d for d, c in tied)


def apply_value_map(obj, fn: Callable, semiring: LayeredSemiring = None):
    """Apply an order-preserving value map to the value component(s) of ``obj``.

    Accepts a layered scalar or polynomial; this is the whole computational
    content of functoriality on morphisms of valued data.
    """
    if isinstance(obj, LayeredScalar):
        target = semiring or LayeredSemiring()
        return target.scalar(fn(obj.value), obj.layer)
    if isinstance(obj, LayeredPolynomial):
        target = semiring or obj.semiring
        return LayeredPolynomial(
            target, obj.nvars,
            {e: target.scalar(fn(c.value), c.layer) for e, c in obj.coeffs.items()},
            obj.laurent)
    raise DomainError(f"cannot map values of {type(obj).__name__}")
