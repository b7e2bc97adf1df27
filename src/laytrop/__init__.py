"""Exact layered (max-plus) tropical algebra.

Layered scalars pair a rational value with a layer that counts accumulated
ties; the package provides their semiring arithmetic, finite-support
Puiseux series with the order valuation, (exploded) tropicalization,
layered polynomial functions with exact corner loci, congruence geometry
over finite point sets, and a verifier for the univariate correspondence
between root valuations and tropical corner roots.
"""

from .congruence import (CoordinateFunction, FinitePointSet, congruent_on,
                         coordinate_semiring, quotient_map, restrict,
                         variety_of, zariski_roundtrip)
from .core import (COUNTING, INF, INTEGERS, NATURALS, RATIONALS,
                   SUPERTROPICAL, TRIVIAL, LayeredScalar, LayeredSemiring,
                   semiring)
from .errors import DomainError, LaytropError, ParseError, UsageError
from .kapranov import (NewtonPolygon, NewtonSegment, bourbaki_extension,
                       kapranov_verify, newton_polygon, random_split_product,
                       root_valuations, verify_random_products)
from .parsing import (parse_point, parse_polynomial, parse_puiseux,
                      parse_puiseux_polynomial, parse_scalar)
from .polynomials import (GridSpec, LayeredPolynomial, combined_locus,
                          component, corner_locus, essential_monomials,
                          functionally_equal, layering_map_set,
                          principal_open, univariate_corner_roots)
from .puiseux import ExplodedScalar, PuiseuxPolynomial, PuiseuxSeries
from .tropical import (apply_value_map, explode_poly, explode_scalar,
                       exploded_eval, trop_poly, trop_scalar)

__version__ = "0.1.0"

__all__ = [
    "COUNTING", "INF", "INTEGERS", "NATURALS", "RATIONALS", "SUPERTROPICAL",
    "TRIVIAL", "CoordinateFunction", "DomainError", "ExplodedScalar",
    "FinitePointSet", "GridSpec", "LayeredPolynomial",
    "LayeredScalar", "LayeredSemiring", "LaytropError",
    "NewtonPolygon", "NewtonSegment", "ParseError", "PuiseuxPolynomial",
    "PuiseuxSeries", "UsageError", "apply_value_map", "bourbaki_extension",
    "combined_locus", "component", "congruent_on", "coordinate_semiring",
    "corner_locus", "essential_monomials", "explode_poly", "explode_scalar",
    "exploded_eval", "functionally_equal", "kapranov_verify",
    "layering_map_set", "newton_polygon", "parse_point", "parse_polynomial",
    "parse_puiseux", "parse_puiseux_polynomial", "parse_scalar",
    "principal_open", "quotient_map", "random_split_product", "restrict",
    "root_valuations", "semiring", "trop_poly", "trop_scalar",
    "univariate_corner_roots", "variety_of", "verify_random_products",
    "zariski_roundtrip",
]
