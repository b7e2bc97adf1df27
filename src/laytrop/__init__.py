"""Exact layered (max-plus) tropical algebra.

Layered scalars pair a rational value with a layer that counts accumulated
ties; the package provides their semiring arithmetic, finite-support
Puiseux series with the order valuation, (exploded) tropicalization,
layered polynomial functions with exact corner loci, congruence geometry
over finite point sets, and a verifier for the univariate correspondence
between root valuations and tropical corner roots.

Importing the package imports none of its modules: each exported name, and
each module named in ``_EXPORTS``, is imported on first access (PEP 562).
"""

#: Each module and the names the package exports from it.
_EXPORTS = {
    "congruence": ("CoordinateFunction", "FinitePointSet", "congruent_on", "coordinate_semiring",
                   "quotient_map", "restrict", "variety_of", "zariski_roundtrip"),
    "core": ("COUNTING", "INF", "INTEGERS", "NATURALS", "RATIONALS", "SUPERTROPICAL", "TRIVIAL",
             "LayeredScalar", "LayeredSemiring", "semiring"),
    "errors": ("DomainError", "LaytropError", "ParseError", "UsageError"),
    "kapranov": ("NewtonPolygon", "NewtonSegment", "bourbaki_extension", "kapranov_verify",
                 "newton_polygon", "random_split_product", "root_valuations",
                 "verify_random_products"),
    "parsing": ("parse_point", "parse_polynomial", "parse_puiseux", "parse_puiseux_polynomial",
                "parse_scalar"),
    "polynomials": ("GridSpec", "LayeredPolynomial", "combined_locus", "component",
                    "corner_locus", "essential_monomials", "functionally_equal",
                    "layering_map_set", "principal_open", "univariate_corner_roots"),
    "puiseux": ("ExplodedScalar", "PuiseuxPolynomial", "PuiseuxSeries"),
    "tropical": ("apply_value_map", "explode_poly", "explode_scalar", "exploded_eval",
                 "trop_poly", "trop_scalar"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    """An exported name or a module of ``_EXPORTS``, imported now and kept."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the module in this namespace
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
