"""Command-line front end.

Every number in the output is an exact rational string; JSON is the default
format and CSV is available where the output is tabular.  Exit status is 0
on success, 1 on domain errors in the input data, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import congruence as cg
from . import kapranov as kp
from . import polynomials as poly
from .core import format_layer, semiring
from .errors import DomainError, LaytropError, UsageError
from .parsing import (parse_point, parse_polynomial, parse_puiseux_polynomial,
                      parse_scalar)
from .tropical import explode_poly, trop_poly


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not an exact rational: {text!r}")


def _parse_layer_flag(text: str):
    from .core import INF
    text = text.strip()
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"not a layer: {text!r}")


def _parse_grid(spec: str, nvars: int, layer) -> poly.GridSpec:
    axes = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise UsageError(f"grid axis {part!r} is not lo:hi:step")
        axes.append(tuple(_fraction(p) for p in pieces))
    if len(axes) == 1 and nvars > 1:
        axes = axes * nvars
    if len(axes) != nvars:
        raise UsageError(f"grid has {len(axes)} axes but the data needs {nvars}")
    return poly.GridSpec(tuple(axes), (layer,) * nvars)


def _emit(payload, fmt: str, rows=None, header=None) -> None:
    if fmt == "csv" and rows is not None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(json.dumps(payload))


def _parse_set(texts, sr, laurent=False):
    """Parse expressions over the largest variable count among them (1 if none)."""
    nvars = max((parse_polynomial(t, sr, laurent=laurent).nvars for t in texts), default=1)
    return [parse_polynomial(t, sr, laurent=laurent, nvars=nvars) for t in texts], nvars


def _locus_records(points, polynomials):
    records = []
    for a in points:
        records.append({
            "point": [str(c.value) for c in a],
            "layers": [format_layer(c.layer) for c in a],
            "layering": format_layer(poly.layering_map_set(polynomials, a)),
        })
    return records


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_eval(args) -> int:
    sr = semiring(args.L)
    f = parse_polynomial(args.expr, sr, laurent=args.laurent)
    point = parse_point(args.point, sr)
    value = f.evaluate(point)
    print(json.dumps({"scalar": str(value), "layer": format_layer(value.layer),
                      "value": str(value.value)}))
    return 0


def _cmd_trop(args) -> int:
    sr = semiring(args.L)
    f = parse_puiseux_polynomial(args.expr)
    image = trop_poly(sr, f)
    coeffs = {str(e[0]): str(c) for e, c in sorted(image.coeffs.items())}
    print(json.dumps({"text": str(image), "coefficients": coeffs}))
    return 0


def _cmd_explode(args) -> int:
    f = parse_puiseux_polynomial(args.expr)
    image = explode_poly(f)
    coeffs = {str(d): {"sort": str(x.sort), "value": str(x.value)}
              for d, x in sorted(image.items())}
    print(json.dumps({"coefficients": coeffs}))
    return 0


def _cmd_roots(args) -> int:
    sr = semiring(args.L)
    f = parse_polynomial(args.expr, sr)
    records = [{"root": str(x), "mult": m} for x, m in poly.univariate_corner_roots(f)]
    _emit(records, args.format, rows=[(r["root"], r["mult"]) for r in records],
          header=("root", "mult"))
    return 0


def _cmd_locus(args) -> int:
    polynomials, nvars = _parse_set(args.exprs, semiring(args.L), args.laurent)
    grid = _parse_grid(args.grid, nvars, _parse_layer_flag(args.grid_layer))
    locus_fn = poly.combined_locus if args.combined else poly.corner_locus
    records = _locus_records(locus_fn(polynomials, grid), polynomials)
    rows = [(" ".join(r["point"]), " ".join(r["layers"]), r["layering"]) for r in records]
    _emit(records, args.format, rows=rows, header=("point", "layers", "layering"))
    return 0


def _cmd_layering(args) -> int:
    sr = semiring(args.L)
    polynomials, _ = _parse_set(args.exprs, sr, args.laurent)
    point = parse_point(args.point, sr)
    layer = poly.layering_map_set(polynomials, point)
    print(json.dumps({"layer": layer if layer != float("inf") else "inf"}))
    return 0


def _cmd_essential(args) -> int:
    sr = semiring(args.L)
    f = parse_polynomial(args.expr, sr, laurent=args.laurent)
    print(json.dumps({"essential": [list(e) for e in poly.essential_monomials(f)]}))
    return 0


def _rows_of_strings(rows, width=None) -> bool:
    return isinstance(rows, list) and all(
        isinstance(row, list) and (width is None or len(row) == width)
        and all(isinstance(text, str) for text in row) for row in rows)


def _read_spec(path: str):
    """(pairs, points, grid) of a congruence spec file, its shape checked;
    absent and null fields read as empty."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DomainError(f"spec {path} is not UTF-8 JSON: {err}")
    if not isinstance(data, dict):
        raise DomainError("spec must be a JSON object")
    pairs, points, grid = (data.get(name) for name in ("pairs", "points", "grid"))
    if pairs is not None and not _rows_of_strings(pairs, 2):
        raise DomainError("spec field 'pairs' must be a list of [f, g] pairs of expression strings")
    if points is not None and not _rows_of_strings(points):
        raise DomainError("spec field 'points' must be a list of points, each a list of scalar strings")
    if grid is not None and not isinstance(grid, str):
        raise DomainError("spec field 'grid' must be a string")
    return pairs or [], points or [], grid


def _cmd_congruence(args) -> int:
    pair_texts, point_texts, grid_text = _read_spec(args.file)
    sr = semiring(args.L)
    sides, nvars = _parse_set([t for f, g in pair_texts for t in (f, g)], sr)
    pairs = list(zip(sides[::2], sides[1::2]))
    report = {}
    if point_texts:
        points = cg.FinitePointSet.of(
            tuple(parse_scalar(c, sr) for c in p) for p in point_texts)
        report["points_congruent"] = [cg.congruent_on(f, g, points) for f, g in pairs]
    grid_spec = args.grid or grid_text
    if grid_spec:
        grid = _parse_grid(grid_spec, nvars, 1)
        report["roundtrip"] = cg.zariski_roundtrip(pairs, grid, seed=args.seed).to_json()
    print(json.dumps(report))
    return 0


def _cmd_kapranov(args) -> int:
    summary = kp.verify_random_products(args.degree, args.trials, args.seed,
                                        semiring(args.L))
    print(json.dumps(summary.to_json()))
    return 0 if summary.passed else 1


# ---------------------------------------------------------------------------
# Argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laytrop",
        description="Exact layered tropical algebra: evaluation, loci, "
                    "valuations, and the univariate root correspondence.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, laurent=False, fmt=False):
        p.add_argument("--L", choices=("trivial", "super", "nat"), default="nat",
                       help="layer flavor (default: nat)")
        if laurent:
            p.add_argument("--laurent", action="store_true",
                           help="allow negative exponents")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("eval", help="evaluate a layered polynomial at a point")
    common(p, laurent=True)
    p.add_argument("expr")
    p.add_argument("--point", required=True, help="comma-separated scalar literals")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("trop", help="tropicalize a Puiseux polynomial")
    common(p)
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_trop)

    p = sub.add_parser("explode", help="exploded tropicalization of a Puiseux polynomial")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_explode)

    p = sub.add_parser("roots", help="exact corner roots of a univariate polynomial")
    common(p, fmt=True)
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("locus", help="corner locus of polynomials on a grid")
    common(p, laurent=True, fmt=True)
    p.add_argument("exprs", nargs="+")
    p.add_argument("--grid", required=True, help="per-axis lo:hi:step, comma-separated")
    p.add_argument("--grid-layer", default="1", help="layer of sampled coordinates")
    p.add_argument("--combined", action="store_true",
                   help="include cluster roots as well")
    p.set_defaults(handler=_cmd_locus)

    p = sub.add_parser("layering", help="layer of a polynomial set at a point")
    common(p, laurent=True)
    p.add_argument("exprs", nargs="+")
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_layering)

    p = sub.add_parser("essential", help="essential monomials of a polynomial")
    common(p, laurent=True)
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_essential)

    p = sub.add_parser("congruence", help="congruence checks and the Zariski round trip")
    common(p)
    p.add_argument("file", help="JSON file with pairs, optional points and grid")
    p.add_argument("--grid", help="override the grid from the file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_congruence)

    p = sub.add_parser("kapranov", help="randomized univariate correspondence check")
    common(p)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_kapranov)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except LaytropError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
