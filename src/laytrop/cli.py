"""Command-line front end.

Every number in the output is an exact rational string; JSON is the default
format and CSV is available where the output is tabular.  Exit status is 0
on success, 1 on domain errors in the input data, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import congruence as cg
from . import kapranov as kp
from . import polynomials as poly
from .core import INF, format_layer, semiring
from .errors import DomainError, LaytropError, ParseError, UsageError
from .parsing import (_Scan, parse_point, parse_polynomial, parse_puiseux_polynomial,
                      parse_scalar)
from .tropical import explode_poly, trop_poly


def _fraction(text: str) -> Fraction:
    """A grid value: the ``-p/q`` literal of expressions, and nothing else."""
    try:
        return _Scan.whole(text, _Scan.rational)
    except ParseError:
        raise UsageError(f"not an exact rational: {text!r}")


def _parse_layer_flag(text: str):
    """A ``--grid-layer``: ``inf`` or the signed int of expressions, and nothing else."""
    try:
        return _Scan.whole(text, lambda s, at: (INF, 1) if s.tokens[0] == "inf" else s.signed_int(0))
    except ParseError:
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


def _emit(chunks, fmt: str, header) -> None:
    """Write chunks of rendered records, one write per chunk, so no write holds
    more records than its chunk: CSV lines under ``header`` (no field of
    ``locus`` or ``roots`` holds a comma, quote or line break, so none is
    quoted), or JSON texts (records joined by ``", "``) as one JSON list."""
    write = sys.stdout.write
    if fmt == "csv":
        write(",".join(header) + "\r\n")
        for chunk in chunks:
            write(chunk)
    else:
        chunks = iter(chunks)
        write("[" + next(chunks, ""))
        for chunk in chunks:
            write(", " + chunk)
        write("]\n")


def _parse_set(texts, sr, laurent=False):
    """Parse expressions over the largest variable count among them (1 if none);
    only a text over fewer variables is read again, at that count."""
    polynomials = [parse_polynomial(t, sr, laurent=laurent) for t in texts]
    nvars = max((f.nvars for f in polynomials), default=1)
    return [f if f.nvars == nvars else parse_polynomial(t, sr, laurent=laurent, nvars=nvars)
            for f, t in zip(polynomials, texts)], nvars


#: Records per chunk of ``_locus_records``, and the most points an axis may
#: have for its coordinate texts to be made once for the whole output.
_CHUNK = 4096


def _axis_texts(axis, start: int, stop: int) -> list[str]:
    """``str(lower + k * step)`` for ``start <= k < stop``, made from ints over
    ``lcm(lower.denominator, step.denominator)`` as ``str(Fraction(n, d))`` is."""
    lower, _, step = axis
    d = math.lcm(lower.denominator, step.denominator)
    a, b = lower.numerator * (d // lower.denominator), step.numerator * (d // step.denominator)
    return [str(n // g) if (g := math.gcd(n, d)) == d else f"{n // g}/{d // g}"
            for n in range(a + start * b, a + stop * b, b)]


def _locus_records(ranges, grid: poly.GridSpec, fmt: str):
    """The points of kept ranges as ``_emit`` chunks, one kept range (or
    ``_CHUNK`` of its points) at a time: a JSON chunk is its records joined by
    ``", "``, a CSV chunk its lines.  A chunk is one join of last-axis texts
    between an opening and a closing text made once per range.  An axis of at
    most ``_CHUNK`` points, and at most as many as are kept, has its texts made
    once for the whole output; a longer one has them made per row and range."""
    kept = sum(hi - lo for _, lo, hi, _ in ranges)
    cached = [_axis_texts(axis, 0, n) if n <= min(kept, _CHUNK) else None
              for axis, n in zip(grid.axes, grid.counts)]

    def texts(i, lo, hi):
        return cached[i][lo:hi] if cached[i] is not None else _axis_texts(grid.axes[i], lo, hi)

    json_out = fmt == "json"
    sep = '", "' if json_out else " "
    layers, row = sep.join(map(format_layer, grid.layers)), None
    for prefix, lo, hi, layer in ranges:
        if prefix != row:
            row = prefix
            head = "".join(texts(i, k, k + 1)[0] + sep for i, k in enumerate(prefix))
            opening = '{"point": ["' + head if json_out else head
        layering = format_layer(layer)
        closing = (f'"], "layers": ["{layers}"], "layering": "{layering}"}}' if json_out
                   else f",{layers},{layering}\r\n")
        between = closing + (", " if json_out else "") + opening
        for start in range(lo, hi, _CHUNK):
            yield opening + between.join(texts(-1, start, min(start + _CHUNK, hi))) + closing


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
    rows = [(str(x), m) for x, m in poly.univariate_corner_roots(f)]
    _emit([f"{x},{m}\r\n" for x, m in rows] if args.format == "csv" else
          [json.dumps({"root": x, "mult": m}) for x, m in rows], args.format, ("root", "mult"))
    return 0


def _cmd_locus(args) -> int:
    polynomials, nvars = _parse_set(args.exprs, semiring(args.L), args.laurent)
    grid = _parse_grid(args.grid, nvars, _parse_layer_flag(args.grid_layer))
    ranges = poly._locus_ranges(polynomials, grid, args.combined)
    _emit(_locus_records(ranges, grid, args.format), args.format, ("point", "layers", "layering"))
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
    grid_spec = grid_text if args.grid is None else args.grid
    if grid_spec is not None:
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


def _arg(*names, **options):
    return names, options


_FLAVOR = _arg("--L", choices=("trivial", "super", "nat"), default="nat",
               help="layer flavor (default: nat)")
_LAURENT = _arg("--laurent", action="store_true", help="allow negative exponents")
_FORMAT = _arg("--format", choices=("json", "csv"), default="json")
_SEED = _arg("--seed", type=int, default=0)

#: name -> (help, handler, arguments), in the order the top-level help lists them.
_COMMANDS = {
    "eval": ("evaluate a layered polynomial at a point", _cmd_eval,
             [_FLAVOR, _LAURENT, _arg("expr"),
              _arg("--point", required=True, help="comma-separated scalar literals")]),
    "trop": ("tropicalize a Puiseux polynomial", _cmd_trop, [_FLAVOR, _arg("expr")]),
    "explode": ("exploded tropicalization of a Puiseux polynomial", _cmd_explode,
                [_arg("expr")]),
    "roots": ("exact corner roots of a univariate polynomial", _cmd_roots,
              [_FLAVOR, _FORMAT, _arg("expr")]),
    "locus": ("corner locus of polynomials on a grid", _cmd_locus,
              [_FLAVOR, _LAURENT, _FORMAT, _arg("exprs", nargs="+"),
               _arg("--grid", required=True, help="per-axis lo:hi:step, comma-separated"),
               _arg("--grid-layer", default="1", help="layer of sampled coordinates"),
               _arg("--combined", action="store_true", help="include cluster roots as well")]),
    "layering": ("layer of a polynomial set at a point", _cmd_layering,
                 [_FLAVOR, _LAURENT, _arg("exprs", nargs="+"), _arg("--point", required=True)]),
    "essential": ("essential monomials of a polynomial", _cmd_essential,
                  [_FLAVOR, _LAURENT, _arg("expr")]),
    "congruence": ("congruence checks and the Zariski round trip", _cmd_congruence,
                   [_FLAVOR, _arg("file", help="JSON file with pairs, optional points and grid"),
                    _arg("--grid", help="override the grid from the file"), _SEED]),
    "kapranov": ("randomized univariate correspondence check", _cmd_kapranov,
                 [_FLAVOR, _arg("--degree", type=int, default=3),
                  _arg("--trials", type=int, default=100), _SEED]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="laytrop",
        description="Exact layered tropical algebra: evaluation, loci, "
                    "valuations, and the univariate root correspondence.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)  # None reads sys.argv[1:]
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (LaytropError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
