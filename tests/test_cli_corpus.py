"""The CLI prints, byte for byte, what the golden corpus pins (see cli_corpus.py)."""

import csv
import io
import json
import math
import sys
import time

import pytest

import cli_corpus
from laytrop import INF, GridSpec, LayeredScalar, PuiseuxSeries, semiring
from oracles import (brute_corner_roots, brute_grid, brute_judge, fm_essential,
                     reference_from_roots, reference_kapranov_checks, reference_locus_rendering,
                     reference_parse_grid_value, reference_parse_layer_flag, reference_parse_point,
                     reference_parse_polynomial, reference_roundtrip, reference_trial_draws,
                     reference_value)


def test_every_corpus_call_prints_its_pinned_output(tmp_path, monkeypatch):
    header, cases = cli_corpus.load()
    monkeypatch.setenv("COLUMNS", header["columns"])
    monkeypatch.chdir(tmp_path)
    same_python = header["python"] == "%d.%d" % sys.version_info[:2]
    start = time.perf_counter()
    changed = []
    for case in cases:
        out, err, code, parser = cli_corpus.run(case["argv"], case["spec"])
        pinned = case["sha256"] if same_python or not case["parser"] else None
        if (code, parser) != (case["code"], case["parser"]) or \
                pinned not in (None, cli_corpus.digest(out, err, code)):
            changed.append((case["argv"], code, out[:200], err[:200]))
    elapsed = time.perf_counter() - start
    assert not changed, f"{len(changed)} of {len(cases)} calls changed, first: {changed[:3]}"
    assert len(cases) >= 1000 and elapsed < 5, (len(cases), elapsed)


def test_the_corpus_covers_every_command_flavor_format_and_exit_code():
    _, cases = cli_corpus.load()
    argvs = [case["argv"] for case in cases]
    assert {argv[0] for argv in argvs if argv} >= set(cli_corpus.cli._COMMANDS)
    assert all(any(["--L", flavor] == argv[i:i + 2] for argv in argvs for i in range(len(argv)))
               for flavor in cli_corpus.FLAVORS)
    assert any("--laurent" in argv for argv in argvs) and any("csv" in argv for argv in argvs)
    assert {(case["code"], case["parser"]) for case in cases} == \
        {(0, False), (1, False), (2, False), (0, True), (2, True)}


#: Exit-0 ``congruence`` cases whose oracles are too slow for tier-1, by
#: argv, each with its reason.  None is: every case is checked below.
SLOW_CONGRUENCE = {}


def _reference_congruence(argv, spec):
    """What ``laytrop congruence`` reports for a corpus case that exits 0, from
    the reference readers, a per-point reference comparison of the pairs on
    the listed points, and ``reference_roundtrip`` on the grid."""
    options = dict(zip(argv[2::2], argv[3::2]))
    sr = semiring(options.get("--L", "nat"))
    data = json.loads(spec)
    texts = [text for pair in data.get("pairs") or [] for text in pair]
    nvars = max((reference_parse_polynomial(text, sr).nvars for text in texts), default=1)
    sides = [reference_parse_polynomial(text, sr, nvars=nvars) for text in texts]
    pairs = list(zip(sides[::2], sides[1::2]))
    report = {}
    if data.get("points"):
        points = [reference_parse_point(",".join(point), sr) for point in data["points"]]
        report["points_congruent"] = [all(reference_value(f, a) == reference_value(g, a) for a in points)
                                      for f, g in pairs]
    flag = [arg[len("--grid="):] for arg in argv if arg.startswith("--grid=")]
    text = flag[0] if flag else data.get("grid")
    if text is not None:
        axes = [tuple(map(reference_parse_grid_value, axis.split(":"))) for axis in text.split(",")]
        grid = GridSpec(tuple(axes * nvars if len(axes) == 1 else axes), (1,) * nvars)
        report["roundtrip"] = reference_roundtrip(pairs, grid, int(options.get("--seed", 0))).to_json()
    return report


def test_corpus_congruence_outputs_match_the_oracles(tmp_path, monkeypatch):
    # Each congruence case that exits 0 past argparse prints its pinned output
    # (checked by digest here too), and that output, decoded, is what the
    # oracles compute.
    header, cases = cli_corpus.load()
    monkeypatch.setenv("COLUMNS", header["columns"])
    monkeypatch.chdir(tmp_path)
    cases = [case for case in cases
             if case["argv"][:1] == ["congruence"] and case["code"] == 0 and not case["parser"]]
    slow = [case for case in cases if tuple(case["argv"]) in SLOW_CONGRUENCE]
    assert len(slow) == len(SLOW_CONGRUENCE) and len(cases) >= 60
    fields = set()
    for case in cases:
        if case in slow:
            continue
        out, err, code, _ = cli_corpus.run(case["argv"], case["spec"])
        assert (code, err, cli_corpus.digest(out, err, code)) == (0, "", case["sha256"]), case["argv"]
        payload = json.loads(out)
        assert payload == _reference_congruence(case["argv"], case["spec"]), (case["argv"], case["spec"])
        fields.update(payload)
    assert fields == {"points_congruent", "roundtrip"}


#: Exit-0 ``essential`` cases whose Fourier-Motzkin oracle is too slow for
#: tier-1, by argv, each with its reason.  None is: every case is checked below.
SLOW_ESSENTIAL = {}


def test_corpus_essential_outputs_match_the_oracles(tmp_path, monkeypatch):
    # Each essential case that exits 0 past argparse prints its pinned output
    # (checked by digest here too), and that output, decoded, is what
    # Fourier-Motzkin elimination finds for the reference reader's polynomial.
    header, cases = cli_corpus.load()
    monkeypatch.setenv("COLUMNS", header["columns"])
    monkeypatch.chdir(tmp_path)
    cases = [case for case in cases
             if case["argv"][:1] == ["essential"] and case["code"] == 0 and not case["parser"]]
    slow = [case for case in cases if tuple(case["argv"]) in SLOW_ESSENTIAL]
    assert len(slow) == len(SLOW_ESSENTIAL) and len(cases) >= 110
    for case in cases:
        if case in slow:
            continue
        argv = case["argv"]
        out, err, code, _ = cli_corpus.run(argv, case["spec"])
        assert (code, err, cli_corpus.digest(out, err, code)) == (0, "", case["sha256"]), argv
        sr = semiring(argv[argv.index("--L") + 1] if "--L" in argv else "nat")
        f = reference_parse_polynomial(argv[1], sr, laurent="--laurent" in argv)
        assert json.loads(out) == {"essential": [list(e) for e in fm_essential(f)]}, argv


#: Exit-0 ``kapranov`` cases whose oracles are too slow for tier-1, by argv,
#: each with its reason.  None is: every case is checked below.
SLOW_KAPRANOV = {}


def _reference_kapranov(argv):
    """What ``laytrop kapranov`` reports for a corpus case that exits 0: each
    trial drawn again by ``reference_trial_draws`` (the CLI's defaults are
    degree 3, 100 trials, seed 0 and ``nat``), f built by the reference
    product, and its checks made on Fractions by ``reference_kapranov_checks``;
    a trial failing any check is reported as ``KapranovReport.to_json`` does."""
    options = dict(zip(argv[1::2], argv[2::2]))
    sr = semiring(options.get("--L", "nat"))
    draws = reference_trial_draws(int(options.get("--degree", 3)), int(options.get("--trials", 100)),
                                  int(options.get("--seed", 0)))
    failures = []
    for pairs in draws:
        roots = [PuiseuxSeries.term(c, e) for c, e in pairs]
        f = reference_from_roots(roots)
        forward, reverse, exploded, corner, known = reference_kapranov_checks(f, roots, sr)
        if not (forward and reverse and exploded):
            failures.append({"poly": str(f), "roots": [str(r) for r in roots],
                             "valuations": [str(v) for v in known],
                             "corner_roots": [{"root": r, "mult": m} for r, m in corner],
                             "forward": forward, "reverse": reverse, "exploded": exploded,
                             "pass": False})
    return {"pass": not failures, "trials": len(draws), "failures": failures}


def test_corpus_kapranov_outputs_match_the_oracles(tmp_path, monkeypatch):
    # Each kapranov case that exits 0 past argparse prints its pinned output
    # (checked by digest here too), and that output, decoded, is what the
    # oracles find on the same draws.
    header, cases = cli_corpus.load()
    monkeypatch.setenv("COLUMNS", header["columns"])
    monkeypatch.chdir(tmp_path)
    cases = [case for case in cases
             if case["argv"][:1] == ["kapranov"] and case["code"] == 0 and not case["parser"]]
    slow = [case for case in cases if tuple(case["argv"]) in SLOW_KAPRANOV]
    assert len(slow) == len(SLOW_KAPRANOV) and len(cases) >= 50
    for case in cases:
        if case in slow:
            continue
        argv = case["argv"]
        out, err, code, _ = cli_corpus.run(argv, case["spec"])
        assert (code, err, cli_corpus.digest(out, err, code)) == (0, "", case["sha256"]), argv
        assert json.loads(out) == _reference_kapranov(argv), argv


def _reference_args(argv):
    """(expression texts, options) of an argv after its command: ``--combined``
    and ``--laurent`` map to True, any other option to the value after ``=`` or
    to the next argument."""
    texts, options, rest = [], {}, iter(argv[1:])
    for arg in rest:
        if arg in ("--combined", "--laurent"):
            options[arg] = True
        elif arg.startswith("--"):
            name, eq, value = arg.partition("=")
            options[name] = value if eq else next(rest)
        else:
            texts.append(arg)
    return texts, options


def _reference_eval(argv):
    """What ``laytrop eval`` prints for a corpus case that exits 0, decoded: the
    reference readers' polynomial and point, and ``reference_value`` of the one
    at the other, its scalar written ``value`` on layer 1, else ``(layer|value)``."""
    (text,), options = _reference_args(argv)
    sr = semiring(options.get("--L", "nat"))
    f = reference_parse_polynomial(text, sr, laurent="--laurent" in options)
    point = reference_parse_point(options["--point"], sr)
    assert len(point) == f.nvars, argv
    v = reference_value(f, point)
    layer = "inf" if v.layer == INF else str(v.layer)
    return {"scalar": str(v.value) if v.layer == 1 else f"({layer}|{v.value})",
            "layer": layer, "value": str(v.value)}


def _reference_layering(argv):
    """What ``laytrop layering`` prints for a corpus case that exits 0, decoded:
    the least layer of ``reference_value`` at the point over the set, every
    expression read at the largest variable count among them."""
    texts, options = _reference_args(argv)
    sr, laurent = semiring(options.get("--L", "nat")), "--laurent" in options
    nvars = max(reference_parse_polynomial(text, sr, laurent=laurent).nvars for text in texts)
    point = reference_parse_point(options["--point"], sr)
    assert len(point) == nvars, argv
    layer = min(reference_value(reference_parse_polynomial(text, sr, laurent=laurent, nvars=nvars),
                                point).layer for text in texts)
    return {"layer": "inf" if layer == INF else layer}


def _reference_roots(argv):
    """What ``laytrop roots`` prints for a corpus case that exits 0, decoded: the
    ties ``brute_corner_roots`` finds (on negated exponents and values in a
    descending view), as JSON records or as CSV rows under a header."""
    (text,), options = _reference_args(argv)
    sr = semiring(options.get("--L", "nat"))
    f = reference_parse_polynomial(text, sr)
    assert f.nvars == 1, argv
    sign = -1 if sr.descending else 1
    roots = brute_corner_roots([(sign * e, sign * c.value) for (e,), c in f.coeffs.items()])
    if options.get("--format", "json") == "csv":
        return [["root", "mult"], *([str(x), str(m)] for x, m in roots)]
    return [{"root": str(x), "mult": m} for x, m in roots]


def _decoded(out, argv):
    if "csv" in argv:
        return list(csv.reader(io.StringIO(out, newline="")))
    return json.loads(out)


#: Exit-0 ``eval``, ``layering`` and ``roots`` cases whose oracles are too slow
#: for tier-1, by argv, each with its reason.  None is: every case is checked.
SLOW_EVAL = {}
SLOW_LAYERING = {}
SLOW_ROOTS = {}


@pytest.mark.parametrize("command, reference, slow_cases, least", [
    ("eval", _reference_eval, SLOW_EVAL, 129),
    ("layering", _reference_layering, SLOW_LAYERING, 72),
    ("roots", _reference_roots, SLOW_ROOTS, 94),
])
def test_corpus_point_and_root_outputs_match_the_oracles(command, reference, slow_cases, least,
                                                         tmp_path, monkeypatch):
    # Each case of the command that exits 0 past argparse prints its pinned
    # output (checked by digest here too), and that output, decoded, is what
    # the reference readers and oracles compute.
    header, cases = cli_corpus.load()
    monkeypatch.setenv("COLUMNS", header["columns"])
    monkeypatch.chdir(tmp_path)
    cases = [case for case in cases
             if case["argv"][:1] == [command] and case["code"] == 0 and not case["parser"]]
    slow = [case for case in cases if tuple(case["argv"]) in slow_cases]
    assert len(slow) == len(slow_cases) and len(cases) >= least
    for case in cases:
        if case in slow:
            continue
        argv = case["argv"]
        out, err, code, _ = cli_corpus.run(argv, case["spec"])
        assert (code, err, cli_corpus.digest(out, err, code)) == (0, "", case["sha256"]), argv
        assert _decoded(out, argv) == reference(argv), argv


#: Grids of more points than this are too long to judge point by point in
#: tier-1; ``_reference_long_row`` checks a univariate one instead.
LONG_ROW = 10 ** 5


def _reference_locus_call(argv):
    """(polynomials, grid, combined, format) of a ``locus`` argv, read with the
    reference readers: every expression at the largest variable count among
    them; one ``--grid`` axis stands for every variable."""
    exprs, options = _reference_args(argv)
    assert set(options) <= {"--grid", "--grid-layer", "--L", "--format", "--combined", "--laurent"}, argv
    sr, laurent = semiring(options.get("--L", "nat")), "--laurent" in options
    nvars = max(reference_parse_polynomial(text, sr, laurent=laurent).nvars for text in exprs)
    polynomials = [reference_parse_polynomial(text, sr, laurent=laurent, nvars=nvars)
                   for text in exprs]
    axes = [tuple(map(reference_parse_grid_value, axis.split(":")))
            for axis in options["--grid"].split(",")]
    layer = reference_parse_layer_flag(options.get("--grid-layer", "1"))
    grid = GridSpec(tuple(axes * nvars if len(axes) == 1 else axes), (layer,) * nvars)
    return polynomials, grid, "--combined" in options, options.get("--format", "json")


def _reference_kept(polynomials, point, combined):
    """The layering at a point if every polynomial keeps it, by ``brute_judge``
    (a corner root, or with ``combined`` a corner or cluster root), else None."""
    judged = [brute_judge(f, point) for f in polynomials]
    if all(j["corner"] or (combined and j["cluster"]) for j in judged):
        return min(j["layer"] for j in judged)
    return None


def _reference_long_row(polynomials, grid, combined):
    """The (point, layering) pairs of a univariate grid, judged once per run of
    grid points between the points where ``brute_corner_roots`` finds two
    monomials of some polynomial tied at the best value.  A grid point on such
    a tie is a run of its own; inside a run every polynomial has one best
    monomial, so every verdict and layering there is that of its first point."""
    (lower, upper, step), = grid.axes
    count = (upper - lower) // step + 1
    sign = -1 if polynomials[0].semiring.descending else 1
    cuts = {0, count}
    for f in polynomials:
        for x, _ in brute_corner_roots([(sign * e, sign * c.value) for (e,), c in f.coeffs.items()]):
            t = (x - lower) / step
            cuts.update(min(max(k, 0), count) for k in (math.ceil(t), math.floor(t) + 1))
    cuts = sorted(cuts)
    pairs = []
    for start, stop in zip(cuts, cuts[1:]):
        point = (LayeredScalar(grid.layers[0], lower + start * step),)
        layering = _reference_kept(polynomials, point, combined)
        if layering is not None:
            pairs += [((LayeredScalar(grid.layers[0], lower + k * step),), layering)
                      for k in range(start, stop)]
    return pairs


def test_corpus_locus_outputs_match_the_oracles(tmp_path, monkeypatch):
    # Each locus case that exits 0 past argparse prints its pinned output
    # (checked by digest here too), and that output is the reference
    # rendering of the grid points every polynomial keeps by ``brute_judge``.
    # A univariate grid of more than LONG_ROW points is judged by runs
    # between ties, and on every univariate grid below that the runs agree
    # with judging each point.
    header, cases = cli_corpus.load()
    monkeypatch.setenv("COLUMNS", header["columns"])
    monkeypatch.chdir(tmp_path)
    cases = [case for case in cases
             if case["argv"][:1] == ["locus"] and case["code"] == 0 and not case["parser"]]
    assert len(cases) >= 210
    long_rows = 0
    for case in cases:
        argv = case["argv"]
        out, err, code, _ = cli_corpus.run(argv, case["spec"])
        assert (code, err, cli_corpus.digest(out, err, code)) == (0, "", case["sha256"]), argv
        polynomials, grid, combined, fmt = _reference_locus_call(argv)
        size = math.prod((upper - lower) // step + 1 for lower, upper, step in grid.axes)
        if size > LONG_ROW:
            pairs = _reference_long_row(polynomials, grid, combined)
            long_rows += 1
        else:
            pairs = [(a, layering) for a in brute_grid(grid)
                     if (layering := _reference_kept(polynomials, a, combined)) is not None]
            if grid.nvars == 1:
                assert _reference_long_row(polynomials, grid, combined) == pairs, argv
        assert out == reference_locus_rendering(pairs, fmt), argv
    assert long_rows == 2
