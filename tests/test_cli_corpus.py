"""The CLI prints, byte for byte, what the golden corpus pins (see cli_corpus.py)."""

import json
import sys
import time

import cli_corpus
from laytrop import GridSpec, PuiseuxSeries, semiring
from oracles import (fm_essential, reference_from_roots, reference_kapranov_checks,
                     reference_parse_grid_value, reference_parse_point, reference_parse_polynomial,
                     reference_roundtrip, reference_trial_draws, reference_value)


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
