"""The golden CLI corpus: fixed argvs, each with the sha256 of its output.

``tests/golden/cli.jsonl`` starts with a header line, ``{"python": "X.Y",
"columns": "80"}``, then holds one case per line: ``argv``, the ``spec`` text
a ``congruence`` call reads from ``spec.json`` (null for none), the exit
``code``, ``parser`` (true when argparse itself ended the call, as for
``--help`` and malformed flags) and ``sha256``, the digest of
``json.dumps([stdout, stderr, code])``.  Every call runs in process, in one
working directory where ``spec.json`` is the only spec file, with the
``COLUMNS`` of the header, so the paths and widths inside messages are fixed.
argparse words its own texts differently across Python versions, so the
digest of a ``parser`` case holds only under the header's Python.

Regenerate the file from the current code with

    PYTHONPATH=src python tests/cli_corpus.py

and name every digest that changed, and why, in CHANGES.md.
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from laytrop import cli

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
COLUMNS = "80"
FLAVORS = ("trivial", "super", "nat")
LAYERS = {"trivial": ["1"], "super": ["1", "inf"], "nat": ["1", "2", "3", "inf"]}


def run(argv, spec):
    """(stdout, stderr, exit code, parser) of one in-process call, in the current
    working directory, with ``spec`` (if any) written to ``spec.json`` first; a
    spec's lone surrogates stand for the undecodable bytes they escape."""
    if spec is not None:
        Path("spec.json").write_bytes(spec.encode("utf-8", "surrogateescape"))
    out, err = io.StringIO(), io.StringIO()
    parser = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code, parser = exc.code, True
    if spec is not None:
        os.remove("spec.json")
    return out.getvalue(), err.getvalue(), code, parser


def digest(out, err, code):
    return hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()


def load():
    """(header, cases) of the committed corpus."""
    with open(CORPUS, encoding="utf-8") as handle:
        header, *cases = map(json.loads, handle)
    return header, cases


# ---------------------------------------------------------------------------
# The argvs


def _rational(rng, big=6, dens=(1, 1, 2, 3)):
    return str(Fraction(rng.randint(-big, big), rng.choice(dens)))


def _layered(rng, flavor, nvars, laurent, terms=4):
    """Random layered polynomial text over at most ``nvars`` variables."""
    def monomial(first):
        value = _rational(rng)
        layer = rng.choice(LAYERS[flavor])
        coefficient = f"({layer}|{value})"
        if layer == "1" and rng.random() < 0.5:
            # argparse reads a leading "-" as a flag
            coefficient = f"({value})" if first and value[0] == "-" else value
        factors = [f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}"
                   for i in range(nvars) if (e := rng.randint(-2 if laurent else 0, 3))]
        return "*".join([coefficient, *factors])
    return " + ".join(monomial(i == 0) for i in range(rng.randint(1, terms)))


def _point(rng, flavor, nvars):
    def scalar():
        layer = rng.choice(LAYERS[flavor])
        value = _rational(rng, 4)
        return value if layer == "1" else f"({layer}|{value})"
    return ",".join(scalar() for _ in range(nvars))


def _puiseux(rng, degree=3):
    """Random Puiseux polynomial text in L."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = Fraction(rng.choice([n for n in range(-5, 6) if n]), rng.choice([1, 1, 2, 3]))
        factors = [f"({c})" if c < 0 else str(c)]
        e = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        if e:
            factors.append("t" if e == 1 else f"t^({e})")
        d = rng.randint(0, degree)
        if d:
            factors.append("L" if d == 1 else f"L^{d}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _axis(rng, points):
    lower = Fraction(rng.randint(-6, 3), rng.choice([1, 2, 3]))
    step = Fraction(rng.randint(1, 3), rng.choice([1, 2, 4]))
    upper = lower + step * rng.randint(0, points) + rng.choice([0, 0, Fraction(1, 3)])
    return f"{lower}:{upper}:{step}"


def _grid(rng, nvars):
    points = (30, 8, 4)[nvars - 1]
    return ",".join(_axis(rng, points) for _ in range(1 if rng.random() < 0.3 else nvars))


def _eval(rng):
    cases = []
    for _ in range(150):
        flavor, nvars, laurent = rng.choice(FLAVORS), rng.randint(1, 3), rng.random() < 0.2
        arity = nvars if rng.random() < 0.9 else rng.randint(1, 3)
        cases.append(["eval", _layered(rng, flavor, nvars, laurent),
                      f"--point={_point(rng, flavor, arity)}", "--L", flavor] + ["--laurent"] * laurent)
    return cases + [
        ["eval", "x1 + 2", "--point", "(2|4)"], ["eval", "x1^2*x2 + (2|4)", "--point", "1,(3|0)"],
        ["eval", "x1 + @", "--point", "0"], ["eval", "x1^²", "--point", "1"],
        ["eval", "x²", "--point", "1"], ["eval", "x1*", "--point", "1"],
        ["eval", "x1 +", "--point", "1"], ["eval", "+ x1", "--point", "1"],
        ["eval", "x1^(-1) + 0", "--point", "1"], ["eval", "--laurent", "x1^(-1) + 0", "--point", "1"],
        ["eval", "--laurent", "x1^-1 + 0", "--point", "1"], ["eval", "x1^(2", "--point", "1"],
        ["eval", "x0 + 1", "--point", "1"], ["eval", "y1 + 1", "--point", "1"],
        ["eval", "x1 + 0", "--point", "(0|1)"], ["eval", "x1 + 0", "--point", "(-1|1)"],
        ["eval", "x1 + 0", "--point", "1/0"], ["eval", "x1 + 0", "--point", "1,2"],
        ["eval", "x1 + x2", "--point", "1"], ["eval", "x1 + 0", "--point", "(2|1)", "--L", "trivial"],
        ["eval", "(2|1)*x1 + 0", "--point", "1", "--L", "super"],
        ["eval", "(inf|1)*x1 + 0", "--point", "(inf|-1/2)", "--L", "super"],
        ["eval", "x1 + 0", "--point", "1" + "0" * 5000], ["eval", "x1 + 0", "--point", "1,"],
        ["eval", "x1 + 0", "--point", ""], ["eval", "", "--point", "1"],
        ["eval", "x1 + 0", "--point", "٣"], ["eval", "x٣ + 0", "--point", "1,2,3"],
        ["eval", "(inf|0)", "--point", "5"], ["eval", "x1\n+ @", "--point", "0"],
    ]


def _trop_explode(rng):
    cases = []
    for _ in range(70):
        cases.append(["trop", _puiseux(rng), "--L", rng.choice(FLAVORS)])
        cases.append(["explode", _puiseux(rng)])
    bad = ["L +", "t^(1/0)*L", "L^-1 + 1", "x1 + 0", "2*t^", "0", "0*L + 0", "(1/2", "L^(2)", "t^1/2"]
    return cases + [["trop", text] for text in bad] + [["explode", text] for text in bad] + [
        ["trop", "L^2 + (-1)*t^(-1)*L + 2*t^(-1)"], ["explode", "L + (-1)*t^(-1)"],
        ["trop", "L + (-1)*t^(-1)", "--L", "super"], ["explode", "L + (-1)*L"],
    ]


def _roots(rng):
    cases = []
    for _ in range(90):
        flavor = rng.choice(FLAVORS)
        cases.append(["roots", _layered(rng, flavor, 1, False, 5), "--L", flavor,
                      "--format", rng.choice(["json", "csv"])])
    return cases + [
        ["roots", "x1^2 + 3*x1 + 4"], ["roots", "x1 + x2"], ["roots", "x1^2 + 3*x1 + 4", "--format", "csv"],
        ["roots", "5"], ["roots", "(inf|2)*x1^3 + 0"], ["roots", "x1^-1 + 0"],
    ]


def _locus(rng):
    cases = []
    for _ in range(220):
        flavor, nvars, laurent = rng.choice(FLAVORS), rng.randint(1, 3), rng.random() < 0.2
        exprs = [_layered(rng, flavor, nvars, laurent) for _ in range(rng.choice([1, 1, 2, 3]))]
        argv = ["locus", *exprs, f"--grid={_grid(rng, nvars)}", "--L", flavor,
                "--format", rng.choice(["json", "csv"])]
        if rng.random() < 0.3:
            argv += ["--grid-layer", rng.choice(LAYERS[flavor] + ["2"])]
        cases.append(argv + ["--combined"] * (rng.random() < 0.4) + ["--laurent"] * laurent)
    # Grid values outside the ``-p/q`` literals of expressions, and spaced ones.
    forms = ["0.5", ".5", "1e-3", "1.5e2", "+1", "1_000", "1 /2", "- 1", " 1/2 ", "1/ 2", "-1/2",
             "2/4", "-0", "1/0", "1/-2", "--1", "1/2/3", "", "a", "0x10", "1e3", "½", "٣", "inf"]
    for form in forms:
        cases.append(["locus", "x1 + 0", f"--grid=0:1:{form}"])
        cases.append(["locus", "x1 + 0", f"--grid={form}:2:1/2", "--format", "csv"])
    cases += [["locus", "x1 + 0", "--grid=0:1.5e2:50"], ["locus", "x1 + 0", "--grid=0:1e2:1_0"]]
    return cases + [
        ["locus", "x1 + x2 + 0", "--grid=-5:5:1/2", "--format", "csv"],
        ["locus", "x1 + 2", "--grid=3:5:1", "--grid-layer", "2", "--combined"],
        ["locus", "x1^3 + (2|1)*x1 + 0", "--grid=-5:5:1/100000"],
        ["locus", "x1^3 + (2|1)*x1 + 0", "--grid=-5000:5000:1/100000"],
        ["locus", "x1 + 2", "--grid=1:3:1", "--grid-layer", "inf"],
        ["locus", "x1 + 2", "--grid=1:3:1", "--grid-layer", "inf", "--L", "super"],
        ["locus", "x1 + 0", "--grid=0:1:0"], ["locus", "x1 + 0", "--grid=1:0:1"],
        ["locus", "x1 + 0", "--grid=0:1:-1"], ["locus", "x1 + 0", "--grid=0:1:1", "--grid-layer", "0"],
        ["locus", "x1 + 0", "--grid=0:1:1", "--grid-layer", "-2"],
        ["locus", "x1 + 0", "--grid=0:1:1", "--grid-layer", "x"],
        ["locus", "x1 + 0", "--grid=0:1:1", "--grid-layer", "2", "--L", "trivial"],
        ["locus", "x1 + 0", "--grid=0:1:1", "--grid-layer", "2", "--L", "super"],
        ["locus", "x1 + 0", "--grid=nonsense"], ["locus", "x1 + 0", "--grid=0:1"],
        ["locus", "x1 + 0", "--grid=0:1:1:1"], ["locus", "x1 + x2", "--grid=0:1:1,0:1:1,0:1:1"],
        ["locus", "x1 + x2", "--grid=0:1:1,"], ["locus", "x1 + 0", "--grid=a:1:1"],
        ["locus", "x1 + 0", "x2 + 1", "--grid=-1:1:1"], ["locus", "x1 + @", "--grid=0:1:1"],
        ["locus", "x1^-1 + 0", "--grid=-1:1:1", "--laurent"],
        ["locus", "(inf|0)*x1", "--grid=-5:5:1/1000", "--format", "csv"],
        ["locus", "x1 + x2 + x3 + 0", "--grid=-1:1:1/2", "--combined"],
    ]


def _layering(rng):
    cases = []
    for _ in range(70):
        flavor, nvars = rng.choice(FLAVORS), rng.randint(1, 3)
        exprs = [_layered(rng, flavor, nvars, False) for _ in range(rng.randint(1, 3))]
        cases.append(["layering", "--L", flavor, *exprs, f"--point={_point(rng, flavor, nvars)}"])
    return cases + [
        ["layering", "--L", "nat", "x1 + x2 + 0", "--point", "0,0"],
        ["layering", "x1 + 0", "x1 + 0", "--point", "0"], ["layering", "x1", "--point", "1,2"],
        ["layering", "(inf|0)*x1", "--point", "3"], ["layering", "x1^-1", "--point", "1", "--laurent"],
    ]


def _essential(rng):
    cases = []
    for _ in range(110):
        flavor, nvars, laurent = rng.choice(FLAVORS), rng.randint(1, 3), rng.random() < 0.2
        cases.append(["essential", _layered(rng, flavor, nvars, laurent, 6), "--L", flavor]
                     + ["--laurent"] * laurent)
    return cases + [
        ["essential", "x1^2 + 0*x1 + 4"], ["essential", "x100 + x1 + 0"],
        ["essential", "x1^3 + x2^3 + x1*x2 + 0"], ["essential", "x1^2 + x1 + ("],
        ["essential", "x1^-2 + x1^2 + 0", "--laurent"], ["essential", "x1^2 + 5*x1 + 0"],
    ]


def _congruence(rng):
    cases = []
    for _ in range(60):
        flavor, nvars = rng.choice(FLAVORS), rng.randint(1, 2)
        spec = {"pairs": [[_layered(rng, flavor, nvars, False, 3), _layered(rng, flavor, nvars, False, 3)]
                          for _ in range(rng.randint(0, 3))]}
        if rng.random() < 0.6:
            spec["points"] = [_point(rng, flavor, nvars).split(",") for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.8:
            spec["grid"] = _grid(rng, nvars)
        argv = ["congruence", "spec.json", "--L", flavor, "--seed", str(rng.randint(0, 9))]
        if rng.random() < 0.2:
            argv.append(f"--grid={_grid(rng, nvars)}")
        cases.append((argv, json.dumps(spec)))
    readme = json.dumps({"pairs": [["x1^2 + 0*x1 + 4", "x1^2 + 4"]], "points": [["0"], ["1"], ["-2"]],
                         "grid": "-3:3:1"})
    pair = '{"pairs": [["x1", "0"]], "grid": "%s"}'
    specs = [readme, '{"pairs": [["0", "x2"]], "grid": "-1:1:1"}', '{"pairs": [], "grid": "0:2:1"}',
             '{"pairs": [], "grid": "-5000:5000:1/100000"}', '{"pairs": [["x1", "0", "1"]]}',
             '{"pairs": [["x1", "0"]', '[["x1", "0"]]', '{"pairs": [["x1", "0"]], "grid": 5}',
             '{"pairs": [["x1", 5]]}', '{"pairs": [["x1", "0"]], "points": [[1]]}',
             '{"pairs": [["x1", "\udcff"]]}', '{"pairs": [["x1", "0"]], "points": "1"}', "{}",
             "null", '{"pairs": null, "points": null, "grid": null}', '{"pairs": [["x1", "0"]]}',
             '{"pairs": [["x1", "0"]], "points": [["(0|1)"]]}', '{"pairs": [["x1 +", "0"]]}',
             '{"pairs": [["x1", "0"]], "points": [["1", "2"]]}', "",
             *(pair % form for form in ("1e-3", "0:1:1e-3", "0:1:0.5", "0:1:1 /2", "0:1:- 1",
                                        "-1:1:+1", "0:1:1_0", "0:1", "0:1:0"))]
    cases += [(["congruence", "spec.json"], spec) for spec in specs]
    cases += [(["congruence", "spec.json", f"--grid={grid}"], readme)
              for grid in ("-3:3:1", "0:1:0.5", "0:1:1e-3", "0:1:1 /2", "0:1:- 1", "x")]
    return cases + [(["congruence", "missing.json"], None), (["congruence", "."], None)]


def _kapranov(rng):
    cases = [["kapranov", "--degree", str(rng.randint(1, 6)), "--trials", str(rng.randint(1, 6)),
              "--seed", str(rng.randint(0, 99)), "--L", rng.choice(FLAVORS)] for _ in range(50)]
    return cases + [
        ["kapranov", "--degree", "3", "--trials", "10", "--seed", "7"], ["kapranov"],
        ["kapranov", "--degree", "0"], ["kapranov", "--trials", "0"], ["kapranov", "--degree", "-1"],
        ["kapranov", "--degree", "12", "--trials", "2", "--seed", "5"],
    ]


def _parser():
    """Calls that argparse itself ends: help texts and malformed flags."""
    return [
        ["--help"], ["-h"], [], ["bogus"], ["loc"], ["--", "locus"], ["-h", "locus"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["eval", "x1"], ["trop"], ["explode", "t", "extra"], ["roots", "--format", "xml", "x1"],
        ["locus", "x1"], ["layering", "x1", "--point"], ["essential", "--laurent=1", "x1"],
        ["congruence", "spec.json", "--seed", "x"], ["kapranov", "--bogus"],
        ["roots", "--frobnicate", "x1"], ["eval", "x1", "--point", "1", "--L", "tropical"],
        ["kapranov", "--degree", "1.5"], ["locus", "x1", "--grid", "-1:1:1"],
    ]


def argvs():
    """Every (argv, spec) of the corpus, in file order."""
    rng = random.Random(2027)
    plain = [*_eval(rng), *_trop_explode(rng), *_roots(rng), *_locus(rng), *_layering(rng),
             *_essential(rng)]
    return ([(argv, None) for argv in plain] + _congruence(rng)
            + [(argv, None) for argv in _kapranov(rng) + _parser()])


def main():
    lines = [json.dumps({"python": "%d.%d" % sys.version_info[:2], "columns": COLUMNS})]
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            for argv, spec in argvs():
                out, err, code, parser = run(argv, spec)
                lines.append(json.dumps({"argv": argv, "spec": spec, "code": code,
                                         "parser": parser, "sha256": digest(out, err, code)}))
        finally:
            os.chdir(home)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} cases to {CORPUS}")


if __name__ == "__main__":
    main()
