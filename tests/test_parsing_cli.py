"""Expression grammar round trips and the command-line interface."""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from laytrop import (COUNTING, RATIONALS, INF, DomainError, LayeredPolynomial, LayeredScalar,
                     LayeredSemiring, ParseError, PuiseuxPolynomial, parse_point, parse_polynomial,
                     parse_puiseux, parse_puiseux_polynomial, parse_scalar)
from laytrop import cli, kapranov, semiring
from laytrop.cli import main

from oracles import (random_poly, random_series, reference_locus_output,
                     reference_parse_grid_value, reference_parse_layer_flag, reference_parse_point,
                     reference_parse_polynomial, reference_parse_puiseux,
                     reference_parse_puiseux_polynomial, reference_parse_scalar, reference_poly_add,
                     reference_series)

NAT = LayeredSemiring(COUNTING, RATIONALS)


# ---------------------------------------------------------------------------
# Grammar


def test_scalar_literals():
    assert parse_scalar("4", NAT) == NAT.scalar(4)
    assert parse_scalar("-3/4", NAT) == NAT.scalar(Fraction(-3, 4))
    assert parse_scalar("(2|4)", NAT) == NAT.scalar(4, 2)
    assert parse_scalar("(inf|1/2)", NAT) == NAT.scalar(Fraction(1, 2), INF)
    assert parse_scalar("(-5)", NAT) == NAT.scalar(-5)


def test_point_parsing():
    point = parse_point("0,(2|4),-1/3", NAT)
    assert point == (NAT.scalar(0), NAT.scalar(4, 2), NAT.scalar(Fraction(-1, 3)))


def test_polynomial_parsing():
    f = parse_polynomial("x1^2 + 3*x1 + 4", NAT)
    assert f.nvars == 1
    assert f.coeffs == {(2,): NAT.scalar(0), (1,): NAT.scalar(3), (0,): NAT.scalar(4)}
    g = parse_polynomial("(2|4)*x1", NAT)
    assert g.coeffs == {(1,): NAT.scalar(4, 2)}


def test_duplicate_monomials_merge():
    f = parse_polynomial("x1 + x1", NAT)
    assert f.coeffs == {(1,): NAT.scalar(0, 2)}


def test_multivariate_and_declared_arity():
    f = parse_polynomial("x1*x2^2 + 0", NAT)
    assert f.support() == ((0, 0), (1, 2))
    g = parse_polynomial("x1 + 0", NAT, nvars=3)
    assert g.nvars == 3
    with pytest.raises(ParseError):
        parse_polynomial("x5", NAT, nvars=2)


def test_laurent_exponents_need_the_flag():
    f = parse_polynomial("x1^-2 + 0", NAT, laurent=True)
    assert f.support() == ((-2,), (0,))
    with pytest.raises(ParseError):
        parse_polynomial("x1^-2", NAT)


def test_bracketed_exponents_read_like_bare_ones():
    for text, laurent in (("x1^(-1) + x2^(3) + 0", True), ("x1^(2) + x1^(0)", False)):
        bare = text.replace("(", "").replace(")", "")
        assert parse_polynomial(text, NAT, laurent=laurent) == parse_polynomial(bare, NAT,
                                                                                laurent=laurent)
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1^(-1) + 0", NAT)
    assert str(err.value) == "negative exponents need Laurent mode (line 1, column 1)"


@pytest.mark.parametrize("text, message", [
    ("x1^()", "expected int, found ')' (line 1, column 5)"),
    ("x1^(-)", "expected int, found ')' (line 1, column 6)"),
    ("x1^(1/2)", "expected ), found '/' (line 1, column 6)"),
])
def test_malformed_bracketed_exponents_are_refused(text, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, NAT, laurent=True)
    assert str(err.value) == message


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + @", NAT)
    assert err.value.column == 6
    with pytest.raises(ParseError):
        parse_polynomial("", NAT)
    with pytest.raises(ParseError):
        parse_scalar("(2|)", NAT)
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 +\n  2 * @", NAT)
    assert (err.value.line, err.value.column) == (2, 7)
    with pytest.raises(ParseError) as err:
        parse_puiseux("t +\n")
    assert (err.value.line, err.value.column) == (2, 1)


def test_point_errors_count_from_the_start_of_the_text():
    for text, position in (("0, 1, @", (1, 7)), ("0,\n(2|@)", (2, 4)), ("1,,2", (1, 3)),
                           ("1, (2|x)", (1, 7))):
        with pytest.raises(ParseError) as err:
            parse_point(text, NAT)
        assert (err.value.line, err.value.column) == position, text
    with pytest.raises(ParseError, match="expected int, found ','"):
        parse_point("1,,2", NAT)


def test_non_decimal_digits_are_parse_errors():
    # "²".isdigit() holds, but int() reads only decimal digits
    for text in ("x²", "x1^²"):
        with pytest.raises(ParseError):
            parse_polynomial(text, NAT)
    with pytest.raises(ParseError):
        parse_scalar("(²|1)", NAT)
    with pytest.raises(ParseError):
        parse_puiseux_polynomial("L^²")
    # decimal digits of other scripts read as int() reads them
    assert parse_polynomial("x1 + ٣", NAT) == parse_polynomial("x1 + 3", NAT)
    assert parse_polynomial("x٢", NAT).nvars == 2


def test_integers_past_the_digit_limit_are_parse_errors():
    digits = "1" * 5000
    for text in (digits, f"x{digits}", f"x1^{digits}", f"(2|1/{digits})"):
        with pytest.raises(ParseError, match="too long"):
            parse_polynomial(text, NAT)


@pytest.mark.parametrize("parse, text, message", [
    (lambda text: parse_polynomial(text, NAT), "x1*", "expected a term"),
    (lambda text: parse_polynomial(text, NAT), "x1 +", "expected a term"),
    (lambda text: parse_polynomial(text, NAT), "2 * + x1", "expected a coefficient"),
    (parse_puiseux, "t*", "expected a factor"),
    (parse_puiseux_polynomial, "L + ", "expected a factor"),
], ids=["layered-star", "layered-plus", "layered-star-plus", "series-star", "poly-plus"])
def test_dangling_operators_are_refused(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_puiseux_parsing():
    p = parse_puiseux("3*t^(-1/2) + 2*t^(0)")
    assert p.terms == ((Fraction(-1, 2), Fraction(3)), (Fraction(0), Fraction(2)))
    assert parse_puiseux("t^(0) + (-1)*t^(0)").is_zero
    assert parse_puiseux("t").val() == -1
    assert parse_puiseux("5").leading() == 5


def test_puiseux_polynomial_parsing_adds_like_degrees():
    rng = random.Random(12)
    for _ in range(200):
        terms = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(0, 3))
                 for _ in range(rng.randint(1, 6))]
        terms += [(-c, e, d) for c, e, d in terms if rng.random() < 0.3]
        expected = PuiseuxPolynomial.zero()
        for c, e, d in terms:
            term = PuiseuxPolynomial(((d, reference_series([(e, c)])),))
            expected = reference_poly_add(expected, term)
        text = " + ".join(f"({c})*t^({e})*L^{d}" for c, e, d in terms)
        assert parse_puiseux_polynomial(text) == expected, text


def test_puiseux_polynomial_parsing():
    f = parse_puiseux_polynomial("L^2 + (-1)*t^(-1)*L")
    assert f.degree() == 2
    assert f.coefficient(1).terms == ((Fraction(-1), Fraction(-1)),)
    assert str(parse_puiseux_polynomial("L + 2")) == "L + 2"


def test_polynomial_print_parse_roundtrip():
    rng = random.Random(41)
    for _ in range(150):
        f = random_poly(rng, NAT, rng.randint(1, 3))
        assert parse_polynomial(str(f), NAT, nvars=f.nvars) == f


def test_puiseux_print_parse_roundtrip():
    rng = random.Random(42)
    for _ in range(150):
        p = random_series(rng)
        assert parse_puiseux(str(p)) == p


def test_puiseux_polynomial_print_parse_roundtrip():
    from laytrop import PuiseuxPolynomial
    rng = random.Random(43)
    for _ in range(60):
        f = PuiseuxPolynomial.from_coeffs(
            {d: random_series(rng) for d in range(rng.randint(1, 4))})
        if f.is_zero:
            continue
        assert parse_puiseux_polynomial(str(f)) == f


def test_scalar_print_parse_roundtrip():
    for scalar in (NAT.scalar(3), NAT.scalar(Fraction(-7, 2), 4), NAT.scalar(0, INF)):
        assert parse_scalar(str(scalar), NAT) == scalar


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "x1 + 2", "--point", "(2|4)")
    assert code == 0
    assert json.loads(out) == {"scalar": "(2|4)", "layer": "2", "value": "4"}


def test_cli_roots(capsys):
    code, out, _ = run_cli(capsys, "roots", "x1^2 + 3*x1 + 4")
    assert code == 0
    assert json.loads(out) == [{"root": "1", "mult": 1}, {"root": "3", "mult": 1}]


def test_cli_roots_csv(capsys):
    code, out, _ = run_cli(capsys, "roots", "--format", "csv", "x1^2 + 3*x1 + 4")
    assert code == 0
    assert out.splitlines() == ["root,mult", "1,1", "3,1"]


def test_cli_layering(capsys):
    code, out, _ = run_cli(capsys, "layering", "--L", "nat", "x1 + x2 + 0",
                           "--point", "0,0")
    assert code == 0
    assert json.loads(out) == {"layer": 3}


def test_cli_layering_of_family(capsys):
    code, out, _ = run_cli(capsys, "layering", "x1 + 2", "x1 + 3",
                           "--point", "(2|4)")
    assert code == 0
    assert json.loads(out) == {"layer": 2}


def test_cli_trop(capsys):
    code, out, _ = run_cli(capsys, "trop", "L^2 + (-1)*t^(-1)*L + (-2)*L + 2*t^(-1)")
    assert code == 0
    payload = json.loads(out)
    # tangible coefficients print with the layer-1 shorthand
    assert payload["coefficients"] == {"0": "1", "1": "1", "2": "0"}


def test_cli_explode(capsys):
    code, out, _ = run_cli(capsys, "explode", "L + (-1)*t^(-1)")
    assert code == 0
    assert json.loads(out)["coefficients"] == {
        "0": {"sort": "-1", "value": "1"},
        "1": {"sort": "1", "value": "0"},
    }


def test_cli_locus(capsys):
    code, out, _ = run_cli(capsys, "locus", "x1 + x2 + 0", "--grid=-1:1:1")
    assert code == 0
    records = json.loads(out)
    assert {"point": ["0", "0"], "layers": ["1", "1"], "layering": "3"} in records
    got = {tuple(r["point"]) for r in records}
    assert got == {("0", "0"), ("1", "1"), ("0", "-1"), ("-1", "0")}


def test_cli_locus_csv_and_determinism(capsys):
    code, first, _ = run_cli(capsys, "locus", "x1 + x2 + 0", "--grid=-1:1:1",
                             "--format", "csv")
    assert code == 0
    assert first.splitlines()[0] == "point,layers,layering"
    code, second, _ = run_cli(capsys, "locus", "x1 + x2 + 0", "--grid=-1:1:1",
                              "--format", "csv")
    assert first == second


def test_cli_locus_on_an_infinite_layer_grid(capsys):
    # At (inf|v) the monomial x1 is ghost over both sorts from v = 2 on,
    # where it ties or beats the tangible 2; below, 2 alone is not a root.
    expected = [{"point": [v], "layers": ["inf"], "layering": "inf"} for v in ("2", "3")]
    code, out, _ = run_cli(capsys, "locus", "x1 + 2", "--grid=1:3:1", "--grid-layer", "inf")
    assert code == 0 and json.loads(out) == expected
    code, out, _ = run_cli(capsys, "locus", "x1 + 2", "--grid=1:3:1", "--grid-layer", "inf",
                           "--format", "csv")
    assert code == 0 and out.splitlines() == ["point,layers,layering", "2,inf,inf", "3,inf,inf"]


def test_cli_parses_each_expression_once_unless_narrower(capsys, monkeypatch):
    calls = []
    parse = cli.parse_polynomial
    monkeypatch.setattr(cli, "parse_polynomial",
                        lambda text, *args, **kw: calls.append(text) or parse(text, *args, **kw))
    code, _, _ = run_cli(capsys, "locus", "x1 + x2", "x2 + 0", "x1*x2 + 1", "--grid=-1:1:1")
    assert code == 0 and calls == ["x1 + x2", "x2 + 0", "x1*x2 + 1"]
    calls.clear()
    code, out, _ = run_cli(capsys, "layering", "x1 + 0", "x2 + 1", "--point", "0,0")
    assert (code, json.loads(out)) == (0, {"layer": 1})
    assert calls == ["x1 + 0", "x2 + 1", "x1 + 0"]   # x1 + 0 is read again over two


def test_cli_combined_locus(capsys):
    code, out, _ = run_cli(capsys, "locus", "x1 + 2", "--grid=3:5:1",
                           "--grid-layer", "2", "--combined")
    assert code == 0
    assert len(json.loads(out)) == 3


def _random_locus_invocation(rng):
    """(argv, expected stdout or None for a refusal, facts): a ``locus`` call
    on 1-3 polynomials over 1-3 variables, on a grid whose bounds and steps
    have unrelated denominators, with the expected output rendered by
    ``reference_locus_output`` from the same parsed input."""
    flavor = rng.choice(["trivial", "super", "nat"])
    layers = {"trivial": ["1"], "super": ["1", "inf"], "nat": ["1", "1", "2", "inf"]}[flavor]
    arity, laurent = rng.randint(1, 3), rng.random() < 0.2

    def monomial():
        value = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        factors = [f"x{i + 1}^{e}" for i in range(arity)
                   if (e := rng.randint(-1 if laurent else 0, 2))]
        return "*".join([f"({rng.choice(layers)}|{value})", *factors])

    exprs = [" + ".join(monomial() for _ in range(rng.randint(1, 4)))
             for _ in range(rng.choice([1, 1, 2, 3]))]
    grid_layer = rng.choice(["1", "1", "2", "inf"])
    combined, fmt = rng.random() < 0.4, rng.choice(["json", "csv"])
    polynomials, nvars = cli._parse_set(exprs, semiring(flavor), laurent)
    axes = []
    for _ in range(1 if rng.random() < 0.3 else nvars):
        lower = Fraction(rng.randint(-9, 4), rng.choice([1, 2, 3, 4, 7]))
        step = Fraction(rng.randint(1, 3), rng.choice([1, 2, 5, 6]))
        count = rng.randint(0, (40, 10, 5)[nvars - 1])
        upper = lower + step * (count + rng.choice([0, 0, Fraction(1, 2)]))
        axes.append(f"{lower}:{upper}:{step}")
    argv = ["locus", *exprs, f"--grid={','.join(axes)}", "--grid-layer", grid_layer,
            "--L", flavor, "--format", fmt] + ["--combined"] * combined + ["--laurent"] * laurent
    grid = cli._parse_grid(",".join(axes), nvars, cli._parse_layer_flag(grid_layer))
    try:
        expected = reference_locus_output(polynomials, grid, combined, fmt)
    except DomainError:
        expected = None
    return argv, expected, (flavor, nvars, grid_layer, combined, len(exprs) > 1, fmt)


def test_locus_output_matches_the_reference_rendering(capsys):
    rng = random.Random(1818)
    seen, kept, refused = set(), [], 0
    for _ in range(300):
        argv, expected, facts = _random_locus_invocation(rng)
        code, out, err = run_cli(capsys, *argv)
        if expected is None:
            refused += 1
            assert (code, out) == (1, "") and err.startswith("error: "), argv
            continue
        assert (code, out) == (0, expected), argv
        seen.add(facts)
        kept.append(len(out.splitlines()) - 1 if facts[-1] == "csv" else len(json.loads(out)))
    for i, values in enumerate([{"trivial", "super", "nat"}, {1, 2, 3}, {"1", "2", "inf"},
                                {True, False}, {True, False}, {"json", "csv"}]):
        assert {fact[i] for fact in seen} == values
    assert kept.count(0) >= 20 and sum(k > 5 for k in kept) >= 50 and refused >= 10


def test_cli_locus_streams_a_long_row(capsys):
    # 10**4 + 1 kept points: more than two of the JSON writer's 4096-record chunks.
    f, = cli._parse_set(["(inf|0)*x1"], semiring("nat"))[0]
    grid = cli._parse_grid("-5:5:1/1000", 1, 1)
    for fmt in ("csv", "json"):
        expected = reference_locus_output([f], grid, False, fmt)
        code, out, _ = run_cli(capsys, "locus", "(inf|0)*x1", "--grid=-5:5:1/1000", "--format", fmt)
        assert (code, out) == (0, expected)
    assert len(json.loads(expected)) == 10 ** 4 + 1


class _Writes:
    """A stdout stand-in that keeps every text written to it."""

    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)


@pytest.mark.parametrize("expr, axes, kept", [
    ("(inf|0)*x1", "-5:5:1/1000", 10 ** 4 + 1),  # one kept range longer than 4096 points
    ("x1 + x2", "0:4200:1", 4201),  # one kept point on each of 4201 rows: the tie line x1 = x2
])
def test_cli_locus_writes_at_most_4096_records_at_a_time(monkeypatch, expr, axes, kept):
    polynomials, nvars = cli._parse_set([expr], semiring("nat"))
    grid = cli._parse_grid(axes, nvars, 1)
    for fmt in ("json", "csv"):
        expected = reference_locus_output(polynomials, grid, False, fmt)
        stdout = _Writes()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["locus", expr, f"--grid={axes}", "--format", fmt]) == 0
        monkeypatch.undo()
        assert "".join(stdout.texts) == expected
        counts = [text.count('{"point": ' if fmt == "json" else "\r\n") for text in stdout.texts]
        assert max(counts) <= 4096 and sum(counts) == kept + (fmt == "csv"), (fmt, counts[:5])


@pytest.mark.parametrize("argv, message", [
    (["--grid=0:1:0"], "grid step 0 must be positive"),
    (["--grid=1:0:1"], "grid bounds 1 > 0"),
    (["--grid=0:1:1", "--grid-layer", "0"], "layer 0 is not a positive integer or inf"),
    (["--grid=0:1:1", "--grid-layer", "-2"], "layer -2 is not a positive integer or inf"),
    (["--grid=0:1:1", "--L", "trivial", "--grid-layer", "2"],
     "layer 2 is not in the trivial flavor {1}"),
])
def test_cli_locus_refusals_print_nothing(capsys, argv, message):
    for fmt in ("json", "csv"):
        assert run_cli(capsys, "locus", "x1 + 0", *argv, "--format", fmt) == (
            1, "", f"error: {message}\n")


def test_cli_essential(capsys):
    code, out, _ = run_cli(capsys, "essential", "x1^2 + 0*x1 + 4")
    assert code == 0
    assert json.loads(out) == {"essential": [[0], [2]]}


def test_cli_kapranov(capsys):
    code, out, _ = run_cli(capsys, "kapranov", "--degree", "3", "--trials", "25",
                           "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["trials"] == 25


def test_cli_reports_failed_kapranov_trials(capsys, monkeypatch):
    # Valuations that never match the corner roots fail every trial; each
    # failure is reported as a JSON record of the polynomial and its roots.
    monkeypatch.setattr(kapranov, "root_valuations", lambda f: ())
    code, out, _ = run_cli(capsys, "kapranov", "--degree", "2", "--trials", "2", "--seed", "3")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False and payload["trials"] == 2
    rng = random.Random(3)
    for failure in payload["failures"]:
        f, roots = kapranov.random_split_product(rng, rng.randint(1, 2))
        assert failure["poly"] == str(f) and failure["roots"] == [str(r) for r in roots]
        assert failure["valuations"] == [str(v) for v in sorted(r.val() for r in roots)]
        assert (failure["forward"], failure["reverse"], failure["pass"]) == (True, False, False)
        assert list(failure) == ["poly", "roots", "valuations", "corner_roots", "forward",
                                 "reverse", "exploded", "pass"]
    assert len(payload["failures"]) == 2


def test_cli_congruence(tmp_path, capsys):
    spec = {
        "pairs": [["x1^2 + 0*x1 + 4", "x1^2 + 4"]],
        "points": [["0"], ["1"], ["-2"]],
        "grid": "-3:3:1",
    }
    path = tmp_path / "congruence.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "congruence", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["points_congruent"] == [True]
    assert payload["roundtrip"]["pass"] is True


def test_cli_congruence_arity_counts_both_sides(tmp_path, capsys):
    path = tmp_path / "congruence.json"
    path.write_text(json.dumps({"pairs": [["0", "x2"]], "grid": "-1:1:1"}))
    code, out, _ = run_cli(capsys, "congruence", str(path))
    assert code == 0 and json.loads(out)["roundtrip"]["variety_size"] == 3   # x2 = 0
    path.write_text(json.dumps({"pairs": [], "grid": "0:2:1"}))
    code, out, _ = run_cli(capsys, "congruence", str(path))   # no pairs: one variable
    roundtrip = json.loads(out)["roundtrip"]
    assert code == 0 and roundtrip["diagonal"] and roundtrip["variety_size"] == 3


def test_cli_congruence_counts_an_empty_pair_list_on_a_billion_points(tmp_path, capsys):
    # The diagonal variety is the whole grid; it is counted, never listed.
    path = tmp_path / "congruence.json"
    path.write_text(json.dumps({"pairs": [], "grid": "-5000:5000:1/100000"}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "congruence", str(path))
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out == ('{"roundtrip": {"variety_size": 1000000001, "probe_pairs": 0, '
                   '"diagonal": true, "stable": true, "antitone_generators": true, '
                   '"antitone_points": true, "union_law": true, "pass": true}}\n')


@pytest.mark.parametrize("content, field", [
    (b'{"pairs": [["x1", "0", "1"]]}', "pairs"),
    (b'{"pairs": [["x1", "0"]', "JSON"),
    (b'[["x1", "0"]]', "object"),
    (b'{"pairs": [["x1", "0"]], "grid": 5}', "grid"),
    (b'{"pairs": [["x1", 5]]}', "pairs"),
    (b'{"pairs": [["x1", "0"]], "points": [[1]]}', "points"),
    (b'{"pairs": [["x1", "\xff"]]}', "UTF-8"),
    (b'{"pairs": [["x1", "0"]], "points": "1"}', "points"),
], ids=["three-entry-pair", "truncated-json", "top-level-list", "numeric-grid",
        "numeric-polynomial", "numeric-coordinate", "non-utf8", "string-points"])
def test_cli_congruence_refuses_malformed_specs(tmp_path, capsys, content, field):
    path = tmp_path / "congruence.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "congruence", str(path))
    assert code == 1 and out == "" and err.startswith("error: ") and field in err, err


def test_cli_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "x1 + @", "--point", "0")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("text", ["x1^²", "x²", "x1*"])
def test_cli_refuses_malformed_text(capsys, text):
    code, out, err = run_cli(capsys, "eval", text, "--point", "1")
    assert code == 1 and out == "" and err.startswith("error: "), err


def test_cli_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "locus", "x1 + 0", "--grid=nonsense")
    assert code == 2 and "usage" in err


@pytest.mark.parametrize("argv, message", [
    (["x1 + 0", "--grid=a:1:1"], "not an exact rational: 'a'"),
    (["x1 + x2", "--grid=0:1:1,0:1:1,0:1:1"], "grid has 3 axes but the data needs 2"),
    (["x1 + 0", "--grid=0:1:1", "--grid-layer", "x"], "not a layer: 'x'"),
    (["x1 + 0", "--grid=0:1:0.5"], "not an exact rational: '0.5'"),
    (["x1 + 0", "--grid=0:1:1e-3"], "not an exact rational: '1e-3'"),
    (["x1 + 0", "--grid=+1:2:1"], "not an exact rational: '+1'"),
    # A short exponent is refused at once, never expanded into a 10^8-digit int.
    (["x1 + 0", "--grid=0:1:1e-100000000"], "not an exact rational: '1e-100000000'"),
    # A layer is inf or the signed int of expressions, which has no '_' or '+'.
    (["x1 + 0", "--grid=0:1:1", "--grid-layer", "1_0"], "not a layer: '1_0'"),
    (["x1 + 0", "--grid=0:1:1", "--grid-layer", " +2"], "not a layer: ' +2'"),
], ids=["axis-value", "axis-count", "grid-layer", "decimal", "exponent", "plus-sign",
        "long-exponent", "layer-underscore", "layer-plus-sign"])
def test_cli_grid_flag_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "locus", *argv)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_cli_congruence_refuses_a_spec_grid_outside_the_grammar(tmp_path, capsys):
    path = tmp_path / "congruence.json"
    path.write_text(json.dumps({"pairs": [["x1", "0"]], "grid": "0:1:1e-3"}))
    assert run_cli(capsys, "congruence", str(path)) == \
        (2, "", "usage error: not an exact rational: '1e-3'\n")


@pytest.mark.parametrize("spec_grid, flags", [("", []), ("-1:1:1", ["--grid", ""])],
                         ids=["spec-grid", "grid-flag"])
def test_cli_congruence_refuses_an_empty_grid(tmp_path, capsys, spec_grid, flags):
    # An empty grid was read as no grid: the spec's grid silently replaced an
    # empty --grid, and an empty spec grid skipped the round trip with exit 0.
    path = tmp_path / "congruence.json"
    path.write_text(json.dumps({"pairs": [["x1 + 0", "x1"]], "grid": spec_grid}))
    refusal = (2, "", "usage error: grid axis '' is not lo:hi:step\n")
    assert run_cli(capsys, "locus", "x1 + 0", "--grid", "") == refusal
    assert run_cli(capsys, "congruence", str(path), *flags) == refusal


def test_cli_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["roots", "--frobnicate", "x1"])
    assert excinfo.value.code == 2


def outcome(argv):
    """(stdout, stderr, exit code) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


# One usage error per subcommand: missing, malformed and unknown arguments.
USAGE_ERRORS = [
    ["eval", "x1"], ["trop"], ["explode", "t", "extra"], ["roots", "--format", "xml", "x1"],
    ["locus", "x1"], ["layering", "x1", "--point"], ["essential", "--laurent=1", "x1"],
    ["congruence", "spec.json", "--seed", "x"], ["kapranov", "--bogus"],
]


BUILD_ARGVS = [
    ["--help"], ["-h"], [], ["bogus"], ["loc"], ["--", "locus"], ["-h", "locus"],
    *([name, "--help"] for name in cli._COMMANDS), *USAGE_ERRORS,
    ["essential", "x1^2 + 0*x1 + 4"], ["locus", "x1 + x2 + 0", "--grid=-1:1:1", "--combined"],
]


@pytest.mark.parametrize("argv", BUILD_ARGVS, ids=repr)
def test_a_fresh_process_matches_the_in_process_call(argv, monkeypatch):
    # A one-shot ``python -m laytrop.cli`` builds the parser in a new process;
    # it must print what the kept parser prints in this one.
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-m", "laytrop.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    kept = outcome(argv)
    assert (run.stdout, run.stderr, run.returncode) == kept
    assert kept[2] in (0, 2) and kept[0] + kept[1]


@pytest.mark.parametrize("argv", BUILD_ARGVS, ids=repr)
def test_repeated_calls_match(argv):
    # The first call builds its parser; the last reuses it after a usage
    # error and a help text have gone through the same kept parser.
    cli._build_parser.cache_clear()
    first = outcome(argv)
    command = argv[0] if argv and argv[0] in cli._COMMANDS else "eval"
    assert outcome(USAGE_ERRORS[list(cli._COMMANDS).index(command)])[2] == 2
    assert outcome([command, "--help"])[2] == 0
    assert outcome(argv) == first


def test_help_wraps_at_the_width_when_it_prints(monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    narrow = outcome(["locus", "--help"])
    monkeypatch.setenv("COLUMNS", "120")
    wide = outcome(["locus", "--help"])
    assert narrow[2] == wide[2] == 0
    assert len(narrow[0].splitlines()) > len(wide[0].splitlines())


def test_bracketed_exponents_on_the_command_line():
    assert outcome(["eval", "--laurent", "x1^(-1) + 0", "--point", "1"]) == \
        outcome(["eval", "--laurent", "x1^-1 + 0", "--point", "1"])
    assert outcome(["eval", "x1^(-1) + 0", "--point", "1"]) == \
        ("", "error: negative exponents need Laurent mode (line 1, column 1)\n", 1)


def test_the_command_set_and_the_missing_command_error():
    assert set(cli._COMMANDS) == {"eval", "trop", "explode", "roots", "locus", "layering",
                                  "essential", "congruence", "kapranov"}
    assert [argv[0] for argv in USAGE_ERRORS] == list(cli._COMMANDS)
    _, err, code = outcome([])
    assert code == 2 and err.endswith("error: the following arguments are required: command\n")


# ---------------------------------------------------------------------------
# Fuzzed text boundary: whole-token atoms joined by spaces, so variable
# indices and exponents stay small (huge ones are an open limits item).

ATOMS = ["x1", "x2", "x2^3", "x1^-1", "x0", "y", "(2|4)", "(inf|1/2)", "(-5)", "(1|0)",
         "3", "-3/4", "0", "1/0", "inf", "t", "t^2", "t^(-1/2)", "L", "L^2",
         "-", "+", "*", "/", "^", "(", ")", "|", ",", "@", "\n", "²", "٣"]
TEXTS = st.lists(st.sampled_from(ATOMS), max_size=12).map(" ".join)


def exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TEXTS)
def test_parsers_return_or_refuse(text):
    for parse in (lambda: parse_scalar(text, NAT), lambda: parse_point(text, NAT),
                  lambda: parse_polynomial(text, NAT),
                  lambda: parse_polynomial(text, NAT, laurent=True, nvars=2),
                  lambda: parse_puiseux(text), lambda: parse_puiseux_polynomial(text)):
        try:
            parse()
        except (ParseError, DomainError):
            pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TEXTS)
def test_cli_exit_codes_on_fuzzed_text(text):
    assert exit_code(["eval", "--point", "1", "--", text]) in (0, 1, 2)
    assert exit_code(["trop", "--", text]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# The one-pass readers against the recursive-descent reference of oracles.py

SEMIRINGS = [semiring(sorts, values) for sorts in ("nat", "super", "trivial")
             for values in ("rational", "integer", "natural")]


def _rational_text(draw):
    numerator, denominator = draw(st.integers(-12, 12)), draw(st.sampled_from([1, 1, 1, 2, 3, 0]))
    text = str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    return f"({text})" if numerator < 0 and draw(st.booleans()) else text


def _literal_text(draw):
    layer = draw(st.sampled_from([None, None, None, None, "1", "2", "3", "inf", "0"]))
    value = _rational_text(draw)
    return value if layer is None else f"({layer}|{value.strip('()')})"


@st.composite
def point_texts(draw):
    """Scalar literals and comma-separated lists of them, or a layer flag's text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["inf", "-3", "2", "-0", "1/2"]))
    return ",".join(_literal_text(draw) for _ in range(draw(st.integers(1, 3))))


@st.composite
def layered_texts(draw):
    """Mostly well-formed polynomial text: scalar literals of every layer form,
    bare, bracketed and negative exponents, several scalars in a term."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                factors.append(_literal_text(draw))
            else:
                variable = f"x{draw(st.integers(1, 3))}"
                exponent = draw(st.sampled_from([0, 1, 1, 2, 3, -1]))
                form = draw(st.sampled_from(["{}", "{}^{}", "{}^({})"]))
                factors.append(form.format(variable, exponent) if exponent != 1 or form != "{}"
                               else variable)
        terms.append(draw(st.sampled_from(["*", " * "])).join(factors))
    return draw(st.sampled_from([" + ", "+", " +\n"])).join(terms)


@st.composite
def puiseux_texts(draw):
    """Mostly well-formed Puiseux text: rationals, t powers of every form and L powers."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["c", "(c)", "t", "t^n", "t^(r)", "L", "L^d"]))
            value = _rational_text(draw).strip("()")
            factors.append({"c": value, "(c)": f"({value})", "t": "t", "L": "L",
                            "t^n": f"t^{draw(st.integers(-3, 3))}", "t^(r)": f"t^({value})",
                            "L^d": f"L^{draw(st.integers(0, 4))}"}[kind])
        terms.append("*".join(factors))
    return " + ".join(terms)


TIGHT_TEXTS = st.lists(st.sampled_from(ATOMS), max_size=8).map("".join)
READER_TEXTS = st.one_of(TEXTS, TIGHT_TEXTS, layered_texts(), point_texts(), puiseux_texts())


def _outcome(call):
    """A result as its repr (types of every field included) and its str, or a
    refusal as its class, message, line and column."""
    try:
        result = call()
    except Exception as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    if isinstance(result, LayeredPolynomial):
        return (result.semiring, result.nvars, result.laurent,
                [(e, repr(c)) for e, c in result.coeffs.items()], str(result))
    return repr(result), str(result)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(READER_TEXTS, st.sampled_from(SEMIRINGS), st.booleans(),
       st.sampled_from([None, None, 1, 2, 3]))
def test_readers_match_the_recursive_descent_reference(text, sr, laurent, nvars):
    pairs = [
        (lambda: parse_polynomial(text, sr, laurent=laurent, nvars=nvars),
         lambda: reference_parse_polynomial(text, sr, laurent=laurent, nvars=nvars)),
        (lambda: parse_scalar(text, sr), lambda: reference_parse_scalar(text, sr)),
        (lambda: parse_point(text, sr), lambda: reference_parse_point(text, sr)),
        (lambda: parse_puiseux(text), lambda: reference_parse_puiseux(text)),
        (lambda: parse_puiseux_polynomial(text), lambda: reference_parse_puiseux_polynomial(text)),
        (lambda: cli._fraction(text), lambda: reference_parse_grid_value(text)),
        (lambda: cli._parse_layer_flag(text), lambda: reference_parse_layer_flag(text)),
    ]
    for new, reference in pairs:
        assert _outcome(new) == _outcome(reference), text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(layered_texts(), st.sampled_from(SEMIRINGS), st.booleans(), st.sampled_from([None, 3]))
def test_polynomial_texts_read_like_the_reference(text, sr, laurent, nvars):
    # Mostly well-formed text, several scalars to a term: the folded coefficients count.
    assert _outcome(lambda: parse_polynomial(text, sr, laurent=laurent, nvars=nvars)) == \
        _outcome(lambda: reference_parse_polynomial(text, sr, laurent=laurent, nvars=nvars))


def test_printed_polynomials_read_like_the_reference():
    # Printed polynomials are well formed, so most of these are read, not refused.
    rng = random.Random(29)
    read = 0
    for _ in range(150):
        f = random_poly(rng, NAT, rng.randint(1, 3), max_terms=8)
        text, laurent = str(f), rng.random() < 0.3
        for sr in SEMIRINGS:
            outcome = _outcome(lambda: parse_polynomial(text, sr, laurent=laurent, nvars=f.nvars))
            assert outcome == _outcome(lambda: reference_parse_polynomial(
                text, sr, laurent=laurent, nvars=f.nvars)), (text, sr)
            read += outcome[0] is not DomainError
    assert read >= 200, read


@pytest.mark.parametrize("text", [
    "", " ", "x1 +", "(2|", "(inf|", "(inf|1", "1/", "1/0", "1/0 + x1", "-", "x1^", "x1^(", "x1^(2",
    "x1^-", "x0", "x00", "x" + "1" * 5000, "(2|1/" + "1" * 5000 + ")", "int", "inf", "(inf)", "(2)",
    "t^", "t^(", "t^(1/0)", "L^-1", "L^", "x1 x2", "1,", ",", "1,2,(3|4)", "_", "x1_2", "1_",
    "x1 + \n\n  @", "²", "x²", "٣", "x٢^٣", "(٢|٣)", "1 2", "@ x1^", "x1^(-1)", "x5 + (0|1)",
    "2*3*x1 + (2|1)*(3|-1/2)", "(inf|1)*x2*(2|1)*x1*(3|2) + x1*x1^2*4", "x1*x1^-1 + 0*(-1)*x2^0",
])
def test_readers_match_the_reference_on_edge_texts(text):
    for sr in SEMIRINGS:
        for laurent, nvars in ((False, None), (True, 2), (False, 0), (True, True)):
            assert _outcome(lambda: parse_polynomial(text, sr, laurent, nvars)) == \
                _outcome(lambda: reference_parse_polynomial(text, sr, laurent, nvars)), (text, sr)
        assert _outcome(lambda: parse_point(text, sr)) == \
            _outcome(lambda: reference_parse_point(text, sr)), (text, sr)
        assert _outcome(lambda: parse_scalar(text, sr)) == \
            _outcome(lambda: reference_parse_scalar(text, sr)), (text, sr)
    for new, reference in ((parse_puiseux, reference_parse_puiseux),
                           (parse_puiseux_polynomial, reference_parse_puiseux_polynomial),
                           (cli._fraction, reference_parse_grid_value),
                           (cli._parse_layer_flag, reference_parse_layer_flag)):
        assert _outcome(lambda: new(text)) == _outcome(lambda: reference(text)), text


# Each case: text, laurent, and the same terms as items for the constructor, one
# scalar per term, so the reader and the checking constructor see the same data.
S = LayeredScalar
CONSTRUCTOR_CASES = {
    "layer-0": ("(0|1)*x1 + 2", False, [((1,), S(0, Fraction(1))), ((0,), S(1, Fraction(2)))]),
    "layer-2": ("(2|1)*x1 + 0", False, [((1,), S(2, Fraction(1))), ((0,), S(1, Fraction(0)))]),
    "layer-inf": ("(inf|3)*x1^2 + x1", False, [((2,), S(INF, Fraction(3))),
                                               ((1,), S(1, Fraction(0)))]),
    "half": ("1/2*x1*x2 + 0", False, [((1, 1), S(1, Fraction(1, 2))), ((0, 0), S(1, Fraction(0)))]),
    "minus-one": ("(-1)*x1 + 0", False, [((1,), S(1, Fraction(-1))), ((0,), S(1, Fraction(0)))]),
    "laurent": ("x1^-1 + 0", True, [((-1,), S(1, Fraction(0))), ((0,), S(1, Fraction(0)))]),
    "valid": ("x1^2*x2 + 3 + x2", False, [((2, 1), S(1, Fraction(0))), ((0, 0), S(1, Fraction(3))),
                                           ((0, 1), S(1, Fraction(0)))]),
}
#: How many of the nine semirings refuse each case.
REFUSALS = {"layer-0": 9, "layer-2": 6, "layer-inf": 3, "half": 6, "minus-one": 3,
            "laurent": 3, "valid": 0}


@pytest.mark.parametrize("case", CONSTRUCTOR_CASES)
def test_the_reader_refuses_what_the_checking_constructor_refuses(case):
    # The reader checks each literal as it reads it and fills the polynomial
    # unchecked; it must refuse exactly what LayeredPolynomial's checks refuse.
    text, laurent, items = CONSTRUCTOR_CASES[case]
    refused = 0
    for sr in SEMIRINGS:
        nvars = len(items[0][0])
        parsed = _outcome(lambda: parse_polynomial(text, sr, laurent=laurent))
        built = _outcome(lambda: LayeredPolynomial(sr, nvars, items, laurent))
        assert parsed == built, (case, sr)
        refused += parsed[0] is DomainError
    assert refused == REFUSALS[case]


@pytest.mark.parametrize("nvars", [2.0, True, 0, -1])
def test_the_reader_refuses_a_bad_variable_count_like_the_constructor(nvars):
    # The count is checked before the declared arity is compared or any
    # exponent vector is built, so "x1 + 0" at 0 variables and a float count
    # are refused as the constructor refuses them.
    for text in ("x1 + 0", "x2*x1^2 + 3"):
        for sr in SEMIRINGS:
            parsed = _outcome(lambda: parse_polynomial(text, sr, nvars=nvars))
            built = _outcome(lambda: LayeredPolynomial(sr, nvars, [((1,), sr.one())]))
            assert parsed == built == (DomainError, f"variable count {nvars!r} must be a positive "
                                       "integer", None, None), (text, sr)
