"""The record classes against dataclass references, every module's annotations,
and a cold CLI import."""

import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import laytrop
from laytrop import INF, DomainError, LayeredSemiring, PuiseuxSeries
from laytrop.congruence import CoordinateFunction, FinitePointSet, ZariskiReport
from laytrop.core import LayeredScalar
from laytrop.kapranov import (KapranovReport, NewtonPolygon, NewtonSegment, TrialSummary,
                              verify_random_products)
from laytrop.polynomials import GridSpec
from laytrop.puiseux import ExplodedScalar, PuiseuxPolynomial

from oracles import REFERENCE_RECORDS, random_series, random_value

RECORDS = [LayeredScalar, GridSpec, PuiseuxSeries, PuiseuxPolynomial, ExplodedScalar,
           NewtonSegment, NewtonPolygon, FinitePointSet, CoordinateFunction, ZariskiReport,
           KapranovReport, TrialSummary]


def _atom(rng):
    """A hashable field value from a small pool, so that draws often coincide."""
    return rng.choice([0, 1, -2, INF, None, "t", Fraction(1, 2), random_value(rng, 2, 2),
                       (1, Fraction(1, 2)), ((0, 1), (2,))])


def _draw(rng, cls):
    """Field values for one instance of ``cls``, valid where its constructor checks."""
    names = [f.name for f in dataclasses.fields(REFERENCE_RECORDS[cls.__name__])]
    if cls is GridSpec:
        axes = tuple((lo, lo + rng.randint(0, 2), rng.choice([1, Fraction(1, 2)]))
                     for lo in (rng.randint(-1, 1) for _ in range(rng.randint(1, 2))))
        return [axes, rng.choice([None, (1,) * len(axes), (2,) * len(axes)])]
    if cls in (KapranovReport, TrialSummary, ZariskiReport):
        return [rng.choice([[_atom(rng)], [], _atom(rng)]) for _ in names]
    return [_atom(rng) for _ in names]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_match_their_dataclass_references(cls):
    # Equality, hashing, repr, construction and frozenness of each record class
    # are those of a dataclass with the same fields.
    ref = REFERENCE_RECORDS[cls.__name__]
    names = [f.name for f in dataclasses.fields(ref)]
    assert cls.__match_args__ == ref.__match_args__ == tuple(names)
    frozen = ref.__dataclass_params__.frozen
    rng = random.Random(sum(map(ord, cls.__name__)))
    equal = unequal = 0
    for _ in range(300):
        values, fresh = _draw(rng, cls), _draw(rng, cls)
        # Mostly the same values, so that equal records and records differing in
        # one field are both common; a grid's layers must match its axes.
        others = (rng.choice([values, fresh]) if cls is GridSpec else
                  [v if rng.random() < 0.8 else w for v, w in zip(values, fresh)])
        mine, theirs = cls(*values), ref(*values)
        assert cls(**dict(zip(names, values))) == mine
        assert repr(mine) == repr(theirs)
        mine2, theirs2 = cls(*others), ref(*others)
        assert (mine == mine2) is (theirs == theirs2)
        assert (mine != mine2) is (theirs != theirs2)
        assert mine == cls(*values) and not mine != cls(*values)
        equal += theirs == theirs2
        unequal += theirs != theirs2
        assert mine.__eq__(object()) is theirs.__eq__(object())
        if ref.__hash__ is None:
            assert cls.__hash__ is None
            with pytest.raises(TypeError):
                hash(mine)
        else:
            assert hash(mine) == hash(theirs)
        for name in (names[0], "extra"):
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(mine, name, 1)
                with pytest.raises(AttributeError):
                    delattr(mine, name)
            else:
                setattr(mine, name, 1)
                setattr(theirs, name, 1)
                assert mine == mine and repr(mine) == repr(theirs)
    assert equal > 10 and unequal > 10


def test_record_defaults():
    axes = ((Fraction(0), Fraction(1), Fraction(1)),)
    assert GridSpec(axes).layers is None and GridSpec(axes) == GridSpec(axes, None)
    assert GridSpec(axes=axes) == GridSpec(axes, layers=None) != GridSpec(axes, (1,))
    first, second = (verify_random_products(1, 1, 0) for _ in range(2))
    assert first.failures == second.failures == [] and first.failures is not second.failures
    with pytest.raises(TypeError):
        GridSpec()
    with pytest.raises(TypeError):
        LayeredScalar(1, 2, 3)
    with pytest.raises(TypeError):
        LayeredScalar(1, layer=1)


def test_cached_reads_leave_records_as_they_were():
    rng = random.Random(5)
    axes = ((Fraction(-1), Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(2), Fraction(1)))
    grid = GridSpec(axes, (1, 2))
    before = (repr(grid), hash(grid))
    assert grid.counts == (5, 3)
    assert (repr(grid), hash(grid)) == before and grid == GridSpec(grid.axes, grid.layers)
    sr = LayeredSemiring()
    points = [tuple(sr.scalar(rng.randint(-2, 2)) for _ in range(2)) for _ in range(6)]
    x = FinitePointSet.of(points)
    assert all(p in x for p in points) and (sr.scalar(9), sr.scalar(9)) not in x
    assert repr(x) == repr(REFERENCE_RECORDS["FinitePointSet"](x.points))
    for _ in range(20):
        roots = [random_series(rng, max_terms=2) for _ in range(rng.randint(1, 4))]
        product = PuiseuxPolynomial.from_roots(roots)  # coeffs decoded on first read
        low = product.lowest_terms
        built = PuiseuxPolynomial(product.coeffs)
        assert built == product and hash(built) == hash(product) and built.lowest_terms == low
        assert repr(product) == repr(REFERENCE_RECORDS["PuiseuxPolynomial"](built.coeffs))
        assert PuiseuxPolynomial.from_roots(roots) == built  # == decodes a fresh product
    with pytest.raises(AttributeError):
        PuiseuxPolynomial.from_roots(roots).missing
    with pytest.raises(DomainError):
        GridSpec(((Fraction(1), Fraction(0), Fraction(1)),))


def test_exploded_and_newton_records_keep_their_arithmetic():
    a, b = ExplodedScalar.of(2, 1), ExplodedScalar.of(-2, 1)
    assert a + b == ExplodedScalar(Fraction(0), Fraction(1)) and (a + b).is_corner_ghost
    assert {NewtonSegment(Fraction(1), 2), NewtonSegment(Fraction(1), 2)} == {NewtonSegment(1, 2)}
    polygon = NewtonPolygon(((0, Fraction(0)),), ())
    assert polygon == NewtonPolygon(support=((0, 0),), segments=())
    report = ZariskiReport(4, 2, False, True, True, True, False)
    assert report.to_json() == {"variety_size": 4, "probe_pairs": 2, "diagonal": False,
                                "stable": True, "antitone_generators": True,
                                "antitone_points": True, "union_law": False, "pass": False}
    assert list(report.to_json()) == [*ZariskiReport.__match_args__, "pass"]


MODULES = sorted(m.name for m in pkgutil.iter_modules(laytrop.__path__))


def _annotated(module):
    """Each function, class, method and property ``module`` defines at its top level."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif isinstance(value, type):
            yield value
            for member in vars(value).values():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if isinstance(member, property):
                    yield from filter(None, (member.fget, member.fset, member.fdel))
                elif isinstance(member, functools.cached_property):
                    yield member.func
                elif inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    # Annotations stay strings at run time, so a name the module no longer
    # imports (a leftover ``Tuple``, say) shows only when one is evaluated.
    # ``rng: random.Random`` parameters name the module their function imports.
    module = importlib.import_module(f"laytrop.{name}")
    checked = list(_annotated(module))
    assert checked
    for obj in checked:
        typing.get_type_hints(obj, localns={"random": random})


def test_cli_import_loads_no_introspection_modules():
    # ``dataclasses`` pulls in inspect, ast, dis and tokenize, which took longer
    # to import than the package itself; a CLI run starts without them.
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, laytrop.cli; print(*(m for m in {heavy!r} if m in sys.modules))"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_cli_import_loads_random_only_for_a_draw():
    # Annotations stay strings, so no module needs ``typing``; ``random`` loads
    # when a Kapranov trial or a Zariski round trip seeds its draws, and those
    # draws match the ones of a process that had ``random`` from the start.
    src = Path(__file__).resolve().parent.parent / "src"
    setup = ("from laytrop import GridSpec, congruence as cg, kapranov as kp, parse_polynomial, semiring\n"
             "sr = semiring()\n"
             "pairs = [(parse_polynomial('x1 + 0', sr), parse_polynomial('x1 + 1/2', sr))]\n")
    draws = ("kp.verify_random_products(3, 4, 0).to_json(),"
             " cg.zariski_roundtrip(pairs, GridSpec.uniform(-2, 2, 1, 1)).to_json()")
    code = ("import sys, laytrop.cli\n"
            "print('typing' in sys.modules, 'random' in sys.modules)\n"
            + setup + f"print(repr(({draws})))\n"
            "print('typing' in sys.modules, 'random' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    before, results, after = run.stdout.splitlines()
    assert (before, after) == ("False False", "False True")
    ns = {}
    exec(setup, ns)
    assert results == repr(eval(draws, ns))


def test_cli_import_leaves_csv_for_csv_output():
    # The CLI writes its CSV lines itself, so a fresh CLI import, and with it
    # a run in either format, does not load ``csv``.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, laytrop.cli; print('csv' in sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
