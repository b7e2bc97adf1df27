"""What a fresh process loads: the package exports names lazily, and each CLI
command imports only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cli_corpus
import laytrop

SRC = Path(__file__).resolve().parent.parent / "src"

#: The modules ``import laytrop.cli`` loads; every command but four runs on these.
CLI = {"laytrop", "laytrop.cli", "laytrop.core", "laytrop.errors", "laytrop.parsing",
       "laytrop.polynomials"}

SPEC = json.dumps({"pairs": [["x1 + 0", "x1"]], "points": [["1"], ["-1"]], "grid": "-2:2:1"})


def _fresh(code, cwd=None):
    """(stdout, stderr) of ``code`` in a fresh ``python -S`` process that reads
    the package from ``src/``; it must exit 0."""
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    out, err = run.stdout.decode(), run.stderr.decode()  # CSV lines end in "\r\n"
    assert run.returncode == 0, err
    return out, err


#: An expression, in a child, for the package modules it has loaded.
LOADED = "sorted(m for m in sys.modules if m.startswith('laytrop'))"


def test_cli_import_loads_the_cli_modules_only():
    out, _ = _fresh(f"import sys, laytrop.cli; print(*{LOADED})")
    assert set(out.split()) == CLI


@pytest.mark.parametrize("argv, adds", [
    (["locus", "x1 + x2 + 0", "--grid=-1:1:1/2", "--combined"], set()),
    (["locus", "x1 + 0", "--grid=-2:2:1", "--format", "csv"], set()),
    (["essential", "x1^2 + 1*x1 + 0"], set()),
    (["roots", "x1^2 + 1*x1 + (-1)"], set()),
    (["eval", "(2|1)*x1 + 0", "--point", "1/2"], set()),
    (["layering", "x1 + 0", "x1 + 1", "--point", "0"], set()),
    (["kapranov", "--degree", "4", "--trials", "5"], {"kapranov", "puiseux", "tropical"}),
    (["trop", "2*t^(1/2)*L^2 + (-1)*t^(-1)*L + 3"], {"puiseux", "tropical"}),
    (["explode", "2*t^(1/2)*L^2 + (-1)*t^(-1)*L + 3"], {"puiseux", "tropical"}),
    (["congruence", "spec.json"], {"congruence"}),
], ids=["locus", "locus-csv", "essential", "roots", "eval", "layering", "kapranov", "trop",
        "explode", "congruence"])
def test_each_command_loads_only_what_it_runs(argv, adds, tmp_path, monkeypatch):
    # A command run through ``main`` in a fresh process has loaded the CLI's
    # own modules and exactly the ones it calls into, and prints what an
    # in-process run of the same argv prints.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(SPEC, encoding="utf-8")
    code = ("import sys, laytrop.cli\n"
            f"code = laytrop.cli.main({argv!r})\n"
            f"print(code, *{LOADED}, file=sys.stderr)\n")
    out, err = _fresh(code, cwd=tmp_path)
    status, *loaded = err.split()
    assert (status, set(loaded)) == ("0", CLI | {f"laytrop.{name}" for name in adds})
    expected, expected_err, expected_code, _ = cli_corpus.run(argv, None)
    assert (expected_code, expected_err) == (0, "")
    assert out == expected


def test_star_import_binds_every_export_as_its_module_defines_it():
    namespace = {}
    exec("from laytrop import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(laytrop.__all__) and len(laytrop.__all__) == 54
    for name, value in namespace.items():
        # ``INF`` is a float, which names no module; core defines it.
        home = sys.modules[getattr(value, "__module__", "laytrop.core")]
        assert value is getattr(home, name) is getattr(laytrop, name), name
    assert set(dir(laytrop)) >= set(laytrop.__all__)


def test_unknown_names_are_missing_attributes():
    with pytest.raises(AttributeError, match="^module 'laytrop' has no attribute 'nothing'$"):
        laytrop.nothing
    assert not hasattr(laytrop, "nothing")
    with pytest.raises(ImportError):
        exec("from laytrop import nothing", {})


def test_package_import_loads_no_module_until_a_name_is_read():
    # A bare ``import laytrop`` loads no submodule; reading a submodule's name
    # loads it and what it imports, as the eager package did, and an exported
    # name then resolves without loading anything more.
    modules = ("congruence", "core", "errors", "kapranov", "parsing", "polynomials",
               "puiseux", "tropical")
    code = ("import sys, laytrop\n"
            f"print(*{LOADED})\n"
            "kapranov = laytrop.kapranov\n"
            "print(kapranov is sys.modules['laytrop.kapranov'], *" + LOADED + ")\n"
            "laytrop.PuiseuxSeries, laytrop.kapranov_verify\n"
            f"print(*{LOADED})\n"
            f"print(all(getattr(laytrop, m) is sys.modules['laytrop.' + m] for m in {modules!r}))\n")
    out, _ = _fresh(code)
    bare, after_kapranov, after_names, every_module = out.splitlines()
    assert bare == "laytrop"
    assert after_kapranov.split() == ["True", "laytrop", "laytrop.core", "laytrop.errors",
                                      "laytrop.kapranov", "laytrop.polynomials",
                                      "laytrop.puiseux", "laytrop.tropical"]
    assert after_names == after_kapranov.split(maxsplit=1)[1]
    assert every_module == "True"
