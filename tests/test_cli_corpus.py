"""The CLI prints, byte for byte, what the golden corpus pins (see cli_corpus.py)."""

import sys
import time

import cli_corpus


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
