"""laytrop benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload locus-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Each workload runs in one process as a closed loop with one client and no
threads: the ops generated from ``--seed`` are called in order through
``laytrop.cli.main(argv)``, with stdout captured, pass after pass until
``--seconds`` have gone by (the first pass always completes).  Inputs are
made, and spec files written, before timing starts; output checks run after
it ends and feed ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes with the per-layer wrappers of
``tracing.py`` installed, and reports the per-layer metrics; its traced
outputs must match the untraced ones byte for byte.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, percentile and
sample count, quartiles, failures) goes to ``.perfbench_out/``, and a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from fractions import Fraction
from pathlib import Path

import oracles
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SETUP_REPEATS = 15
#: Stop starting new ops after this long even inside the first pass, so a
#: much slower program still ends well inside the three-minute limit.
HARD_LIMIT_S = 120.0
TAIL_BEYOND = 10
#: Time of ``calibration_kernel`` on the 2-vCPU Xeon VM (Python 3.11.7) the
#: bounds were set on.  Op times are scaled by CALIBRATION_REF_S over the
#: kernel's time measured right before the op, so they read as milliseconds
#: on that machine at its quiet speed.  On a shared host, the speed of pure
#: Python code drifts by a quarter within minutes; the kernel drifts with it.
CALIBRATION_REF_S = 0.0013

END_TO_END = {
    "op_p50_ms": "ms", "op_tail_ms": "ms", "work_per_s": "units/s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}

# Per-layer metrics: name -> (unit, how it is derived).  Counts come from
# the first traced pass, so they repeat exactly for a given seed; times are
# unscaled wall milliseconds averaged over every traced op execution.
PER_LAYER = {
    "core.check.calls": ("calls/op", ("count", "core.check")),
    "core.add.calls": ("calls/op", ("count", "core.add")),
    "core.mul.calls": ("calls/op", ("count", "core.mul")),
    "core.pow.calls": ("calls/op", ("count", "core.pow")),
    "core.scalar.calls": ("calls/op", ("count", "core.scalar")),
    "polynomials.is_corner_root.calls": ("calls/op", ("count", "polynomials.is_corner_root")),
    "polynomials.is_cluster_root.calls": ("calls/op", ("count", "polynomials.is_cluster_root")),
    "polynomials.dominant_part.calls": ("calls/op", ("count", "polynomials.dominant_part")),
    "polynomials.monomial_value.calls": ("calls/op", ("count", "polynomials.monomial_value")),
    "polynomials.locus.self_ms": ("ms/op", ("self", "polynomials.locus")),
    "polynomials.grid_points": ("points/op", ("count", "polynomials.grid_points")),
    "polynomials.evaluate.calls": ("calls/op", ("count", "polynomials.evaluate")),
    "polynomials.construct.calls": ("calls/op", ("count", "polynomials.construct")),
    "polynomials.mul.calls": ("calls/op", ("count", "polynomials.mul")),
    "polynomials.essential.self_ms": ("ms/op", ("self", "polynomials.essential")),
    "polynomials.essential.monomials": ("monomials/op", ("count", "polynomials.essential")),
    "puiseux.series_add.calls": ("calls/op", ("count", "puiseux.series_add")),
    "puiseux.series_mul.calls": ("calls/op", ("count", "puiseux.series_mul")),
    "puiseux.from_terms.calls": ("calls/op", ("count", "puiseux.from_terms")),
    "puiseux.poly_call.self_ms": ("ms/op", ("self", "puiseux.poly_call")),
    "puiseux.poly_mul.self_ms": ("ms/op", ("self", "puiseux.poly_mul")),
    "tropical.self_ms": ("ms/op", ("self", "tropical.")),
    "kapranov.trial_ms": ("ms/trial", ("trial", None)),
    "kapranov.self_ms": ("ms/op", ("self", "kapranov.")),
    "congruence.variety_of.calls": ("calls/op", ("count", "congruence.variety_of.spans")),
    "congruence.variety_of.self_ms": ("ms/op", ("self", "congruence.variety_of")),
    "congruence.congruent_on.calls": ("calls/op", ("count", "congruence.congruent_on.spans")),
    "congruence.roundtrip_ms": ("ms/op", ("total", "congruence.roundtrip")),
    "cli.parse_ms": ("ms/op", ("stage", "parse")),
    "cli.compute_ms": ("ms/op", ("stage", "compute")),
    "cli.emit_ms": ("ms/op", ("stage", "emit")),
    "parsing.calls": ("calls/op", ("count", "parsing.")),
    "trace.overhead_ratio": ("ratio", ("overhead", None)),
}


# ---------------------------------------------------------------------------
# Running ops


def calibration_kernel():
    """Fixed exact-arithmetic Python work, independent of laytrop."""
    acc, x = {}, Fraction(1, 3)
    for i in range(60):
        y = x * Fraction(i % 7 + 1, 5) + Fraction(i, 11)
        acc[i % 17] = acc.get(i % 17, 0) + y
        x = max(x, y) - y / 2
    return acc


def machine_speed():
    """CALIBRATION_REF_S over the kernel's current time (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return CALIBRATION_REF_S / best


class OpResult:
    """Timings and first output of one op across the passes that ran it."""

    def __init__(self):
        self.times = []  # speed-scaled seconds
        self.wall = []   # raw wall seconds
        self.status = None
        self.packed = None  # first stdout, compressed so stored outputs stay small
        self.sha = None
        self.stderr = ""
        self.mismatches = 0  # executions whose status or stdout differed from the first

    def record(self, seconds, status, stdout, stderr):
        self.wall.append(seconds)
        sha = hashlib.sha256(stdout.encode()).digest()
        if self.sha is None:
            self.status, self.sha, self.stderr = status, sha, stderr
            self.packed = zlib.compress(stdout.encode())
        elif status != self.status or sha != self.sha:
            self.mismatches += 1

    @property
    def stdout(self):
        return zlib.decompress(self.packed).decode()


def execute(main, argv):
    """Call the CLI once in-process; return (seconds, exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a failed run
            status = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return seconds, status, out.getvalue(), err.getvalue()


def run_passes(main, ops, results, seconds, started, wrap=None, min_passes=1):
    """Run whole passes over ``ops`` until ``seconds`` after ``started``.

    The first ``min_passes`` passes always complete unless HARD_LIMIT_S is
    reached.  ``wrap(index)`` gives a context manager entered around each op.
    Each op's time is scaled by the mean machine speed measured just before
    and just after it.
    """
    passes, speed = 0, machine_speed()
    while True:
        for index, op in enumerate(ops):
            elapsed = time.perf_counter() - started
            if elapsed >= HARD_LIMIT_S or (passes >= min_passes and elapsed >= seconds):
                return passes
            gc.collect()
            with (wrap(index) if wrap else contextlib.nullcontext()):
                results[index].record(*execute(main, op.argv))
            after = machine_speed()
            results[index].times.append(results[index].wall[-1] * (speed + after) / 2)
            speed = after
        passes += 1


SETUP_CHILD = """
import time
start = time.perf_counter()
import laytrop.cli
seconds = time.perf_counter() - start
from fractions import Fraction
{kernel}
def timed():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start
print(seconds, min(timed() for _ in range(3)))
"""


def measure_setup():
    """Speed-scaled times for a fresh interpreter to import laytrop.cli, bytecode cached.

    The child times its own import and then the calibration kernel, so the
    scaling reflects the CPU the child ran on.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "LAYTROP_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    kernel = inspect.getsource(calibration_kernel)
    command = [sys.executable, "-c", SETUP_CHILD.format(kernel=kernel)]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        child = subprocess.run(command, env=env, check=True, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, text=True)
        seconds, kernel_s = map(float, child.stdout.split())
        if attempt:  # the first child compiles the bytecode; not timed
            times.append(seconds * CALIBRATION_REF_S / kernel_s)
    return times


# ---------------------------------------------------------------------------
# Metrics


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def end_to_end(ops, results, setup_times, peak_rss_mb):
    """End-to-end figures over ops; each op counts once, at the median of its repetitions."""
    ran = [(op, statistics.median(r.times)) for op, r in zip(ops, results) if r.times]
    per_op_ms = sorted(seconds * 1000 for _, seconds in ran)
    n = len(per_op_ms)
    rank = max(n - TAIL_BEYOND, 1)  # the value with TAIL_BEYOND samples above it
    rates = [op.units / seconds for op, seconds in ran]
    metrics = {
        "op_p50_ms": statistics.median(per_op_ms),
        "op_tail_ms": per_op_ms[rank - 1],
        "work_per_s": sum(op.units for op, _ in ran) / sum(seconds for _, seconds in ran),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "wall_op_p50_ms": 1000 * statistics.median(
            statistics.median(r.wall) for r in results if r.wall),
        "op_tail_percentile": round(100 * rank / n, 2),
        "op_samples": n,
        "op_samples_beyond_tail": n - rank,
        "quartiles": {"op_ms": quartiles(per_op_ms),
                      "work_per_s_by_op": quartiles(sorted(rates)),
                      "setup_s": quartiles(setup_times)},
    }
    return metrics, detail


def per_layer(ops, tracer, first_counts, traced, untraced):
    """Per-op (or per-trial) layer figures from one traced run."""
    executions = sum(len(r.times) for r in traced) or 1
    times = tracer.self_times()

    def count(key):
        if key.endswith("."):  # calls into every span named under this prefix
            return sum(v for k, v in first_counts.items()
                       if k.startswith(key) and k.endswith(".spans")) / len(ops)
        return first_counts.get(key, 0) / len(ops)

    def self_ms(prefix):
        if prefix.endswith("."):
            total = sum(v for k, v in times.items() if k.startswith(prefix) and k.endswith(".self"))
        else:
            total = times.get(prefix + ".self", 0.0)
        return 1000 * total / executions

    def p50(results):
        return statistics.median(statistics.median(r.times) for r in results if r.times)

    metrics = {}
    for name, (_, (how, key)) in PER_LAYER.items():
        if how == "count":
            value = count(key)
        elif how == "self":
            value = self_ms(key)
        elif how == "total":
            value = 1000 * times.get(key + ".total", 0.0) / executions
        elif how == "stage":
            value = 1000 * times.get("stage." + key, 0.0) / executions
        elif how == "trial":
            trial_total = (times.get("kapranov.verify.total", 0.0)
                           + times.get("kapranov.split_product.total", 0.0))
            spans = sum(1 for s in tracer.spans if s[0] == "kapranov.verify")
            value = 1000 * trial_total / spans if spans else 0.0
        else:  # overhead
            value = p50(traced) / p50(untraced)
        metrics[name] = value
    return metrics


# ---------------------------------------------------------------------------
# Entry points


def check_outputs(args, ops, results, traced):
    """Check every op that ran, outside the timed interval.

    Returns (executions attempted, executions failed, failure records,
    per-op digests).  An op whose first output fails its check fails on
    every execution; otherwise an execution fails when its output or exit
    status differs from the first one's.
    """
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    expected = expected.get(args.workload) if args.seed == DEFAULT_SEED else None
    rng = random.Random(f"check:{args.workload}:{args.seed}")
    attempted = failed = 0
    failures, digests = [], []
    for index, (op, result) in enumerate(zip(ops, results)):
        runs = [result] + ([traced[index]] if traced else [])
        executions = sum(len(r.times) for r in runs)
        if not executions:
            continue
        attempted += executions
        reason, digest = oracles.check(op, result.status, result.stdout, rng)
        digests.append(digest)
        if reason is None and expected is not None and digest != expected[index]:
            reason = "output differs from the recorded output for the default seed"
        if reason is None and traced and traced[index].times and (
                traced[index].sha != result.sha or traced[index].status != result.status):
            reason = "traced output differs from untraced output"
        if reason is not None:
            failed += executions
            failures.append({"op": index, "argv": op.argv, "reason": reason,
                             "stderr": result.stderr[-2000:]})
        else:
            failed += sum(r.mismatches for r in runs)
    return attempted, failed, failures, digests


def run(args) -> int:
    if not (ROOT / "src" / "laytrop" / "cli.py").is_file():
        print(f"perfbench: no laytrop sources at {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The scan thread pool is GIL-bound and slower; measure the serial path.
    os.environ.pop("LAYTROP_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import laytrop
    import laytrop.cli
    if Path(laytrop.__file__).resolve().parent != ROOT / "src" / "laytrop":
        print(f"perfbench: imported laytrop from {laytrop.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_times = [] if args.trace else measure_setup()
    ops = workloads.generate(args.workload, args.seed)
    scratch = OUT / f"inputs-{args.workload}-{os.getpid()}"
    scratch.mkdir()
    try:
        workloads.write_files(ops, str(scratch))
        main = laytrop.cli.main
        execute(main, ops[0].argv)  # first-call costs stay out of the timings
        results = [OpResult() for _ in ops]
        started = time.perf_counter()
        tracer = traced = None
        if args.trace:
            run_passes(main, ops, results, 0, started)
            traced = [OpResult() for _ in ops]
            tracer = Tracer()
            with tracer.installed():
                run_passes(main, ops, traced, 0, started, wrap=tracer.op)
                first_counts = tracer.snapshot()
                run_passes(main, ops, traced, args.seconds, started, wrap=tracer.op, min_passes=0)
        else:
            run_passes(main, ops, results, args.seconds, started)
        timed_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, failures, digests = check_outputs(args, ops, results, traced)
    correct = failed == 0 and attempted > 0

    if args.trace:
        metrics = per_layer(ops, tracer, first_counts, traced, results)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        detail = {}
    else:
        metrics, detail = end_to_end(ops, results, setup_times, peak_rss_mb)
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "timed_s": timed_s,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "ops": len(ops), "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics, "digests": digests, "failures": failures, **detail,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{stem}.json"))

    print(f"workload {args.workload}  seed {args.seed}  python {record['python']}  "
          f"cpus {record['cpu_count']}  ops {len(ops)}  timed {timed_s:.1f}s")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}")
    print(f"  {'fail_ratio':36s} {record['fail_ratio']:14.4f} fraction "
          f"({failed} of {attempted} op executions)")
    if detail:
        print(f"  op_tail_ms is p{detail['op_tail_percentile']} of {detail['op_samples']} "
              f"per-op times ({detail['op_samples_beyond_tail']} beyond it); "
              f"unscaled wall p50 {detail['wall_op_p50_ms']:.2f} ms")
    for failure in failures[:5]:
        print(f"  FAILED op {failure['op']}: {failure['reason']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's end-to-end metrics."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
