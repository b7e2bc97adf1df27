"""Per-layer tracing from outside the program.

For a traced pass the tracer swaps the attributes through which callers
reach each layer (``laytrop.polynomials.corner_locus``,
``laytrop.cli.parse_polynomial``, ``LayeredSemiring.check`` and so on) for
wrappers, and puts the originals back when the pass ends, also when it
raises.  Nothing under ``src/`` changes.

Two kinds of wrapper, plus a stand-in for the CLI's ``json`` module whose
``load`` and ``dumps`` are spans:

* counters, for hot scalar, polynomial and series methods that run up to
  hundreds of thousands of times per op; they add one list increment;
* spans, for calls at layer boundaries; each records its name, its parent
  span and its start and end times.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List

COUNT, SPAN, JSON = "count", "span", "json"


class _JsonProxy:
    """Stands in for ``laytrop.cli.json``; times ``load`` and ``dumps``."""

    def __init__(self, load, dumps):
        self.load, self.dumps = load, dumps

    def __getattr__(self, name):
        return getattr(json, name)


def _table():
    """(owner, attribute, kind, metric name, amount) for every swapped attribute.

    ``owner`` is the module or class whose attribute the caller looks up;
    ``amount``, when given, maps (args, result) to how much work a call did.
    """
    from laytrop import cli, congruence, core, kapranov, polynomials, puiseux
    sr, lp = core.LayeredSemiring, polynomials.LayeredPolynomial
    ps, pp = puiseux.PuiseuxSeries, puiseux.PuiseuxPolynomial
    return [
        (sr, "check", COUNT, "core.check", None),
        (sr, "add", COUNT, "core.add", None),
        (sr, "mul", COUNT, "core.mul", None),
        (sr, "pow", COUNT, "core.pow", None),
        (sr, "scalar", COUNT, "core.scalar", None),
        (lp, "__init__", COUNT, "polynomials.construct", None),
        (lp, "mul", COUNT, "polynomials.mul", None),
        (lp, "evaluate", COUNT, "polynomials.evaluate", None),
        (lp, "monomial_value", COUNT, "polynomials.monomial_value", None),
        (lp, "dominant_part", COUNT, "polynomials.dominant_part", None),
        (lp, "is_corner_root", COUNT, "polynomials.is_corner_root", None),
        (lp, "is_cluster_root", COUNT, "polynomials.is_cluster_root", None),
        (polynomials.GridSpec, "points", COUNT, "polynomials.grid_points",
         lambda args, result: len(result)),
        (ps, "__add__", COUNT, "puiseux.series_add", None),
        (ps, "__mul__", COUNT, "puiseux.series_mul", None),
        (ps, "from_terms", COUNT, "puiseux.from_terms", None),
        (pp, "__call__", SPAN, "puiseux.poly_call", None),
        (pp, "__mul__", SPAN, "puiseux.poly_mul", None),
        (polynomials, "corner_locus", SPAN, "polynomials.locus", None),
        (polynomials, "combined_locus", SPAN, "polynomials.locus", None),
        (polynomials, "essential_monomials", SPAN, "polynomials.essential",
         lambda args, result: len(args[0].coeffs)),
        (polynomials, "univariate_corner_roots", SPAN, "polynomials.roots", None),
        (kapranov, "verify_random_products", SPAN, "kapranov.verify_random_products", None),
        (kapranov, "random_split_product", SPAN, "kapranov.split_product", None),
        (kapranov, "kapranov_verify", SPAN, "kapranov.verify", None),
        (kapranov, "trop_poly", SPAN, "tropical.trop_poly", None),
        (kapranov, "explode_poly", SPAN, "tropical.explode_poly", None),
        (kapranov, "exploded_eval", SPAN, "tropical.exploded_eval", None),
        (congruence, "zariski_roundtrip", SPAN, "congruence.roundtrip", None),
        (congruence, "variety_of", SPAN, "congruence.variety_of", None),
        (congruence, "congruent_on", SPAN, "congruence.congruent_on", None),
        (cli, "parse_polynomial", SPAN, "parsing.parse_polynomial", None),
        (cli, "parse_point", SPAN, "parsing.parse_point", None),
        (cli, "parse_scalar", SPAN, "parsing.parse_scalar", None),
        (cli, "parse_puiseux_polynomial", SPAN, "parsing.parse_puiseux_polynomial", None),
        (cli, "_locus_records", SPAN, "cli.emit.records", None),
        (cli, "_emit", SPAN, "cli.emit.write", None),
        (cli, "json", JSON, None, None),
    ]


def stage(name: str) -> str:
    """CLI stage a span belongs to when the op calls it directly."""
    if name.startswith("parsing.") or name == "cli.read_spec":
        return "parse"
    if name.startswith("cli.emit."):
        return "emit"
    return "compute"


class Tracer:
    def __init__(self):
        self.counts: Dict[str, List[int]] = defaultdict(lambda: [0])
        # each span: [name, parent index or -1, op index, start, end]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.current_op = -1

    # -- wrappers ------------------------------------------------------------

    def _counter(self, fn, name, amount):
        cell = self.counts[name]
        if amount is None:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                cell[0] += amount(args, result)
                return result
        return counted

    def _span(self, fn, name, amount):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        cell = self.counts[name] if amount is not None else None

        def spanned(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.current_op, clock(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if cell is not None:
                cell[0] += amount(args, result)
            return result
        return spanned

    def _wrap(self, original, kind, name, amount):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, kind, name, amount))
        if kind == JSON:
            return _JsonProxy(self._span(original.load, "cli.read_spec", None),
                              self._span(original.dumps, "cli.emit.json", None))
        make = self._counter if kind == COUNT else self._span
        return make(original, name, amount)

    @contextlib.contextmanager
    def installed(self):
        """Swap every attribute in the table for its wrapper; restore on exit."""
        saved = []
        try:
            for owner, attribute, kind, name, amount in _table():
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, kind, name, amount))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)
            for owner, attribute, original in saved:
                if vars(owner)[attribute] is not original:
                    raise RuntimeError(f"could not restore {owner.__name__}.{attribute}")

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one CLI op; every span below it is tagged with ``index``."""
        self.current_op = index
        record = ["cli.op", -1, index, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def snapshot(self) -> Dict[str, int]:
        """Call counts so far, spans included, keyed by metric name."""
        counts = {name: cell[0] for name, cell in self.counts.items()}
        for span in self.spans:
            counts[span[0] + ".spans"] = counts.get(span[0] + ".spans", 0) + 1
        return counts

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name, plus per-stage op time."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, parent, _, start, end) in enumerate(self.spans):
            totals[name + ".self"] += end - start - child[i]
            totals[name + ".total"] += end - start
            if parent >= 0 and self.spans[parent][0] == "cli.op":
                totals["stage." + stage(name)] += end - start
        return totals

    def write(self, path: str) -> None:
        base = self.spans[0][3] if self.spans else 0.0
        rows = [{"name": name, "parent": parent, "op": op,
                 "start_us": round((start - base) * 1e6, 1),
                 "dur_us": round((end - start) * 1e6, 1)}
                for name, parent, op, start, end in self.spans]
        with open(path, "w") as handle:
            json.dump({"spans": rows}, handle)
