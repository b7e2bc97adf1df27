"""Output checks for the benchmark, run outside the timed interval.

``check`` returns ``None`` when an op's output is right and a one-line
reason otherwise.  The oracles work from first principles on the generated
monomial data: every monomial is evaluated directly with ``Fraction`` and
the layer arithmetic of each flavor is spelled out here.  Nothing in this
file calls laytrop.

All sampled coordinates are tangible (layer 1), so a monomial's layer at a
point is its coefficient's layer in every flavor.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import CONGRUENCE_AXIS, INF, Op

Point = Tuple[Fraction, ...]


def _fmt_layer(layer) -> str:
    return "inf" if layer == INF else str(layer)


def _profile(monomials, point: Point) -> List[Tuple[Fraction, object]]:
    return [(value + sum(e * x for e, x in zip(exponents, point)), layer)
            for exponents, layer, value in monomials]


def _tie_layer(flavor: str, tied: Sequence) -> object:
    """Layer of a sum of monomials tied at the top value."""
    if flavor == "trivial":
        return 1
    if flavor == "super":
        return INF if len(tied) >= 2 else tied[0]
    return INF if INF in tied else sum(tied)


def _evaluate(monomials, point: Point, flavor: str):
    """(value, layer, tie count) of the layered sum of all monomials."""
    profile = _profile(monomials, point)
    top = max(v for v, _ in profile)
    tied = [layer for v, layer in profile if v == top]
    return top, _tie_layer(flavor, tied), len(tied)


def _ghost_over(flavor: str, m, ell) -> bool:
    if flavor == "super":
        return m == INF
    if ell == INF:
        return m == INF
    return m > ell


def _is_corner(monomials, point: Point, flavor: str) -> bool:
    _, total, ties = _evaluate(monomials, point, flavor)
    if flavor == "trivial":
        return ties >= 2
    return all(_ghost_over(flavor, total, layer) for _, layer, _ in monomials)


def _is_cluster(monomials, point: Point, flavor: str) -> bool:
    if flavor == "trivial":
        return False
    _, total, ties = _evaluate(monomials, point, flavor)
    return ties == 1 and _ghost_over(flavor, total, 1)


def in_locus(data: Dict, point: Point) -> bool:
    flavor = data["flavor"]
    return all(_is_corner(f, point, flavor)
               or (data["combined"] and _is_cluster(f, point, flavor))
               for f in data["polys"])


# ---------------------------------------------------------------------------
# Per-command checks


SAMPLE = 40


def _check_locus(op: Op, out, rng: random.Random) -> Optional[str]:
    data = op.data
    axis = data["axis"]
    on_axis = set(axis)
    reported: List[Point] = []
    for record in out:
        point = tuple(Fraction(c) for c in record["point"])
        if len(point) != 2 or not all(c in on_axis for c in point):
            return f"reported point {record['point']} is not on the grid"
        if record["layers"] != ["1", "1"]:
            return f"reported point {record['point']} has layers {record['layers']}"
        reported.append(point)
    if any(a >= b for a, b in zip(reported, reported[1:])):
        return "reported points are not in strictly increasing grid order"
    by_point = dict(zip(reported, out))
    for point in rng.sample(reported, min(SAMPLE, len(reported))):
        if not in_locus(data, point):
            return f"point {[str(c) for c in point]} is reported but is not a root"
        layering = min(_evaluate(f, point, data["flavor"])[1] for f in data["polys"])
        if by_point[point]["layering"] != _fmt_layer(layering):
            return f"layering at {[str(c) for c in point]} should be {_fmt_layer(layering)}"
    rejected = 0
    for _ in range(20 * SAMPLE):
        if rejected == SAMPLE:
            break
        point = (rng.choice(axis), rng.choice(axis))
        if point in by_point:
            continue
        rejected += 1
        if in_locus(data, point):
            return f"point {[str(c) for c in point]} is a root but was not reported"
    return None


def _check_kapranov(op: Op, out, rng) -> Optional[str]:
    if out.get("pass") is not True or out.get("failures"):
        return "the correspondence verifier reported a failure"
    if out.get("trials") != op.data["trials"]:
        return f"ran {out.get('trials')} trials, asked for {op.data['trials']}"
    return None


def _winner(monomials, point: Point):
    profile = _profile(monomials, point)
    top = max(v for v, _ in profile)
    winners = [m[0] for m, (v, _) in zip(monomials, profile) if v == top]
    return winners[0] if len(winners) == 1 else None


def _tie_points(monomials) -> set:
    return {(c1 - c2) / (e2[0] - e1[0])
            for i, (e1, _, c1) in enumerate(monomials) for e2, _, c2 in monomials[i + 1:]}


def _univariate_probes(monomials) -> List[Point]:
    """One point inside every cell of the tie arrangement of a univariate polynomial."""
    ties = sorted(_tie_points(monomials))
    probes = [ties[0] - 1, ties[-1] + 1] + [(a + b) / 2 for a, b in zip(ties, ties[1:])]
    return [(x,) for x in probes]


def _check_essential(op: Op, out, rng: random.Random) -> Optional[str]:
    monomials = op.data["monomials"]
    support = {m[0] for m in monomials}
    listed = [tuple(e) for e in out["essential"]]
    if listed != sorted(set(listed)) or not set(listed) <= support:
        return "essential list is not a sorted subset of the support"
    nvars = len(monomials[0][0])
    if nvars == 1:
        # Exact: each strict-dominance interval holds one of the probes.
        expected = {_winner(monomials, p) for p in _univariate_probes(monomials)} - {None}
        if set(listed) != expected:
            return f"essential monomials should be {sorted(expected)}"
        return None
    # Sound in every dimension: a unique winner anywhere is essential.
    probes = [(Fraction(0),) * nvars] + [
        tuple(Fraction(rng.randint(-42, 42), 7) for _ in range(nvars)) for _ in range(60)]
    for point in probes:
        winner = _winner(monomials, point)
        if winner is not None and winner not in listed:
            return f"monomial {winner} strictly dominates somewhere but is not listed"
    return None


def _corner_roots(monomials) -> List[Tuple[Fraction, int]]:
    """(root, exponent spread of the winners) at every tie point with two top monomials."""
    roots = []
    for x in sorted(_tie_points(monomials)):
        profile = _profile(monomials, (x,))
        top = max(v for v, _ in profile)
        winners = [m[0][0] for m, (v, _) in zip(monomials, profile) if v == top]
        if len(winners) >= 2:
            roots.append((x, max(winners) - min(winners)))
    return roots


def _check_roots(op: Op, out, rng) -> Optional[str]:
    got = [(Fraction(r["root"]), r["mult"]) for r in out]
    expected = _corner_roots(op.data["monomials"])
    if got != expected:
        return f"corner roots should be {[(str(x), m) for x, m in expected]}"
    return None


def _check_congruence(op: Op, out, rng) -> Optional[str]:
    roundtrip = out.get("roundtrip", {})
    if roundtrip.get("pass") is not True:
        return "the Zariski round trip reported a failure"
    flavor, pairs = op.data["flavor"], op.data["pairs"]

    def agree(point):
        return [_evaluate(f, point, flavor)[:2] == _evaluate(g, point, flavor)[:2]
                for f, g in pairs]

    variety = sum(all(agree((x, y))) for x in CONGRUENCE_AXIS for y in CONGRUENCE_AXIS)
    if roundtrip.get("variety_size") != variety:
        return f"variety has {variety} points, reported {roundtrip.get('variety_size')}"
    points = op.data["points"]
    if points:
        expected = [all(column) for column in zip(*map(agree, points))]
        if out.get("points_congruent") != expected:
            return f"points_congruent should be {expected}"
    return None


CHECKS = {
    "locus": _check_locus,
    "kapranov": _check_kapranov,
    "essential": _check_essential,
    "roots": _check_roots,
    "congruence": _check_congruence,
}

#: Output fields compared against the recorded digests.  They are the
#: fields the project keeps; ``essential`` drops ``exact`` and the round
#: trip keeps only its current verdict fields, so adding a witness or
#: retiring the exactness flag does not count as a changed answer.
ROUNDTRIP_FIELDS = ("variety_size", "probe_pairs", "diagonal", "stable",
                    "antitone_generators", "antitone_points", "union_law", "pass")


def _digest_view(op: Op, out):
    if op.kind == "essential":
        return out["essential"]
    if op.kind == "kapranov":
        return {"pass": out["pass"], "trials": out["trials"]}
    if op.kind == "congruence":
        return {"points_congruent": out.get("points_congruent"),
                "roundtrip": {k: out["roundtrip"].get(k) for k in ROUNDTRIP_FIELDS}}
    return out


def check(op: Op, status, stdout: str, rng: random.Random) -> Tuple[Optional[str], str]:
    """(failure reason or None, digest of the kept output fields)."""
    if status != 0:
        return f"exit status {status}", ""
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON", ""
    try:
        reason = CHECKS[op.kind](op, out, rng)
        view = _digest_view(op, out)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        return f"output has an unexpected shape ({type(err).__name__}: {err})", ""
    text = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return reason, hashlib.sha256(text.encode()).hexdigest()[:16]
