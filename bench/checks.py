"""Output checks for benchmark ops, run outside the timed region.

``problems(op, result)`` returns a list of strings, empty when the op's
output is correct; ``outcome(op, result)`` is the small summary pinned in
pins.json (verdict or status, line triple, census counts, row counts), so
that later changes may reshape the JSON but not the answers.

Capclass functions used here are bound at import, before the tracer patches
module attributes; the tracer is paused while checks run, so nothing a
check does is counted as op work.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

from capclass.adelic import assemble
from capclass.capacity import finite_product
from capclass.exact import SqrtRat
from capclass.lattice import AuxiliaryLine, verify_line
from capclass.model import CongruenceInstance, parse_bound

# (b, c) of the norm u^2 + b*u*v + c*v^2; the integers have no v part
RING_NORMS = {"Z": (0, 0), "Z[i]": (0, 1), "Z[sqrt(-2)]": (0, 2),
              "Z[omega]": (1, 1)}


def flags(argv) -> dict:
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}


def bound_sq(token: str) -> Fraction:
    """Square of a CLI bound token: an integer, a rational or sqrt(q)."""
    if token.startswith("sqrt(") and token.endswith(")"):
        return Fraction(token[5:-1])
    return Fraction(token) ** 2


def floor_root(sq: Fraction) -> int:
    return math.isqrt(sq.numerator * sq.denominator) // sq.denominator


def _centered(value: int, n: int) -> int:
    r = value % n
    return r - n if 2 * r > n else r


def _triple(obj: dict) -> list:
    return [int(obj["d1"]), int(obj["d2"]), int(obj["d3"])]


def _verdict_problems(verdict: dict) -> list:
    lo, hi = Fraction(verdict["gamma"]["lo"]), Fraction(verdict["gamma"]["hi"])
    expected = {"METHOD_CAN_SUCCEED": hi < 1, "METHOD_CANNOT_SUCCEED": lo > 1,
                "BOUNDARY": lo <= 1 <= hi}
    if expected.get(verdict["kind"], False):
        return []
    return [f"verdict {verdict['kind']} contradicts gamma [{lo}, {hi}]"]


# ---------------------------------------------------------------------------
# analyze


def _box_solutions(n, t, a, x_max, y_max):
    for y in range(-y_max, y_max + 1):
        r = -(t * y + a) % n
        for x in range(-x_max + (r + x_max) % n, x_max + 1, n):
            yield x, y


def check_analyze(op, result) -> list:
    f = flags(op.argv)
    n, t, a = int(f["n"]), int(f["t"]), int(f["a"])
    xsq, ysq = bound_sq(f["X"]), bound_sq(f["Y"])
    payload = json.loads(result.stdout)
    if result.exit_code == 1:
        # a refusal is valid only outside the guaranteed region 27*X*Y < n
        if payload.get("error") != "LineNotFound":
            return [f"exit 1 with {payload.get('error')!r}"]
        if 729 * xsq * ysq < n * n or payload["guidance"]["box_feasible"]:
            return ["LineNotFound inside the guaranteed region"]
        return []
    if result.exit_code not in (0, 2):
        return [f"unexpected exit code {result.exit_code}"]
    instance = CongruenceInstance(n=n, t=t, a=a, X=parse_bound(f["X"]),
                                  Y=parse_bound(f["Y"]))
    line = AuxiliaryLine.from_json(payload["line"])
    out = _verdict_problems(payload["verdict"])
    if (result.exit_code == 2) != (payload["verdict"]["kind"] == "BOUNDARY"):
        out.append(f"exit {result.exit_code} with {payload['verdict']['kind']}")
    if not verify_line(line, instance):
        out.append(f"verify_line rejects {_triple(payload['line'])}")
    # every box solution lies on the line (checked by brute force)
    for x, y in _box_solutions(n, t, a, floor_root(xsq), floor_root(ysq)):
        if line.d1 * x + line.d2 * y + line.d3 != 0:
            out.append(f"box solution ({x}, {y}) is off the line")
            break
    return out


# ---------------------------------------------------------------------------
# hnp


def check_hnp(op, result) -> list:
    f = flags(op.argv)
    n, c0, d0, c1, d1 = (int(f[k]) for k in ("n", "c0", "d0", "c1", "d1"))
    xsq = bound_sq(f["X"])
    payload = json.loads(result.stdout)
    status = payload["status"]
    out = []
    if {"AT_MOST_ONE": 0, "INCONCLUSIVE": 2}.get(status) != result.exit_code:
        out.append(f"exit {result.exit_code} with status {status}")
    for c, d in ((c0, d0), (c1, d1)):
        if 4 * _centered(c * op.secret - d, n) ** 2 > xsq:
            out.append("planted secret does not reproduce the samples")
    pipeline = payload["pipeline"]
    if pipeline is None:
        if status != "INCONCLUSIVE":
            out.append(f"{status} without a pipeline")
        return out
    t = -c1 * pow(c0, -1, n) % n
    homogeneous = CongruenceInstance(n=n, t=t, a=0, X=parse_bound(f["X"]),
                                     Y=parse_bound(f["X"]))
    if not verify_line(AuxiliaryLine.from_json(pipeline["line"]), homogeneous):
        out.append(f"verify_line rejects {_triple(pipeline['line'])}")
    verdict = pipeline["verdict"]
    if status == "AT_MOST_ONE" and not Fraction(verdict["gamma"]["hi"]) < 1:
        out.append("AT_MOST_ONE without homogeneous gamma.hi < 1")
    out += _verdict_problems(verdict)
    return out


# ---------------------------------------------------------------------------
# census


def check_census(op, result) -> list:
    f = flags(op.argv)
    p, samples = int(f["p"]), int(f["samples"])
    payload = json.loads(result.stdout)
    if result.exit_code != 0:
        return [f"unexpected exit code {result.exit_code}"]
    records = payload["records"]
    out = []
    counts = Counter(r["outcome"] for r in records)
    if len(records) != samples or payload["sample_size"] != samples:
        out.append(f"{len(records)} records for {samples} samples")
    for outcome in ("gamma_gt_1", "gamma_zero", "other"):
        if Fraction(payload[f"fraction_{outcome}"]) != Fraction(counts[outcome],
                                                               samples):
            out.append(f"fraction_{outcome} disagrees with the records")
    if sum(counts[k] for k in ("gamma_gt_1", "gamma_zero", "other")) != samples:
        out.append("outcome counts do not sum to the samples")
    box = SqrtRat(Fraction(f["c"]) ** 2 * p)
    for rec in records:
        d1, d2, d3 = rec["triple"]
        t, a = rec["t"], rec["a"]
        if (d1 * t - d2) % p or (d1 * a - d3) % p:
            out.append(f"record {rec['triple']} has wrong (t, a)")
            break
        instance = CongruenceInstance(n=p, t=t, a=a, X=box, Y=box)
        line = AuxiliaryLine(d1=d1, d2=d2, d3=d3, n=p)
        if finite_product(assemble(instance, line).finite) != Fraction(1, d1):
            out.append(f"record {rec['triple']}: finite product != 1/d1")
            break
        if Fraction(rec["gamma"]["hi"]) < Fraction(rec["bound_interval"]["lo"]):
            out.append(f"record {rec['triple']}: gamma below the census bound")
            break
    return out


# ---------------------------------------------------------------------------
# search


def _disk(ring: str, radius_sq: int) -> list:
    """Ring elements of norm <= radius_sq, by scanning a square that
    contains the disk (|u|, |v| <= 2*radius for every ring here)."""
    b, c = RING_NORMS[ring]
    r = 2 * (math.isqrt(radius_sq) + 1)
    vs = range(-r, r + 1) if c else (0,)
    return [(u, v) for v in vs for u in range(-r, r + 1)
            if u * u + b * u * v + c * v * v <= radius_sq]


def reference_count(ring: str, n: int, t: int, a: int, xsq: int, ysq: int) -> int:
    """Number of box solutions, counted by residue class of x."""
    xs = Counter((u % n, v % n) for u, v in _disk(ring, xsq))
    return sum(xs[(-(t * u + a) % n, -t * v % n)] for u, v in _disk(ring, ysq))


def check_search(op, result) -> list:
    f = flags(op.argv)
    ring, n, t, a = f["ring"], int(f["n"]), int(f["t"]), int(f["a"])
    xsq, ysq = int(bound_sq(f["X"])), int(bound_sq(f["Y"]))
    if result.exit_code != 0:
        return [f"unexpected exit code {result.exit_code}"]
    b, c = RING_NORMS[ring]
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    keys = [(tuple(r["x"]), tuple(r["y"])) for r in rows]
    out = []
    if any(k0 >= k1 for k0, k1 in zip(keys, keys[1:])):
        out.append("rows are not strictly sorted")
    for (xu, xv), (yu, yv) in keys:
        if (xu + t * yu + a) % n or (xv + t * yv) % n:
            out.append(f"row {(xu, xv), (yu, yv)} misses the congruence")
            break
        if (xu * xu + b * xu * xv + c * xv * xv > xsq
                or yu * yu + b * yu * yv + c * yv * yv > ysq
                or (c == 0 and (xv or yv))):
            out.append(f"row {(xu, xv), (yu, yv)} is outside the box")
            break
    if f"raw={len(rows)} " not in result.stderr:
        out.append("stderr count disagrees with the rows")
    expected = reference_count(ring, n, t, a, xsq, ysq)
    if len(rows) != expected:
        out.append(f"{len(rows)} rows, reference counts {expected}")
    return out


CHECKS = {"analyze": check_analyze, "hnp": check_hnp, "census": check_census,
          "search": check_search}


def problems(op, result) -> list:
    if result.error:
        return [result.error]
    try:
        return CHECKS[op.argv[0]](op, result)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def outcome(op, result) -> dict:
    """Pinned summary of an op's answer."""
    if result.error:
        return {"error": result.error.split(":")[0]}
    out = {"exit": result.exit_code}
    try:
        out.update(_summary(op.argv[0], result.stdout))
    except (ValueError, KeyError, TypeError) as exc:
        out["unreadable"] = type(exc).__name__
    return out


def _summary(command: str, stdout: str) -> dict:
    if command == "search":
        return {"rows": stdout.count("\n")}
    payload = json.loads(stdout)
    if command == "analyze":
        if "error" in payload:
            return {"kind": payload["error"], "line": None}
        return {"kind": payload["verdict"]["kind"],
                "line": _triple(payload["line"])}
    if command == "hnp":
        pipeline = payload["pipeline"]
        return {"status": payload["status"],
                "line": _triple(pipeline["line"]) if pipeline else None}
    counts = Counter(r["outcome"] for r in payload["records"])
    return {"counts": dict(sorted(counts.items()))}
