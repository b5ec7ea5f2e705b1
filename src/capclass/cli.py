"""Command-line front end.

Subcommands: analyze (full pipeline on one instance), hnp (two-sample secret
certification), census (seeded proportion estimates), search (brute-force box
enumeration, newline-delimited JSON), capacity (direct two-disk lens
evaluation), bound (box feasibility calculator).

Exit codes: 0 definite result, 2 boundary/inconclusive or a refused
factorization, 1 error. All JSON output is byte-deterministic for a fixed
seed: keys sorted, numerics as exact strings, timing only on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .capacity import lens_value, oracle_for_lens
from .census import (CensusParams, gamma_gt_one_box, gamma_zero_box,
                     run_census)
from .classify import (CertificationStatus, VerdictKind, HnpSamples,
                       certify_unique_secret, count_secrets_by_enumeration,
                       run_pipeline)
from .exact import FactoringBudgetExceeded, SqrtRat, frac_token
from .lattice import LineNotFound, SearchSpaceTooLarge
from .model import (CongruenceInstance, bound_token, feasible,
                    minkowski_threshold, parse_bound)
from .rings import RING_ALIASES, RING_Z, ring_by_name
from .search import BoxTooLarge, enumerate_solutions


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_bound_arg(token: str, name: str) -> SqrtRat:
    try:
        return parse_bound(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {name}={token!r}: {exc}") from None


def _parse_frac_arg(token: str, name: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {name}={token!r}: {exc}") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(_dump(payload))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze


def _instance_from_args(args) -> CongruenceInstance:
    if getattr(args, "json", None):
        with open(args.json) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"{args.json}: expected a JSON object, "
                             f"got {type(obj).__name__}")
        try:
            return CongruenceInstance.from_json(obj)
        except KeyError as exc:
            raise ValueError(f"{args.json}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{args.json}: {exc}") from None
    missing = [k for k in ("n", "t", "a", "X", "Y")
               if getattr(args, k) is None]
    if missing:
        raise ValueError("missing flags: "
                         + ", ".join("--" + m for m in missing)
                         + " (or pass --json FILE)")
    return CongruenceInstance(n=args.n, t=args.t, a=args.a,
                              X=_parse_bound_arg(args.X, "X"),
                              Y=_parse_bound_arg(args.Y, "Y"))


def _oracle_block(instance, line) -> dict:
    try:
        sols = enumerate_solutions(instance, RING_Z)
    except BoxTooLarge as exc:
        return {"skipped": str(exc)}
    vanishes = all(line.evaluate(x[0], y[0]) == 0 for x, y in sols)
    zero = ((0, 0), (0, 0)) in sols
    return {
        "solutions": [[list(x), list(y)] for x, y in sols],
        "raw": len(sols),
        "nonzero": len(sols) - (1 if zero else 0),
        "line_vanishes_on_all": vanishes,
    }


def cmd_analyze(args) -> int:
    instance = _instance_from_args(args)
    try:
        result = run_pipeline(instance)
    except (LineNotFound, SearchSpaceTooLarge) as exc:
        ok, margin = feasible(instance.n, instance.X, instance.Y)
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "guidance": {
                "box_feasible": ok,
                "threshold": frac_token(minkowski_threshold(instance.n)),
                "product_XY_squared": frac_token(instance.X.sq
                                                 * instance.Y.sq),
                "margin": frac_token(margin),
                "hint": "an admissible line is only guaranteed when "
                        "X*Y is below the threshold; shrink the box",
            },
        }
        _emit(args, payload, f"error: {exc}\n")
        return 1
    payload = result.to_json()
    if args.check_oracle:
        payload["oracle"] = _oracle_block(instance, result.line)
    verdict = result.verdict
    lines = [f"instance: x + {instance.t}*y + {instance.a} = 0 mod {instance.n},"
             f" |x| <= {bound_token(instance.X)}, |y| <= {bound_token(instance.Y)}",
             f"line: ({result.line.d1}*x + {result.line.d2}*y + "
             f"{result.line.d3})/{result.line.n}"]
    lines += list(verdict.narrative)
    lines.append(f"verdict: {verdict.kind.value}")
    if args.check_oracle and "oracle" in payload:
        blk = payload["oracle"]
        if "raw" in blk:
            lines.append(f"oracle: {blk['raw']} box solutions, "
                         f"line vanishes on all: {blk['line_vanishes_on_all']}")
        else:
            lines.append(f"oracle skipped: {blk['skipped']}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if verdict.kind != VerdictKind.BOUNDARY else 2


# ---------------------------------------------------------------------------
# hnp


def cmd_hnp(args) -> int:
    samples = HnpSamples(c0=args.c0, d0=args.d0, c1=args.c1, d1=args.d1,
                         n=args.n, X=_parse_bound_arg(args.X, "X"))
    cert = certify_unique_secret(samples)
    payload = cert.to_json()
    payload["samples"] = samples.to_json()
    if args.check_oracle:
        count = count_secrets_by_enumeration(samples)
        payload["oracle"] = {
            "secret_count": count,
            "consistent": count <= 1
            or cert.status != CertificationStatus.AT_MOST_ONE,
        }
    text = [f"status: {cert.status.value}", f"reason: {cert.reason}"]
    if args.check_oracle:
        text.append(f"oracle secret count: {payload['oracle']['secret_count']}")
    _emit(args, payload, "\n".join(text) + "\n")
    return 0 if cert.status == CertificationStatus.AT_MOST_ONE else 2


# ---------------------------------------------------------------------------
# census


def cmd_census(args) -> int:
    params = CensusParams(
        p=args.p,
        c=_parse_frac_arg(args.c, "c"),
        w=_parse_frac_arg(args.w, "w"),
        z=None if args.z is None else _parse_frac_arg(args.z, "z"),
        sample_size=args.samples,
        seed=args.seed,
    )
    box = None
    if args.box == "gt1":
        box = gamma_gt_one_box(params)
    elif args.box == "zero":
        box = gamma_zero_box(params)
    result = run_census(params, box=box)
    payload = result.to_json(include_records=not args.no_records)
    if box is not None:
        payload["box"] = box.to_json()
    rows = [f"census p={params.p} c={frac_token(params.c)} "
            f"w={frac_token(params.w)} z={frac_token(params.z)} "
            f"samples={result.sample_size} seed={params.seed} box={args.box}"]
    for outcome in ("gamma_gt_1", "gamma_zero", "other"):
        lo, hi = result.wilson(outcome)
        rows.append(f"  {outcome:12s} {result.counts[outcome]:6d}  "
                    f"fraction={float(result.fraction(outcome)):.4f}  "
                    f"wilson95=[{lo:.4f}, {hi:.4f}]")
    rows.append(f"  lambda injective: {result.lambda_injective}")
    _emit(args, payload, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    instance = _instance_from_args(args)
    ring = ring_by_name(args.ring)
    sols = enumerate_solutions(instance, ring)
    # the elements are ints, so this is json.dumps(row, sort_keys=True)
    sys.stdout.write("".join(f'{{"x": [{u}, {v}], "y": [{p}, {q}]}}\n'
                             for (u, v), (p, q) in sols))
    zero = ((0, 0), (0, 0)) in sols
    sys.stderr.write(f"solutions: raw={len(sols)} "
                     f"nonzero={len(sols) - (1 if zero else 0)} "
                     f"ring={ring.name}\n")
    return 0


# ---------------------------------------------------------------------------
# capacity


def cmd_capacity(args) -> int:
    r = _parse_bound_arg(args.r, "r")
    s = _parse_bound_arg(args.s, "s")
    cap, case = lens_value(r, s)
    payload = {"r": bound_token(r), "s": bound_token(s), "case": case,
               "capacity": cap.to_json()}
    text = [f"lens r={bound_token(r)} s={bound_token(s)}: case={case}",
            f"capacity in [{float(cap.lo):.12g}, {float(cap.hi):.12g}]"]
    if args.check_oracle:
        est = oracle_for_lens(float(r), float(s), count=args.fekete)
        payload["oracle"] = {
            "fekete_points": est.count,
            "fekete_estimate": f"{est.estimate:.9f}",
            "abs_error_vs_midpoint": f"{abs(est.estimate - float(cap.mid)):.3e}",
        }
        text.append(f"fekete({est.count}) = {est.estimate:.6f}")
    _emit(args, payload, "\n".join(text) + "\n")
    return 0


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args) -> int:
    X = _parse_bound_arg(args.X, "X")
    Y = _parse_bound_arg(args.Y, "Y")
    for flag, bound in (("--X", X), ("--Y", Y)):
        if not bound > 0:
            raise ValueError(f"{flag} must be positive")
    threshold = minkowski_threshold(args.n)
    ok, _ = feasible(args.n, X, Y)
    payload = {
        "n": args.n,
        "X": bound_token(X),
        "Y": bound_token(Y),
        "threshold": frac_token(threshold),
        "product_XY_squared": frac_token(X.sq * Y.sq),
        "feasible": ok,
        "optimal_box": [bound_token(SqrtRat(Fraction(1, 9) / X.sq)),
                        bound_token(SqrtRat(Fraction(1, 9) / Y.sq)),
                        "1/3"],
    }
    text = (f"n={args.n}: X*Y {'<' if ok else '>='} n/27 "
            f"(threshold {frac_token(threshold)}); "
            f"admissible line {'guaranteed' if ok else 'not guaranteed'}\n")
    _emit(args, payload, text)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 means "boundary" here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")

    box_flags = argparse.ArgumentParser(add_help=False)
    box_flags.add_argument("--n", type=int, help="modulus")
    box_flags.add_argument("--t", type=int, help="coefficient of y")
    box_flags.add_argument("--a", type=int, help="constant term")
    box_flags.add_argument("--X", help="bound on |x|: rational or sqrt(q)")
    box_flags.add_argument("--Y", help="bound on |y|: rational or sqrt(q)")

    top = _Parser(prog="capclass",
                  description="capacity classifier for two-variable linear "
                              "congruences with size bounds")
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("analyze", parents=[fmt, box_flags],
                       help="construct line, assemble adelic set, classify")
    p.add_argument("--json", help="read the instance from a JSON file")
    p.add_argument("--check-oracle", action="store_true",
                   help="append brute-force solution list")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("hnp", parents=[fmt],
                       help="certify a hidden-number secret from two samples")
    for flag in ("c0", "d0", "c1", "d1", "n"):
        p.add_argument("--" + flag, type=int, required=True)
    p.add_argument("--X", required=True, help="error budget: |c_i*s - d_i| <= X/2")
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(func=cmd_hnp)

    p = sub.add_parser("census", parents=[fmt],
                       help="estimate capacity>1 / capacity=0 proportions")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--c", required=True, help="box scale: X = Y = c*sqrt(p)")
    p.add_argument("--w", default="1/24")
    p.add_argument("--z", default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", choices=("full", "gt1", "zero"), default="full",
                   help="sampling window: full set, capacity>1 corner, "
                        "capacity=0 corner")
    p.add_argument("--no-records", action="store_true",
                   help="omit per-triple records from the output")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("search", parents=[box_flags],
                       help="enumerate box solutions (newline-delimited JSON)")
    p.add_argument("--ring", default="Z", choices=sorted(RING_ALIASES),
                   help="ring to search over (default Z)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("capacity", parents=[fmt],
                       help="capacity of D(0,r) intersect D(1,s) directly")
    p.add_argument("--r", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--check-oracle", action="store_true")
    p.add_argument("--fekete", type=int, default=400,
                   help="Fekete point count for --check-oracle")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("bound", parents=[fmt],
                       help="box feasibility calculator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.set_defaults(func=cmd_bound)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError, RuntimeError,
            json.JSONDecodeError, BoxTooLarge) as exc:
        sys.stderr.write(f"capclass: error: {exc}\n")
        return 1
    except FactoringBudgetExceeded as exc:
        sys.stderr.write(f"capclass: refused: {exc}\n")
        return 2
    finally:
        elapsed = (time.perf_counter() - started) * 1000.0
        sys.stderr.write(f"elapsed_ms={elapsed:.1f}\n")


if __name__ == "__main__":
    sys.exit(main())
