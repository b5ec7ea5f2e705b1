"""capclass benchmark: seeded CLI workloads, end-to-end metrics, and a
traced run for per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload analyze-skewed --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1      # every workload, one fresh process each

One client in a closed loop, no threads: each op is one in-process call of
``capclass.cli.main(argv)`` with stdout and stderr captured, and the next op
starts when the previous one has been checked. Only the ``main`` call is
timed; output checks run between ops. A run measures until its timed ops add
up to ``--seconds`` and the current cycle of workload slots is complete.
Reported times are scaled to a reference CPU speed (see REFERENCE_KERNEL_S).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it give the same numbers with
their units, the run's metadata and the exit-code histogram. See README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"

OP_DEADLINE_S = 5.0
RUN_BUDGET_S = 150.0  # no op starts later than this after the session opens
SETUP_RUNS = 5
PROBE_OPS = 3
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10

E2E_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# Speed calibration. The vCPUs of the shared host this benchmark was built on
# switch between two speeds about 1.8x apart every few seconds, so raw times
# of one op repeated for a minute spread by a third. A fixed exact-rational
# kernel that runs no capclass code is timed next to each measurement (just
# before and after each op; after the import for setup_s), and the measured
# time is scaled by REFERENCE_KERNEL_S over the kernel's time, which cancels
# most of the host's speed state. Every reported time is such a reference
# time: what the work takes where the kernel takes REFERENCE_KERNEL_S (about
# the host's usual speed). Unscaled wall times are printed beside them.
KERNEL_STEPS = 200
REFERENCE_KERNEL_S = 0.0025


class Deadline(BaseException):
    """Raised inside an op that overran OP_DEADLINE_S. A BaseException, so
    that an ``except Exception`` in the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline


@dataclass
class Result:
    exit_code: object
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str]  # uncaught exception, SystemExit or timeout
    scale: float = 1.0  # ref seconds per wall second while the op ran


def kernel_seconds() -> float:
    """Wall time of the calibration kernel (see REFERENCE_KERNEL_S)."""
    start = time.perf_counter()
    a, b = Fraction(1, 3), Fraction(7, 11)
    for i in range(KERNEL_STEPS):
        a = ((a * b + Fraction(i, 13)) / (b + 1)).limit_denominator(10**12)
    return time.perf_counter() - start


def run_op(main, argv) -> Result:
    """One CLI invocation, contained: a traceback, SystemExit or overrun
    becomes ``error`` instead of ending the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = main(list(argv))
    except Deadline:
        error = f"timeout after {OP_DEADLINE_S} s"
    except SystemExit as exc:
        exit_code, error = exc.code, f"SystemExit: {exc.code}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Result(exit_code, out.getvalue(), err.getvalue(), seconds, error)


def tail_percentile(count: int):
    """Highest percentile in PERCENTILES with at least MIN_BEYOND of
    ``count`` samples above its nearest-rank index, as (percentile, index,
    samples beyond); the median when no percentile qualifies."""
    best = (50, (count - 1) // 2, count - 1 - (count - 1) // 2)
    for p in PERCENTILES:
        index = -(-round(p * 10) * count // 1000) - 1  # ceil(p% of count) - 1
        beyond = count - 1 - index
        if beyond >= MIN_BEYOND:
            best = (p, index, beyond)
    return best


class Session:
    """Runs and checks ops, and keeps the tallies of one workload run."""

    def __init__(self, workload, cli, problems):
        self.workload = workload
        self.cli = cli  # main is looked up per op, so the tracer's patch applies
        self.problems = problems
        self.stop_at = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.exit_codes = Counter()
        self.first_problems = []

    def run(self, op: Op, tracer=None, op_id=None) -> Result:
        before = kernel_seconds()
        if tracer is not None:
            tracer.begin(op_id)
        result = run_op(self.cli.main, op.argv)
        if tracer is not None:
            tracer.active = False
            tracer.counts["cli.output_bytes"] += len(result.stdout)
        result.scale = 2 * REFERENCE_KERNEL_S / (before + kernel_seconds())
        self.record(op, self.problems(op, result))
        self.exit_codes["error" if result.error else str(result.exit_code)] += 1
        return result

    def record(self, op: Op, found: list) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            if len(self.first_problems) < 5:
                self.first_problems.append((" ".join(op.argv), found))

    def timed_pass(self, seed: int, seconds: float = 0, count=None,
                   tracer=None) -> list:
        """(wall seconds, scale) of ops 0, 1, ..., for ``count`` ops or
        until ``seconds`` of timed wall time and a complete cycle, unless
        the run budget runs out first."""
        cycle = self.workload.cycle
        timings, busy = [], 0.0
        while (len(timings) < count if count is not None
               else busy < seconds or len(timings) % cycle):
            if time.monotonic() > self.stop_at:
                break
            i = len(timings)
            result = self.run(self.workload.make(seed, i), tracer, i)
            timings.append((result.seconds, result.scale))
            busy += result.seconds
        return timings

    def pinned(self, pins: list) -> None:
        """Replay the pinned ops (also the warm-up) and compare outcomes."""
        from checks import outcome
        for pin in pins:
            if time.monotonic() > self.stop_at:
                break
            op = Op(tuple(pin["argv"]), pin.get("secret"))
            result = run_op(self.cli.main, op.argv)
            found = self.problems(op, result)
            got = outcome(op, result)
            if got != pin["outcome"]:
                found = found + [f"pinned outcome {pin['outcome']}, got {got}"]
            self.record(op, found)


# ---------------------------------------------------------------------------
# environment


def use_source_tree():
    """Import capclass from this checkout's src/, or exit without a result."""
    if not (SRC / "capclass" / "cli.py").is_file():
        sys.exit(f"bench: no capclass sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import capclass.cli
    if Path(capclass.cli.__file__).resolve().parent != SRC / "capclass":
        sys.exit(f"bench: imported capclass from {capclass.cli.__file__}, "
                 f"not from {SRC}")
    return capclass.cli


def measure_setup() -> tuple:
    """Median (reference, wall) seconds for a fresh interpreter to import
    capclass.cli; the calibration kernel runs after the import."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
            "t = time.perf_counter(); import capclass.cli; "
            "t = time.perf_counter() - t; from run import kernel_seconds; "
            "print(t, sum(kernel_seconds() for _ in range(3)) / 3)")
    ref, wall = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)],
                              capture_output=True, text=True, check=True,
                              timeout=60, cwd=ROOT)
        if k:  # the first import may write bytecode caches
            seconds, kernel = map(float, done.stdout.split())
            ref.append(seconds * REFERENCE_KERNEL_S / kernel)
            wall.append(seconds)
    return statistics.median(ref), statistics.median(wall)


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import mpmath
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__, "git_sha": git_sha()}


# ---------------------------------------------------------------------------
# runs


def load_pins(name: str) -> list:
    return json.loads(PINS.read_text()).get(name, [])


def latency_metrics(seconds: list) -> dict:
    ordered = sorted(seconds)
    _, index, _ = tail_percentile(len(ordered))
    return {"throughput_ops_s": len(ordered) / sum(ordered),
            "latency_p50_ms": 1000.0 * statistics.median(ordered),
            "latency_tail_ms": 1000.0 * ordered[index]}


def run_workload(args) -> int:
    cli = use_source_tree()
    from checks import problems
    from tracer import Tracer, layer_metrics, unit

    workload = WORKLOADS[args.workload]
    meta = metadata(args)
    setup = measure_setup() if not args.trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    session = Session(workload, cli, problems)
    session.pinned(load_pins(workload.name))

    lines = []
    if args.trace:
        untraced = session.timed_pass(args.seed, args.seconds / 2)
        with Tracer() as tracer:
            traced = session.timed_pass(args.seed, count=len(untraced),
                                        tracer=tracer)
        metrics = layer_metrics(
            tracer, [scale for _, scale in traced],
            sum(t * scale for t, scale in untraced[:len(traced)]),
            sum(t * scale for t, scale in traced))
        units = {name: unit(name) for name in metrics}
        meta["ops"] = len(traced)
    else:
        timings = session.timed_pass(args.seed, args.seconds)
        metrics = latency_metrics([t * scale for t, scale in timings])
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup[0]
        units = E2E_UNITS
        p, _, beyond = tail_percentile(len(timings))
        wall = latency_metrics([t for t, _ in timings])
        wall["setup_s"] = setup[1]
        meta.update(ops=len(timings), setup_runs=SETUP_RUNS,
                    tail={"percentile": p, "samples_beyond": beyond},
                    wall=wall, median_scale=statistics.median(
                        scale for _, scale in timings))
        lines.append(f"tail: p{p} of {len(timings)} ops, {beyond} beyond")
        lines.append("unscaled wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in wall.items()))
    meta["exit_codes"] = dict(sorted(session.exit_codes.items()))
    ratio = session.failed / session.attempted
    lines.append(f"failure_ratio {ratio:.6g} ({session.failed} of "
                 f"{session.attempted} ops, pinned replays included)")

    if workload.probe is not None:
        probe = [run_op(cli.main, workload.probe(args.seed, i).argv)
                 for i in range(PROBE_OPS)]
        errors = Counter((r.error or f"exit {r.exit_code}").split(":")[0]
                         for r in probe)
        meta["known_defect_probe"] = dict(errors)
        lines.append(f"known-defect probe, {PROBE_OPS} {workload.probe.__name__}"
                     f" ops, not counted above: {dict(errors)}")

    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:50s} {value:14.6g} {units[name]}")
    for line in lines:
        print(line)
    for argv, found in session.first_problems:
        print(f"FAILED {argv}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, so each peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
