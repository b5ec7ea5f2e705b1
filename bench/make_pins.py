"""Write pins.json: the outcomes of a fixed set of ops per workload, which
every benchmark run replays and compares (see README.md, "Pinned outcomes").

    python3 bench/make_pins.py

Run it only when the pinned inputs themselves should change; it refuses to
pin an op whose output fails its checks.
"""
import json
import signal
import sys

import run
from workloads import WORKLOADS

PIN_SEED = 0
PIN_CYCLES = {"analyze-skewed": 2, "hnp-prime": 6, "census-wide": 4,
              "search-rings": 1}


def main() -> int:
    cli = run.use_source_tree()
    from checks import outcome, problems
    signal.signal(signal.SIGALRM, run._on_alarm)
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = []
        for i in range(PIN_CYCLES[name] * workload.cycle):
            op = workload.make(PIN_SEED, i)
            result = run.run_op(cli.main, op.argv)
            found = problems(op, result)
            if found:
                sys.exit(f"refusing to pin {' '.join(op.argv)}: {found}")
            pins[name].append({"argv": list(op.argv), "secret": op.secret,
                               "outcome": outcome(op, result)})
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
