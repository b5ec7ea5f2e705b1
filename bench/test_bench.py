"""Self-tests for the benchmark (not part of the library's test suite):

    python3 -m pytest bench/test_bench.py
"""
import importlib
import json
import pkgutil
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

CLI = run.use_source_tree()


def argvs(name, seed):
    workload = WORKLOADS[name]
    return [workload.make(seed, i).argv for i in range(3 * workload.cycle)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_argv(name):
    assert argvs(name, 7) == argvs(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_argv(name):
    first, second = argvs(name, 7), argvs(name, 8)
    assert all(a != b for a, b in zip(first, second))


def test_probe_is_seeded():
    probe = WORKLOADS["hnp-prime"].probe
    assert probe(3, 0) == probe(3, 0) != probe(4, 0)


def _module_state():
    import capclass
    mods = [capclass] + [importlib.import_module(f"capclass.{m.name}")
                         for m in pkgutil.iter_modules(capclass.__path__)]
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    ring_cls = importlib.import_module("capclass.rings").SearchRing
    state[("SearchRing", "elements_in_disk_congruent")] = \
        ring_cls.elements_in_disk_congruent
    return state


def test_traced_run_restores_every_wrapped_function():
    from checks import problems
    from tracer import Tracer

    signal.signal(signal.SIGALRM, run._on_alarm)
    before = _module_state()
    session = run.Session(WORKLOADS["analyze-skewed"], CLI, problems)
    ops = [
        ("analyze", "--n", "101", "--t", "69", "--a", "36",
         "--X", "sqrt(101/4)", "--Y", "sqrt(101/4)"),
        ("census", "--p", "10007", "--c", "3/5", "--w", "1", "--z", "1/4",
         "--samples", "5", "--seed", "1"),
        ("search", "--ring", "Z[i]", "--n", "101", "--t", "69", "--a", "36",
         "--X", "6", "--Y", "6"),
    ]
    with Tracer() as tracer:
        during = _module_state()
        for i, argv in enumerate(ops):
            session.run(Op(argv), tracer, i)
    changed = [k for k in before if during[k] is not before[k]]
    assert len(changed) > len(tracer.targets())  # names imported elsewhere too
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert session.failed == 0, session.first_problems
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "lattice.find_auxiliary_line", "census.run_census",
            "search.enumerate_solutions", "adelic.prime_factors"} <= names
    assert tracer.counts["rings.elements_in_disk_congruent.yielded"] > 0


def test_tail_percentile_leaves_ten_beyond():
    for count in range(1, 30000):
        p, index, beyond = run.tail_percentile(count)
        assert 0 <= index < count and beyond == count - 1 - index
        if count >= 2 * run.MIN_BEYOND:
            assert beyond >= run.MIN_BEYOND, count
        for q in run.PERCENTILES:  # no higher percentile qualifies
            k = -(-round(q * 10) * count // 1000) - 1
            if q > p:
                assert count - 1 - k < run.MIN_BEYOND, (count, q)


def test_declared_metrics_match_the_output():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    from tracer import Tracer, layer_metrics, unit

    tracer = Tracer()
    tracer.spans.append(("cli.main", 0.0, 1.0, None, 0))
    per_layer = layer_metrics(tracer, [1.0], 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit(name) for name in per_layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
