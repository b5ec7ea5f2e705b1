"""Span tracer for the benchmark's traced run.

``Tracer`` patches the public functions of each pipeline module, from
outside: every module attribute that holds such a function is replaced by a
wrapper, including the names other modules imported (``from .lattice import
find_auxiliary_line`` binds the function in ``classify`` and ``census`` too),
and restored on exit. Nothing under ``src/`` changes.

Each wrapped call records one span (name, start, end, parent span, op id);
spans stay in memory until ``layer_metrics`` reads them after the run. A
few wrappers also read counts off the return value. ``active`` is false
outside the ops, so output checks run through the wrappers untraced.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# modules whose public functions are layer boundaries; exact and model are
# helpers shared by every layer and are not wrapped, except prime_factors
# where the adelic stage calls it
LAYER_MODULES = ("lattice", "adelic", "capacity", "intervals", "census",
                 "classify", "search")
EXTRA = (("adelic", "prime_factors", "adelic.prime_factors"),
         ("cli", "main", "cli.main"))

VERDICTS = {"METHOD_CAN_SUCCEED": "can", "METHOD_CANNOT_SUCCEED": "cannot",
            "BOUNDARY": "boundary"}
CASES = ("lens", "disk0", "disk1", "concentric", "empty", "disk", "tangent")


def _module(name: str):
    # import_module, not attribute access: capclass.classify is shadowed by
    # the classify function the package re-exports
    return importlib.import_module(f"capclass.{name}")


def _observers():
    box_points = _module("search").box_points_estimate
    ring_z = _module("rings").RING_Z

    def in_box(counts, result, args, kwargs):
        counts["lattice.in_box"] += len(result)

    def primes(counts, result, args, kwargs):
        counts["adelic.exceptional_primes"] += len(result)

    def case(counts, result, args, kwargs):
        counts[f"capacity.case.{result.arch_case}"] += 1

    def verdict(counts, result, args, kwargs):
        counts[f"classify.verdict.{VERDICTS[result.kind.value]}"] += 1

    def status(counts, result, args, kwargs):
        counts[f"classify.status.{result.status.value.lower()}"] += 1

    def records(counts, result, args, kwargs):
        counts["census.records"] += len(result.records)

    def solutions(counts, result, args, kwargs):
        instance = args[0]
        ring = args[1] if len(args) > 1 else kwargs.get("ring", ring_z)
        counts["search.solutions"] += len(result)
        counts["search.box_points_estimate"] += box_points(
            ring, instance.X.sq, instance.Y.sq)

    return {"lattice.enumerate_admissible": in_box,
            "adelic.exceptional_primes": primes,
            "capacity.global_capacity": case,
            "classify.classify": verdict,
            "classify.certify_unique_secret": status,
            "census.run_census": records,
            "search.enumerate_solutions": solutions}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or None, op id)
        self.counts = Counter()
        self.op = None
        self.active = False
        self._stack = []
        self._undo = []  # (owner, attribute, original)

    def begin(self, op: int) -> None:
        """Start tracing op ``op``; a deadline may have cut the last op short."""
        self.op = op
        self._stack.clear()
        self.active = True

    def targets(self):
        """(qualified name, defining module, attribute) of every wrapped
        function."""
        out = []
        for mod_name in LAYER_MODULES:
            mod = _module(mod_name)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    out.append((f"{mod_name}.{attr}", mod, attr))
        for mod_name, attr, name in EXTRA:
            out.append((name, _module(mod_name), attr))
        return out

    def __enter__(self):
        observers = _observers()
        holders = [_module(n) for n in LAYER_MODULES + ("cli",)]
        holders.append(importlib.import_module("capclass"))
        try:
            for name, mod, attr in self.targets():
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original, observers.get(name))
                # adelic.prime_factors is patched only where adelic looks it up
                scope = [mod] if name == "adelic.prime_factors" else holders
                for holder in scope:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, key, original))
                            setattr(holder, key, wrapper)
            ring_cls = _module("rings").SearchRing
            original = ring_cls.elements_in_disk_congruent
            self._undo.append((ring_cls, "elements_in_disk_congruent", original))
            ring_cls.elements_in_disk_congruent = self._count_yields(
                "rings.elements_in_disk_congruent.yielded", original)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        self.active = False
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        return False

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if observe is not None:
                observe(tracer.counts, result, args, kwargs)
            return result

        return traced

    def _count_yields(self, key, gen_fn):
        tracer = self

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            if not tracer.active:
                yield from gen_fn(*args, **kwargs)
                return
            for item in gen_fn(*args, **kwargs):
                tracer.counts[key] += 1
                yield item

        return counted


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "ms_per" in name:
        return "ms"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, scales: list, untraced_s: float,
                  traced_s: float) -> dict:
    """Per-layer metrics from the spans and counts of the traced ops; span
    times are scaled to ref seconds by ``scales[op id]``."""
    ops = len(scales)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    covered = defaultdict(float)  # time of each span's direct children
    # a deadline can interrupt a wrapper before it fills its slot
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s is not None]
    for _, (name, start, end, parent, op) in spans:
        if parent is not None:
            covered[parent] += (end - start) * scales[op]
    for index, (name, start, end, _, op) in spans:
        total[name] += (end - start) * scales[op]
        own[name] += (end - start) * scales[op] - covered[index]
        calls[name] += 1
    counts = tracer.counts
    op_time = total["cli.main"]

    def ms(name):
        return 1000.0 * total[name] / ops

    def per_op(key):
        return counts[key] / ops

    m = {
        "lattice.find_auxiliary_line.ms_per_op": ms("lattice.find_auxiliary_line"),
        "lattice.enumerate_admissible.self_ms_per_op":
            1000.0 * own["lattice.enumerate_admissible"] / ops,
        "lattice.lll_reduce.ms_per_op": ms("lattice.lll_reduce"),
        "lattice.in_box_per_op": per_op("lattice.in_box"),
        "lattice.share": total["lattice.find_auxiliary_line"] / op_time,
        "adelic.assemble.ms_per_op": ms("adelic.assemble"),
        "adelic.prime_factors.ms_per_op": ms("adelic.prime_factors"),
        "adelic.exceptional_primes_per_op": per_op("adelic.exceptional_primes"),
        "adelic.share": total["adelic.assemble"] / op_time,
        "capacity.global_capacity.ms_per_op": ms("capacity.global_capacity"),
        "capacity.lens_value.ms_per_call":
            (1000.0 * total["capacity.lens_value"] / calls["capacity.lens_value"]
             if calls["capacity.lens_value"] else 0.0),
        "capacity.census_capacity_bound.ms_per_op":
            ms("capacity.census_capacity_bound"),
    }
    for case in CASES:
        m[f"capacity.case.{case}"] = per_op(f"capacity.case.{case}")
    m["intervals.iv_context.calls_per_op"] = calls["intervals.iv_context"] / ops
    m["census.run_census.self_ms_per_op"] = 1000.0 * own["census.run_census"] / ops
    m["census.records_per_op"] = per_op("census.records")
    m["classify.run_pipeline.ms_per_op"] = ms("classify.run_pipeline")
    m["classify.certify_unique_secret.ms_per_op"] = \
        ms("classify.certify_unique_secret")
    for kind in VERDICTS.values():
        m[f"classify.verdict.{kind}"] = per_op(f"classify.verdict.{kind}")
    for status in ("at_most_one", "inconclusive"):
        m[f"classify.status.{status}"] = per_op(f"classify.status.{status}")
    m["search.enumerate_solutions.ms_per_op"] = ms("search.enumerate_solutions")
    m["rings.elements_in_disk_congruent.yielded_per_op"] = \
        per_op("rings.elements_in_disk_congruent.yielded")
    m["search.solutions_per_op"] = per_op("search.solutions")
    estimate = counts["search.box_points_estimate"]
    m["search.hit_ratio"] = counts["search.solutions"] / estimate if estimate else 0.0
    m["cli.self_ms_per_op"] = 1000.0 * own["cli.main"] / ops
    m["cli.output_bytes_per_op"] = per_op("cli.output_bytes")
    m["trace.overhead_ratio"] = traced_s / untraced_s
    return m
