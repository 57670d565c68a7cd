"""Naming-service benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire_zipf --seed 1 \
        --seconds 10 --trace 0

Workloads: ``wire_zipf`` (the service over loopback TCP),
``sim_shard_split`` (sharded resolution with live splits and merges)
and ``sim_lease_churn`` (leased prefix caches under subtree swaps).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced, then again with every layer's public functions
wrapped in spans, and reports the per-layer metrics.  Each metric is
printed as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails, 2 when the program cannot be found.
See ``perfbench/README.md`` for what each workload loads and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from time import perf_counter_ns

from common import peak_rss_mb, percentile
from tracer import Probe, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics, every workload: name → unit.
END_TO_END = {
    "lookups_per_s": "1/s",
    "lookup_p50_us": "us",
    "lookup_p90_us": "us",
    "rebind_p50_us": "us",
    "rebind_p90_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")


class GcTimer:
    """Wall time the cyclic garbage collector runs, via gc.callbacks."""

    def __init__(self) -> None:
        self.ns = 0
        self._start = 0

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = perf_counter_ns()
        else:
            self.ns += perf_counter_ns() - self._start

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)


def make_workload(name: str):
    """The workload object (imported late: it needs the program)."""
    if name == "wire_zipf":
        from wire_zipf import WireZipf
        return WireZipf()
    from sim_workloads import SimLeaseChurn, SimShardSplit
    return {cls.name: cls for cls in (SimShardSplit, SimLeaseChurn)}[name]()


def timed_setup(workload, seed: int):
    start = perf_counter_ns()
    dep = workload.setup(seed)
    return dep, (perf_counter_ns() - start) / 1e9


def checked_run(workload, dep, problems: list, **limits):
    """Run operations; every check failure counts, warm-up included."""
    window = workload.run(dep, **limits)
    problems.extend(window.problems)
    return window


def work_counts(workload, dep, problems: list) -> dict:
    """Run the determinism prefix and return its work counts,
    counting ``binding_hash`` calls with a probe removed afterwards."""
    import repro.nameservice.sharding as sharding
    counter = Tracer()
    counter.install([Probe(sharding, "binding_hash", "binding_hash",
                           "count")])
    try:
        checked_run(workload, dep, problems,
                    max_ops=workload.determinism_ops)
    finally:
        counter.uninstall()
    counts = workload.work_counts(dep)
    counts["sharding.binding_hash_calls"] = counter.counts["binding_hash"]
    return counts


def first_setup(workload, seed: int, problems: list) -> tuple:
    """Set up the deployment to measure; on the simulator workloads
    also run the determinism prefix on it and return its counts."""
    dep, seconds = timed_setup(workload, seed)
    counts = (work_counts(workload, dep, problems)
              if workload.deterministic else None)
    return dep, seconds, counts


def more_setups(workload, seed: int, times: list, counts, problems: list,
                ) -> float:
    """Set up again until ``workload.setups`` set-ups are timed, once
    the measured deployment is gone (so its peak memory is its own);
    returns the median set-up time.  The second deployment of a
    simulator workload re-runs the determinism prefix, whose work
    counts must match the first's exactly."""
    for rep in range(len(times), workload.setups):
        dep, seconds = timed_setup(workload, seed)
        times.append(seconds)
        if counts is not None and rep == 1:
            again = work_counts(workload, dep, problems)
            if again != counts:
                differ = sorted(key for key in counts
                                if counts[key] != again.get(key))
                problems.append(f"determinism: same seed, different "
                                f"work counts in {differ}")
        workload.teardown(dep)
        gc.collect()
    return statistics.median(times)


def measure(workload, dep, seconds: float, problems: list) -> tuple:
    """Warm up, then run for *seconds*; returns the window and the
    peak memory after warm-up.

    Memory is read after a fixed number of operations (the determinism
    prefix and the warm-up), not after the timed window: the simulator
    keeps every delivered message in its receiver's mailbox, so memory
    grows with operations done, and a faster program would otherwise
    read as a memory regression.
    """
    checked_run(workload, dep, problems, max_ops=workload.warmup_ops)
    gc.collect()
    rss = peak_rss_mb()
    return checked_run(workload, dep, problems, seconds=seconds), rss


def end_to_end(workload, args, problems: list) -> tuple:
    dep, seconds, counts = first_setup(workload, args.seed, problems)
    window, rss = measure(workload, dep, args.seconds, problems)
    problems.extend(workload.final_problems(dep))
    workload.teardown(dep)
    del dep
    gc.collect()
    setup_s = more_setups(workload, args.seed, [seconds], counts, problems)
    metrics = {
        "lookups_per_s": window.lookups_per_s(),
        "lookup_p50_us": window.sliced_percentile("lookup", 0.50) / 1e3,
        "lookup_p90_us": window.sliced_percentile("lookup", 0.90) / 1e3,
        "rebind_p50_us": window.sliced_percentile("rebind", 0.50) / 1e3,
        # Whole window: too few rebinds per slice on wire_zipf.
        "rebind_p90_us": percentile(window.rebind_lat, 0.90) / 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    print(f"# {workload.name}: {window.lookups} lookups, "
          f"{window.rebinds} rebinds in {args.seconds:g} s; "
          f"failed_ratio {window.failed / max(1, window.ops):.6f}")
    return window, metrics, END_TO_END


def per_layer(workload, args, problems: list) -> tuple:
    """Untraced half, then traced half; per-layer metrics of the
    traced one."""
    import layers
    half = args.seconds / 2
    dep, seconds, counts = first_setup(workload, args.seed, problems)
    untraced, _ = measure(workload, dep, half, problems)
    problems.extend(workload.final_problems(dep))
    workload.teardown(dep)
    del dep
    gc.collect()
    more_setups(workload, args.seed, [seconds], counts, problems)

    tracer = Tracer()
    acc = layers.Accumulators(holder_alive=None)
    tracer.install(layers.probes(acc))
    try:
        setup_start = perf_counter_ns()
        dep = workload.setup(args.seed)
        setup = layers.setup_metrics(
            tracer, tracer.analyse(setup_start, perf_counter_ns()))
        acc.holder_alive = lambda lease: workload.holder_alive(dep, lease)
        if hasattr(workload, "trace_instances"):
            workload.trace_instances(tracer, dep, acc.on_select)
        checked_run(workload, dep, problems, max_ops=workload.warmup_ops)
        gc.collect()
        before = workload.counters(dep)
        counts_before = dict(tracer.counts)
        acc_before = dict(acc.values)
        tracer.clear()
        with GcTimer() as collector:
            start = perf_counter_ns()
            window = checked_run(workload, dep, problems, seconds=half)
            end = perf_counter_ns()
        after = workload.counters(dep)
    finally:
        tracer.uninstall()
    problems.extend(workload.final_problems(dep))
    workload.teardown(dep)
    analysis = tracer.analyse(start, end)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    metrics = layers.per_layer_metrics(
        tracer=tracer, analysis=analysis,
        counts={k: v - counts_before.get(k, 0)
                for k, v in tracer.counts.items()},
        delta=delta,
        acc={k: v - acc_before[k] for k, v in acc.values.items()},
        lookups=window.lookups, rebinds=window.rebinds,
        hops=window.hops, failed=window.failed, gc_ns=collector.ns,
        setup=setup,
        untraced_rate=untraced.lookups_per_s(),
        traced_rate=window.lookups_per_s())
    if metrics["trace.reconcile_error"] > 0.01:
        problems.append(f"trace: layer self times + other miss the "
                        f"wall time by {metrics['trace.reconcile_error']:.2%}")
    os.makedirs(SPANS_DIR, exist_ok=True)
    tracer.write(os.path.join(SPANS_DIR, f"spans-{workload.name}.tsv"))
    print(f"# {workload.name} traced: {analysis.spans} spans, "
          f"{window.lookups} lookups, {window.rebinds} rebinds in "
          f"{half:g} s; layer self time per op: " + ", ".join(
              f"{layer} {metrics[layer + '.self_us_per_op']:.2f} us"
              for layer in layers.LAYERS
              if metrics[layer + ".self_us_per_op"]))
    return window, metrics, layers.PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire_zipf", "sim_shard_split",
                                 "sim_lease_churn"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources are missing "
              f"({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = make_workload(args.workload)
    problems: list[str] = []
    try:
        run = per_layer if args.trace else end_to_end
        window, metrics, units = run(workload, args, problems)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, window.ops),
        "failed": window.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
