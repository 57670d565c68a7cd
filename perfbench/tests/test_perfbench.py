"""The benchmark's own checks: each output check is shown to be live
by one planted wrong answer, and BENCHMARK.json is checked against
the metric tables the runner prints.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import layers
import run
from sim_workloads import SimLeaseChurn, SimShardSplit
from tracer import Tracer
from wire_zipf import WireZipf

from repro.model.entities import UNDEFINED_ENTITY, ObjectEntity
from repro.model.names import ROOT_NAME
from repro.nameservice.resolver import DistributedResolver
from repro.transport.aio import Address

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SmallShardSplit(SimShardSplit):
    """The shard workload at a tenth of its size, for quick tests."""

    names_count = 20_000
    setups = 2
    warmup_ops = 2_000
    determinism_ops = 1_000


class SmallLeaseChurn(SimLeaseChurn):
    setups = 2
    warmup_ops = 500
    determinism_ops = 500


@pytest.fixture
def wire():
    workload = WireZipf()
    dep = workload.setup(3)
    yield workload, dep
    workload.teardown(dep)
    workload.close()


# -- BENCHMARK.json -------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        text = f.read()
    bench = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert bench["command"][1].startswith("perfbench/")
    seconds = bench["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60
    workloads = bench["workloads"]
    assert [w["name"] for w in workloads] == [
        "wire_zipf", "sim_shard_split", "sim_lease_churn"]
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER.items())
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] == ("higher" if metric["name"]
                                    in layers.HIGHER_IS_BETTER else "lower")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in bench[key])


# -- planted wrong answers --------------------------------------------------

def test_wire_lookup_check_is_live(wire):
    workload, dep = wire
    assert workload.run(dep, max_ops=200).failed == 0
    # Plant: rebind the hottest leaf in place on the server, outside
    # the rebind protocol, to an entity no rebind ever installed.
    top, sub, leaf = dep.paths[0]
    root = dep.service.root.state
    root(top).state(sub).state.bind(leaf, ObjectEntity("planted"))
    window = workload.run(dep, max_ops=300)
    assert window.failed > 0
    assert "/".join(dep.paths[0]) in window.problems[0]


def test_wire_frames_dropped_check_is_live(wire):
    workload, dep = wire
    workload.run(dep, max_ops=50)
    assert workload.final_problems(dep) == []
    # Plant: a frame to an endpoint label the server does not have.
    address = dep.service.address

    async def send_astray():
        dep.clients[0].endpoint.send(
            Address(address.host, address.port, "nobody"), payload={"x": 1})

    workload.loop.run_until_complete(send_astray())
    workload.run(dep, max_ops=50)
    assert "frames_dropped" in workload.final_problems(dep)[0]


def test_shard_split_resolve_check_is_live(monkeypatch):
    workload = SmallShardSplit()
    dep = workload.setup(2)
    assert workload.run(dep, max_ops=500).failed == 0
    original = DistributedResolver.resolve
    calls = {"n": 0}

    def wrong_once(self, *args, **kwargs):
        entity, cost = original(self, *args, **kwargs)
        calls["n"] += 1
        return (UNDEFINED_ENTITY if calls["n"] == 7 else entity), cost

    monkeypatch.setattr(DistributedResolver, "resolve", wrong_once)
    assert workload.run(dep, max_ops=100).failed == 1


def test_shard_split_partition_check_is_live():
    workload = SmallShardSplit()
    dep = workload.setup(2)
    workload.run(dep, max_ops=3_000)
    assert workload.final_problems(dep) == []
    shard_map = dep.resolver.placement.shard_map_of(dep.directory)
    shard_map.shards[-1].hi -= 1  # plant: an unowned hash value
    assert "is_partition" in workload.final_problems(dep)[0]


def test_lease_churn_resolve_check_is_live():
    workload = SmallLeaseChurn()
    dep = workload.setup(4)
    assert workload.run(dep, max_ops=1_000).failed == 0
    # Plant: swap the hottest subtree in place, bypassing rebind(), so
    # no lease breaks and cached prefixes keep the old version (with
    # no further rebinds, which would swap it back through the leases).
    _path, i, sub, _leaf, j = dep.paths[0]
    first, second = dep.versions[(i, j)]
    context = dep.tops[i].state
    context.bind(sub, second if context(sub) is first else first)
    workload.rebind_share = 0.0
    assert workload.run(dep, max_ops=300).failed > 0


def test_lease_churn_audit_check_is_live():
    workload = SmallLeaseChurn()
    dep = workload.setup(4)
    workload.run(dep, max_ops=500)
    assert workload.final_problems(dep) == []
    # Plant: the auditor sees a read that returned a top directory 100
    # time units after it was replaced, claimed coherent under
    # INVALIDATE (whose bound is the 6-unit delivery slack).
    root = dep.contexts[0](ROOT_NAME)
    top = root.state("d0")
    now = dep.simulator.clock.now
    dep.auditor.record_write(root, "d0", top, ObjectEntity("planted"),
                             now, 0)
    dep.auditor.observe_resolution(dep.contexts[0], "/d0", top,
                                   now=now + 100.0, policy="invalidate")
    assert "violations" in workload.final_problems(dep)[0]


def test_determinism_check_is_live():
    workload = SmallLeaseChurn()
    problems: list[str] = []
    dep, seconds, counts = run.first_setup(workload, 5, problems)
    run.more_setups(workload, 5, [seconds], counts, problems)
    assert problems == []
    # Plant: a second deployment that does different work (another seed).
    run.more_setups(workload, 6, [seconds], counts, problems)
    assert problems and problems[0].startswith("determinism")


def test_reconciliation_catches_overlapping_spans():
    tracer = Tracer()
    name = tracer.name_id("x:root")
    for start, end in ((0, 60), (40, 100)):  # two roots that overlap
        tracer.span_name.append(name)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
        tracer.span_parent.append(-1)
        tracer.span_op.append(-1)
    assert tracer.analyse(0, 100).reconcile_error == pytest.approx(0.2)
    tracer.span_start[1] = 60  # now disjoint
    assert tracer.analyse(0, 100).reconcile_error == 0.0


def test_run_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(run, "make_workload", lambda _name: SmallLeaseChurn())
    original = DistributedResolver.resolve
    calls = {"n": 0}

    def wrong_sometimes(self, *args, **kwargs):
        entity, cost = original(self, *args, **kwargs)
        calls["n"] += 1
        return (UNDEFINED_ENTITY if calls["n"] % 97 == 0 else entity), cost

    monkeypatch.setattr(DistributedResolver, "resolve", wrong_sometimes)
    status = run.main(["--workload", "sim_lease_churn", "--seed", "1",
                       "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] > 0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- the traced run's heavy/light predictions ---------------------------------

@pytest.mark.parametrize("workload", [SmallShardSplit, SmallLeaseChurn,
                                      WireZipf])
def test_traced_run_predictions(workload):
    bench = workload()
    args = SimpleNamespace(seed=1, seconds=1.0)
    problems: list[str] = []
    try:
        window, metrics, units = run.per_layer(bench, args, problems)
    finally:
        if hasattr(bench, "close"):
            bench.close()
    assert problems == []
    assert set(metrics) == set(units) == set(layers.PER_LAYER)
    assert metrics["trace.reconcile_error"] < 0.01
    transport = [v for k, v in metrics.items() if k.startswith("transport.")]
    hashes = metrics["nameservice.sharding.binding_hash_calls_per_lookup"]
    if bench.name == "wire_zipf":
        assert metrics["sim.kernel.messages_per_op"] == 0
        assert metrics["nameservice.protocol.requests_per_lookup"] == 3
        assert metrics["transport.framing.frames_per_lookup"] > 6
    else:
        assert not any(transport)
        assert metrics["sim.kernel.messages_per_op"] > 0
    if bench.name == "sim_shard_split":
        assert hashes > 0
        assert metrics["nameservice.sharding.splits"] > 0
    if bench.name == "sim_lease_churn":
        assert hashes == 0
        assert metrics["obs.audit.observed"] > 0
        assert metrics["nameservice.leases.callbacks_per_rebind"] > 0
