"""The two simulator workloads: ``sim_shard_split``, ``sim_lease_churn``.

Both drive :class:`~repro.nameservice.resolver.DistributedResolver`
from one client loop in this process.  Inputs come from the seed only:
a Zipf rank stream and an operation-type stream, drawn one operation
at a time, so a run of any length is a prefix of the same sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Optional

from common import Window
from tracer import current_op

from repro.model.context import Context, context_object
from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.sharding import ShardManager, binding_hash
from repro.obs.audit import CoherenceAuditor
from repro.obs.instrument import Instrumentation
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from repro.workloads.zipf import ZipfSampler, build_zipf_namespace

#: Kernel trace ring: a long run keeps the newest entries only, so
#: memory does not grow with the number of operations measured.  Small
#: enough to fill during warm-up.
TRACE_ENTRIES = 16_384
#: Span ring of the lease workload's instrumentation, same reason.
MAX_SPANS = 16_384


@dataclass(kw_only=True)
class SimDeployment:
    simulator: Simulator
    resolver: DistributedResolver
    sampler: ZipfSampler
    rng: random.Random
    machines: list
    auditor: Optional[CoherenceAuditor] = None
    next_op: int = 0


@dataclass(kw_only=True)
class ShardDeployment(SimDeployment):
    client: Any
    context: Context
    directory: Any
    names: list[str]
    drift: random.Random
    offset: int = 0


@dataclass(kw_only=True)
class LeaseDeployment(SimDeployment):
    clients: list
    contexts: list
    tops: list
    versions: dict
    paths: list


class SimWorkload:
    """Common parts: a serial operation loop, counters, checks."""

    name = ""
    deterministic = True
    rebind_share = 0.0

    def teardown(self, dep: SimDeployment) -> None:
        """Nothing to close: the simulator holds no OS resources."""

    def run(self, dep: SimDeployment, *, max_ops: Optional[int] = None,
            seconds: Optional[float] = None) -> Window:
        """Run operations until *max_ops* are done or *seconds* pass."""
        window = Window()
        limit = max_ops if max_ops is not None else 1 << 62
        deadline = (perf_counter_ns() + int(seconds * 1e9)
                    if seconds is not None else 1 << 62)
        window.start_ns = perf_counter_ns()
        self._loop(dep, window, limit, deadline)
        window.end_ns = perf_counter_ns()
        return window

    def _loop(self, dep: SimDeployment, window: Window, limit: int,
              deadline: int) -> None:
        raise NotImplementedError

    def counters(self, dep: SimDeployment) -> dict[str, int]:
        resolver = dep.resolver
        counts = {
            "kernel.messages": dep.simulator.messages_sent,
            "sharding.splits": resolver.shard_splits,
            "sharding.merges": resolver.shard_merges,
            "sharding.migration_messages": resolver.migration_messages,
            "leases.callback_messages": resolver.invalidation_messages,
            # Delivered messages stay in their receiver's mailbox:
            # nothing in the resolver drains them.
            "kernel.retained_messages": sum(
                len(process.mailbox) for machine in dep.machines
                for process in machine.processes()),
        }
        cache = resolver.cache_stats()
        counts["cache.hits"] = cache["hits"]
        counts["cache.misses"] = cache["misses"]
        counts["cache.invalidations"] = cache["invalidations"]
        if resolver.leases is not None:
            for key in ("grants", "renewals", "acks", "breaks"):
                counts[f"leases.{key}"] = getattr(resolver.leases, key)
        if dep.auditor is not None:
            auditor = dep.auditor
            counts["audit.observed"] = auditor.observed
            counts["audit.writes"] = auditor.writes
            counts["audit.violations"] = auditor.violation_count
            counts["audit.stale"] = sum(
                auditor.by_verdict.get(verdict, 0) for verdict in
                ("stale_declared", "stale_allowed", "violation"))
        return counts

    def work_counts(self, dep: SimDeployment) -> dict[str, Any]:
        """What the determinism self-check compares between two runs
        of the same seed (plus the binding_hash count it adds)."""
        counts = self.counters(dep)
        counts["kernel.clock"] = dep.simulator.clock.now
        return counts

    def holder_alive(self, dep: SimDeployment, lease: Any) -> bool:
        # The resolver names lease holders by id(machine).
        return any(id(machine) == lease.machine_id and machine.alive
                   for machine in dep.machines)

    def final_problems(self, dep: SimDeployment) -> list[str]:
        problems = []
        if dep.auditor is not None and dep.auditor.violation_count:
            problems.append(f"obs.audit.violations == "
                            f"{dep.auditor.violation_count}, expected 0")
        return problems


class SimShardSplit(SimWorkload):
    """200,000 names in one flat directory, sharded with replicas=2 on
    8 machines, live splits and merges, no cache; one serial client
    resolving Zipf(1.0) names, 5% of operations rebinding one.

    Ranks map to names in hash order, so the hot names share a hash
    range, and the hot range drifts: every :attr:`drift_every`
    operations the mapping moves by a seeded offset.  With names
    scattered by hash and a static law, the shard map settles within
    the first few thousand operations; a drifting hot range keeps
    splits (new hot range) and merges (old one cooling) happening in
    the measured window.
    """

    name = "sim_shard_split"
    names_count = 200_000
    pool_size = 8
    skew = 1.0
    rebind_share = 0.05
    drift_every = 10_000
    #: Low enough that the map reaches its cap during warm-up; from
    #: then on every check window splits one shard and merges one
    #: pair, so the measured window is in a steady state.
    max_shards = 24
    setups = 3
    warmup_ops = 20_000
    determinism_ops = 12_000

    def setup(self, seed: int) -> ShardDeployment:
        simulator = Simulator(seed=seed,
                              trace=TraceLog(max_entries=TRACE_ENTRIES))
        network = simulator.network("lan")
        pool = [simulator.machine(network, f"shard{i}")
                for i in range(self.pool_size)]
        client_machine = simulator.machine(network, "client-m")
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "hot",
                                         count=self.names_count)
        placement = DirectoryPlacement()
        placement.place(tree.root, client_machine)
        placement.place_sharded(namespace.directory, *pool, replicas=2)
        resolver = DistributedResolver(simulator, placement)
        resolver.shard_manager = ShardManager(
            resolver, pool=pool, split_fraction=0.2, merge_fraction=0.02,
            check_every=1_000, min_window=100, max_shards=self.max_shards)
        return ShardDeployment(
            simulator=simulator, resolver=resolver,
            sampler=ZipfSampler(self.names_count, skew=self.skew,
                                rng=random.Random(seed)),
            rng=random.Random(seed ^ 0x5EED),
            machines=pool + [client_machine],
            drift=random.Random(seed ^ 0xD71F7),
            client=simulator.spawn(client_machine, "client"),
            context=ProcessContext(tree.root),
            directory=namespace.directory,
            names=sorted(namespace.names, key=binding_hash))

    def _loop(self, dep: ShardDeployment, window: Window, limit: int,
              deadline: int) -> None:
        resolve, rebind = dep.resolver.resolve, dep.resolver.rebind
        drain = dep.simulator.run
        client, context = dep.client, dep.context
        directory, names = dep.directory, dep.names
        current = directory.state
        sample, draw = dep.sampler.sample, dep.rng.random
        lookup_lat, lookup_end = window.lookup_lat, window.lookup_end
        rebind_lat, rebind_end = window.rebind_lat, window.rebind_end
        share = self.rebind_share
        count, drift_every = len(names), self.drift_every
        offset = dep.offset
        hops = 0
        op = dep.next_op
        stop = op + limit
        clock = perf_counter_ns
        while op < stop and clock() < deadline:
            current_op.set(op)
            if op % drift_every == 0:
                offset = dep.offset = dep.drift.randrange(count)
            name = names[(sample() + offset) % count]
            if draw() < share:
                entity = ObjectEntity(f"{name}#v{op}")
                start = clock()
                rebind(directory, name, entity)
                drain()
                end = clock()
                rebind_lat.append(end - start)
                rebind_end.append(end)
                if current(name) is not entity:
                    window.fail(f"op {op}: rebind of {name} not applied")
            else:
                path = "/hot/" + name
                start = clock()
                entity, cost = resolve(client, context, path)
                end = clock()
                lookup_lat.append(end - start)
                lookup_end.append(end)
                hops += cost.messages
                if entity is not current(name) or cost.failed:
                    window.fail(f"op {op}: {path} resolved to {entity!r}, "
                                f"bound to {current(name)!r}")
            op += 1
        dep.next_op = op
        window.hops += hops

    def final_problems(self, dep: ShardDeployment) -> list[str]:
        problems = super().final_problems(dep)
        shard_map = dep.resolver.placement.shard_map_of(dep.directory)
        if shard_map is None or not shard_map.is_partition():
            problems.append("ShardMap.is_partition() is False")
        return problems


class SimLeaseChurn(SimWorkload):
    """4 servers, 8 client machines, LEASE caching with a 300-unit
    term, audited; 16 replicated top directories × 8 subdirectories ×
    32 leaves.  90% resolves from a random client, 10% swaps one
    subdirectory binding to its pre-built other version."""

    name = "sim_lease_churn"
    tops_count, subdirs, leaves = 16, 8, 32
    servers_count, clients_count = 4, 8
    skew = 0.9
    lease_term = 300.0
    rebind_share = 0.10
    setups = 7
    warmup_ops = 5_000
    determinism_ops = 2_000

    def setup(self, seed: int) -> LeaseDeployment:
        auditor = CoherenceAuditor()
        obs = Instrumentation(max_spans=MAX_SPANS, auditor=auditor)
        simulator = Simulator(seed=seed, obs=obs,
                              trace=TraceLog(max_entries=TRACE_ENTRIES))
        lan, srv = simulator.network("lan"), simulator.network("srv")
        servers = [simulator.machine(srv, f"server{i}")
                   for i in range(self.servers_count)]
        machines = [simulator.machine(lan, f"client{i}")
                    for i in range(self.clients_count)]
        tree = NamingTree("root", sigma=simulator.sigma)
        placement = DirectoryPlacement()
        placement.place_replicated(tree.root, servers[0], servers[1])
        count = self.servers_count
        tops, versions = [], {}
        for i in range(self.tops_count):
            top = tree.mkdir(f"d{i}")
            placement.place_replicated(top, servers[i % count],
                                       servers[(i + 1) % count])
            tops.append(top)
            for j in range(self.subdirs):
                pair = []
                for version, offset in (("a", 0), ("b", 2)):
                    sub = context_object(f"d{i}/s{j}@{version}")
                    for k in range(self.leaves):
                        sub.state.bind(f"n{k}", ObjectEntity(
                            f"d{i}/s{j}/n{k}@{version}"))
                    placement.place(sub, servers[(i + j + offset) % count])
                    pair.append(sub)
                top.state.bind(f"s{j}", pair[0])
                versions[(i, j)] = tuple(pair)
        resolver = DistributedResolver(simulator, placement,
                                       cache_policy=CachePolicy.LEASE,
                                       lease_term=self.lease_term)
        clients = [simulator.spawn(machine, f"proc{n}")
                   for n, machine in enumerate(machines)]
        total = self.tops_count * self.subdirs * self.leaves
        # Rank → leaf through a seeded permutation, so the hot leaves
        # spread over directories and servers instead of all sitting
        # in /d0/s0.
        order = list(range(total))
        random.Random(seed).shuffle(order)
        paths = []
        for rank in range(total):
            leaf = order[rank]
            i, rest = divmod(leaf, self.subdirs * self.leaves)
            j, k = divmod(rest, self.leaves)
            paths.append((f"/d{i}/s{j}/n{k}", i, f"s{j}", f"n{k}", j))
        return LeaseDeployment(
            simulator=simulator, resolver=resolver,
            sampler=ZipfSampler(total, skew=self.skew,
                                rng=random.Random(seed)),
            rng=random.Random(seed ^ 0x5EED),
            machines=servers + machines,
            clients=clients,
            contexts=[ProcessContext(tree.root) for _ in clients],
            tops=tops, versions=versions, paths=paths, auditor=auditor)

    def _loop(self, dep: LeaseDeployment, window: Window, limit: int,
              deadline: int) -> None:
        resolve, rebind = dep.resolver.resolve, dep.resolver.rebind
        drain = dep.simulator.run
        clients, contexts = dep.clients, dep.contexts
        tops, versions, paths = dep.tops, dep.versions, dep.paths
        sample, draw = dep.sampler.sample, dep.rng.random
        lookup_lat, lookup_end = window.lookup_lat, window.lookup_end
        rebind_lat, rebind_end = window.rebind_lat, window.rebind_end
        share = self.rebind_share
        nclients = len(clients)
        hops = 0
        op = dep.next_op
        stop = op + limit
        clock = perf_counter_ns
        while op < stop and clock() < deadline:
            current_op.set(op)
            path, i, sub, leaf, j = paths[sample()]
            top = tops[i].state
            if draw() < share:
                first, second = versions[(i, j)]
                target = second if top(sub) is first else first
                start = clock()
                rebind(tops[i], sub, target)
                drain()
                end = clock()
                rebind_lat.append(end - start)
                rebind_end.append(end)
                if top(sub) is not target:
                    window.fail(f"op {op}: swap of /d{i}/{sub} not applied")
            else:
                who = int(draw() * nclients)
                start = clock()
                entity, cost = resolve(clients[who], contexts[who], path)
                end = clock()
                drain()
                lookup_lat.append(end - start)
                lookup_end.append(end)
                hops += cost.messages
                expected = top(sub).state(leaf)
                if entity is not expected or cost.failed:
                    window.fail(f"op {op}: {path} resolved to {entity!r}, "
                                f"bound to {expected!r}")
            op += 1
        dep.next_op = op
        window.hops += hops
