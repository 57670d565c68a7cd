"""Delivery: a handler consumes each message; only a process without
one queues messages for ``receive()``.

The resolver's directory servers and the caching service's agents do
their work inline in the walk, so they install a handler and keep no
delivered hop message — a long run leaves every one of their
mailboxes empty.
"""

from __future__ import annotations

import random

from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy, CachingDirectoryService
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.nameservice.sharding import ShardManager
from repro.sim.kernel import Simulator
from repro.workloads.zipf import ZipfSampler, build_zipf_namespace

RETRY = RetryPolicy(max_attempts=3, base_backoff=0.5, max_backoff=1.0)
INLINE_PREFIXES = ("dirserver@", "cacheagent@")


def inline_mailboxes(machines) -> dict[str, int]:
    return {process.label: len(process.mailbox)
            for machine in machines for process in machine.processes()
            if process.label.startswith(INLINE_PREFIXES)}


class TestKernelDelivery:
    def test_handler_consumes_every_message(self):
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        sender = simulator.spawn(machine, "s")
        receiver = simulator.spawn(machine, "r")
        seen = []
        receiver.on_message(lambda _process, message:
                            seen.append(message.payload))
        for index in range(20):
            sender.send(receiver, payload=index, latency=1.0)
        simulator.run()
        assert seen == list(range(20))
        assert len(receiver.mailbox) == 0
        assert receiver.receive() is None

    def test_process_without_handler_receives_in_order(self):
        simulator = Simulator(seed=0)
        machine = simulator.machine(simulator.network())
        sender = simulator.spawn(machine, "s")
        receiver = simulator.spawn(machine, "r")
        for index in range(20):
            sender.send(receiver, payload=index, latency=1.0)
        simulator.run()
        assert len(receiver.mailbox) == 20
        received = []
        while (message := receiver.receive()) is not None:
            received.append(message.payload)
        assert received == list(range(20))


class TestInlineServersKeepNothing:
    def test_sharded_lease_resolver_leaves_mailboxes_empty(self):
        simulator = Simulator(seed=3)
        network = simulator.network("lan")
        pool = [simulator.machine(network, f"s{i}") for i in range(4)]
        client_machines = [simulator.machine(network, f"client{i}")
                           for i in range(2)]
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "hot", count=400,
                                         distinct=16)
        placement = DirectoryPlacement()
        placement.place(tree.root, client_machines[0])
        placement.place_sharded(namespace.directory, *pool[:2],
                                replicas=2)
        resolver = DistributedResolver(
            simulator, placement, cache_policy=CachePolicy.LEASE,
            cache_ttl=10_000.0, retry_policy=RETRY, lease_term=20.0)
        resolver.shard_manager = ShardManager(
            resolver, pool=pool, split_fraction=0.3, check_every=50,
            min_window=25)
        clients = [simulator.spawn(machine, f"c{i}")
                   for i, machine in enumerate(client_machines)]
        context = ProcessContext(tree.root)
        sampler = ZipfSampler(400, rng=random.Random(3))
        rng = random.Random(4)
        directory, names = namespace.directory, namespace.names
        for op in range(300):
            name_ = names[sampler.sample()]
            draw = rng.random()
            if draw < 0.05:
                # Rewriting ``/hot`` breaks the clients' prefix leases.
                resolver.rebind(tree.root, "hot", directory)
                simulator.run()
            elif draw < 0.2:
                entity = ObjectEntity(f"{name_}#v{op}")
                resolver.rebind(directory, name_, entity)
                simulator.run()
                assert directory.state(name_) is entity
            else:
                resolver.resolve(clients[op % 2], context,
                                 "/hot/" + name_)
        assert resolver.shard_splits > 0
        assert resolver.lease_stats()["server_acks"] > 0
        depths = inline_mailboxes(pool + client_machines)
        assert any(label.startswith("dirserver@") for label in depths)
        assert all(depth == 0 for depth in depths.values()), depths

    def test_leased_caching_service_leaves_mailboxes_empty(self):
        simulator = Simulator(seed=5)
        network = simulator.network("lan")
        server = simulator.machine(network, "server")
        clients = [simulator.machine(network, f"client{i}")
                   for i in range(3)]
        tree = NamingTree("root", sigma=simulator.sigma)
        namespace = build_zipf_namespace(tree, "reg", count=50,
                                         distinct=50)
        placement = DirectoryPlacement()
        placement.place(namespace.directory, server)
        service = CachingDirectoryService(
            simulator, placement, policy=CachePolicy.LEASE, ttl=20.0,
            retry_policy=RETRY)
        rng = random.Random(6)
        directory, names = namespace.directory, namespace.names
        for op in range(300):
            name_ = rng.choice(names)
            if rng.random() < 0.2:
                service.rebind(directory, name_,
                               ObjectEntity(f"{name_}#v{op}"))
            else:
                service.lookup(clients[op % 3], directory, name_)
        assert service.stats()["lease_acks"] > 0
        depths = inline_mailboxes([server] + clients)
        assert any(label.startswith("cacheagent@") for label in depths)
        assert all(depth == 0 for depth in depths.values()), depths
