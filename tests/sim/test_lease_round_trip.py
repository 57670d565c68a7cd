"""The simulator's lease break → ack round trip, pinned on both
caching services.

``CachingDirectoryService`` and ``DistributedResolver`` break leases
through the same per-holder round trip: send the break from the
binding's host, settle it, revoke at the holder, send and settle the
ack, record it.  Each case below runs on both services under LEASE
with a three-attempt retry policy and compares the deltas of the
counters a rebind moves.  Where the services differ (a crashed host)
each keeps its own behaviour, and the expectation says so.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.namespaces.base import ProcessContext
from repro.namespaces.tree import NamingTree
from repro.nameservice.cache import CachePolicy, CachingDirectoryService
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.retry import RetryPolicy
from repro.sim.failures import FailureInjector
from repro.sim.kernel import Simulator

RETRY = RetryPolicy(max_attempts=3, base_backoff=0.5, max_backoff=1.0)
TERM = 50.0


class PartitionOnBreak:
    """A gateway that cuts the holder off the moment a break lands,
    so the break is delivered and the ack is dropped."""

    def __init__(self, simulator, first, second):
        self.simulator, self.first, self.second = simulator, first, second

    def process(self, message):
        payload = message.payload
        body = payload.get("lease") if isinstance(payload, dict) else None
        if isinstance(body, dict) and body.get("op") == "break":
            self.simulator.partition(self.first, self.second)


# Each world has one leased binding hosted on ``host`` (network
# ``srv``) and held by ``holder`` (network ``lan``).


class CacheWorld:
    def __init__(self):
        self.simulator = simulator = Simulator(seed=0)
        self.lan, self.srv = simulator.network("lan"), simulator.network("srv")
        self.host = host = simulator.machine(self.srv, "server")
        self.holder = simulator.machine(self.lan, "holder")
        self.directory = context_object("registry")
        simulator.sigma.add(self.directory)
        v1 = ObjectEntity("svc-v1")
        simulator.sigma.add(v1)
        self.directory.state.bind("svc", v1)
        placement = DirectoryPlacement()
        placement.place(self.directory, host)
        self.service = CachingDirectoryService(
            simulator, placement, policy=CachePolicy.LEASE, ttl=TERM,
            retry_policy=RETRY)
        assert self.service.lookup(self.holder, self.directory,
                                   "svc") is v1

    def rebind(self):
        self.service.rebind(self.directory, "svc",
                            ObjectEntity("svc-v2"))

    def counters(self):
        stats = self.service.stats()
        table = self.service.lease_table_of(self.holder).stats()
        return {"losses": stats["invalidation_losses"],
                "messages": stats["invalidation_messages"],
                "latency": stats["invalidation_latency"],
                "breaks": stats["lease_breaks"],
                "acks": stats["lease_acks"],
                "revoked": table["revocations"]}


class ResolverWorld:
    def __init__(self):
        self.simulator = simulator = Simulator(seed=0)
        self.lan, self.srv = simulator.network("lan"), simulator.network("srv")
        holder = simulator.machine(self.lan, "holder")
        self.host = host = simulator.machine(self.srv, "m1")
        tree = NamingTree("root", sigma=simulator.sigma,
                          parent_links=True)
        self.svc = tree.mkdir("svc")
        tree.mkdir("svc/app")
        tree.mkfile("svc/app/cfg")
        self.spare = tree.mkdir("spare")
        placement = DirectoryPlacement()
        placement.place(tree.root, holder)
        for node in (self.svc, tree.directory("svc/app"), self.spare):
            placement.place(node, host)
        self.resolver = DistributedResolver(
            simulator, placement, cache_policy=CachePolicy.LEASE,
            cache_ttl=10_000.0, retry_policy=RETRY, lease_term=TERM)
        client = simulator.spawn(holder, "client")
        entity, _cost = self.resolver.resolve(
            client, ProcessContext(tree.root), "/svc/app/cfg")
        assert entity.label == "cfg"

    def rebind(self):
        self.resolver.rebind(self.svc, "app", self.spare)

    def counters(self):
        stats = self.resolver.lease_stats()
        return {"losses": self.resolver.invalidation_losses,
                "messages": self.resolver.invalidation_messages,
                "latency": self.resolver.invalidation_latency,
                "breaks": stats["server_breaks"],
                "acks": stats["server_acks"],
                "revoked": stats["revocations"]}


# Three attempts leave two seeded backoff waits between them; both
# services draw them from the same kernel RNG state.
BACKOFFS = 1.795041332175707


def rebind_deltas(world):
    before = world.counters()
    world.rebind()
    after = world.counters()
    return {key: after[key] - before[key] for key in after}


@pytest.fixture(params=[CacheWorld, ResolverWorld],
                ids=["cache", "resolver"])
def world(request):
    return request.param()


class TestRoundTrip:
    def test_delivered_break_and_ack(self, world):
        deltas = rebind_deltas(world)
        assert deltas == {"losses": 0, "messages": 2, "latency": 2.0,
                          "breaks": 0, "acks": 1, "revoked": 1}

    def test_break_dropped_on_every_attempt(self, world):
        world.simulator.partition(world.lan, world.srv)
        deltas = rebind_deltas(world)
        assert deltas["latency"] == pytest.approx(3.0 + BACKOFFS)
        del deltas["latency"]
        assert deltas == {"losses": 1, "messages": 3, "breaks": 1,
                          "acks": 0, "revoked": 0}

    def test_ack_dropped_revokes_without_breaking(self, world):
        world.simulator.add_gateway(
            PartitionOnBreak(world.simulator, world.lan, world.srv))
        deltas = rebind_deltas(world)
        assert deltas == {"losses": 0, "messages": 2, "latency": 2.0,
                          "breaks": 0, "acks": 0, "revoked": 1}

    def test_crashed_host(self, world):
        FailureInjector(world.simulator).crash_machine(world.host)
        if isinstance(world, CacheWorld):
            # The cache's agent on the dead host cannot send: the
            # rebind raises before any message or break is counted.
            before = world.counters()
            with pytest.raises(SimulationError, match="cannot send"):
                world.rebind()
            assert world.counters() == before
            return
        # The resolver finds nobody left to send the break: every
        # attempt fails without a message and the lease is broken.
        deltas = rebind_deltas(world)
        assert deltas["latency"] == pytest.approx(BACKOFFS)
        del deltas["latency"]
        assert deltas == {"losses": 1, "messages": 0, "breaks": 1,
                          "acks": 0, "revoked": 0}
