"""The socket naming service end-to-end, in-process.

The unchanged ``AsyncNameClient``/``NameLookupServer`` code resolving
real names over real localhost TCP: lookups, undefined names, lease
grant → rebind → break-callback → ack, and replica failover on the
resend path.
"""

from __future__ import annotations

import asyncio
import socket

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.nameservice.retry import RetryPolicy
from repro.transport.service import NamingService, RemoteNameClient

FAST_RETRY = RetryPolicy(max_attempts=3, base_backoff=0.02,
                         max_backoff=0.1)


def build_root(marker: str = "python3"):
    root = context_object("root")
    usr = context_object("usr")
    bin_ = context_object("bin")
    root.state.bind("usr", usr)
    usr.state.bind("bin", bin_)
    bin_.state.bind("python", ObjectEntity(marker))
    root.state.bind("etc", context_object("etc"))
    return root


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run(coroutine):
    return asyncio.run(coroutine)


async def start_pair(**client_kwargs):
    service = NamingService(build_root(), retry_policy=FAST_RETRY)
    address = await service.start()
    client = RemoteNameClient([(address.host, address.port)],
                              retry_policy=FAST_RETRY, **client_kwargs)
    await client.connect()
    return service, client


class TestLookups:
    def test_resolves_over_localhost(self):
        async def scenario():
            service, client = await start_pair()
            try:
                outcome = await client.resolve("/usr/bin/python")
                assert outcome.ok
                assert outcome.entity.label == "python3"
                assert outcome.steps == 4  # root + usr + bin + python
                assert service.server.requests_served == 3
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_missing_name_is_undefined_not_failed(self):
        async def scenario():
            service, client = await start_pair()
            try:
                outcome = await client.resolve("/usr/bin/ghost")
                assert not outcome.ok and not outcome.failed
                assert not outcome.entity.is_defined()
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_proxies_are_stable_across_lookups(self):
        async def scenario():
            service, client = await start_pair()
            try:
                first = (await client.resolve("/usr/bin/python")).entity
                second = (await client.resolve("/usr/bin/python")).entity
                assert first is second
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_concurrent_lookups_interleave(self):
        async def scenario():
            service, client = await start_pair()
            try:
                outcomes = await asyncio.gather(
                    client.resolve("/usr/bin/python"),
                    client.resolve("/etc"),
                    client.resolve("/usr/bin/nope"))
                assert [o.ok for o in outcomes] == [True, True, False]
                assert client.client.outstanding() == 0
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())


class TestLeases:
    def test_rebind_breaks_lease_over_the_socket(self):
        async def scenario():
            service, client = await start_pair()
            try:
                root = client.root
                dep = client.dep_for(root, "usr")
                await client.lease(dep)
                now = client.transport.now()
                assert client.lease_table.fresh(dep, now)
                report = await client.rebind(["usr"], label="usr-v2",
                                             directory=True)
                assert report["notified"] == 1
                assert report["broken"] == 0
                assert client.client.lease_callbacks == 1
                assert not client.lease_table.fresh(
                    dep, client.transport.now())
                assert service.leases.stats()["acks"] == 1
                # The rebound directory is visible; the old subtree
                # is gone.
                fresh = await client.resolve("/usr")
                assert fresh.ok and fresh.entity.label == "usr-v2"
                stale = await client.resolve("/usr/bin/python")
                assert not stale.ok
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())

    def test_departed_holder_breaks_not_hangs(self):
        """A holder that disconnected can't ack: the fan-out must
        break its lease after the retry budget, not wait forever."""
        async def scenario():
            service = NamingService(
                build_root(), ack_timeout=0.05,
                retry_policy=RetryPolicy(max_attempts=2,
                                         base_backoff=0.01,
                                         max_backoff=0.02))
            address = await service.start()
            holder = RemoteNameClient([(address.host, address.port)],
                                      retry_policy=FAST_RETRY,
                                      label="holder")
            await holder.connect()
            dep = holder.dep_for(holder.root, "usr")
            await holder.lease(dep)
            await holder.aclose()       # gone — break cannot deliver
            await asyncio.sleep(0.05)

            driver = RemoteNameClient([(address.host, address.port)],
                                      retry_policy=FAST_RETRY,
                                      label="driver")
            await driver.connect()
            try:
                report = await driver.rebind(["usr"], label="usr-v2",
                                             directory=True)
                assert report["notified"] == 0
                assert report["broken"] == 1
                assert service.leases.stats()["breaks"] == 1
            finally:
                await driver.aclose()
                await service.aclose()
        run(scenario())

    def test_overlapping_rebinds_of_one_lease_each_get_their_ack(self):
        """Two fan-outs break the same live lease at once: each must
        be answered by its own ack, so neither times out and the
        holder that did ack keeps its lease unbroken."""
        async def scenario():
            service = NamingService(build_root(), ack_timeout=2.0)
            address = await service.start()
            client = RemoteNameClient([(address.host, address.port)])
            await client.connect()
            try:
                await client.lease(client.dep_for(client.root, "etc"))
                reports = await asyncio.gather(
                    client.rebind(["etc"], label="etc-v2",
                                  directory=True),
                    client.rebind(["etc"], label="etc-v3",
                                  directory=True))
                for report in reports:
                    assert report["notified"] == 1
                    assert report["broken"] == 0
                assert service.acks.late_acks == 0
                assert service.leases.breaks == 0
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())


class TestControlPlane:
    def test_overlapping_rebind_replies_reach_their_callers(self):
        """A slow rebind (a leased binding: break plus ack) and a fast
        one (unleased) share one connection; each caller must get the
        report for its own path."""
        async def scenario():
            service, client = await start_pair()
            try:
                await client.lease(client.dep_for(client.root, "usr"))
                slow, fast = await asyncio.gather(
                    client.rebind(["usr"], label="usr-v2",
                                  directory=True),
                    client.rebind(["etc"], label="etc-v2",
                                  directory=True))
                assert slow["path"] == ["usr"]
                assert slow["notified"] == 1
                assert fast["path"] == ["etc"]
                assert fast["notified"] == 0
                assert client.unmatched_ctl_replies == 0
            finally:
                await client.aclose()
                await service.aclose()
        run(scenario())


class TestFailover:
    def test_resend_fails_over_to_live_replica(self):
        """Primary address is dead: the first step times out, the
        resend retargets to the live replica, the lookup completes."""
        async def scenario():
            service = NamingService(build_root(),
                                    retry_policy=FAST_RETRY)
            address = await service.start()
            dead = ("127.0.0.1", free_port())
            client = RemoteNameClient(
                [dead, (address.host, address.port)],
                timeout=0.1, max_retries=3, retry_policy=FAST_RETRY)
            # connect() must also try the replica list in order; the
            # dead primary would hang hello, so connect to the live
            # one directly and splice the dead address in front of
            # the router for the lookup path.
            live = RemoteNameClient([(address.host, address.port)],
                                    timeout=0.1, max_retries=3,
                                    retry_policy=FAST_RETRY)
            await live.connect()
            live.router.addresses.insert(
                0, type(live.router.addresses[0])(
                    dead[0], dead[1], live.router.addresses[0].label))
            live.router.cursor = 0
            try:
                outcome = await live.resolve("/usr/bin/python",
                                             timeout=30)
                assert outcome.ok
                assert outcome.entity.label == "python3"
                assert outcome.retries >= 1
                assert live.router.failovers >= 1
                assert live.transport.frames_dropped >= 1
            finally:
                await live.aclose()
                await client.aclose()
                await service.aclose()
        run(scenario())
