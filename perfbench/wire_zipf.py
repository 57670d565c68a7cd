"""The ``wire_zipf`` workload: the naming service over loopback TCP.

One asyncio loop in this process hosts a default
:class:`~repro.transport.service.NamingService` serving
16 × 16 × 64 = 16,384 leaves, and two
:class:`~repro.transport.service.RemoteNameClient` connections drive
it.  Sixteen closed-loop users (8 per connection) each wait for their
reply before sending the next operation: 95% lookups of a Zipf(0.9)
name, 5% rebinds of a leaf drawn from the same law.  Both connections
hold leases on the 64 hottest leaf bindings and take each one again
as soon as a break callback revokes it.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Optional

from common import Window
from tracer import Tracer, current_op

from repro.model.context import context_object
from repro.model.entities import ObjectEntity
from repro.transport.service import NamingService, RemoteNameClient
from repro.workloads.zipf import ZipfSampler

DIRS, SUBDIRS, LEAVES = 16, 16, 64
USERS_PER_CONNECTION = 8
CONNECTIONS = 2
LEASED = 64


@dataclass
class WireDeployment:
    service: NamingService
    clients: list[RemoteNameClient]
    sampler: ZipfSampler
    rng: random.Random
    paths: list[tuple[str, ...]]
    #: Labels a lookup of each path may return: the original leaf and
    #: every version a rebind has installed.
    allowed: list[set[str]]
    retakes: set = field(default_factory=set)
    misrouted_replies: int = 0
    next_op: int = 0


def build_tree() -> Any:
    """The served namespace; leaves are labelled with their path."""
    root = context_object("root")
    for i in range(DIRS):
        top = context_object(f"d{i}")
        root.state.bind(f"d{i}", top)
        for j in range(SUBDIRS):
            sub = context_object(f"d{i}/s{j}")
            top.state.bind(f"s{j}", sub)
            for k in range(LEAVES):
                sub.state.bind(f"n{k}", ObjectEntity(f"d{i}/s{j}/n{k}"))
    return root


class WireZipf:
    name = "wire_zipf"
    deterministic = False
    skew = 0.9
    rebind_share = 0.05
    setups = 5
    warmup_ops = 1_000

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.close()

    # -- set-up ----------------------------------------------------------

    def setup(self, seed: int) -> WireDeployment:
        return self.loop.run_until_complete(self._setup(seed))

    async def _setup(self, seed: int) -> WireDeployment:
        service = NamingService(build_tree(), seed=seed)
        address = await service.start()
        clients = []
        for index in range(CONNECTIONS):
            client = RemoteNameClient([(address.host, address.port)],
                                      seed=seed * CONNECTIONS + index,
                                      timeout=30.0, label="client")
            await client.connect()
            clients.append(client)
        total = DIRS * SUBDIRS * LEAVES
        order = list(range(total))
        random.Random(seed).shuffle(order)
        paths = []
        for rank in range(total):
            i, rest = divmod(order[rank], SUBDIRS * LEAVES)
            j, k = divmod(rest, LEAVES)
            paths.append((f"d{i}", f"s{j}", f"n{k}"))
        dep = WireDeployment(
            service=service, clients=clients,
            sampler=ZipfSampler(total, skew=self.skew,
                                rng=random.Random(seed)),
            rng=random.Random(seed ^ 0x5EED), paths=paths,
            allowed=[{"/".join(path)} for path in paths])
        for client in clients:
            await self._hold_leases(dep, client)
        return dep

    async def _hold_leases(self, dep: WireDeployment,
                           client: RemoteNameClient) -> None:
        """Lease the hottest leaf bindings, and re-take each lease as
        soon as a break callback revokes it."""
        parents: dict[tuple[str, str], Any] = {}
        for path in dep.paths[:LEASED]:
            parent = parents.get(path[:2])
            if parent is None:
                outcome = await client.resolve("/" + "/".join(path[:2]))
                parent = parents[path[:2]] = outcome.entity
            await client.lease(client.dep_for(parent, path[2]))
        handler = client.endpoint._handler

        def retake_after_break(endpoint: Any, envelope: Any) -> None:
            handler(endpoint, envelope)
            body = envelope.payload.get("lease") \
                if isinstance(envelope.payload, dict) else None
            if isinstance(body, dict) and body.get("op") == "break":
                task = self.loop.create_task(
                    client.lease(tuple(body["dep"])))
                dep.retakes.add(task)
                task.add_done_callback(dep.retakes.discard)

        client.endpoint.on_message(retake_after_break)

    def teardown(self, dep: WireDeployment) -> None:
        self.loop.run_until_complete(self._teardown(dep))

    async def _teardown(self, dep: WireDeployment) -> None:
        if dep.retakes:
            await asyncio.gather(*dep.retakes)
        for client in dep.clients:
            await client.aclose()
        await dep.service.aclose()

    # -- operations ------------------------------------------------------

    def run(self, dep: WireDeployment, *, max_ops: Optional[int] = None,
            seconds: Optional[float] = None) -> Window:
        return self.loop.run_until_complete(
            self._run(dep, max_ops, seconds))

    async def _run(self, dep: WireDeployment, max_ops: Optional[int],
                   seconds: Optional[float]) -> Window:
        window = Window()
        stop = dep.next_op + (max_ops if max_ops is not None else 1 << 62)
        window.start_ns = perf_counter_ns()
        deadline = (window.start_ns + int(seconds * 1e9)
                    if seconds is not None else 1 << 62)
        users = [self._user(dep, client, window, stop, deadline)
                 for client in dep.clients
                 for _ in range(USERS_PER_CONNECTION)]
        await asyncio.gather(*users)
        window.end_ns = min(deadline, perf_counter_ns())
        return window

    async def _user(self, dep: WireDeployment, client: RemoteNameClient,
                    window: Window, stop: int, deadline: int) -> None:
        sample, draw = dep.sampler.sample, dep.rng.random
        clock = perf_counter_ns
        while dep.next_op < stop and clock() < deadline:
            op = dep.next_op
            dep.next_op += 1
            current_op.set(op)
            index = sample()
            path = dep.paths[index]
            if draw() < self.rebind_share:
                label = "/".join(path) + f"#v{op}"
                dep.allowed[index].add(label)
                start = clock()
                reply = await client.rebind(list(path), label=label)
                end = clock()
                window.rebind_lat.append(end - start)
                window.rebind_end.append(end)
                if "error" in reply:
                    window.fail(f"op {op}: rebind {path}: {reply['error']}")
                elif reply.get("path") != list(path):
                    # Replies are matched to callers by op name, first
                    # in first out: overlapping rebinds on one
                    # connection can hand a caller another rebind's
                    # report.  Counted, not failed.
                    dep.misrouted_replies += 1
            else:
                start = clock()
                outcome = await client.resolve("/" + "/".join(path))
                end = clock()
                if end <= deadline:
                    window.lookup_end.append(end)
                window.lookup_lat.append(end - start)
                label = getattr(outcome.entity, "label", None)
                if not outcome.ok or label not in dep.allowed[index]:
                    window.fail(f"op {op}: /{'/'.join(path)} gave "
                                f"{outcome.entity!r} ok={outcome.ok}")

    # -- observation -----------------------------------------------------

    def counters(self, dep: WireDeployment) -> dict[str, int]:
        service = dep.service
        transports = [service.transport] + [c.transport
                                            for c in dep.clients]
        counts = {
            "protocol.requests": service.server.requests_served,
            "protocol.late_replies": sum(c.client.late_replies
                                         for c in dep.clients),
            "aio.frames_sent": sum(t.frames_sent for t in transports),
            "aio.frames_dropped": sum(t.frames_dropped
                                      for t in transports),
            "leases.late_acks": service.acks.late_acks,
            "service.misrouted_replies": dep.misrouted_replies,
        }
        for key in ("grants", "renewals", "acks", "breaks"):
            counts[f"leases.{key}"] = getattr(service.leases, key)
        return counts

    def holder_alive(self, dep: WireDeployment, lease: Any) -> bool:
        holder = dep.service._holders.get(lease.machine_id)
        return holder is not None and not holder.conn.closed

    def final_problems(self, dep: WireDeployment) -> list[str]:
        dropped = self.counters(dep)["aio.frames_dropped"]
        if dropped:
            return [f"transport.aio.frames_dropped == {dropped}, "
                    f"expected 0"]
        return []

    def trace_instances(self, tracer: Tracer, dep: WireDeployment,
                        on_select: Any) -> None:
        """Wrap what only exists per instance: the loop's selector and
        the handler each endpoint registered with ``on_message``."""
        tracer.wrap_attribute(self.loop._selector, "select",
                              "transport.aio:select",
                              on_result=on_select)
        service = dep.service
        tracer.wrap_attribute(service.server.endpoint, "_handler",
                              "nameservice.protocol:handler.lookupd")
        tracer.wrap_attribute(service.ctl, "_handler",
                              "transport.service:handler.ctl")
        for client in dep.clients:
            tracer.wrap_attribute(client.endpoint, "_handler",
                                  "nameservice.protocol:handler.client")
