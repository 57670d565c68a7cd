"""Layers, their probes, and the per-layer metrics of a traced run.

Every workload reports every metric: a layer a workload does not
touch reads 0 there, which is itself a prediction (no transport work
on the simulator, no kernel messages on the wire).
"""

from __future__ import annotations

from typing import Any

from tracer import Analysis, Probe, SpanStats, Tracer

import repro.nameservice.leases as ns_leases
import repro.nameservice.sharding as sharding
import repro.transport.framing as framing
import repro.transport.leases as tr_leases
import repro.workloads.zipf as zipf
from repro.model.context import Context
from repro.nameservice.cache import PrefixCache
from repro.nameservice.leases import LeaseManager
from repro.nameservice.placement import DirectoryPlacement
from repro.nameservice.protocol import AsyncNameClient
from repro.nameservice.resolver import DistributedResolver
from repro.nameservice.sharding import ShardManager, ShardMap
from repro.obs.audit import CoherenceAuditor
from repro.sim.kernel import Simulator
from repro.transport.aio import AsyncioTransport
from repro.transport.framing import FrameDecoder
from repro.transport.leases import AckWaiter
from repro.transport.wire import WireCodec

#: Layers whose self time is reported as ``<layer>.self_us_per_op``.
LAYERS = (
    "sim.kernel", "nameservice.resolver", "nameservice.sharding",
    "nameservice.cache", "nameservice.leases", "obs.audit",
    "nameservice.protocol", "transport.framing", "transport.wire",
    "transport.aio", "transport.leases", "transport.service",
)

#: Spans of the routing step (nested calls are counted once).
ROUTE_SPANS = {"nameservice.sharding:owner_of",
               "nameservice.sharding:host_of_binding",
               "nameservice.sharding:replicas_for_binding"}
SELECT_SPAN = "transport.aio:select"
HANDLER_LABELS = ("lookupd", "ctl", "client")

#: Every per-layer metric, in output order: name → unit.  Lower is
#: better for all of them except :data:`HIGHER_IS_BETTER`.
PER_LAYER: dict[str, str] = {
    "sim.kernel.messages_per_op": "count",
    "sim.kernel.self_us_per_op": "us",
    "sim.kernel.retained_messages_per_op": "count",
    "nameservice.resolver.self_us_per_lookup": "us",
    "nameservice.resolver.hops_per_lookup": "count",
    "nameservice.resolver.rebind_self_us": "us",
    "nameservice.resolver.self_us_per_op": "us",
    "nameservice.sharding.binding_hash_calls_per_lookup": "count",
    "nameservice.sharding.route_us_per_lookup": "us",
    "nameservice.sharding.split_ms_per_split": "ms",
    "nameservice.sharding.plan_split_ms": "ms",
    "nameservice.sharding.check_us_per_lookup": "us",
    "nameservice.sharding.splits": "count",
    "nameservice.sharding.merges": "count",
    "nameservice.sharding.migration_messages": "count",
    "nameservice.sharding.self_us_per_op": "us",
    "workloads.zipf.build_s": "s",
    "model.context.bind_calls": "count",
    "nameservice.placement.place_sharded_s": "s",
    "nameservice.cache.prefix_hit_ratio": "ratio",
    "nameservice.cache.lookup_us_per_lookup": "us",
    "nameservice.cache.invalidations_per_rebind": "count",
    "nameservice.cache.self_us_per_op": "us",
    "obs.audit.observe_us_per_lookup": "us",
    "obs.audit.observed": "count",
    "obs.audit.violations": "count",
    "obs.audit.stale_read_ratio": "ratio",
    "obs.audit.self_us_per_op": "us",
    "nameservice.leases.grants_per_lookup": "count",
    "nameservice.leases.renewals_per_lookup": "count",
    "nameservice.leases.callbacks_per_rebind": "count",
    "nameservice.leases.ack_ratio": "ratio",
    "nameservice.leases.fanout_us_per_rebind": "us",
    "nameservice.leases.spurious_breaks": "count",
    "nameservice.leases.self_us_per_op": "us",
    "nameservice.protocol.requests_per_lookup": "count",
    "nameservice.protocol.server_handler_us_per_request": "us",
    "nameservice.protocol.late_replies": "count",
    "nameservice.protocol.self_us_per_op": "us",
    "transport.framing.frames_per_lookup": "count",
    "transport.framing.bytes_per_lookup": "B",
    "transport.framing.encode_us_per_frame": "us",
    "transport.framing.decode_us_per_frame": "us",
    "transport.framing.self_us_per_op": "us",
    "transport.wire.codec_us_per_frame": "us",
    "transport.wire.self_us_per_op": "us",
    "transport.aio.loop_idle_ratio": "ratio",
    "transport.aio.wakeups_per_lookup": "count",
    "transport.aio.frames_dropped": "count",
    "transport.aio.handler_us_per_frame.lookupd": "us",
    "transport.aio.handler_us_per_frame.ctl": "us",
    "transport.aio.handler_us_per_frame.client": "us",
    "transport.aio.self_us_per_op": "us",
    "transport.leases.late_acks": "count",
    "transport.leases.self_us_per_op": "us",
    "transport.service.misrouted_rebind_replies": "count",
    "transport.service.self_us_per_op": "us",
    "failed_ratio": "ratio",
    "other.self_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
    "trace.reconcile_error": "ratio",
    "runtime.gc_ratio": "ratio",
}

HIGHER_IS_BETTER = {"nameservice.cache.prefix_hit_ratio",
                    "nameservice.leases.ack_ratio", "obs.audit.observed"}


class Accumulators:
    """Values the probes pick out of results (reports, sizes, events)."""

    def __init__(self, holder_alive: Any) -> None:
        self.holder_alive = holder_alive
        self.values = {"fanout.attempts": 0, "framing.bytes": 0,
                       "framing.frames_decoded": 0, "aio.wakeups": 0,
                       "leases.spurious_breaks": 0}

    def on_fanout(self, report: Any, _args: tuple) -> None:
        self.values["fanout.attempts"] += report.attempts

    def on_frame(self, frame: bytes, _args: tuple) -> None:
        self.values["framing.bytes"] += len(frame)

    def on_feed(self, frames: list, _args: tuple) -> None:
        self.values["framing.frames_decoded"] += len(frames)

    def on_select(self, events: list, _args: tuple) -> None:
        if events:
            self.values["aio.wakeups"] += 1

    def on_break(self, _result: Any, args: tuple) -> None:
        # args = (lease_manager, lease, now)
        if self.holder_alive(args[1]):
            self.values["leases.spurious_breaks"] += 1


def probes(acc: Accumulators) -> list[Probe]:
    """Every class- and module-level probe, for any workload (a probe
    on code a workload never calls costs nothing)."""
    span, count = "span", "count"
    return [
        # set-up
        Probe(zipf, "build_zipf_namespace",
              "workloads.zipf:build_zipf_namespace"),
        Probe(zipf.ZipfSampler, "__init__", "workloads.zipf:ZipfSampler"),
        Probe(DirectoryPlacement, "place_sharded",
              "nameservice.sharding:place_sharded"),
        Probe(Context, "bind", "model.context:bind", count),
        # sim.kernel
        Probe(Simulator, "run_until_settled",
              "sim.kernel:run_until_settled"),
        Probe(Simulator, "run", "sim.kernel:run"),
        # nameservice.resolver
        Probe(DistributedResolver, "resolve", "nameservice.resolver:resolve"),
        Probe(DistributedResolver, "rebind", "nameservice.resolver:rebind"),
        # nameservice.sharding + placement
        Probe(sharding, "binding_hash", "nameservice.sharding:binding_hash",
              count),
        Probe(ShardMap, "owner_of", "nameservice.sharding:owner_of"),
        Probe(DirectoryPlacement, "host_of_binding",
              "nameservice.sharding:host_of_binding"),
        Probe(DirectoryPlacement, "replicas_for_binding",
              "nameservice.sharding:replicas_for_binding"),
        Probe(ShardMap, "plan_split", "nameservice.sharding:plan_split"),
        Probe(ShardMap, "plan_merge", "nameservice.sharding:plan_merge"),
        Probe(DistributedResolver, "split_shard",
              "nameservice.sharding:split_shard"),
        Probe(DistributedResolver, "merge_shards",
              "nameservice.sharding:merge_shards"),
        Probe(ShardManager, "check", "nameservice.sharding:check"),
        # nameservice.cache
        Probe(PrefixCache, "lookup_longest",
              "nameservice.cache:lookup_longest"),
        Probe(PrefixCache, "fill", "nameservice.cache:fill"),
        Probe(PrefixCache, "invalidate_through",
              "nameservice.cache:invalidate_through"),
        # nameservice.leases
        Probe(ns_leases, "callback_fanout",
              "nameservice.leases:callback_fanout", span, acc.on_fanout),
        Probe(tr_leases, "callback_fanout_async",
              "nameservice.leases:callback_fanout_async", "async",
              acc.on_fanout),
        Probe(LeaseManager, "grant", "nameservice.leases:grant"),
        Probe(LeaseManager, "holders_of", "nameservice.leases:holders_of"),
        Probe(LeaseManager, "break_lease", "nameservice.leases:break_lease",
              span, acc.on_break),
        # obs.audit
        Probe(CoherenceAuditor, "observe_resolution",
              "obs.audit:observe_resolution"),
        Probe(CoherenceAuditor, "record_write", "obs.audit:record_write"),
        # nameservice.protocol (the handlers are wrapped per instance)
        Probe(AsyncNameClient, "resolve",
              "nameservice.protocol:client_resolve"),
        # transport.*
        Probe(framing, "encode_frame", "transport.framing:encode_frame",
              span, acc.on_frame),
        Probe(FrameDecoder, "feed", "transport.framing:feed", span,
              acc.on_feed),
        Probe(WireCodec, "encode", "transport.wire:encode"),
        Probe(WireCodec, "decode", "transport.wire:decode"),
        Probe(AsyncioTransport, "_dispatch", "transport.aio:dispatch"),
        Probe(AsyncioTransport, "_write", "transport.aio:write"),
        Probe(AckWaiter, "expect", "transport.leases:expect"),
        Probe(AckWaiter, "resolve", "transport.leases:resolve"),
    ]


def setup_metrics(tracer: Tracer, analysis: Analysis) -> dict[str, float]:
    """Set-up layer figures from a traced set-up."""
    build = (analysis.stats("workloads.zipf:build_zipf_namespace").incl_ns
             + analysis.stats("workloads.zipf:ZipfSampler").incl_ns)
    return {
        "workloads.zipf.build_s": build / 1e9,
        "model.context.bind_calls": float(
            tracer.counts.get("model.context:bind", 0)),
        "nameservice.placement.place_sharded_s": analysis.stats(
            "nameservice.sharding:place_sharded").incl_ns / 1e9,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(*, tracer: Tracer, analysis: Analysis,
                      counts: dict[str, int], delta: dict[str, int],
                      acc: dict[str, int], lookups: int, rebinds: int,
                      hops: int, failed: int, gc_ns: int,
                      setup: dict[str, float],
                      untraced_rate: float, traced_rate: float,
                      ) -> dict[str, float]:
    """Derive every :data:`PER_LAYER` metric of one traced window.

    *counts* are probe call counts over the window, *delta* the
    program's own counters over the window, *acc* the probe
    accumulators over the window.
    """
    ops = lookups + rebinds
    us = 1e-3  # ns → us

    def incl(name: str) -> int:
        return analysis.stats(name).incl_ns

    def calls(name: str) -> int:
        return analysis.stats(name).calls

    def d(key: str) -> int:
        return delta.get(key, 0)

    frames = d("aio.frames_sent")
    requests = d("protocol.requests")
    attempts = acc["fanout.attempts"]
    splits = d("sharding.splits")
    fanout = (incl("nameservice.leases:callback_fanout")
              + analysis.async_by_name.get(
                  "nameservice.leases:callback_fanout_async",
                  SpanStats()).incl_ns)
    cache_lookups = d("cache.hits") + d("cache.misses")
    resolve = analysis.stats("nameservice.resolver:resolve")
    rebind = analysis.stats("nameservice.resolver:rebind")
    metrics = {
        "sim.kernel.messages_per_op": _ratio(d("kernel.messages"), ops),
        "sim.kernel.retained_messages_per_op":
            _ratio(d("kernel.retained_messages"), ops),
        "nameservice.resolver.self_us_per_lookup":
            _ratio(resolve.self_ns * us, lookups),
        "nameservice.resolver.hops_per_lookup": _ratio(hops, lookups),
        "nameservice.resolver.rebind_self_us":
            _ratio(rebind.self_ns * us, rebind.calls),
        "nameservice.sharding.binding_hash_calls_per_lookup": _ratio(
            counts.get("nameservice.sharding:binding_hash", 0), lookups),
        "nameservice.sharding.route_us_per_lookup": _ratio(
            tracer.inclusive_ns(ROUTE_SPANS) * us, lookups),
        "nameservice.sharding.split_ms_per_split": _ratio(
            incl("nameservice.sharding:split_shard") * 1e-6,
            calls("nameservice.sharding:split_shard")),
        "nameservice.sharding.plan_split_ms": _ratio(
            incl("nameservice.sharding:plan_split") * 1e-6,
            calls("nameservice.sharding:plan_split")),
        "nameservice.sharding.check_us_per_lookup": _ratio(
            incl("nameservice.sharding:check") * us, lookups),
        "nameservice.sharding.splits": float(splits),
        "nameservice.sharding.merges": float(d("sharding.merges")),
        "nameservice.sharding.migration_messages":
            float(d("sharding.migration_messages")),
        "nameservice.cache.prefix_hit_ratio":
            _ratio(d("cache.hits"), cache_lookups),
        "nameservice.cache.lookup_us_per_lookup": _ratio(
            incl("nameservice.cache:lookup_longest") * us, lookups),
        "nameservice.cache.invalidations_per_rebind":
            _ratio(d("cache.invalidations"), rebinds),
        "obs.audit.observe_us_per_lookup": _ratio(
            incl("obs.audit:observe_resolution") * us, lookups),
        "obs.audit.observed": float(d("audit.observed")),
        "obs.audit.violations": float(d("audit.violations")),
        "obs.audit.stale_read_ratio":
            _ratio(d("audit.stale"), d("audit.observed")),
        "nameservice.leases.grants_per_lookup":
            _ratio(d("leases.grants"), lookups),
        "nameservice.leases.renewals_per_lookup":
            _ratio(d("leases.renewals"), lookups),
        "nameservice.leases.callbacks_per_rebind":
            _ratio(attempts, rebinds),
        "nameservice.leases.ack_ratio": _ratio(d("leases.acks"), attempts),
        "nameservice.leases.fanout_us_per_rebind":
            _ratio(fanout * us, rebinds),
        "nameservice.leases.spurious_breaks":
            float(acc["leases.spurious_breaks"]),
        "nameservice.protocol.requests_per_lookup":
            _ratio(requests, lookups),
        "nameservice.protocol.server_handler_us_per_request": _ratio(
            incl("nameservice.protocol:handler.lookupd") * us, requests),
        "nameservice.protocol.late_replies":
            float(d("protocol.late_replies")),
        "transport.framing.frames_per_lookup": _ratio(frames, lookups),
        "transport.framing.bytes_per_lookup":
            _ratio(acc["framing.bytes"], lookups),
        "transport.framing.encode_us_per_frame": _ratio(
            incl("transport.framing:encode_frame") * us,
            calls("transport.framing:encode_frame")),
        "transport.framing.decode_us_per_frame": _ratio(
            incl("transport.framing:feed") * us,
            acc["framing.frames_decoded"]),
        "transport.wire.codec_us_per_frame": _ratio(
            (incl("transport.wire:encode") + incl("transport.wire:decode"))
            * us, frames),
        "transport.aio.loop_idle_ratio":
            _ratio(incl(SELECT_SPAN), analysis.wall_ns),
        "transport.aio.wakeups_per_lookup":
            _ratio(acc["aio.wakeups"], lookups),
        "transport.aio.frames_dropped": float(d("aio.frames_dropped")),
        "transport.leases.late_acks": float(d("leases.late_acks")),
        "transport.service.misrouted_rebind_replies":
            float(d("service.misrouted_replies")),
        "failed_ratio": _ratio(failed, ops),
        "other.self_us_per_op": _ratio(analysis.other_ns * us, ops),
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate),
        "trace.reconcile_error": analysis.reconcile_error,
        # The collector runs inside whichever call allocates, so its
        # time is spread over the layers' self times.
        "runtime.gc_ratio": _ratio(gc_ns, analysis.wall_ns),
    }
    for label in HANDLER_LABELS:
        layer = ("transport.service" if label == "ctl"
                 else "nameservice.protocol")
        name = f"{layer}:handler.{label}"
        metrics[f"transport.aio.handler_us_per_frame.{label}"] = _ratio(
            incl(name) * us, calls(name))
    for layer in LAYERS:
        own = analysis.layer_self_ns(layer)
        if layer == "transport.aio":
            own -= analysis.stats(SELECT_SPAN).self_ns  # idle, not work
        metrics[f"{layer}.self_us_per_op"] = _ratio(own * us, ops)
    metrics.update(setup)
    return {name: float(metrics[name]) for name in PER_LAYER}

