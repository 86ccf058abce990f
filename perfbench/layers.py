"""Which program functions are traced, and the per-layer metrics they give.

Every probe wraps a binding at the name its caller looks it up by: the
switch actors call ``flowplane.fabric.decode_sb``, the core calls
``flowplane.core.decode_sb``, the in-process subscriber loops call
``flowplane.stack.decode_event`` and the split subscriber loop (in this
benchmark) calls ``flowplane.wire.decode_event``.
"""

from __future__ import annotations

import flowplane.core as core_mod
import flowplane.fabric as fabric_mod
import flowplane.p2p as p2p_mod
import flowplane.services as services_mod
import flowplane.stack as stack_mod
import flowplane.wire as wire_mod
from flowplane.broker import Broker, BrokerConsumer
from flowplane.core import Core
from flowplane.coreapi import RemoteCore
from flowplane.fabric import SimHost, SimSwitch
from flowplane.interservice import TopoQueryClient
from flowplane.p2p import P2pDistributor, P2pStreamClient, Subscription
from flowplane.rest import RestFlowClient
from flowplane.services import ForwardingService, TopologyService

from tracing import (
    Probe,
    Tracer,
    broker_delivered,
    event_bytes_are_background,
    event_is_background,
    frame_is_background,
    host_arrival,
    host_handled,
    mark_sent,
    median_us,
    p2p_delivered,
    poll_hit,
    sb_bytes_are_background,
    sb_message_is_background,
    subscribed,
    switch_arrival,
    switch_handled,
)

MODES = ("internal", "p2p", "broker")


def _arg(index: int, predicate):
    return lambda args: predicate(args[index])


def probes(split: bool) -> list[Probe]:
    """The probe set; ``split`` picks the consumer side of the socket transports."""
    sb_in, sb_msg = _arg(0, sb_bytes_are_background), _arg(0, sb_message_is_background)
    ev_bytes, ev_obj = _arg(0, event_bytes_are_background), _arg(0, event_is_background)
    frame_at = lambda i: _arg(i, frame_is_background)  # noqa: E731
    out = [
        Probe("wire.decode_sb", fabric_mod, "decode_sb", background=sb_in),
        Probe("wire.decode_sb", core_mod, "decode_sb", background=sb_in),
        Probe("wire.encode_sb", fabric_mod, "encode_sb", background=sb_msg),
        Probe("wire.encode_sb", core_mod, "encode_sb", background=sb_msg),
        Probe("wire.decode_event", stack_mod, "decode_event", background=ev_bytes),
        Probe("wire.decode_event", wire_mod, "decode_event", background=ev_bytes),
        Probe("wire.encode_event", core_mod, "encode_event", background=ev_obj),
        Probe("wire.encode_event", p2p_mod, "encode_event", background=ev_obj),
        Probe("core.on_sb_bytes", Core, "on_sb_bytes", background=_arg(1, sb_bytes_are_background)),
        Probe("core.raise_event", Core, "raise_event", background=_arg(1, event_is_background)),
        Probe("core.packet_out", Core, "packet_out", background=frame_at(3)),
        Probe("core.flow_mod", Core, "flow_mod"),
        Probe("p2p.push", P2pDistributor, "push", hook=mark_sent,
              background=_arg(1, event_is_background)),
        Probe("p2p.subscribe", P2pDistributor, "subscribe", hook=subscribed, spans=False),
        Probe("broker.publish", Broker, "publish", hook=mark_sent,
              background=_arg(2, event_bytes_are_background)),
        Probe("broker.poll", Broker, "poll", hook=poll_hit),
        Probe("broker.commit", Broker, "commit"),
        Probe("broker.get", BrokerConsumer, "get", hook=broker_delivered, spans=False),
        Probe("services.topo_on_event", TopologyService, "on_event",
              background=_arg(1, event_is_background)),
        Probe("services.fwd_handle_packet", ForwardingService, "handle_packet",
              background=_arg(1, event_is_background)),
        Probe("services.path_from_switch", services_mod, "path_from_switch"),
        Probe("services.discovery_round", TopologyService, "run_discovery_round"),
        Probe("switch.switch_rx", fabric_mod, "switch_rx", hook=switch_handled,
              background=frame_at(2)),
        Probe("switch.apply_packet_out", fabric_mod, "apply_packet_out", background=frame_at(2)),
        Probe("fabric.inject", SimSwitch, "inject", hook=switch_arrival, spans=False),
        Probe("fabric.deliver", SimHost, "deliver", hook=host_arrival, spans=False),
        Probe("fabric.host_receive", SimHost, "_receive", hook=host_handled,
              background=frame_at(1)),
        Probe("rest.install", RestFlowClient, "install"),
        Probe("rest.delete", RestFlowClient, "delete"),
        Probe("rest.list_rules", RestFlowClient, "list_rules"),
    ]
    out += [Probe("coreapi.call", RemoteCore, name) for name in ("packet_out", "flow_mod", "report_link")]
    out += [
        Probe("interservice.call", TopoQueryClient, name)
        for name in ("host_location", "path_from_switch", "learn_host")
    ]
    # the p2p delivery wait ends where the subscriber loop's get() returns
    consumer = P2pStreamClient if split else Subscription
    out.append(Probe("p2p.get", consumer, "get", hook=p2p_delivered, spans=False))
    return out


# -- per-layer metrics ---------------------------------------------------------
# Span metrics give ".calls" per operation and ".self_us", the median self
# time per call, both over non-background calls.

_SPANS_ALL_MODES = (
    "wire.decode_sb",
    "wire.encode_sb",
    "core.on_sb_bytes",
    "core.raise_event",
    "core.packet_out",
    "services.topo_on_event",
    "services.fwd_handle_packet",
    "services.path_from_switch",
    "services.discovery_round",
    "switch.switch_rx",
    "switch.apply_packet_out",
)
_SPANS_EVENT_CODEC = ("wire.decode_event", "wire.encode_event")
_SPANS_BY_MODE = {"p2p": ("p2p.push",), "broker": ("broker.publish", "broker.poll", "broker.commit")}
# Exercised only by some workloads: written to the run's output file, not
# to the result line, where a layer that never runs would read 0 us.
_SPANS_SOME_WORKLOADS = ("core.flow_mod",)
_CALLS_US = ("coreapi.call", "interservice.call", "rest.install", "rest.delete", "rest.list_rules")


def _span_names(mode: str) -> list[str]:
    names = list(_SPANS_ALL_MODES)
    if mode != "internal":
        names += _SPANS_EVENT_CODEC
    return names + list(_SPANS_BY_MODE.get(mode, ()))


def per_layer_spec() -> list[dict]:
    """The per-layer metrics every traced run reports, as BENCHMARK.json lists them."""
    out = []
    for mode in MODES:
        for base in _span_names(mode):
            out.append({"name": f"{base}.calls.{mode}", "unit": "calls/op", "better": "lower"})
            out.append({"name": f"{base}.self_us.{mode}", "unit": "us", "better": "lower"})
        out.append({"name": f"core.events_dropped.{mode}", "unit": "count", "better": "lower"})
        out.append({"name": f"switch.rules_max.{mode}", "unit": "count", "better": "lower"})
        out.append({"name": f"fabric.hop_wait_us.{mode}", "unit": "us", "better": "lower"})
        out.append({"name": f"fabric.hops.{mode}", "unit": "hops/op", "better": "lower"})
    out += [
        {"name": "p2p.delivery_wait_us.p2p", "unit": "us", "better": "lower"},
        {"name": "p2p.dropped.p2p", "unit": "count", "better": "lower"},
        {"name": "broker.poll_hit_ratio.broker", "unit": "ratio", "better": "higher"},
        {"name": "broker.delivery_wait_us.broker", "unit": "us", "better": "lower"},
    ]
    return out


def window_metrics(tracer: Tracer, mode: str, phase: str, ops: int, events_dropped: int) -> dict:
    """Per-layer metrics of one mode's window, keyed by full metric name."""
    w = tracer.windows[(mode, phase)]
    ops = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for base in _span_names(mode):
        spans = w.spans[base]
        out[f"{base}.calls.{mode}"] = (len(spans) / ops, "calls/op")
        out[f"{base}.self_us.{mode}"] = (median_us(spans), "us")
    out[f"core.events_dropped.{mode}"] = (events_dropped, "count")
    out[f"switch.rules_max.{mode}"] = (w.rules_max, "count")
    out[f"fabric.hop_wait_us.{mode}"] = (median_us(w.waits["fabric.hop_wait"]), "us")
    hops = len(w.spans["switch.switch_rx"]) + len(w.spans["fabric.host_receive"])
    out[f"fabric.hops.{mode}"] = (hops / ops, "hops/op")
    if mode == "p2p":
        out["p2p.delivery_wait_us.p2p"] = (median_us(w.waits["p2p.delivery_wait"]), "us")
        out["p2p.dropped.p2p"] = (sum(s.dropped for s in tracer.subscriptions), "count")
    if mode == "broker":
        hits = w.poll_hits
        out["broker.poll_hit_ratio.broker"] = (sum(hits) / len(hits) if hits else 0.0, "ratio")
        out["broker.delivery_wait_us.broker"] = (median_us(w.waits["broker.delivery_wait"]), "us")
    return out


def extra_metrics(tracer: Tracer, mode: str, phase: str, ops: int) -> dict:
    """Layers some workloads never reach, and background call counts."""
    w = tracer.windows[(mode, phase)]
    ops = max(ops, 1)
    out: dict[str, float] = {}
    for base in _SPANS_SOME_WORKLOADS:
        out[f"{base}.calls.{mode}"] = len(w.spans[base]) / ops
        out[f"{base}.self_us.{mode}"] = median_us(w.spans[base])
    for base in _CALLS_US:
        out[f"{base}.calls.{mode}"] = len(w.spans[base]) / ops
        out[f"{base}.us.{mode}"] = median_us(w.spans[base])
    for base, spans in w.background.items():
        if spans:
            out[f"{base}.background_calls.{mode}"] = len(spans) / ops
    if mode != "internal":
        out[f"{mode}.delivered.{mode}"] = w.delivered[mode] / ops
    return out
