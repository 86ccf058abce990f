"""Controller core: the minimum machinery between switches and everything else.

The core owns switch connections (attach/detach, port liveness), stamps every
network event with a globally unique, strictly increasing sequence number,
and hands events to exactly one distribution backend per run:

* INTERNAL - events are dispatched synchronously to a compiled-in app,
* P2P      - events are pushed to matching point-to-point subscriptions,
* BROKER   - events are published to the per-kind broker topic.

Packet return and flow programming are request/response calls on this object
regardless of the distribution mode (the outbound event path is the only
thing the backends change). Flow rules get their ids here, so flow-rule
events are globally unambiguous; a shadow of installed rules backs rule-id
validation and REMOVE/MODIFY routing. Switches enforce hard timeouts
themselves and report what expired; each expiry becomes a REMOVED event
carrying the rule's final counters.

A slow or broken backend never blocks the southbound path: failures count as
drops in the core metrics and the event is abandoned.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Protocol

from .wire import (
    Action,
    ActionKind,
    Event,
    FLOOD_PORT,
    FlowMod,
    FlowModOp,
    FlowRule,
    FlowRuleEvent,
    Frame,
    Hello,
    Match,
    PacketExceptionEvent,
    PacketIn,
    PacketOut,
    PortStatus,
    RuleEventOp,
    TOPIC_FOR_KIND,
    TopologyDeviceEvent,
    TopologyLinkEvent,
    TopologyPortEvent,
    decode_sb,
    encode_event,
    encode_sb,
    event_kind,
)

log = logging.getLogger(__name__)


class CoreError(Exception):
    pass


class DuplicateDatapathError(CoreError):
    pass


class UnknownDatapathError(CoreError):
    pass


class UnknownPortError(CoreError):
    pass


class UnknownRuleError(CoreError):
    pass


class DistMode(str, Enum):
    INTERNAL = "internal"
    P2P = "p2p"
    BROKER = "broker"


class EventApp(Protocol):
    """Compiled-in application interface for INTERNAL mode."""

    def on_event(self, event: Event) -> None: ...


@dataclass
class CoreConfig:
    mode: DistMode = DistMode.INTERNAL
    rest_listen: tuple[str, int] | None = None


@dataclass
class FlowModRequest:
    """A flow programming request; ADD assigns a fresh rule id."""

    dpid: int
    op: FlowModOp = FlowModOp.ADD
    priority: int = 100
    match: Match = field(default_factory=Match)
    actions: tuple[Action, ...] = ()
    hard_timeout_s: int = 0
    rule_id: int | None = None  # required for REMOVE / MODIFY


@dataclass
class CoreMetrics:
    events_emitted: int = 0
    events_dropped: int = 0


@dataclass
class _Datapath:
    dpid: int
    ports: tuple[int, ...]
    tx: Callable[[bytes], None]
    query: Callable[[], list[FlowRule]] | None = None


@dataclass
class _ShadowRule:
    dpid: int
    priority: int
    match: Match
    actions: tuple[Action, ...]
    hard_timeout_s: int

    def to_rule(self, rule_id: int) -> FlowRule:
        return FlowRule(
            rule_id=rule_id,
            priority=self.priority,
            match=self.match,
            actions=self.actions,
            hard_timeout_s=self.hard_timeout_s,
        )


class Core:
    """The controller core; see module docstring."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        broker=None,
        p2p=None,
        internal_app: EventApp | None = None,
    ):
        self.config = config or CoreConfig()
        mode = self.config.mode
        if mode is DistMode.BROKER and broker is None:
            raise CoreError("BROKER mode needs a broker")
        if mode is DistMode.P2P and p2p is None:
            raise CoreError("P2P mode needs a distributor")
        if mode is not DistMode.BROKER and broker is not None:
            raise CoreError(f"{mode} mode must not carry a broker")
        if mode is not DistMode.P2P and p2p is not None:
            raise CoreError(f"{mode} mode must not carry a distributor")
        if mode is not DistMode.INTERNAL and internal_app is not None:
            raise CoreError(f"{mode} mode must not carry an internal app")
        self._broker = broker
        self._p2p = p2p
        self._app = internal_app
        self.metrics = CoreMetrics()
        self._registry: dict[int, _Datapath] = {}
        self._registry_lock = threading.Lock()
        self._shadow: dict[int, _ShadowRule] = {}
        self._shadow_lock = threading.Lock()
        self._rule_ids = itertools.count(1)
        self._seq_lock = threading.Lock()
        self._next_seq = 1
        self._event_log: list[Event] = []
        self._rest_server = None

    # -- internal app --------------------------------------------------------

    def set_internal_app(self, app: EventApp) -> None:
        if self.config.mode is not DistMode.INTERNAL:
            raise CoreError(f"{self.config.mode} mode must not carry an internal app")
        self._app = app

    # -- lifecycle -------------------------------------------------------------

    def adopt(self, fabric) -> None:
        """Connect every switch of a fabric to this core's southbound handler."""
        for sw in fabric.switches.values():
            uplink = self._make_uplink(sw)
            sw.connect_controller(uplink, self._on_rules_expired)

    def _make_uplink(self, sw) -> Callable[[bytes], None]:
        def uplink(data: bytes) -> None:
            self.on_sb_bytes(data, tx=sw.control_rx, query=sw.request_rules)

        return uplink

    def start(self) -> "Core":
        if self.config.rest_listen is not None and self._rest_server is None:
            from .rest import RestServer

            self._rest_server = RestServer(self, *self.config.rest_listen).start()
        return self

    def stop(self) -> None:
        if self._rest_server is not None:
            self._rest_server.stop()
            self._rest_server = None

    @property
    def rest_address(self) -> tuple[str, int] | None:
        return self._rest_server.address if self._rest_server else None

    # -- southbound ------------------------------------------------------------

    def on_sb_bytes(
        self,
        data: bytes,
        tx: Callable[[bytes], None] | None = None,
        query: Callable[[], list[FlowRule]] | None = None,
    ) -> None:
        """Handle encoded southbound bytes arriving from a switch."""
        msg = decode_sb(data)
        if isinstance(msg, Hello):
            if tx is None:
                raise CoreError("Hello needs a transmit channel")
            self.attach_switch(msg, tx, query)
        elif isinstance(msg, PacketIn):
            self.raise_event(
                PacketExceptionEvent(dpid=msg.dpid, in_port=msg.in_port, frame=msg.frame)
            )
        elif isinstance(msg, PortStatus):
            self.raise_event(TopologyPortEvent(dpid=msg.dpid, port=msg.port, up=msg.up))
        else:
            log.warning("unexpected southbound message %r", type(msg))

    def attach_switch(
        self,
        hello: Hello,
        tx: Callable[[bytes], None],
        query: Callable[[], list[FlowRule]] | None = None,
    ) -> None:
        """Register a switch and announce its device and ports as events."""
        with self._registry_lock:
            if hello.dpid in self._registry:
                raise DuplicateDatapathError(f"dpid {hello.dpid} already attached")
            self._registry[hello.dpid] = _Datapath(
                dpid=hello.dpid, ports=tuple(hello.ports), tx=tx, query=query
            )
        self.raise_event(TopologyDeviceEvent(dpid=hello.dpid, up=True))
        for port in hello.ports:
            self.raise_event(TopologyPortEvent(dpid=hello.dpid, port=port, up=True))

    def detach_switch(self, dpid: int) -> None:
        with self._registry_lock:
            if dpid not in self._registry:
                raise UnknownDatapathError(f"dpid {dpid} not attached")
            del self._registry[dpid]
        with self._shadow_lock:
            stale = [rid for rid, s in self._shadow.items() if s.dpid == dpid]
            for rid in stale:
                del self._shadow[rid]
        self.raise_event(TopologyDeviceEvent(dpid=dpid, up=False))

    def _datapath(self, dpid: int) -> _Datapath:
        with self._registry_lock:
            dp = self._registry.get(dpid)
        if dp is None:
            raise UnknownDatapathError(f"dpid {dpid} not attached")
        return dp

    def _on_rules_expired(self, dpid: int, rules: list[FlowRule]) -> None:
        for rule in rules:
            with self._shadow_lock:
                self._shadow.pop(rule.rule_id, None)
            self.raise_event(FlowRuleEvent(op=RuleEventOp.REMOVED, dpid=dpid, rule=replace(rule)))

    # -- event emission ----------------------------------------------------------

    def raise_event(self, event: Event) -> Event:
        """Stamp ``event`` with the next sequence number and distribute it."""
        mode = self.config.mode
        with self._seq_lock:
            stamped = replace(
                event, seq=self._next_seq, ts_micros=time.time_ns() // 1000
            )
            self._next_seq += 1
            self._event_log.append(stamped)
            self.metrics.events_emitted += 1
            # backend hand-off happens under the lock so per-topic/per-stream
            # order always agrees with seq order
            if mode is DistMode.BROKER:
                try:
                    self._broker.publish(
                        TOPIC_FOR_KIND[event_kind(stamped)], encode_event(stamped)
                    )
                except Exception:
                    self.metrics.events_dropped += 1
                    log.exception("broker publish failed; event %d dropped", stamped.seq)
            elif mode is DistMode.P2P:
                try:
                    self._p2p.push(stamped)
                except Exception:
                    self.metrics.events_dropped += 1
                    log.exception("p2p push failed; event %d dropped", stamped.seq)
        if mode is DistMode.INTERNAL and self._app is not None:
            try:
                self._app.on_event(stamped)
            except Exception:
                self.metrics.events_dropped += 1
                log.exception("internal app failed; event %d dropped", stamped.seq)
        return stamped

    # -- packet return and flow programming ----------------------------------------

    def packet_out(self, dpid: int, out_port: int, frame: Frame) -> None:
        """Send ``frame`` out of a switch port (or FLOOD_PORT for all ports)."""
        dp = self._datapath(dpid)
        if out_port != FLOOD_PORT and out_port not in dp.ports:
            raise UnknownPortError(f"switch {dpid} has no port {out_port}")
        dp.tx(encode_sb(PacketOut(dpid=dpid, out_port=out_port, frame=frame)))

    def flow_mod(self, req: FlowModRequest) -> int:
        """Apply a flow-table change; returns the rule id (fresh for ADD)."""
        dp = self._datapath(req.dpid)
        for action in req.actions:
            if action.kind is ActionKind.OUTPUT and action.port not in dp.ports:
                raise UnknownPortError(f"switch {req.dpid} has no port {action.port}")
        if req.op is FlowModOp.ADD:
            rule_id = next(self._rule_ids)
            shadow = _ShadowRule(
                dpid=req.dpid,
                priority=req.priority,
                match=req.match,
                actions=tuple(req.actions),
                hard_timeout_s=req.hard_timeout_s,
            )
            with self._shadow_lock:
                self._shadow[rule_id] = shadow
            rule = shadow.to_rule(rule_id)
            dp.tx(encode_sb(FlowMod(dpid=req.dpid, op=FlowModOp.ADD, rule=rule)))
            self.raise_event(
                FlowRuleEvent(op=RuleEventOp.ADDED, dpid=req.dpid, rule=replace(rule))
            )
            return rule_id

        if req.rule_id is None:
            raise UnknownRuleError(f"{req.op.name} needs a rule_id")
        with self._shadow_lock:
            shadow = self._shadow.get(req.rule_id)
            if shadow is None or shadow.dpid != req.dpid:
                raise UnknownRuleError(f"rule {req.rule_id} not installed on {req.dpid}")
            if req.op is FlowModOp.REMOVE:
                del self._shadow[req.rule_id]
            else:
                shadow.priority = req.priority
                shadow.match = req.match
                shadow.actions = tuple(req.actions)
                shadow.hard_timeout_s = req.hard_timeout_s
        if req.op is FlowModOp.REMOVE:
            rule = shadow.to_rule(req.rule_id)
            dp.tx(encode_sb(FlowMod(dpid=req.dpid, op=FlowModOp.REMOVE, rule=rule)))
            self.raise_event(
                FlowRuleEvent(op=RuleEventOp.REMOVED, dpid=req.dpid, rule=replace(rule))
            )
        else:
            rule = shadow.to_rule(req.rule_id)
            dp.tx(encode_sb(FlowMod(dpid=req.dpid, op=FlowModOp.MODIFY, rule=rule)))
            self.raise_event(
                FlowRuleEvent(op=RuleEventOp.UPDATED, dpid=req.dpid, rule=replace(rule))
            )
        return req.rule_id

    def report_link(
        self, src_dpid: int, src_port: int, dst_dpid: int, dst_port: int, up: bool
    ) -> None:
        """Raise a link event on behalf of a topology-aware service."""
        self.raise_event(
            TopologyLinkEvent(
                src_dpid=src_dpid,
                src_port=src_port,
                dst_dpid=dst_dpid,
                dst_port=dst_port,
                up=up,
            )
        )

    # -- queries --------------------------------------------------------------------

    def datapaths(self) -> list[int]:
        with self._registry_lock:
            return sorted(self._registry)

    def flows(self, dpid: int) -> list[FlowRule]:
        """Current table of a switch (live counters when a query channel exists)."""
        dp = self._datapath(dpid)
        if dp.query is not None:
            return dp.query()
        with self._shadow_lock:
            return [
                s.to_rule(rid) for rid, s in sorted(self._shadow.items()) if s.dpid == dpid
            ]

    def event_log(self) -> list[Event]:
        with self._seq_lock:
            return list(self._event_log)

    def backend_broker(self):
        return self._broker

    def backend_p2p(self):
        return self._p2p
