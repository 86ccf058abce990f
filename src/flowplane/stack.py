"""One-call assembly of a full control plane over a simulated network.

A ``Stack`` builds the fabric, the core with the chosen distribution backend,
and the topology/forwarding services wired the way that backend demands:

* INTERNAL - services are the compiled-in app, invoked synchronously;
* P2P      - each service reads its own push subscription on its own thread;
* BROKER   - each service polls its own consumer (poll interval = the knob).

``warm()`` brings a freshly started stack to a known state: discovery has
mapped every link and every host has announced itself, so measurements start
from a converged control plane.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from .broker import Broker, BrokerConsumer, DEFAULT_POLL_INTERVAL
from .core import Core, CoreConfig, DistMode
from .fabric import Fabric
from .p2p import P2pDistributor
from .services import ForwardingService, FwdConfig, ServiceStack, TopologyService
from .topology import NetworkSpec
from .wire import EventKind, TOPIC_FOR_KIND, decode_event

log = logging.getLogger(__name__)

TOPO_KINDS = frozenset({EventKind.DEVICE, EventKind.PORT, EventKind.PACKET})
FWD_KINDS = frozenset({EventKind.PACKET})


class StackError(Exception):
    pass


@dataclass
class StackConfig:
    mode: DistMode = DistMode.INTERNAL
    install_rules: bool = False
    install_channel: str = "direct"
    hard_timeout_s: int = 10
    discovery_interval: float = 1.0
    broker_poll_interval: float = DEFAULT_POLL_INTERVAL
    broker_batch: int = 64
    link_latency: float = 0.0
    inbox_limit: int | None = None
    rest: bool = False
    sweep_interval: float = 0.25


class _SubscriberLoop:
    """Thread decoding an event source and feeding one or more services."""

    def __init__(self, source, services, name: str):
        self._source = source
        self._services = services
        self._running = True
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        self._thread.join(timeout=2)

    def _run(self) -> None:
        while self._running:
            data = self._source.get(timeout=0.05)
            if data is None:
                continue
            try:
                event = decode_event(data)
            except Exception:
                log.exception("subscriber got undecodable event")
                continue
            for service in self._services:
                try:
                    service.on_event(event)
                except Exception:
                    log.exception("service failed on event %r", event)


class Stack:
    """A running control plane + data plane, torn down with stop()."""

    def __init__(self, spec: NetworkSpec, config: StackConfig | None = None):
        self.spec = spec
        self.config = config or StackConfig()
        self.fabric: Fabric | None = None
        self.core: Core | None = None
        self.broker: Broker | None = None
        self.p2p: P2pDistributor | None = None
        self.topo: TopologyService | None = None
        self.fwd: ForwardingService | None = None
        self._loops: list[_SubscriberLoop] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Stack":
        cfg = self.config
        self.fabric = Fabric(
            self.spec, link_latency=cfg.link_latency, inbox_limit=cfg.inbox_limit
        )
        rest_needed = cfg.rest or cfg.install_channel == "rest"
        core_config = CoreConfig(
            mode=cfg.mode,
            rest_listen=("127.0.0.1", 0) if rest_needed else None,
            sweep_interval=cfg.sweep_interval,
        )
        if cfg.mode is DistMode.BROKER:
            self.broker = Broker()
            self.core = Core(core_config, broker=self.broker)
        elif cfg.mode is DistMode.P2P:
            self.p2p = P2pDistributor()
            self.core = Core(core_config, p2p=self.p2p)
        else:
            self.core = Core(core_config)
        self.core.start()

        self.topo = TopologyService(self.core, discovery_interval=cfg.discovery_interval)
        rest_client = None
        if cfg.install_channel == "rest":
            from .rest import RestFlowClient

            rest_client = RestFlowClient(self.core.rest_address)
        fwd_config = FwdConfig(
            install_rules=cfg.install_rules,
            hard_timeout_s=cfg.hard_timeout_s,
            install_channel=cfg.install_channel,
        )
        self.fwd = ForwardingService(self.core, self.topo, fwd_config, rest=rest_client)

        if cfg.mode is DistMode.INTERNAL:
            self.core.set_internal_app(ServiceStack(self.topo, self.fwd))
        elif cfg.mode is DistMode.P2P:
            topo_sub = self.p2p.subscribe(TOPO_KINDS)
            fwd_sub = self.p2p.subscribe(FWD_KINDS)
            self._loops = [
                _SubscriberLoop(topo_sub, [self.topo], "topo-subscriber"),
                _SubscriberLoop(fwd_sub, [self.fwd], "fwd-subscriber"),
            ]
        else:
            topo_consumer = BrokerConsumer(
                self.broker,
                "topo-service",
                [TOPIC_FOR_KIND[k] for k in sorted(TOPO_KINDS)],
                poll_interval=cfg.broker_poll_interval,
                batch_size=cfg.broker_batch,
            )
            fwd_consumer = BrokerConsumer(
                self.broker,
                "fwd-service",
                [TOPIC_FOR_KIND[k] for k in sorted(FWD_KINDS)],
                poll_interval=cfg.broker_poll_interval,
                batch_size=cfg.broker_batch,
            )
            self._loops = [
                _SubscriberLoop(topo_consumer, [self.topo], "topo-consumer"),
                _SubscriberLoop(fwd_consumer, [self.fwd], "fwd-consumer"),
            ]
        for loop in self._loops:
            loop.start()

        # subscriptions exist before any switch says hello, so the p2p mode
        # (which keeps no history) still sees the attach events
        self.core.adopt(self.fabric)
        self.fabric.start()
        self.topo.start()
        self._started = True
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.topo.stop()
        for loop in self._loops:
            loop.stop()
        self._loops = []
        self.core.stop()
        self.fabric.stop()

    def __enter__(self) -> "Stack":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- convergence ----------------------------------------------------------

    def warm(self, timeout: float = 15.0) -> None:
        """Drive discovery and host announcements until the map is complete."""
        deadline = time.monotonic() + timeout
        expected_links = self.spec.switch_link_set()
        expected_dpids = frozenset(s.dpid for s in self.spec.switches)
        # the service learns switches from events that may still be queued
        # after the core registered them; a probe round before then misses some
        while self.topo.graph().switches != expected_dpids:
            if time.monotonic() > deadline:
                raise StackError(
                    f"switches never finished attaching: the topology service knows "
                    f"{len(self.topo.graph().switches)} of {len(expected_dpids)}"
                )
            time.sleep(0.005)
        while self.topo.link_set() != expected_links:
            if time.monotonic() > deadline:
                missing = expected_links - self.topo.link_set()
                phantom = self.topo.link_set() - expected_links
                raise StackError(
                    f"discovery incomplete: missing={sorted(missing)} phantom={sorted(phantom)}"
                )
            self.topo.run_discovery_round()
            time.sleep(0.03)
        expected_macs = {h.mac for h in self.spec.hosts}
        while set(self.topo.hosts()) != expected_macs:
            if time.monotonic() > deadline:
                missing = expected_macs - set(self.topo.hosts())
                raise StackError(f"hosts never located: {sorted(str(m) for m in missing)}")
            for mac in expected_macs - set(self.topo.hosts()):
                self.fabric.hosts_by_mac[mac].announce()
            time.sleep(0.03)

    # -- conveniences -----------------------------------------------------------

    def host(self, host_id: str):
        return self.fabric.hosts[host_id]

    def event_log(self):
        return self.core.event_log()
