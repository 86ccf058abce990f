"""One wiring for every deployment: the functions below assemble the core,
its event backend and the topology/forwarding services, wired as the mode
demands:

* INTERNAL - the services are the core's compiled-in app, invoked synchronously;
* P2P      - each service reads its own push subscription on its own thread;
* BROKER   - each service polls its own consumer (poll interval = the knob).

``Stack`` runs it all in one process; ``flowplane-core`` and
``flowplane-service`` (``cli``) run the core and each service apart, the events
crossing a socket. What each function starts registers its stop on the caller's
``ExitStack``: one teardown stops it all in reverse order, also after a start
that failed part-way. ``converge()`` drives discovery and host announcements
until the map is complete, so measurements start from a converged control plane.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass

from .broker import Broker, BrokerClient, BrokerConsumer, BrokerServer, DEFAULT_POLL_INTERVAL
from .core import Core, CoreConfig, DistMode
from .fabric import Fabric
from .framing import ServerThread
from .p2p import P2pDistributor, P2pStreamClient, P2pStreamServer
from .rest import RestFlowClient
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


# -- wiring ---------------------------------------------------------------------

def start_core(
    config: CoreConfig, teardown: ExitStack
) -> tuple[Core, Broker | P2pDistributor | None]:
    """A started core and the backend its mode publishes to (None for INTERNAL)."""
    broker = Broker() if config.mode is DistMode.BROKER else None
    p2p = P2pDistributor() if config.mode is DistMode.P2P else None
    core = Core(config, broker=broker, p2p=p2p)
    teardown.callback(core.stop)
    return core.start(), broker if broker is not None else p2p


def serve_events(
    mode: DistMode, backend, host: str, port: int, teardown: ExitStack
) -> ServerThread | None:
    """The backend's socket server, for services in other processes; None for INTERNAL."""
    if mode is DistMode.INTERNAL:
        return None
    server_type = BrokerServer if mode is DistMode.BROKER else P2pStreamServer
    server = server_type(backend, host, port).start()
    teardown.callback(server.stop)
    return server


def event_source(mode: DistMode, events, kinds: frozenset[EventKind], name: str,
                 poll_interval: float = DEFAULT_POLL_INTERVAL, batch: int = 64):
    """One service's feed of encoded events of ``kinds`` in BROKER or P2P mode.

    ``events`` is the core's backend in this process, or the (host, port) of
    its server. The result has ``get(timeout)`` and ``close()``.
    """
    remote = isinstance(events, tuple)
    if mode is DistMode.BROKER:
        return BrokerConsumer(
            BrokerClient(events) if remote else events,
            f"{name}-service",
            [TOPIC_FOR_KIND[k] for k in sorted(kinds)],
            poll_interval=poll_interval,
            batch_size=batch,
        )
    return P2pStreamClient(events, kinds) if remote else events.subscribe(kinds)


class _SubscriberLoop:
    """Thread decoding an event source into one service; stop() closes the source.

    An event that fails to decode or that the service raises on is logged,
    counted in ``errors`` and skipped; the loop keeps consuming. A source
    that raises (a lost connection) is logged and counted, and ends the loop.
    """

    def __init__(self, source, service, name: str):
        self._source = source
        self._service = service
        self._running = True
        self.errors = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        self._thread.join(timeout=2)
        self._source.close()

    def _run(self) -> None:
        try:
            while self._running:
                data = self._source.get(timeout=0.05)
                if data is None:
                    continue
                try:
                    self._service.on_event(decode_event(data))
                except Exception:
                    log.exception("%s failed on an event", self._thread.name)
                    self.errors += 1
        except Exception:
            log.exception("%s: event source failed; stopping", self._thread.name)
            self.errors += 1


def attach_services(core: Core, events, topo, fwd, teardown: ExitStack,
                    poll_interval: float = DEFAULT_POLL_INTERVAL,
                    batch: int = 64) -> list[_SubscriberLoop]:
    """Hand the core's events to both services: as its compiled-in app in
    INTERNAL mode, otherwise on one subscriber loop per service, each over
    its own source from ``events`` (see ``event_source``). Returns the loops
    started (none in INTERNAL mode)."""
    mode = core.config.mode
    if mode is DistMode.INTERNAL:
        core.set_internal_app(ServiceStack(topo, fwd))
        return []
    loops = []
    for service, kinds, name in ((topo, TOPO_KINDS, "topo"), (fwd, FWD_KINDS, "fwd")):
        source = event_source(mode, events, kinds, name, poll_interval, batch)
        loops.append(_SubscriberLoop(source, service, f"{name}-loop"))
        teardown.callback(loops[-1].stop)
    return loops


def converge(spec: NetworkSpec, fabric: Fabric, topo, timeout: float = 15.0) -> None:
    """Drive discovery and host announcements until the map is complete."""
    deadline = time.monotonic() + timeout
    expected_links = spec.switch_link_set()
    expected_dpids = frozenset(s.dpid for s in spec.switches)
    # the service learns switches from events that may still be queued
    # after the core registered them; a probe round before then misses some
    while topo.graph().switches != expected_dpids:
        if time.monotonic() > deadline:
            raise StackError(
                f"switches never finished attaching: the topology service knows "
                f"{len(topo.graph().switches)} of {len(expected_dpids)}"
            )
        time.sleep(0.005)
    while topo.link_set() != expected_links:
        if time.monotonic() > deadline:
            missing = expected_links - topo.link_set()
            phantom = topo.link_set() - expected_links
            raise StackError(
                f"discovery incomplete: missing={sorted(missing)} phantom={sorted(phantom)}"
            )
        topo.run_discovery_round()
        time.sleep(0.03)
    expected_macs = {h.mac for h in spec.hosts}
    while set(topo.hosts()) != expected_macs:
        if time.monotonic() > deadline:
            missing = expected_macs - set(topo.hosts())
            raise StackError(f"hosts never located: {sorted(str(m) for m in missing)}")
        for mac in expected_macs - set(topo.hosts()):
            fabric.hosts_by_mac[mac].announce()
        time.sleep(0.03)


# -- the in-process deployment ------------------------------------------------------

class Stack:
    """A running control plane + data plane in one process, torn down with stop()."""

    def __init__(self, spec: NetworkSpec, config: StackConfig | None = None):
        self.spec = spec
        self.config = config or StackConfig()
        self.fabric: Fabric | None = None
        self.core: Core | None = None
        self.broker: Broker | None = None
        self.p2p: P2pDistributor | None = None
        self.topo: TopologyService | None = None
        self.fwd: ForwardingService | None = None
        self._teardown = ExitStack()

    def start(self) -> "Stack":
        cfg = self.config
        with ExitStack() as teardown:
            self.fabric = Fabric(
                self.spec, link_latency=cfg.link_latency, inbox_limit=cfg.inbox_limit
            )
            teardown.callback(self.fabric.stop)
            rest = cfg.install_channel == "rest"
            core_config = CoreConfig(
                mode=cfg.mode,
                rest_listen=("127.0.0.1", 0) if cfg.rest or rest else None,
            )
            self.core, backend = start_core(core_config, teardown)
            self.broker, self.p2p = self.core.backend_broker(), self.core.backend_p2p()
            self.topo = TopologyService(self.core, discovery_interval=cfg.discovery_interval)
            rest_client = RestFlowClient(self.core.rest_address) if rest else None
            fwd_config = FwdConfig(
                install_rules=cfg.install_rules,
                hard_timeout_s=cfg.hard_timeout_s,
                install_channel=cfg.install_channel,
            )
            self.fwd = ForwardingService(self.core, self.topo, fwd_config, rest=rest_client)
            # subscriptions exist before any switch says hello, so the p2p mode
            # (which keeps no history) still sees the attach events
            attach_services(
                self.core, backend, self.topo, self.fwd, teardown,
                cfg.broker_poll_interval, cfg.broker_batch,
            )
            self.core.adopt(self.fabric)
            self.fabric.start()
            teardown.callback(self.topo.stop)
            self.topo.start()
            self._teardown = teardown.pop_all()
        return self

    def stop(self) -> None:
        self._teardown.close()

    def __enter__(self) -> "Stack":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def warm(self, timeout: float = 15.0) -> None:
        """Drive discovery and host announcements until the map is complete."""
        converge(self.spec, self.fabric, self.topo, timeout)

    # -- conveniences -----------------------------------------------------------

    def host(self, host_id: str):
        return self.fabric.hosts[host_id]

    def event_log(self):
        return self.core.event_log()
