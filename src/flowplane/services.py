"""Disaggregated control-plane services: topology discovery and forwarding.

Both services consume network events and act on the core only through its
call interface (packet_out / flow_mod / report_link), so the same objects run
compiled into the core, behind a point-to-point stream, behind the broker, or
in a separate process over sockets.

Topology service. Builds the network map purely from events: device and port
events register switches, probe frames sent out every switch port come back
as packet events on the far switch and yield directed links, and ARP-analog
broadcasts locate hosts at the first switch that punted them (a frame seen on
a port that belongs to a known inter-switch link never counts as a host
sighting). Links unseen for ``stale_rounds`` probe rounds are dropped, and
every link change is reported to the core so other consumers can follow
connectivity through link events.

Forwarding service. Reacts to packet events with one topology call per
punted frame: for a unicast destination, ``path_from_switch(..., learn=)``
learns the frame's source location and returns the path in the same call
(one round trip when the topology service is remote); a broadcast frame only
reports its source through ``learn_host``. Frames for broadcast or unknown
destinations are flooded (with a per-switch duplicate filter so multi-path
topologies cannot storm); the rest are sent toward their destination hop by
hop. With rule installation enabled it programs an eth_dst rule on every
switch along the path first, through either the direct call channel or the
REST endpoint. The identical object is the INTERNAL-mode app, so the only
variable between modes is the event path.
"""

from __future__ import annotations

import logging
import struct
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

from .core import CoreError, FlowModRequest
from .wire import (
    Action,
    ActionKind,
    ETHERTYPE_ARP,
    ETHERTYPE_DISCOVERY,
    BROADCAST,
    Event,
    FLOOD_PORT,
    FlowModOp,
    Frame,
    MacAddr,
    Match,
    PacketExceptionEvent,
    TopologyDeviceEvent,
    TopologyPortEvent,
)

log = logging.getLogger(__name__)

DISCOVERY_MAGIC = b"DSC1"
DISCOVERY_SRC = MacAddr(bytes([0x02, 0xFF, 0, 0, 0, 0]))
_PROBE = struct.Struct(">QHI")  # after the magic: origin dpid, origin port, round
# how long a flooded broadcast is remembered, so copies looping back are dropped
BROADCAST_DEDUP_TTL_S = 2.0


class PathError(CoreError):
    pass


class UnknownHostError(PathError):
    pass


class NoPathError(PathError):
    pass


@dataclass(frozen=True)
class DiscoveryPayload:
    """Contents of a probe frame: where it was sent from, and when."""

    origin_dpid: int
    origin_port: int
    round: int

    def encode(self) -> bytes:
        return DISCOVERY_MAGIC + _PROBE.pack(self.origin_dpid, self.origin_port, self.round)

    @classmethod
    def parse(cls, payload: bytes) -> "DiscoveryPayload | None":
        if len(payload) != len(DISCOVERY_MAGIC) + _PROBE.size or not payload.startswith(
            DISCOVERY_MAGIC
        ):
            return None
        dpid, port, rnd = _PROBE.unpack_from(payload, len(DISCOVERY_MAGIC))
        return cls(origin_dpid=dpid, origin_port=port, round=rnd)

    def frame(self) -> Frame:
        return Frame(
            dst=BROADCAST, src=DISCOVERY_SRC, ethertype=ETHERTYPE_DISCOVERY, payload=self.encode()
        )


@dataclass(frozen=True)
class HostLocation:
    mac: MacAddr
    dpid: int
    port: int


@dataclass(frozen=True)
class PathHop:
    """One switch on a path and the port leading to the next hop (or host)."""

    dpid: int
    out_port: int


@dataclass(frozen=True)
class TopologyGraph:
    """Immutable snapshot of the discovered network.

    Path queries memoise the adjacency and every switch-to-host path on the
    snapshot, so a snapshot must not be mutated once it has been queried.
    """

    switches: frozenset[int]
    links: dict[tuple[int, int], tuple[int, int]]  # (dpid, port) -> (dpid, port)
    hosts: dict[MacAddr, HostLocation]
    _paths: dict[tuple[int, MacAddr], tuple[PathHop, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def link_set(self) -> frozenset[tuple[int, int, int, int]]:
        return frozenset(
            (sd, sp, dd, dp) for (sd, sp), (dd, dp) in self.links.items()
        )

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, int, int]]]:
        """dpid -> sorted [(peer_dpid, out_port, peer_port)]."""
        adj: dict[int, list[tuple[int, int, int]]] = {d: [] for d in self.switches}
        for (sd, sp), (dd, dp) in self.links.items():
            if sd in adj:
                adj[sd].append((dd, sp, dp))
        for entries in adj.values():
            entries.sort()
        return adj

    def route(self, start_dpid: int, dst_dpid: int) -> tuple[PathHop, ...] | None:
        """Hops from ``start_dpid`` up to, not including, ``dst_dpid``; None if unreachable.

        Ties break toward the smallest next-hop dpid at every step.
        """
        adj = self.adjacency

        # breadth-first distances toward the destination switch, walked backwards
        dist = {dst_dpid: 0}
        frontier = [dst_dpid]
        while frontier:
            nxt = []
            for node in frontier:
                for peer, _out, _pport in adj[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        nxt.append(peer)
            frontier = nxt
        if start_dpid not in dist:
            return None

        hops = []
        node = start_dpid
        while node != dst_dpid:
            step = min(
                (peer, out)
                for peer, out, _pport in adj[node]
                if dist.get(peer) == dist[node] - 1
            )
            hops.append(PathHop(dpid=node, out_port=step[1]))
            node = step[0]
        return tuple(hops)


@dataclass
class GraphDelta:
    """What one event changed in the topology service's map."""

    links_added: list[tuple[int, int, int, int]] = field(default_factory=list)
    links_removed: list[tuple[int, int, int, int]] = field(default_factory=list)
    hosts_learned: list[HostLocation] = field(default_factory=list)
    switches_added: list[int] = field(default_factory=list)
    switches_removed: list[int] = field(default_factory=list)
    ignored: bool = False

    @property
    def empty(self) -> bool:
        return not (
            self.links_added
            or self.links_removed
            or self.hosts_learned
            or self.switches_added
            or self.switches_removed
        )


def shortest_path(graph: TopologyGraph, src_mac: MacAddr, dst_mac: MacAddr) -> list[PathHop]:
    """Minimum-hop switch path between two known hosts.

    Ties break toward the smallest next-hop dpid at every step. The returned
    hops cover every switch crossed; the last hop's port faces the host.
    """
    src = graph.hosts.get(src_mac)
    if src is None:
        raise UnknownHostError(f"no location for {src_mac}")
    return path_from_switch(graph, src.dpid, dst_mac)


def path_from_switch(graph: TopologyGraph, start_dpid: int, dst_mac: MacAddr) -> list[PathHop]:
    """Minimum-hop path from a switch to a host (see shortest_path); a new list each call."""
    path = graph._paths.get((start_dpid, dst_mac))
    if path is None:
        path = graph._paths[(start_dpid, dst_mac)] = _build_path(graph, start_dpid, dst_mac)
    return list(path)


def _build_path(graph: TopologyGraph, start_dpid: int, dst_mac: MacAddr) -> tuple[PathHop, ...]:
    dst = graph.hosts.get(dst_mac)
    if dst is None:
        raise UnknownHostError(f"no location for {dst_mac}")
    if start_dpid not in graph.switches or dst.dpid not in graph.switches:
        raise NoPathError(f"switch {start_dpid} or {dst.dpid} not in graph")
    hops = graph.route(start_dpid, dst.dpid)
    if hops is None:
        raise NoPathError(f"no path from switch {start_dpid} to {dst_mac}")
    return (*hops, PathHop(dpid=dst.dpid, out_port=dst.port))


def _maps(event: Event) -> bool:
    """Whether the topology service reads ``event``: device and port events,
    discovery probes and ARP-analog broadcasts; it ignores every other event."""
    if isinstance(event, (TopologyDeviceEvent, TopologyPortEvent)):
        return True
    if not isinstance(event, PacketExceptionEvent):
        return False
    frame = event.frame
    return frame.ethertype == ETHERTYPE_DISCOVERY or (
        frame.ethertype == ETHERTYPE_ARP and frame.dst.is_broadcast
    )


@dataclass
class TopologyStats:
    malformed_discovery: int = 0
    rounds: int = 0


class TopologyService:
    """Event-driven network map plus the periodic discovery prober."""

    def __init__(
        self,
        core,
        discovery_interval: float = 1.0,
        stale_rounds: int = 3,
    ):
        self.core = core
        self.discovery_interval = discovery_interval
        self.stale_rounds = stale_rounds
        self.stats = TopologyStats()
        self._lock = threading.RLock()
        self._switches: set[int] = set()
        self._ports: dict[int, set[int]] = {}
        self._links: dict[tuple[int, int], tuple[int, int]] = {}
        self._link_round: dict[tuple[int, int], int] = {}
        self._hosts: dict[MacAddr, HostLocation] = {}
        # derived from the map on first use, dropped whenever the map changes
        self._graph: TopologyGraph | None = None
        self._link_ports: frozenset[tuple[int, int]] | None = None
        self._round = 0
        self._stop = threading.Event()
        self._timer: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TopologyService":
        if self.discovery_interval > 0 and self._timer is None:
            self._stop.clear()
            self._timer = threading.Thread(
                target=self._timer_loop, name="topo-discovery", daemon=True
            )
            self._timer.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._timer is not None:
            self._timer.join(timeout=2)
            self._timer = None

    def _timer_loop(self) -> None:
        while not self._stop.wait(self.discovery_interval):
            self.run_discovery_round()

    # -- event intake ---------------------------------------------------------

    def on_event(self, event: Event) -> GraphDelta:
        if not _maps(event):
            return GraphDelta(ignored=True)
        delta = GraphDelta()
        with self._lock:
            if isinstance(event, TopologyDeviceEvent):
                self._on_device(event, delta)
            elif isinstance(event, TopologyPortEvent):
                self._on_port(event, delta)
            else:
                self._on_packet(event, delta)
            if not delta.empty:
                self._map_changed()
        self._report(delta)
        return delta

    def _on_device(self, event, delta) -> None:
        if event.up:
            if event.dpid not in self._switches:
                self._switches.add(event.dpid)
                self._ports.setdefault(event.dpid, set())
                delta.switches_added.append(event.dpid)
        else:
            if event.dpid in self._switches:
                self._switches.discard(event.dpid)
                self._ports.pop(event.dpid, None)
                delta.switches_removed.append(event.dpid)
                self._drop_links(lambda sd, sp, dd, dp: event.dpid in (sd, dd), delta)
                for mac in [m for m, loc in self._hosts.items() if loc.dpid == event.dpid]:
                    del self._hosts[mac]

    def _on_port(self, event, delta) -> None:
        ports = self._ports.setdefault(event.dpid, set())
        if event.up:
            ports.add(event.port)
        else:
            ports.discard(event.port)
            end = (event.dpid, event.port)
            self._drop_links(lambda sd, sp, dd, dp: (sd, sp) == end or (dd, dp) == end, delta)

    def _on_packet(self, event, delta) -> None:
        frame = event.frame
        if frame.ethertype == ETHERTYPE_DISCOVERY:
            probe = DiscoveryPayload.parse(frame.payload)
            if probe is None:
                self.stats.malformed_discovery += 1
                delta.ignored = True
                return
            self._add_link(probe.origin_dpid, probe.origin_port, event.dpid, event.in_port, delta)
        else:  # an ARP-analog broadcast, as _maps let through
            self._learn(frame.src, event.dpid, event.in_port, delta)

    def _add_link(self, sd, sp, dd, dp, delta) -> None:
        if sd not in self._switches or dd not in self._switches:
            delta.ignored = True
            return
        key = (sd, sp)
        existing = self._links.get(key)
        self._link_round[key] = self._round
        if existing == (dd, dp):
            return  # refresh only
        self._links[key] = (dd, dp)
        delta.links_added.append((sd, sp, dd, dp))
        # a port now known to face a switch cannot hold a host
        for mac in [
            m for m, loc in self._hosts.items() if (loc.dpid, loc.port) in (key, (dd, dp))
        ]:
            del self._hosts[mac]

    def _drop_links(self, predicate, delta) -> None:
        doomed = [
            (sd, sp, dd, dp)
            for (sd, sp), (dd, dp) in self._links.items()
            if predicate(sd, sp, dd, dp)
        ]
        for sd, sp, dd, dp in doomed:
            del self._links[(sd, sp)]
            self._link_round.pop((sd, sp), None)
            delta.links_removed.append((sd, sp, dd, dp))

    def _learn(self, mac: MacAddr, dpid: int, port: int, delta) -> None:
        if mac.is_broadcast or dpid not in self._switches:
            delta.ignored = True
            return
        if self._is_link_port(dpid, port):
            delta.ignored = True
            return
        location = HostLocation(mac=mac, dpid=dpid, port=port)
        if self._hosts.get(mac) != location:
            self._hosts[mac] = location
            delta.hosts_learned.append(location)

    def _is_link_port(self, dpid: int, port: int) -> bool:
        if self._link_ports is None:
            self._link_ports = frozenset(self._links).union(self._links.values())
        return (dpid, port) in self._link_ports

    def _map_changed(self) -> None:
        self._graph = None
        self._link_ports = None

    def _report(self, delta: GraphDelta) -> None:
        # one event or discovery round adds links or removes them, never both,
        # so this reports them in the order they changed
        for links, up in ((delta.links_added, True), (delta.links_removed, False)):
            for sd, sp, dd, dp in links:
                try:
                    self.core.report_link(sd, sp, dd, dp, up)
                except Exception:
                    log.warning("link report failed", exc_info=True)

    # -- host learning API (used by the forwarding service) --------------------

    def learn_host(self, mac: MacAddr, dpid: int, port: int) -> None:
        with self._lock:
            self._learn_host(mac, dpid, port)

    def _learn_host(self, mac: MacAddr, dpid: int, port: int) -> None:
        # what _learn would ignore or keep as it is, decided without a delta:
        # a sighting on a link port, or one the map already holds
        known = self._hosts.get(mac)
        if known is not None and known.dpid == dpid and known.port == port:
            return
        if self._is_link_port(dpid, port):
            return
        delta = GraphDelta()
        self._learn(mac, dpid, port, delta)
        if not delta.empty:
            self._map_changed()

    # -- discovery ----------------------------------------------------------------

    def run_discovery_round(self) -> None:
        """Probe every known switch port; prune links gone quiet."""
        delta = GraphDelta()
        with self._lock:
            self._round += 1
            self.stats.rounds += 1
            # a link is stale once `stale_rounds` complete rounds passed unseen
            horizon = self._round - self.stale_rounds - 1
            stale = [key for key, seen in self._link_round.items() if seen <= horizon]
            for sd, sp in stale:
                dd, dp = self._links.pop((sd, sp))
                self._link_round.pop((sd, sp), None)
                delta.links_removed.append((sd, sp, dd, dp))
            if stale:
                self._map_changed()
            targets = [
                (dpid, port, self._round)
                for dpid in sorted(self._switches)
                for port in sorted(self._ports.get(dpid, ()))
            ]
        self._report(delta)
        try:
            for dpid, port, rnd in targets:
                probe = DiscoveryPayload(origin_dpid=dpid, origin_port=port, round=rnd)
                self.core.packet_out(dpid, port, probe.frame())
        except Exception:
            log.warning("discovery round aborted; will retry next tick", exc_info=True)

    # -- queries --------------------------------------------------------------------

    def graph(self) -> TopologyGraph:
        """The current snapshot; the same object until the map changes."""
        with self._lock:
            return self._snapshot()

    def _snapshot(self) -> TopologyGraph:
        if self._graph is None:
            self._graph = TopologyGraph(
                switches=frozenset(self._switches),
                links=dict(self._links),
                hosts=dict(self._hosts),
            )
        return self._graph

    def link_set(self) -> frozenset[tuple[int, int, int, int]]:
        with self._lock:
            return frozenset(
                (sd, sp, dd, dp) for (sd, sp), (dd, dp) in self._links.items()
            )

    def host_location(self, mac: MacAddr) -> HostLocation | None:
        with self._lock:
            return self._hosts.get(mac)

    def hosts(self) -> dict[MacAddr, HostLocation]:
        with self._lock:
            return dict(self._hosts)

    def shortest_path(self, src_mac: MacAddr, dst_mac: MacAddr) -> list[PathHop]:
        return shortest_path(self.graph(), src_mac, dst_mac)

    def path_from_switch(
        self, dpid: int, dst_mac: MacAddr, learn: tuple[MacAddr, int] | None = None
    ) -> list[PathHop]:
        """Path from ``dpid`` to ``dst_mac``; ``learn=(src_mac, in_port)`` first
        applies ``learn_host(src_mac, dpid, in_port)`` under the same lock, and
        the sighting is kept even when no path is found."""
        with self._lock:
            if learn is not None:
                self._learn_host(learn[0], dpid, learn[1])
            graph = self._snapshot()
        return path_from_switch(graph, dpid, dst_mac)


class TopologyQuery(Protocol):
    """What the forwarding service needs from a topology service, local or remote."""

    def path_from_switch(
        self, dpid: int, dst_mac: MacAddr, learn: tuple[MacAddr, int] | None = None
    ) -> list[PathHop]: ...

    def learn_host(self, mac: MacAddr, dpid: int, port: int) -> None: ...


@dataclass
class FwdConfig:
    """Forwarding behavior: packet-out-only by default, rules on request."""

    install_rules: bool = False
    hard_timeout_s: int = 10
    install_channel: str = "direct"  # "direct" or "rest"

    def __post_init__(self) -> None:
        if self.install_channel not in ("direct", "rest"):
            raise ValueError(f"unknown install channel {self.install_channel!r}")
        if not isinstance(self.hard_timeout_s, int) or self.hard_timeout_s < 0:
            raise ValueError(
                f"hard timeout must be a whole number of seconds, got {self.hard_timeout_s!r}"
            )


@dataclass
class FwdStats:
    packets_handled: int = 0
    forwarded: int = 0
    flooded: int = 0
    duplicate_broadcasts: int = 0
    installs: int = 0
    path_failures: int = 0


@dataclass
class FwdDecision:
    kind: str  # "forwarded" | "flooded" | "duplicate" | "ignored"
    out_port: int | None = None
    installed_rules: list[tuple[int, int]] = field(default_factory=list)  # (dpid, rule_id)


class ForwardingService:
    """Reactive forwarding over the topology service's map."""

    def __init__(self, core, topo: TopologyQuery, cfg: FwdConfig | None = None, rest=None):
        self.core = core
        self.topo = topo
        self.cfg = cfg or FwdConfig()
        self.rest = rest
        if self.cfg.install_channel == "rest" and rest is None:
            raise ValueError("REST install channel needs a REST client")
        self.stats = FwdStats()
        # guards stats, the two dictionaries below and the install channel;
        # never held across a topology query or a core call
        self._lock = threading.RLock()
        self._seen_broadcasts: dict[tuple[int, MacAddr, int, int], float] = {}
        self._installed: dict[tuple[int, MacAddr], float] = {}

    def set_install_channel(self, channel: str, rest=None) -> None:
        """Swap the flow-install channel on a live service (paired benchmarks)."""
        if channel not in ("direct", "rest"):
            raise ValueError(f"unknown install channel {channel!r}")
        with self._lock:
            if rest is not None:
                self.rest = rest
            if channel == "rest" and self.rest is None:
                raise ValueError("REST install channel needs a REST client")
            self.cfg.install_channel = channel

    def on_event(self, event: Event) -> None:
        if isinstance(event, PacketExceptionEvent):
            self.handle_packet(event)

    def handle_packet(self, event: PacketExceptionEvent) -> FwdDecision:
        frame = event.frame
        if frame.ethertype == ETHERTYPE_DISCOVERY:
            return FwdDecision(kind="ignored")  # topology service's traffic
        learn = None if frame.src.is_broadcast else (frame.src, event.in_port)
        with self._lock:
            self.stats.packets_handled += 1
        if frame.dst.is_broadcast:
            if learn is not None:
                self.topo.learn_host(frame.src, event.dpid, event.in_port)
            return self._flood(event)
        try:
            hops = self.topo.path_from_switch(event.dpid, frame.dst, learn=learn)
        except UnknownHostError:
            return self._flood(event)
        except PathError:
            with self._lock:
                self.stats.path_failures += 1
            return self._flood(event)
        installed: list[tuple[int, int]] = []
        if self.cfg.install_rules:
            installed = self._install_path(hops, frame.dst)
        self.core.packet_out(event.dpid, hops[0].out_port, frame)
        with self._lock:
            self.stats.forwarded += 1
        return FwdDecision(
            kind="forwarded", out_port=hops[0].out_port, installed_rules=installed
        )

    def _flood(self, event: PacketExceptionEvent) -> FwdDecision:
        frame = event.frame
        now = time.monotonic()
        key = (event.dpid, frame.src, frame.ethertype, hash(frame.payload))
        with self._lock:
            if self._seen_broadcasts.get(key, 0.0) > now:
                self.stats.duplicate_broadcasts += 1
                return FwdDecision(kind="duplicate")
            if len(self._seen_broadcasts) > 4096:
                self._seen_broadcasts = {
                    k: v for k, v in self._seen_broadcasts.items() if v > now
                }
            self._seen_broadcasts[key] = now + BROADCAST_DEDUP_TTL_S
        self.core.packet_out(event.dpid, FLOOD_PORT, frame)
        with self._lock:
            self.stats.flooded += 1
        return FwdDecision(kind="flooded", out_port=FLOOD_PORT)

    def _install_path(self, hops: list[PathHop], dst: MacAddr) -> list[tuple[int, int]]:
        now = time.monotonic()
        timeout = self.cfg.hard_timeout_s
        expiry = now + timeout if timeout > 0 else float("inf")
        with self._lock:
            channel, rest = self.cfg.install_channel, self.rest
            # claim each due switch before the calls, so a concurrent packet
            # to the same destination installs nothing twice
            due = [hop for hop in hops if self._installed.get((hop.dpid, dst), 0.0) <= now]
            for hop in due:
                self._installed[(hop.dpid, dst)] = expiry
        installed = []
        try:
            for hop in due:
                request = FlowModRequest(
                    dpid=hop.dpid,
                    op=FlowModOp.ADD,
                    match=Match(eth_dst=dst),
                    actions=(Action(ActionKind.OUTPUT, hop.out_port),),
                    hard_timeout_s=timeout,
                )
                try:
                    if channel == "rest":
                        rule_id = rest.install(request)
                    else:
                        rule_id = self.core.flow_mod(request)
                except CoreError:
                    log.warning("flow install on %d failed", hop.dpid, exc_info=True)
                    continue
                installed.append((hop.dpid, rule_id))
        finally:
            done = {dpid for dpid, _ in installed}
            with self._lock:
                for hop in due:  # a failed or skipped install is tried again
                    if hop.dpid not in done:
                        self._installed.pop((hop.dpid, dst), None)
                self.stats.installs += len(installed)
        return installed


class ServiceStack:
    """Both services behind one app interface, for INTERNAL-mode dispatch."""

    def __init__(self, topo: TopologyService, fwd: ForwardingService):
        self.topo = topo
        self.fwd = fwd

    def on_event(self, event: Event) -> None:
        self.topo.on_event(event)
        self.fwd.on_event(event)
