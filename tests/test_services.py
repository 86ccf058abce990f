"""Topology-discovery and reactive-forwarding tests, unit level and end to end."""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

import pytest

from flowplane.core import Core, DistMode
from flowplane.services import (
    DiscoveryPayload,
    ForwardingService,
    FwdConfig,
    FwdDecision,
    HostLocation,
    NoPathError,
    PathError,
    TopologyGraph,
    TopologyService,
    UnknownHostError,
    path_from_switch,
    shortest_path,
)
from flowplane.stack import Stack, StackConfig
from flowplane.topology import NetworkSpec, build_fat_tree, build_linear
from flowplane.wire import (
    BROADCAST,
    ETHERTYPE_ARP,
    ETHERTYPE_DATA,
    ETHERTYPE_DISCOVERY,
    Frame,
    Hello,
    MacAddr,
    PacketExceptionEvent,
    TopologyDeviceEvent,
    TopologyPortEvent,
)


def graph_from_spec(spec: NetworkSpec) -> TopologyGraph:
    """Ground-truth graph straight from the builder output."""
    links = {}
    for l in spec.links:
        links[(l.a_dpid, l.a_port)] = (l.b_dpid, l.b_port)
        links[(l.b_dpid, l.b_port)] = (l.a_dpid, l.a_port)
    hosts = {
        h.mac: HostLocation(mac=h.mac, dpid=h.dpid, port=h.port) for h in spec.hosts
    }
    return TopologyGraph(
        switches=frozenset(s.dpid for s in spec.switches), links=links, hosts=hosts
    )


def bfs_hop_count(spec: NetworkSpec, src_dpid: int, dst_dpid: int) -> int:
    """Independent oracle: switches crossed on a shortest path, by plain BFS."""
    adj: dict[int, set[int]] = {s.dpid: set() for s in spec.switches}
    for l in spec.links:
        adj[l.a_dpid].add(l.b_dpid)
        adj[l.b_dpid].add(l.a_dpid)
    seen = {src_dpid: 1}
    queue = deque([src_dpid])
    while queue:
        node = queue.popleft()
        if node == dst_dpid:
            return seen[node]
        for peer in adj[node]:
            if peer not in seen:
                seen[peer] = seen[node] + 1
                queue.append(peer)
    raise AssertionError("disconnected")


class RecordingCore:
    """Stands in for the core: records packet_outs / flow_mods / link reports."""

    def __init__(self):
        self.packet_outs = []
        self.flow_mods = []
        self.link_reports = []
        self._rule_ids = itertools.count(1)

    def packet_out(self, dpid, out_port, frame):
        self.packet_outs.append((dpid, out_port, frame))

    def flow_mod(self, req):
        rule_id = next(self._rule_ids)
        self.flow_mods.append((rule_id, req))
        return rule_id

    def report_link(self, sd, sp, dd, dp, up):
        self.link_reports.append((sd, sp, dd, dp, up))


def make_topo(core=None, **kw) -> TopologyService:
    return TopologyService(core or RecordingCore(), discovery_interval=0, **kw)


def packet_event(dpid, in_port, frame, seq=0) -> PacketExceptionEvent:
    return PacketExceptionEvent(dpid=dpid, in_port=in_port, frame=frame, seq=seq)


def probe_frame(origin_dpid, origin_port, rnd=1) -> Frame:
    return DiscoveryPayload(origin_dpid, origin_port, rnd).frame()


def register(topo: TopologyService, *dpids_ports):
    for dpid, ports in dpids_ports:
        topo.on_event(TopologyDeviceEvent(dpid=dpid, up=True))
        for p in ports:
            topo.on_event(TopologyPortEvent(dpid=dpid, port=p, up=True))


class TestTopologyUnit:
    def test_discovery_packet_adds_directed_link(self):
        topo = make_topo()
        register(topo, (1, [1]), (2, [1]))
        delta = topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        assert delta.links_added == [(1, 1, 2, 1)]
        assert topo.link_set() == {(1, 1, 2, 1)}

    def test_duplicate_discovery_idempotent(self):
        topo = make_topo()
        register(topo, (1, [1]), (2, [1]))
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        delta = topo.on_event(packet_event(2, 1, probe_frame(1, 1, rnd=2)))
        assert delta.empty
        assert topo.link_set() == {(1, 1, 2, 1)}

    def test_malformed_discovery_counted_and_ignored(self):
        topo = make_topo()
        register(topo, (1, [1]), (2, [1]))
        bad = Frame(BROADCAST, MacAddr.host(9), ETHERTYPE_DISCOVERY, b"garbage")
        delta = topo.on_event(packet_event(2, 1, bad))
        assert delta.ignored
        assert topo.stats.malformed_discovery == 1
        assert topo.link_set() == set()

    def test_link_between_unknown_switches_ignored(self):
        topo = make_topo()
        register(topo, (2, [1]))
        delta = topo.on_event(packet_event(2, 1, probe_frame(77, 1)))
        assert delta.ignored

    def test_arp_broadcast_learns_host_on_edge_port(self):
        topo = make_topo()
        register(topo, (2, [1, 2]))
        announce = Frame(BROADCAST, MacAddr.host(5), ETHERTYPE_ARP, b"HOSTxxxxxx")
        delta = topo.on_event(packet_event(2, 1, announce))
        assert delta.hosts_learned == [HostLocation(MacAddr.host(5), 2, 1)]
        assert topo.host_location(MacAddr.host(5)).dpid == 2

    def test_arp_on_known_link_port_not_learned(self):
        topo = make_topo()
        register(topo, (1, [1]), (2, [1, 2]))
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        topo.on_event(packet_event(1, 1, probe_frame(2, 1)))
        announce = Frame(BROADCAST, MacAddr.host(5), ETHERTYPE_ARP, b"HOSTxxxxxx")
        delta = topo.on_event(packet_event(2, 1, announce))
        assert delta.ignored
        assert topo.host_location(MacAddr.host(5)) is None

    def test_learning_link_evicts_misplaced_host(self):
        topo = make_topo()
        register(topo, (1, [1]), (2, [1, 2]))
        announce = Frame(BROADCAST, MacAddr.host(5), ETHERTYPE_ARP, b"HOSTxxxxxx")
        topo.on_event(packet_event(2, 1, announce))  # learned before links known
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        assert topo.host_location(MacAddr.host(5)) is None

    def test_device_down_removes_node_and_incident_links(self):
        core = RecordingCore()
        topo = make_topo(core)
        register(topo, (1, [1]), (2, [1, 2]), (3, [1]))
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        topo.on_event(packet_event(1, 1, probe_frame(2, 1)))
        topo.on_event(packet_event(3, 1, probe_frame(2, 2)))
        topo.on_event(packet_event(2, 2, probe_frame(3, 1)))
        assert len(topo.link_set()) == 4
        delta = topo.on_event(TopologyDeviceEvent(dpid=2, up=False))
        assert delta.switches_removed == [2]
        assert len(delta.links_removed) == 4
        assert topo.link_set() == set()
        down_reports = [r for r in core.link_reports if not r[4]]
        assert len(down_reports) == 4

    def test_port_down_removes_both_directions(self):
        core = RecordingCore()
        topo = make_topo(core)
        register(topo, (1, [1]), (2, [1]))
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        topo.on_event(packet_event(1, 1, probe_frame(2, 1)))
        topo.on_event(TopologyPortEvent(dpid=1, port=1, up=False))
        assert topo.link_set() == set()
        down = {r[:4] for r in core.link_reports if not r[4]}
        assert down == {(1, 1, 2, 1), (2, 1, 1, 1)}

    def test_new_link_reported_up(self):
        core = RecordingCore()
        topo = make_topo(core)
        register(topo, (1, [1]), (2, [1]))
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        assert core.link_reports == [(1, 1, 2, 1, True)]

    def test_stale_links_pruned_after_three_rounds(self):
        core = RecordingCore()
        topo = make_topo(core)
        register(topo, (1, [1]), (2, [1]))
        topo.run_discovery_round()
        topo.on_event(packet_event(2, 1, probe_frame(1, 1)))
        for _ in range(3):
            topo.run_discovery_round()
        assert topo.link_set() == {(1, 1, 2, 1)}  # not yet beyond horizon
        topo.run_discovery_round()
        assert topo.link_set() == set()

    def test_discovery_round_probes_every_port(self):
        core = RecordingCore()
        topo = make_topo(core)
        register(topo, (1, [1, 2]), (2, [1]))
        topo.run_discovery_round()
        assert {(d, p) for d, p, _f in core.packet_outs} == {(1, 1), (1, 2), (2, 1)}
        payload = DiscoveryPayload.parse(core.packet_outs[0][2].payload)
        assert payload is not None
        assert payload.round == 1

    def test_discovery_survives_unreachable_core(self):
        class DeadCore(RecordingCore):
            def packet_out(self, *a):
                raise ConnectionError("core gone")

        topo = make_topo(DeadCore())
        register(topo, (1, [1]))
        topo.run_discovery_round()  # must not raise
        assert topo.stats.rounds == 1


class TestMapChangesReachQueries:
    """Every kind of map change shows in the next path query and link-port check.

    Each check first fills whatever the service keeps between queries, then
    applies one change, then compares against a snapshot built from scratch.
    """

    SPEC = build_fat_tree(4)

    def _discovered(self, skip=()) -> TopologyService:
        topo = make_topo(stale_rounds=3)
        register(topo, *((s.dpid, range(1, s.n_ports + 1)) for s in self.SPEC.switches))
        self._probe_all(topo, skip)
        for h in self.SPEC.hosts[:-1]:
            topo.learn_host(h.mac, h.dpid, h.port)
        return topo

    def _probe_all(self, topo, skip=()) -> None:
        for sd, sp, dd, dp in sorted(self.SPEC.switch_link_set()):
            if (sd, sp) not in skip:
                topo.on_event(packet_event(dd, dp, probe_frame(sd, sp)))

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except (UnknownHostError, NoPathError) as exc:
            return type(exc)

    def _check(self, topo: TopologyService) -> None:
        fresh = TopologyGraph(
            switches=frozenset(topo._switches), links=dict(topo._links), hosts=dict(topo._hosts)
        )
        macs = [h.mac for h in self.SPEC.hosts]
        for s in self.SPEC.switches:
            for mac in macs:
                assert self._outcome(topo.path_from_switch, s.dpid, mac) == self._outcome(
                    path_from_switch, fresh, s.dpid, mac
                ), (s.dpid, mac)
        for src, dst in itertools.permutations(macs, 2):
            assert self._outcome(topo.shortest_path, src, dst) == self._outcome(
                shortest_path, fresh, src, dst
            )
        link_ends = set(topo._links) | set(topo._links.values())
        for s in self.SPEC.switches:
            for port in range(1, s.n_ports + 1):
                assert topo._is_link_port(s.dpid, port) == ((s.dpid, port) in link_ends)

    def test_link_added(self):
        missing = (5, 3)  # pod 0's first aggregation uplink to core 1
        topo = self._discovered(skip={missing})
        self._check(topo)
        dd, dp = graph_from_spec(self.SPEC).links[missing]
        assert not topo.on_event(packet_event(dd, dp, probe_frame(*missing))).empty
        self._check(topo)

    def test_stale_link_pruned(self):
        victim = (5, 3)
        topo = self._discovered()
        self._check(topo)
        before = topo.link_set()
        while topo.link_set() == before:
            topo.run_discovery_round()
            self._probe_all(topo, skip={victim})
        assert before - topo.link_set() == {(*victim, *graph_from_spec(self.SPEC).links[victim])}
        self._check(topo)

    def test_port_down(self):
        topo = self._discovered()
        self._check(topo)
        assert not topo.on_event(TopologyPortEvent(dpid=7, port=3, up=False)).empty
        self._check(topo)

    def test_device_down(self):
        topo = self._discovered()
        self._check(topo)
        assert not topo.on_event(TopologyDeviceEvent(dpid=5, up=False)).empty
        self._check(topo)

    def test_host_learned_then_moved(self):
        topo = self._discovered()
        self._check(topo)
        last = self.SPEC.hosts[-1]
        topo.learn_host(last.mac, last.dpid, last.port)
        self._check(topo)
        first = self.SPEC.hosts[0]
        topo.learn_host(last.mac, first.dpid, first.port)
        assert topo.host_location(last.mac).dpid == first.dpid
        self._check(topo)


class TestPaths:
    def test_same_switch_zero_link_path(self):
        spec = build_linear(1)
        graph = graph_from_spec(spec)
        hops = shortest_path(graph, MacAddr.host(1), MacAddr.host(2))
        h2 = spec.host_by_id("h2")
        assert hops == [type(hops[0])(dpid=1, out_port=h2.port)]

    def test_linear5_crosses_five_switches(self):
        spec = build_linear(5)
        graph = graph_from_spec(spec)
        hops = shortest_path(graph, MacAddr.host(1), MacAddr.host(2))
        assert [h.dpid for h in hops] == [1, 2, 3, 4, 5]

    def test_fat_tree_cross_pod_is_five_switches(self):
        spec = build_fat_tree(4)
        graph = graph_from_spec(spec)
        # h1 is in pod 0, h16 in pod 3: edge-agg-core-agg-edge
        hops = shortest_path(graph, MacAddr.host(1), MacAddr.host(16))
        assert len(hops) == 5

    def test_all_pairs_match_bfs_oracle_on_k4(self):
        spec = build_fat_tree(4)
        graph = graph_from_spec(spec)
        hosts = list(spec.hosts)
        pairs = list(itertools.combinations(hosts, 2))
        assert len(pairs) == 120
        for a, b in pairs:
            hops = shortest_path(graph, a.mac, b.mac)
            assert len(hops) == bfs_hop_count(spec, a.dpid, b.dpid)
            assert hops[0].dpid == a.dpid
            assert hops[-1] == type(hops[-1])(dpid=b.dpid, out_port=b.port)

    def test_deterministic_tiebreak_smallest_next_hop(self):
        spec = build_fat_tree(4)
        graph = graph_from_spec(spec)
        first = shortest_path(graph, MacAddr.host(1), MacAddr.host(16))
        for _ in range(5):
            assert shortest_path(graph, MacAddr.host(1), MacAddr.host(16)) == first
        # the path through the tie must take the lowest-dpid aggregation switch
        agg_dpids = [h.dpid for h in first[1:-1]]
        assert agg_dpids == sorted(agg_dpids) or len(set(agg_dpids)) == len(agg_dpids)

    def test_unknown_host_errors(self):
        graph = graph_from_spec(build_linear(2))
        with pytest.raises(UnknownHostError):
            shortest_path(graph, MacAddr.host(1), MacAddr.host(9))
        with pytest.raises(UnknownHostError):
            shortest_path(graph, MacAddr.host(9), MacAddr.host(1))

    def test_disconnected_errors(self):
        spec = build_linear(2)
        graph = graph_from_spec(spec)
        graph.links.clear()
        with pytest.raises(NoPathError):
            shortest_path(graph, MacAddr.host(1), MacAddr.host(2))

    def test_path_from_mid_switch(self):
        spec = build_linear(5)
        graph = graph_from_spec(spec)
        hops = path_from_switch(graph, 3, MacAddr.host(2))
        assert [h.dpid for h in hops] == [3, 4, 5]


class TestForwardingUnit:
    def _setup(self, install=False, channel="direct"):
        spec = build_linear(3)
        core = RecordingCore()
        topo = make_topo(core)
        for s in spec.switches:
            register(topo, (s.dpid, range(1, s.n_ports + 1)))
        for l in spec.links:
            topo.on_event(packet_event(l.b_dpid, l.b_port, probe_frame(l.a_dpid, l.a_port)))
            topo.on_event(packet_event(l.a_dpid, l.a_port, probe_frame(l.b_dpid, l.b_port)))
        cfg = FwdConfig(install_rules=install, hard_timeout_s=10, install_channel=channel)
        fwd = ForwardingService(core, topo, cfg)
        return spec, core, topo, fwd

    def _locate_hosts(self, spec, topo):
        for h in spec.hosts:
            topo.learn_host(h.mac, h.dpid, h.port)

    def test_broadcast_floods_without_flow_mod(self):
        spec, core, topo, fwd = self._setup()
        announce = Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP, b"HOSTaaaaaa")
        decision = fwd.handle_packet(packet_event(1, 2, announce))
        assert decision.kind == "flooded"
        assert core.flow_mods == []
        assert core.packet_outs[-1][1] == 0xFFFF

    def test_duplicate_broadcast_dropped_per_switch(self):
        spec, core, topo, fwd = self._setup()
        announce = Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP, b"HOSTaaaaaa")
        fwd.handle_packet(packet_event(1, 2, announce))
        assert fwd.handle_packet(packet_event(1, 2, announce)).kind == "duplicate"
        assert fwd.handle_packet(packet_event(2, 1, announce)).kind == "flooded"
        assert fwd.stats.duplicate_broadcasts == 1

    def test_unknown_destination_floods(self):
        spec, core, topo, fwd = self._setup()
        f = Frame(MacAddr.host(9), MacAddr.host(1), ETHERTYPE_DATA, b"data")
        assert fwd.handle_packet(packet_event(1, 2, f)).kind == "flooded"

    def test_packet_out_only_mode_never_installs(self):
        spec, core, topo, fwd = self._setup(install=False)
        self._locate_hosts(spec, topo)
        f = Frame(MacAddr.host(2), MacAddr.host(1), ETHERTYPE_DATA, b"data")
        for dpid, in_port in [(1, 1), (2, 1), (3, 1)]:
            decision = fwd.handle_packet(packet_event(dpid, in_port, f))
            assert decision.kind == "forwarded"
        assert core.flow_mods == []
        assert len(core.packet_outs) == 3

    def test_install_mode_programs_whole_path_once(self):
        spec, core, topo, fwd = self._setup(install=True)
        self._locate_hosts(spec, topo)
        f = Frame(MacAddr.host(2), MacAddr.host(1), ETHERTYPE_DATA, b"data")
        decision = fwd.handle_packet(packet_event(1, spec.host_by_id("h1").port, f))
        assert decision.kind == "forwarded"
        assert len(decision.installed_rules) == 3  # one per switch on the path
        assert len(core.packet_outs) == 1
        for _rule_id, req in core.flow_mods:
            assert req.hard_timeout_s == 10
            assert req.match.eth_dst == MacAddr.host(2)
        # a second packet inside the timeout window installs nothing new
        second = fwd.handle_packet(packet_event(1, spec.host_by_id("h1").port, f))
        assert second.installed_rules == []
        assert len(core.flow_mods) == 3

    def test_source_location_learned_from_packet(self):
        spec, core, topo, fwd = self._setup()
        h1 = spec.host_by_id("h1")
        f = Frame(MacAddr.host(9), h1.mac, ETHERTYPE_DATA, b"data")
        fwd.handle_packet(packet_event(h1.dpid, h1.port, f))
        assert topo.host_location(h1.mac) == HostLocation(h1.mac, h1.dpid, h1.port)

    def test_path_query_learns_the_source_even_when_it_raises(self):
        spec, core, topo, fwd = self._setup()
        h1 = spec.host_by_id("h1")
        with pytest.raises(UnknownHostError):
            topo.path_from_switch(h1.dpid, MacAddr.host(9), learn=(h1.mac, h1.port))
        assert topo.host_location(h1.mac) == HostLocation(h1.mac, h1.dpid, h1.port)
        with pytest.raises(NoPathError):
            topo.path_from_switch(77, h1.mac, learn=(MacAddr.host(8), 1))
        assert topo.host_location(MacAddr.host(8)) is None  # unknown switch

    def test_discovery_frames_ignored(self):
        spec, core, topo, fwd = self._setup()
        decision = fwd.handle_packet(packet_event(1, 1, probe_frame(2, 1)))
        assert decision.kind == "ignored"
        assert fwd.stats.packets_handled == 0


class ThreeCallForwarding(ForwardingService):
    """Reference decision: learn the source, locate the destination, then ask
    for the path, as three separate topology calls."""

    def handle_packet(self, event: PacketExceptionEvent) -> FwdDecision:
        frame = event.frame
        if frame.ethertype == ETHERTYPE_DISCOVERY:
            return FwdDecision(kind="ignored")
        with self._lock:
            self.stats.packets_handled += 1
            if not frame.src.is_broadcast:
                self.topo.learn_host(frame.src, event.dpid, event.in_port)
            if frame.dst.is_broadcast:
                return self._flood(event)
            if self.topo.host_location(frame.dst) is None:
                return self._flood(event)
            try:
                hops = self.topo.path_from_switch(event.dpid, frame.dst)
            except PathError:
                self.stats.path_failures += 1
                return self._flood(event)
            self.core.packet_out(event.dpid, hops[0].out_port, frame)
            self.stats.forwarded += 1
            return FwdDecision(kind="forwarded", out_port=hops[0].out_port)


class QueryOnly:
    """Exposes only the calls ``TopologyQuery`` lists, so any other call fails."""

    def __init__(self, topo: TopologyService):
        self.path_from_switch = topo.path_from_switch
        self.learn_host = topo.learn_host


class TestOneCallDecisionMatchesThreeCalls:
    """The one-call forwarding decision against the three-call reference, on
    two topology services fed the same events, compared after every packet."""

    SPEC = build_fat_tree(4)
    TRUTH = graph_from_spec(SPEC)

    def _pair(self, known=()):
        sides = []
        for fwd_type, wrap in ((ThreeCallForwarding, lambda t: t), (ForwardingService, QueryOnly)):
            core = RecordingCore()
            topo = make_topo(core)
            sides.append((core, topo, fwd_type(core, wrap(topo), FwdConfig())))
        self._topo_events(sides, *(
            TopologyDeviceEvent(dpid=s.dpid, up=True) for s in self.SPEC.switches
        ))
        self._topo_events(sides, *(
            TopologyPortEvent(dpid=s.dpid, port=p, up=True)
            for s in self.SPEC.switches for p in range(1, s.n_ports + 1)
        ))
        self._topo_events(sides, *(
            packet_event(dd, dp, probe_frame(sd, sp))
            for sd, sp, dd, dp in sorted(self.SPEC.switch_link_set())
        ))
        for _core, topo, _fwd in sides:
            for h in known:
                topo.learn_host(h.mac, h.dpid, h.port)
        return sides

    @staticmethod
    def _topo_events(sides, *events) -> None:
        for event in events:
            for _core, topo, _fwd in sides:
                topo.on_event(event)

    @staticmethod
    def _packet(sides, event) -> FwdDecision:
        (ref_core, ref_topo, ref_fwd), (core, topo, fwd) = sides
        want = ref_fwd.handle_packet(event)
        got = fwd.handle_packet(event)
        assert got == want, event
        assert fwd.stats == ref_fwd.stats, event
        assert topo.hosts() == ref_topo.hosts(), event
        assert core.packet_outs == ref_core.packet_outs, event
        return got

    def _walk(self, src, dst, payload=b"data"):
        """A frame from ``src`` to ``dst`` punted at every switch on their path:
        first on the source's edge port, then on inter-switch ports."""
        frame = Frame(dst.mac, src.mac, ETHERTYPE_DATA, payload)
        dpid, in_port = src.dpid, src.port
        for hop in path_from_switch(self.TRUTH, src.dpid, dst.mac):
            yield packet_event(dpid, in_port, frame)
            if (hop.dpid, hop.out_port) in self.TRUTH.links:
                dpid, in_port = self.TRUTH.links[(hop.dpid, hop.out_port)]

    def _walk_all(self, sides, hosts) -> None:
        for src, dst in itertools.permutations(hosts, 2):
            for event in self._walk(src, dst):
                self._packet(sides, event)

    def test_no_host_known(self):
        sides = self._pair()
        self._walk_all(sides, self.SPEC.hosts)
        assert sides[1][2].stats.flooded and sides[1][2].stats.forwarded

    def test_every_host_known(self):
        sides = self._pair(known=self.SPEC.hosts)
        self._walk_all(sides, self.SPEC.hosts)
        assert sides[1][2].stats.flooded == 0

    def test_some_hosts_known(self):
        sides = self._pair(known=self.SPEC.hosts[::3])
        self._walk_all(sides, self.SPEC.hosts)

    def test_source_on_inter_switch_port_not_learned(self):
        sides = self._pair(known=self.SPEC.hosts[:1])
        stranger = MacAddr.host(99)
        dpid, port = next(iter(self.TRUTH.links))
        for dst in (self.SPEC.hosts[0].mac, MacAddr.host(98)):
            self._packet(sides, packet_event(dpid, port, Frame(dst, stranger, ETHERTYPE_DATA, b"x")))
        assert stranger not in sides[1][1].hosts()

    def test_broadcast_source_and_destination(self):
        sides = self._pair(known=self.SPEC.hosts[:8])
        for h in self.SPEC.hosts:
            for frame in (
                Frame(BROADCAST, h.mac, ETHERTYPE_ARP, b"HOSTaaaaaa"),
                Frame(h.mac, BROADCAST, ETHERTYPE_DATA, b"from-broadcast"),
                Frame(BROADCAST, BROADCAST, ETHERTYPE_DATA, b"both"),
            ):
                self._packet(sides, packet_event(h.dpid, h.port, frame))

    def test_discovery_frames(self):
        sides = self._pair(known=self.SPEC.hosts)
        for sd, sp, dd, dp in sorted(self.SPEC.switch_link_set()):
            assert self._packet(sides, packet_event(dd, dp, probe_frame(sd, sp))).kind == "ignored"
        assert sides[1][2].stats.packets_handled == 0

    def test_known_destination_behind_cut_links(self):
        sides = self._pair(known=self.SPEC.hosts)
        cut = self.SPEC.hosts[-1].dpid  # an edge switch: cut both its uplinks
        self._topo_events(sides, *(
            TopologyPortEvent(dpid=cut, port=port, up=False)
            for dpid, port in self.TRUTH.links if dpid == cut
        ))
        cut_off = [h for h in self.SPEC.hosts if h.dpid == cut]
        for src in self.SPEC.hosts:
            for dst in cut_off:
                if src is not dst:
                    frame = Frame(dst.mac, src.mac, ETHERTYPE_DATA, b"data")
                    self._packet(sides, packet_event(src.dpid, src.port, frame))
        # every sender off the cut switch fails; the two behind it still meet
        others = len(self.SPEC.hosts) - len(cut_off)
        assert sides[1][2].stats.path_failures == others * len(cut_off)
        assert sides[1][2].stats.forwarded == len(cut_off) * (len(cut_off) - 1)


MODES = [DistMode.INTERNAL, DistMode.P2P, DistMode.BROKER]


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
class TestEndToEnd:
    def test_discovery_matches_ground_truth(self, mode):
        spec = build_fat_tree(2)
        with Stack(spec, StackConfig(mode=mode, discovery_interval=0)) as stack:
            stack.warm()
            assert stack.topo.link_set() == spec.switch_link_set()
            assert set(stack.topo.hosts()) == {h.mac for h in spec.hosts}

    def test_ping_with_empty_tables(self, mode):
        spec = build_linear(5)
        with Stack(spec, StackConfig(mode=mode, discovery_interval=0)) as stack:
            stack.warm()
            samples = stack.host("h1").ping(stack.host("h2").mac, count=3, interval=0.001)
            assert all(not s.lost for s in samples)
            assert stack.fwd.stats.installs == 0

    def test_install_mode_ping_programs_switches(self, mode):
        spec = build_linear(3)
        config = StackConfig(mode=mode, discovery_interval=0, install_rules=True,
                             hard_timeout_s=60)
        with Stack(spec, config) as stack:
            stack.warm()
            samples = stack.host("h1").ping(stack.host("h2").mac, count=2, interval=0.001)
            assert all(not s.lost for s in samples)
            stack.fabric.quiesce()
            # forward path rules for h2 plus reverse path rules for h1
            for dpid in (1, 2, 3):
                matches = {r.match.eth_dst for r in stack.core.flows(dpid)}
                assert matches == {stack.host("h1").mac, stack.host("h2").mac}


@pytest.mark.parametrize("rest", [False, True], ids=["no-rest", "rest"])
def test_failed_start_stops_what_it_started(rest):
    before = set(threading.enumerate())
    stack = Stack(build_linear(2), StackConfig(install_channel="bogus", rest=rest))
    with pytest.raises(ValueError, match="bogus"):
        stack.start()
    assert [t.name for t in threading.enumerate() if t not in before] == []


def test_started_stack_adds_only_the_data_plane_thread():
    before = set(threading.enumerate())
    with Stack(build_linear(2), StackConfig(discovery_interval=0)):
        assert [t.name for t in threading.enumerate() if t not in before] == ["fabric"]


@pytest.mark.parametrize("mode", [DistMode.P2P, DistMode.BROKER], ids=["p2p", "broker"])
def test_warm_probes_only_once_every_switch_is_known(mode):
    spec = build_fat_tree(4)
    with Stack(spec, StackConfig(mode=mode, discovery_interval=0)) as stack:
        seen = []
        run_round = stack.topo.run_discovery_round

        def recording_round() -> None:
            seen.append(stack.topo.graph().switches)
            run_round()

        stack.topo.run_discovery_round = recording_round
        stack.warm()
        assert seen[0] == {s.dpid for s in spec.switches}


class TestPacketEventAccounting:
    def test_five_hop_chain_generates_five_events_per_direction(self):
        spec = build_linear(5)
        with Stack(spec, StackConfig(mode=DistMode.INTERNAL, discovery_interval=0)) as stack:
            stack.warm()
            stack.fabric.quiesce()
            before = [
                e for e in stack.event_log() if isinstance(e, PacketExceptionEvent)
            ]
            (sample,) = stack.host("h1").ping(stack.host("h2").mac, count=1)
            assert not sample.lost
            stack.fabric.quiesce()
            after = [
                e for e in stack.event_log() if isinstance(e, PacketExceptionEvent)
            ]
            new = [e for e in after if e.seq > before[-1].seq] if before else after
            data_events = [e for e in new if e.frame.ethertype == ETHERTYPE_DATA]
            assert len(data_events) == 10  # 5 switches out, 5 back
