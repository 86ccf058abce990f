"""Socket call-channel tests and a fully socket-connected service deployment."""

from __future__ import annotations

import logging
import time
from collections import Counter
from contextlib import ExitStack

import pytest

from flowplane.core import (
    Core,
    CoreConfig,
    DistMode,
    FlowModRequest,
    UnknownDatapathError,
    UnknownPortError,
    UnknownRuleError,
)
from flowplane.coreapi import CoreApiServer, RemoteCore
from flowplane.fabric import Fabric
from flowplane.interservice import TopoQueryClient, TopoQueryServer
from flowplane.services import ForwardingService, FwdConfig, TopologyService
from flowplane.stack import (
    FWD_KINDS,
    TOPO_KINDS,
    _SubscriberLoop,
    attach_services,
    converge,
    event_source,
    serve_events,
    start_core,
)
from flowplane.topology import build_linear
from flowplane.wire import (
    Action,
    ActionKind,
    ETHERTYPE_DATA,
    EventKind,
    FlowModOp,
    FlowRule,
    FlowRuleEvent,
    Frame,
    MacAddr,
    Match,
    PacketExceptionEvent,
    RuleEventOp,
    TOPIC_FOR_KIND,
    TopologyDeviceEvent,
    TopologyLinkEvent,
    TopologyPortEvent,
    encode_event,
    event_kind,
)

H1 = MacAddr.host(1)
H2 = MacAddr.host(2)


@pytest.fixture
def remote_core():
    fabric = Fabric(build_linear(2))
    core = Core()
    core.adopt(fabric)
    fabric.start()
    fabric.quiesce()
    server = CoreApiServer(core).start()
    client = RemoteCore(server.address)
    yield core, fabric, client
    client.close()
    server.stop()
    fabric.stop()


class TestRemoteCore:
    def test_packet_out_reaches_host(self, remote_core):
        core, fabric, client = remote_core
        h2 = fabric.hosts["h2"]
        _, port = h2.attachment
        f = Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=b"remote")
        client.packet_out(2, port, f)
        fabric.quiesce()
        assert h2.inbox == [f]

    def test_flow_mod_roundtrip(self, remote_core):
        core, fabric, client = remote_core
        rule_id = client.flow_mod(
            FlowModRequest(
                dpid=1,
                priority=7,
                match=Match(eth_dst=H2),
                actions=(Action(ActionKind.OUTPUT, 1),),
                hard_timeout_s=30,
            )
        )
        fabric.quiesce()
        (rule,) = core.flows(1)
        assert rule.rule_id == rule_id
        assert rule.priority == 7
        assert rule.match == Match(eth_dst=H2)
        client.flow_mod(FlowModRequest(dpid=1, op=FlowModOp.REMOVE, rule_id=rule_id))
        fabric.quiesce()
        assert core.flows(1) == []

    def test_typed_errors_cross_the_socket(self, remote_core):
        _, _, client = remote_core
        f = Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=b"")
        with pytest.raises(UnknownDatapathError):
            client.packet_out(99, 1, f)
        with pytest.raises(UnknownPortError):
            client.packet_out(1, 42, f)
        with pytest.raises(UnknownRuleError):
            client.flow_mod(FlowModRequest(dpid=1, op=FlowModOp.REMOVE, rule_id=555))

    def test_report_link_crosses_the_socket(self, remote_core):
        core, _, client = remote_core
        client.report_link(1, 2, 3, 4, True)
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            links = [e for e in core.event_log() if isinstance(e, TopologyLinkEvent)]
            if links:
                break
            time.sleep(0.01)
        assert links[0].src_dpid == 1 and links[0].up


class TestTopoQueryChannel:
    @pytest.fixture
    def query(self):
        class NullCore:
            def packet_out(self, *a):
                pass

            def report_link(self, *a):
                pass

        topo = TopologyService(NullCore(), discovery_interval=0)
        for dpid in (1, 2):
            topo.on_event(TopologyDeviceEvent(dpid=dpid, up=True))
            for port in (1, 2):
                topo.on_event(TopologyPortEvent(dpid=dpid, port=port, up=True))
        server = TopoQueryServer(topo).start()
        client = TopoQueryClient(server.address)
        yield topo, client
        client.close()
        server.stop()

    def test_learn_then_locate(self, query):
        topo, client = query
        client.learn_host(H1, 1, 2)
        loc = client.host_location(H1)
        assert (loc.dpid, loc.port) == (1, 2)
        assert topo.host_location(H1) == loc

    def test_unknown_host_is_none(self, query):
        _, client = query
        assert client.host_location(MacAddr.host(77)) is None

    def test_path_roundtrip_and_errors(self, query):
        topo, client = query
        from flowplane.services import DiscoveryPayload, UnknownHostError

        topo.on_event(
            PacketExceptionEvent(
                dpid=2, in_port=1, frame=DiscoveryPayload(1, 1, 1).frame()
            )
        )
        topo.on_event(
            PacketExceptionEvent(
                dpid=1, in_port=1, frame=DiscoveryPayload(2, 1, 1).frame()
            )
        )
        client.learn_host(H1, 1, 2)
        client.learn_host(H2, 2, 2)
        hops = client.path_from_switch(1, H2)
        assert [(h.dpid, h.out_port) for h in hops] == [(1, 1), (2, 2)]
        with pytest.raises(UnknownHostError):
            client.path_from_switch(1, MacAddr.host(77))


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# one event of every kind, raised five times over
_EVENTS = (
    TopologyDeviceEvent(dpid=1, up=True),
    TopologyPortEvent(dpid=1, port=2, up=True),
    PacketExceptionEvent(
        dpid=1, in_port=2, frame=Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=b"")
    ),
    TopologyLinkEvent(src_dpid=1, src_port=1, dst_dpid=2, dst_port=1, up=True),
    FlowRuleEvent(
        op=RuleEventOp.ADDED,
        dpid=1,
        rule=FlowRule(rule_id=1, priority=1, match=Match(), actions=(), hard_timeout_s=0),
    ),
) * 5


class _Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append((event_kind(event), event.seq))


class _RaisesOnDevice(_Recorder):
    def on_event(self, event):
        super().on_event(event)
        if isinstance(event, TopologyDeviceEvent):
            raise RuntimeError("service failed")


class _ListSource:
    """An event source handing out the given bytes, then nothing."""

    def __init__(self, items):
        self._items = list(items)

    def get(self, timeout=None):
        if self._items:
            return self._items.pop(0)
        time.sleep(timeout or 0)
        return None

    def close(self):
        pass


class _CountingTopo:
    """Counts the topology query server's requests per tag on the way to ``topo``."""

    def __init__(self, topo: TopologyService):
        self._topo = topo
        self.tags = Counter()

    def host_location(self, mac):
        self.tags[1] += 1
        return self._topo.host_location(mac)

    def path_from_switch(self, dpid, mac, learn=None):
        self.tags[2 if learn is None else 4] += 1
        return self._topo.path_from_switch(dpid, mac, learn)

    def learn_host(self, mac, dpid, port):
        self.tags[3] += 1
        self._topo.learn_host(mac, dpid, port)


class TestStandaloneServices:
    """The split deployment, wired by the functions in ``flowplane.stack``."""

    @pytest.mark.parametrize("mode", [DistMode.BROKER, DistMode.P2P])
    def test_services_over_sockets_end_to_end(self, mode):
        """Topology + forwarding connected to the core purely via sockets."""
        spec = build_linear(3)
        with ExitStack() as teardown:
            fabric = Fabric(spec)
            teardown.callback(fabric.stop)
            core, backend = start_core(CoreConfig(mode=mode), teardown)
            events = serve_events(mode, backend, "127.0.0.1", 0, teardown)
            api_server = CoreApiServer(core).start()
            teardown.callback(api_server.stop)
            topo_core = RemoteCore(api_server.address)
            teardown.callback(topo_core.close)
            fwd_core = RemoteCore(api_server.address)
            teardown.callback(fwd_core.close)
            topo = TopologyService(topo_core, discovery_interval=0)
            counted = _CountingTopo(topo)
            query_server = TopoQueryServer(counted).start()
            teardown.callback(query_server.stop)
            topo_client = TopoQueryClient(query_server.address)
            teardown.callback(topo_client.close)
            # the forwarding service reaches the topology service only via the
            # inter-service query channel, like a real split deployment
            fwd = ForwardingService(fwd_core, topo_client, FwdConfig(install_rules=False))
            loops = attach_services(
                core, events.address, topo, fwd, teardown, poll_interval=0.001
            )
            if mode is DistMode.P2P:
                # subscriptions are live before any events exist (p2p has no history)
                assert wait_until(lambda: backend.subscription_count() == 2)
            core.adopt(fabric)
            fabric.start()
            assert wait_until(lambda: core.datapaths() == [1, 2, 3])
            converge(spec, fabric, topo, timeout=10)
            assert topo.link_set() == spec.switch_link_set()
            assert set(topo.hosts()) == {h.mac for h in spec.hosts}
            counted.tags.clear()
            commits = []
            if mode is DistMode.BROKER:
                # the served broker's explicit commits (socket tag 3)
                def counting_commit(*args, commit=backend.commit):
                    commits.append(args)
                    commit(*args)

                backend.commit = counting_commit
            last_seq = core.event_log()[-1].seq
            samples = fabric.hosts["h1"].ping(H2, count=3, interval=0.001)
            assert all(not s.lost for s in samples)
            # one learn-path round trip per punted unicast frame, nothing else
            unicast_punts = [
                e for e in core.event_log()
                if e.seq > last_seq and isinstance(e, PacketExceptionEvent)
                and not e.frame.dst.is_broadcast
            ]
            assert len(unicast_punts) == 18  # 3 switches each way, 3 pings
            assert counted.tags[4] == len(unicast_punts)
            assert counted.tags[1] == 0 and counted.tags[2] == 0
            assert [loop.errors for loop in loops] == [0, 0]
            if mode is DistMode.BROKER:
                # the consumers' polls commit their progress: no commit round
                # trip per event, and each topic is committed to its end
                assert commits == []
                positions = [
                    (f"{name}-service", TOPIC_FOR_KIND[kind])
                    for name, kinds in (("topo", TOPO_KINDS), ("fwd", FWD_KINDS))
                    for kind in kinds
                ]
                assert wait_until(lambda: all(
                    backend.committed(consumer, topic) == backend.record_count(topic)
                    for consumer, topic in positions
                ))

    @pytest.mark.parametrize("mode", [DistMode.BROKER, DistMode.P2P])
    def test_loop_counts_service_errors_and_keeps_consuming(self, mode, caplog):
        caplog.set_level(logging.ERROR, logger="flowplane.stack")
        with ExitStack() as teardown:
            core, backend = start_core(CoreConfig(mode=mode), teardown)
            topo, fwd = _RaisesOnDevice(), _Recorder()
            loops = attach_services(core, backend, topo, fwd, teardown, poll_interval=0.001)
            if mode is DistMode.P2P:
                assert wait_until(lambda: backend.subscription_count() == 2)
            raised = [core.raise_event(e) for e in _EVENTS]
            want_topo = [(event_kind(e), e.seq) for e in raised if event_kind(e) in TOPO_KINDS]
            assert wait_until(lambda: len(topo.events) >= len(want_topo))
            assert sorted(topo.events, key=lambda e: e[1]) == want_topo
            devices = sum(isinstance(e, TopologyDeviceEvent) for e in _EVENTS)
            assert wait_until(lambda: loops[0].errors == devices)
            assert loops[1].errors == 0
            assert len([r for r in caplog.records if r.name == "flowplane.stack"]) == devices

    def test_loop_counts_undecodable_events(self, caplog):
        caplog.set_level(logging.ERROR, logger="flowplane.stack")
        source = _ListSource(
            [b"not an event", encode_event(_EVENTS[0]), b"", encode_event(_EVENTS[1])]
        )
        service = _Recorder()
        loop = _SubscriberLoop(source, service, "test-loop")
        try:
            assert wait_until(lambda: len(service.events) == 2)
            assert loop.errors == 2
        finally:
            loop.stop()
        assert len([r for r in caplog.records if r.name == "flowplane.stack"]) == 2

    @pytest.mark.parametrize("mode", [DistMode.BROKER, DistMode.P2P])
    def test_lost_event_connection_ends_the_loop(self, mode, caplog):
        caplog.set_level(logging.ERROR, logger="flowplane.stack")
        with ExitStack() as teardown:
            core, backend = start_core(CoreConfig(mode=mode), teardown)
            server = serve_events(mode, backend, "127.0.0.1", 0, teardown)
            source = event_source(mode, server.address, TOPO_KINDS, "topo", poll_interval=0.001)
            loop = _SubscriberLoop(source, _Recorder(), "test-loop")
            teardown.callback(loop.stop)
            if mode is DistMode.P2P:
                assert wait_until(lambda: backend.subscription_count() == 1)
            server.stop()
            loop._thread.join(timeout=1)
            assert not loop._thread.is_alive()
            assert loop.errors == 1
            assert len([r for r in caplog.records if r.name == "flowplane.stack"]) == 1

    @pytest.mark.parametrize("remote", [False, True], ids=["inproc", "socket"])
    @pytest.mark.parametrize("mode", [DistMode.BROKER, DistMode.P2P])
    def test_each_service_gets_its_kinds_in_seq_order(self, mode, remote):
        with ExitStack() as teardown:
            core, backend = start_core(CoreConfig(mode=mode), teardown)
            events = backend
            if remote:
                events = serve_events(mode, backend, "127.0.0.1", 0, teardown).address
            topo, fwd = _Recorder(), _Recorder()
            # a small batch makes the broker consumer merge short refills across topics
            attach_services(core, events, topo, fwd, teardown, poll_interval=0.001, batch=4)
            if mode is DistMode.P2P:
                assert wait_until(lambda: backend.subscription_count() == 2)
            raised = [core.raise_event(e) for e in _EVENTS]
            want_topo = [(event_kind(e), e.seq) for e in raised if event_kind(e) in TOPO_KINDS]
            want_fwd = [(event_kind(e), e.seq) for e in raised if event_kind(e) is EventKind.PACKET]
            assert wait_until(
                lambda: len(topo.events) >= len(want_topo) and len(fwd.events) >= len(want_fwd)
            )
            time.sleep(0.05)  # room for anything that should not arrive
            assert fwd.events == want_fwd
            assert sorted(topo.events, key=lambda e: e[1]) == want_topo
            if mode is DistMode.P2P:
                assert topo.events == want_topo
            else:
                # each topic arrives in seq order; across topics a consumer
                # polling while the core publishes can still hand out a later
                # seq first (ROADMAP item 4), so only per-kind order is asserted
                for kind in TOPO_KINDS:
                    got = [e for e in topo.events if e[0] is kind]
                    assert got == [e for e in want_topo if e[0] is kind]
