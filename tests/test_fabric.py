"""Data-plane integration tests: delivery, conservation, latency, streams."""

from __future__ import annotations

import threading
import time

import pytest

from flowplane.fabric import Fabric
from flowplane.topology import build_linear
from flowplane.wire import (
    Action,
    ActionKind,
    ETHERTYPE_DATA,
    FlowRule,
    Frame,
    Hello,
    MacAddr,
    Match,
    PacketIn,
    PortStatus,
    decode_sb,
)


class StubController:
    """Counts southbound traffic; never replies."""

    def __init__(self, fabric: Fabric):
        self.lock = threading.Lock()
        self.packet_ins: list[PacketIn] = []
        self.port_statuses: list[PortStatus] = []
        self.hellos: list[Hello] = []
        for sw in fabric.switches.values():
            sw.connect_controller(self.rx)

    def rx(self, data: bytes) -> None:
        msg = decode_sb(data)
        with self.lock:
            if isinstance(msg, PacketIn):
                self.packet_ins.append(msg)
            elif isinstance(msg, PortStatus):
                self.port_statuses.append(msg)
            elif isinstance(msg, Hello):
                self.hellos.append(msg)


def install_path_rules(fabric: Fabric, priority: int = 100) -> None:
    """Static eth_dst rules along the chain, both directions (pre-start only)."""
    spec = fabric.spec
    n = len(spec.switches)
    h1, h2 = spec.host_by_id("h1"), spec.host_by_id("h2")
    next_id = iter(range(1, 1000))

    def port_toward(dpid: int, right: bool) -> int:
        for l in spec.links:
            if right and l.a_dpid == dpid:
                return l.a_port
            if not right and l.b_dpid == dpid:
                return l.b_port
        raise AssertionError

    for i, sw_spec in enumerate(spec.switches, start=1):
        sw = fabric.switches[sw_spec.dpid]
        out_h2 = h2.port if i == n else port_toward(sw_spec.dpid, right=True)
        out_h1 = h1.port if i == 1 else port_toward(sw_spec.dpid, right=False)
        for dst, out in ((h2.mac, out_h2), (h1.mac, out_h1)):
            sw.state.install(
                FlowRule(
                    rule_id=next(next_id),
                    priority=priority,
                    match=Match(eth_dst=dst),
                    actions=(Action(ActionKind.OUTPUT, out),),
                ),
                now=time.monotonic(),
            )


@pytest.fixture
def chain3():
    fabric = Fabric(build_linear(3))
    yield fabric
    fabric.stop()


class TestDelivery:
    def test_hello_on_connect(self, chain3):
        ctl = StubController(chain3)
        chain3.start()
        assert chain3.quiesce()
        assert sorted(h.dpid for h in ctl.hellos) == [1, 2, 3]
        assert all(h.ports for h in ctl.hellos)

    def test_frames_conserved_as_packet_ins_on_empty_tables(self, chain3):
        ctl = StubController(chain3)
        chain3.start()
        chain3.quiesce()
        h1 = chain3.hosts["h1"]
        h2 = chain3.hosts["h2"]
        for i in range(40):
            h1.send_frame(h2.mac, ETHERTYPE_DATA, b"payload-%d" % i)
        assert chain3.quiesce()
        with ctl.lock:
            assert len(ctl.packet_ins) == 40
            assert all(p.dpid == 1 for p in ctl.packet_ins)
        assert h2.frames_received == 0

    def test_frames_conserved_in_inbox_with_rules(self, chain3):
        install_path_rules(chain3)
        ctl = StubController(chain3)
        chain3.start()
        chain3.quiesce()
        h1, h2 = chain3.hosts["h1"], chain3.hosts["h2"]
        payloads = [b"data-%d" % i for i in range(40)]
        for p in payloads:
            h1.send_frame(h2.mac, ETHERTYPE_DATA, p)
        assert chain3.quiesce()
        assert [f.payload for f in h2.inbox] == payloads
        assert all(f.src == h1.mac for f in h2.inbox)
        with ctl.lock:
            assert not ctl.packet_ins

    def test_port_status_on_link_cut(self, chain3):
        ctl = StubController(chain3)
        chain3.start()
        chain3.quiesce()
        link = chain3.spec.links[0]
        chain3.cut_link(link.a_dpid, link.a_port)
        assert chain3.quiesce()
        with ctl.lock:
            down = {(p.dpid, p.port) for p in ctl.port_statuses if not p.up}
        assert down == {(link.a_dpid, link.a_port), (link.b_dpid, link.b_port)}


class TestPing:
    def test_ping_over_installed_rules(self, chain3):
        install_path_rules(chain3)
        chain3.start()
        h1, h2 = chain3.hosts["h1"], chain3.hosts["h2"]
        samples = h1.ping(h2.mac, count=5, interval=0.001)
        assert len(samples) == 5
        assert all(not s.lost for s in samples)
        assert all(s.rtt_s < 1.0 for s in samples)

    def test_rtt_tracks_link_latency(self):
        latency = 0.02
        fabric = Fabric(build_linear(2), link_latency=latency)
        install_path_rules(fabric)
        with fabric:
            (sample,) = fabric.hosts["h1"].ping(fabric.hosts["h2"].mac, count=1)
            assert not sample.lost
            # one latency-bearing link crossed twice
            assert sample.rtt_s >= 2 * latency
            assert sample.rtt_s < 2 * latency + 0.25

    def test_latency_link_preserves_fifo(self):
        fabric = Fabric(build_linear(2), link_latency=0.005)
        install_path_rules(fabric)
        with fabric:
            h1, h2 = fabric.hosts["h1"], fabric.hosts["h2"]
            payloads = [b"ordered-%02d" % i for i in range(25)]
            for p in payloads:
                h1.send_frame(h2.mac, ETHERTYPE_DATA, p)
            deadline = time.monotonic() + 5
            while len(h2.inbox) < len(payloads) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert [f.payload for f in h2.inbox] == payloads

    def test_self_ping_rejected(self, chain3):
        chain3.start()
        h1 = chain3.hosts["h1"]
        with pytest.raises(ValueError):
            h1.ping(h1.mac)

    def test_zero_count_rejected(self, chain3):
        chain3.start()
        with pytest.raises(ValueError):
            chain3.hosts["h1"].ping(chain3.hosts["h2"].mac, count=0)

    def test_lost_ping_recorded_not_raised(self, chain3):
        chain3.start()  # no rules, no controller: frames die at switch 1
        samples = chain3.hosts["h1"].ping(chain3.hosts["h2"].mac, count=2, timeout=0.05)
        assert [s.lost for s in samples] == [True, True]


class TestStream:
    def test_two_connections_fair_within_20_percent(self, chain3):
        install_path_rules(chain3)
        chain3.start()
        h1, h2 = chain3.hosts["h1"], chain3.hosts["h2"]
        reports = h1.stream(h2.mac, duration=1.5, n_conns=2)
        assert len(reports) == 2
        rates = sorted(r.goodput_bps for r in reports)
        assert rates[0] > 0
        assert rates[1] - rates[0] <= 0.2 * rates[1]

    def test_goodput_accounting(self, chain3):
        install_path_rules(chain3)
        chain3.start()
        h1, h2 = chain3.hosts["h1"], chain3.hosts["h2"]
        (report,) = h1.stream(h2.mac, duration=0.5, n_conns=1, segment_bytes=1464)
        assert report.bytes_acked == report.segments_acked * 1464
        assert report.goodput_bps == pytest.approx(8 * report.bytes_acked / 0.5)
        assert report.segments_acked > 10

    def test_bad_args_rejected(self, chain3):
        chain3.start()
        h1, h2 = chain3.hosts["h1"], chain3.hosts["h2"]
        with pytest.raises(ValueError):
            h1.stream(h2.mac, duration=1.0, n_conns=0)
        with pytest.raises(ValueError):
            h1.stream(h2.mac, duration=0.0, n_conns=1)
        with pytest.raises(ValueError):
            h1.stream(h1.mac, duration=1.0, n_conns=1)


class TestHostFiltering:
    def test_discovery_frames_ignored(self, chain3):
        chain3.start()
        h2 = chain3.hosts["h2"]
        sw, port = h2.attachment
        from flowplane.wire import ETHERTYPE_DISCOVERY, Frame, MacAddr

        h2.deliver(Frame(h2.mac, MacAddr.host(9), ETHERTYPE_DISCOVERY, b"probe"))
        chain3.quiesce()
        assert h2.frames_received == 0
        assert not h2.inbox

    def test_foreign_unicast_filtered(self, chain3):
        chain3.start()
        h2 = chain3.hosts["h2"]
        from flowplane.wire import Frame, MacAddr

        h2.deliver(Frame(MacAddr.host(9), MacAddr.host(8), ETHERTYPE_DATA, b"not-mine"))
        chain3.quiesce()
        assert not h2.inbox


class TestQuiesce:
    """quiesce() succeeds only once no actor has work queued or running."""

    def _block(self, actor, attr: str) -> tuple[threading.Event, threading.Event]:
        entered, release = threading.Event(), threading.Event()
        handler = getattr(actor, attr)

        def blocking(*args):
            entered.set()
            assert release.wait(timeout=5)
            handler(*args)

        setattr(actor, attr, blocking)
        return entered, release

    def test_host_busy_in_handler_is_not_idle(self, chain3):
        chain3.start()
        h2 = chain3.hosts["h2"]
        entered, release = self._block(h2, "_receive")
        h2.deliver(Frame(h2.mac, MacAddr.host(9), ETHERTYPE_DATA, b"slow"))
        assert entered.wait(timeout=2)
        try:
            assert not chain3.quiesce(timeout=0.2)
        finally:
            release.set()
        assert chain3.quiesce(timeout=2)
        assert h2.inbox[-1].payload == b"slow"

    def test_switch_busy_in_handler_is_not_idle(self, chain3):
        chain3.start()
        assert chain3.quiesce(timeout=2)
        sw = chain3.switches[2]
        entered, release = self._block(sw, "_dispatch")
        sw.sweep()
        assert entered.wait(timeout=2)
        try:
            assert not chain3.quiesce(timeout=0.2)
        finally:
            release.set()
        assert chain3.quiesce(timeout=2)
