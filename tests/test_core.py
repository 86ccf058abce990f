"""Controller-core tests: attach/detach, event emission, flow programming."""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import pytest

from flowplane.broker import Broker
from flowplane.core import (
    Core,
    CoreConfig,
    CoreError,
    DistMode,
    DuplicateDatapathError,
    FlowModRequest,
    UnknownDatapathError,
    UnknownPortError,
    UnknownRuleError,
)
from flowplane.fabric import Fabric
from flowplane.p2p import P2pDistributor
from flowplane.topology import build_linear
from flowplane.wire import (
    Action,
    ActionKind,
    ETHERTYPE_DATA,
    EventKind,
    FLOOD_PORT,
    FlowModOp,
    FlowRule,
    FlowRuleEvent,
    Frame,
    Hello,
    MacAddr,
    Match,
    PacketExceptionEvent,
    PacketIn,
    RuleEventOp,
    TopologyDeviceEvent,
    TopologyLinkEvent,
    TopologyPortEvent,
    encode_sb,
    event_kind,
)

H1 = MacAddr.host(1)
H2 = MacAddr.host(2)


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def frame(payload=b"payload") -> Frame:
    return Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=payload)


class TxSpy:
    def __init__(self):
        self.sent: list[bytes] = []

    def __call__(self, data: bytes) -> None:
        self.sent.append(data)


class TestAttach:
    def test_attach_emits_device_and_port_events(self):
        core = Core()
        core.attach_switch(Hello(dpid=1, ports=(1, 2)), TxSpy())
        log = core.event_log()
        assert [type(e) for e in log] == [
            TopologyDeviceEvent,
            TopologyPortEvent,
            TopologyPortEvent,
        ]
        assert log[0] == TopologyDeviceEvent(
            dpid=1, up=True, seq=log[0].seq, ts_micros=log[0].ts_micros
        )
        assert {(e.dpid, e.port) for e in log[1:]} == {(1, 1), (1, 2)}

    def test_duplicate_attach_rejected(self):
        core = Core()
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        with pytest.raises(DuplicateDatapathError):
            core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())

    def test_attach_then_detach_sequences(self):
        core = Core()
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        core.detach_switch(1)
        device_events = [e for e in core.event_log() if isinstance(e, TopologyDeviceEvent)]
        assert [e.up for e in device_events] == [True, False]
        assert device_events[0].seq < device_events[1].seq

    def test_detach_unknown_rejected(self):
        core = Core()
        with pytest.raises(UnknownDatapathError):
            core.detach_switch(9)


class TestRaiseEvent:
    def test_seq_strictly_increasing_no_duplicates(self):
        core = Core()
        core.attach_switch(Hello(dpid=1, ports=(1, 2, 3, 4)), TxSpy())
        for _ in range(20):
            core.raise_event(PacketExceptionEvent(dpid=1, in_port=1, frame=frame()))
        seqs = [e.seq for e in core.event_log()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_packet_in_preserves_frame_bytes(self):
        core = Core()
        tx = TxSpy()
        core.attach_switch(Hello(dpid=1, ports=(1,)), tx)
        f = frame(b"\x00\x01\x02exact")
        core.on_sb_bytes(encode_sb(PacketIn(dpid=1, in_port=1, frame=f)), tx=tx)
        packet_events = [e for e in core.event_log() if isinstance(e, PacketExceptionEvent)]
        assert packet_events[0].frame == f

    def test_broker_mode_publishes_to_kind_topic(self):
        broker = Broker()
        core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        core.raise_event(PacketExceptionEvent(dpid=1, in_port=1, frame=frame()))
        assert broker.record_count("events.packet") == 1
        assert broker.record_count("events.device") == 1
        assert broker.record_count("events.port") == 1

    def test_p2p_mode_pushes(self):
        dist = P2pDistributor()
        core = Core(CoreConfig(mode=DistMode.P2P), p2p=dist)
        sub = dist.subscribe({EventKind.PACKET})
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        core.raise_event(PacketExceptionEvent(dpid=1, in_port=1, frame=frame()))
        assert sub.get(timeout=1) is not None

    def test_mode_isolation(self):
        broker = Broker()
        core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
        assert core.backend_p2p() is None
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        assert broker.total_records() == 2

        dist = P2pDistributor()
        core2 = Core(CoreConfig(mode=DistMode.P2P), p2p=dist)
        assert core2.backend_broker() is None
        core2.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        assert dist.pushed == 2

    def test_mismatched_backend_config_rejected(self):
        with pytest.raises(CoreError):
            Core(CoreConfig(mode=DistMode.BROKER))
        with pytest.raises(CoreError):
            Core(CoreConfig(mode=DistMode.P2P))
        with pytest.raises(CoreError):
            Core(CoreConfig(mode=DistMode.INTERNAL), broker=Broker())
        with pytest.raises(CoreError):
            Core(CoreConfig(mode=DistMode.BROKER), broker=Broker(), p2p=P2pDistributor())

    def test_internal_app_receives_events(self):
        seen = []

        class App:
            def on_event(self, event):
                seen.append(event)

        core = Core(internal_app=App())
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        assert len(seen) == 2

    def test_broken_backend_counts_drops(self):
        class App:
            def on_event(self, event):
                raise RuntimeError("service crashed")

        core = Core(internal_app=App())
        core.attach_switch(Hello(dpid=1, ports=(1,)), TxSpy())
        assert core.metrics.events_dropped == 2
        assert core.metrics.events_emitted == 2

    def test_flow_mod_raises_added_event(self):
        core = Core()
        core.attach_switch(Hello(dpid=1, ports=(1, 2)), TxSpy())
        core.flow_mod(
            FlowModRequest(
                dpid=1,
                priority=100,
                match=Match(eth_dst=H2),
                actions=(Action(ActionKind.OUTPUT, 2),),
                hard_timeout_s=10,
            )
        )
        rule_events = [e for e in core.event_log() if isinstance(e, FlowRuleEvent)]
        assert len(rule_events) == 1
        assert rule_events[0].op is RuleEventOp.ADDED
        assert rule_events[0].rule.hard_timeout_s == 10


ONE_OF_EACH_KIND = [
    PacketExceptionEvent(dpid=1, in_port=2, frame=frame()),
    TopologyLinkEvent(src_dpid=1, src_port=2, dst_dpid=3, dst_port=4, up=True),
    TopologyDeviceEvent(dpid=5, up=False),
    TopologyPortEvent(dpid=6, port=7, up=True),
    FlowRuleEvent(
        op=RuleEventOp.ADDED,
        dpid=8,
        rule=FlowRule(rule_id=9, priority=10, match=Match(eth_dst=H2),
                      actions=(Action(ActionKind.OUTPUT, 2),), hard_timeout_s=3),
    ),
]


class TestStamp:
    """``raise_event`` stamps a copy that is what ``dataclasses.replace`` builds."""

    @pytest.mark.parametrize("event", ONE_OF_EACH_KIND, ids=lambda e: type(e).__name__)
    def test_stamped_copy_equals_replace(self, event):
        core = Core()
        core.raise_event(TopologyDeviceEvent(dpid=99, up=True))  # seq 1
        before = dataclasses.replace(event)
        stamped = core.raise_event(event)
        expected = dataclasses.replace(event, seq=2, ts_micros=stamped.ts_micros)
        assert type(stamped) is type(event)
        assert stamped == expected and hash(stamped) == hash(expected)
        assert vars(stamped) == vars(expected)
        assert stamped.ts_micros > 0
        # the caller's event is left as it was
        assert stamped is not event
        assert event == before and event.seq == 0 and event.ts_micros == 0
        assert core.event_log()[-1] is stamped
        with pytest.raises(dataclasses.FrozenInstanceError):
            stamped.seq = 3

    def test_punt_path_stamps_once_per_frame_without_replace(self, monkeypatch):
        from flowplane.stack import Stack, StackConfig

        spec = build_linear(3)
        with Stack(spec, StackConfig(discovery_interval=0)) as stack:
            stack.warm()
            stack.fabric.quiesce()
            first = len(stack.event_log())
            stamps = []
            raise_event = Core.raise_event

            def counting_raise(self, event):
                stamps.append(event)
                return raise_event(self, event)

            replaced = []
            real_replace = dataclasses.replace

            def counting_replace(obj, /, **changes):
                replaced.append(type(obj).__name__)
                return real_replace(obj, **changes)

            monkeypatch.setattr(Core, "raise_event", counting_raise)
            monkeypatch.setattr(dataclasses, "replace", counting_replace)
            for name, module in list(sys.modules.items()):
                if name.startswith("flowplane") and getattr(module, "replace", None) is real_replace:
                    monkeypatch.setattr(module, "replace", counting_replace)
            samples = stack.host("h1").ping(stack.host("h2").mac, count=3, interval=0)
            stack.fabric.quiesce()
            assert all(not s.lost for s in samples)
            punted = stack.event_log()[first:]
        # 3 switches each way per ping, every one a punt stamped once
        assert len(punted) == 18 and len(stamps) == 18
        assert all(isinstance(e, PacketExceptionEvent) for e in punted)
        assert replaced == []


class TestPacketOut:
    def test_packet_out_delivers_encoded_message(self):
        core = Core()
        tx = TxSpy()
        core.attach_switch(Hello(dpid=3, ports=(1, 2)), tx)
        sent_before = len(tx.sent)
        core.packet_out(3, FLOOD_PORT, frame())
        assert len(tx.sent) == sent_before + 1

    def test_unknown_dpid_rejected(self):
        core = Core()
        with pytest.raises(UnknownDatapathError):
            core.packet_out(9, 1, frame())

    def test_unknown_port_rejected(self):
        core = Core()
        core.attach_switch(Hello(dpid=3, ports=(1, 2)), TxSpy())
        with pytest.raises(UnknownPortError):
            core.packet_out(3, 7, frame())

    def test_flood_packet_out_reaches_all_up_ports(self):
        fabric = Fabric(build_linear(1))  # one switch, two hosts
        core = Core()
        core.adopt(fabric)
        with fabric:
            fabric.quiesce()
            f = Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=b"flooded")
            core.packet_out(1, FLOOD_PORT, f)
            fabric.quiesce()
            assert fabric.hosts["h2"].inbox == [f]
            # h1 filters it out (dst is not h1's MAC) but the port carried it
            assert fabric.hosts["h2"].frames_received == 1


class TestFlowMod:
    def setup_method(self):
        self.core = Core()
        self.tx = TxSpy()
        self.core.attach_switch(Hello(dpid=1, ports=(1, 2)), self.tx)

    def req(self, **kw):
        defaults = dict(
            dpid=1,
            priority=100,
            match=Match(eth_dst=H2),
            actions=(Action(ActionKind.OUTPUT, 2),),
            hard_timeout_s=10,
        )
        defaults.update(kw)
        return FlowModRequest(**defaults)

    def test_add_returns_fresh_ids(self):
        first = self.core.flow_mod(self.req())
        second = self.core.flow_mod(self.req())
        assert first != second

    def test_remove_unknown_rule_rejected(self):
        with pytest.raises(UnknownRuleError):
            self.core.flow_mod(self.req(op=FlowModOp.REMOVE, rule_id=404))

    def test_remove_requires_rule_id(self):
        with pytest.raises(UnknownRuleError):
            self.core.flow_mod(self.req(op=FlowModOp.REMOVE))

    def test_unknown_dpid_rejected(self):
        with pytest.raises(UnknownDatapathError):
            self.core.flow_mod(self.req(dpid=9))

    def test_output_to_unknown_port_rejected(self):
        with pytest.raises(UnknownPortError):
            self.core.flow_mod(self.req(actions=(Action(ActionKind.OUTPUT, 9),)))

    def test_add_remove_modify_event_trail(self):
        rule_id = self.core.flow_mod(self.req())
        self.core.flow_mod(self.req(op=FlowModOp.MODIFY, rule_id=rule_id, priority=50))
        self.core.flow_mod(self.req(op=FlowModOp.REMOVE, rule_id=rule_id))
        ops = [e.op for e in self.core.event_log() if isinstance(e, FlowRuleEvent)]
        assert ops == [RuleEventOp.ADDED, RuleEventOp.UPDATED, RuleEventOp.REMOVED]

    def test_remove_after_remove_rejected(self):
        rule_id = self.core.flow_mod(self.req())
        self.core.flow_mod(self.req(op=FlowModOp.REMOVE, rule_id=rule_id))
        with pytest.raises(UnknownRuleError):
            self.core.flow_mod(self.req(op=FlowModOp.REMOVE, rule_id=rule_id))


class TestExpirySweep:
    def test_expired_rule_becomes_removed_event(self):
        fabric = Fabric(build_linear(1))
        core = Core()
        core.adopt(fabric)
        with fabric:
            core.start()
            try:
                fabric.quiesce()
                core.flow_mod(
                    FlowModRequest(
                        dpid=1,
                        priority=10,
                        match=Match(eth_dst=H2),
                        actions=(Action(ActionKind.OUTPUT, 2),),
                        hard_timeout_s=1,
                    )
                )
                deadline = time.monotonic() + 5
                removed = []
                while time.monotonic() < deadline and not removed:
                    removed = [
                        e
                        for e in core.event_log()
                        if isinstance(e, FlowRuleEvent) and e.op is RuleEventOp.REMOVED
                    ]
                    time.sleep(0.02)
                assert removed, "expiry sweep never reported the rule"
                assert core.flows(1) == []
            finally:
                core.stop()

    def test_live_flows_query_sees_installed_rule(self):
        fabric = Fabric(build_linear(1))
        core = Core()
        core.adopt(fabric)
        with fabric:
            fabric.quiesce()
            rule_id = core.flow_mod(
                FlowModRequest(
                    dpid=1,
                    priority=10,
                    match=Match(eth_dst=H2),
                    actions=(Action(ActionKind.OUTPUT, 2),),
                    hard_timeout_s=10,
                )
            )
            rules = core.flows(1)
            assert [r.rule_id for r in rules] == [rule_id]
            assert rules[0].hard_timeout_s == 10

    def test_core_runs_no_thread_of_its_own(self):
        before = set(threading.enumerate())
        core = Core().start()
        try:
            assert [t.name for t in threading.enumerate() if t not in before] == []
        finally:
            core.stop()

    # the switches below never see a frame, so only their own timers expire rules

    @pytest.fixture
    def idle(self):
        fabric = Fabric(build_linear(3))
        core = Core()
        core.adopt(fabric)
        with fabric:
            core.start()
            try:
                assert fabric.quiesce()
                yield core
            finally:
                core.stop()

    @staticmethod
    def _add(core: Core, dpid: int) -> tuple[int, float]:
        """A 1 s rule on ``dpid``: its id and the wall time just before the request."""
        sent = time.time()
        return core.flow_mod(FlowModRequest(dpid=dpid, match=Match(eth_dst=H2), hard_timeout_s=1)), sent

    @staticmethod
    def _removed(core: Core) -> list[tuple[int, float]]:
        """(rule id, wall time) of every REMOVED event, in seq order."""
        return [
            (e.rule.rule_id, e.ts_micros / 1e6)
            for e in core.event_log()
            if isinstance(e, FlowRuleEvent) and e.op is RuleEventOp.REMOVED
        ]

    def test_idle_switch_reports_expiry_at_the_deadline(self, idle):
        # a twelfth of a second apart, so a purge running only every quarter
        # second would be more than 0.1 s late for at least one of them
        sent = {}
        for dpid in (1, 2, 3):
            rule_id, sent[rule_id] = self._add(idle, dpid)
            time.sleep(1 / 12)
        assert wait_until(lambda: len(self._removed(idle)) == 3)
        for rule_id, removed_at in self._removed(idle):
            assert 0.995 <= removed_at - sent[rule_id] <= 1.1, rule_id
        assert all(idle.flows(dpid) == [] for dpid in (1, 2, 3))

    def test_modify_restarts_the_deadline(self, idle):
        rule_id, sent = self._add(idle, 1)
        time.sleep(0.5)
        modified = time.time()
        idle.flow_mod(
            FlowModRequest(
                dpid=1, op=FlowModOp.MODIFY, rule_id=rule_id, priority=20, hard_timeout_s=1
            )
        )
        time.sleep(max(0.0, sent + 1.2 - time.time()))
        assert [(r.rule_id, r.priority) for r in idle.flows(1)] == [(rule_id, 20)]
        assert self._removed(idle) == []
        assert wait_until(lambda: self._removed(idle))
        ((removed_id, removed_at),) = self._removed(idle)
        assert removed_id == rule_id
        assert 0.995 <= removed_at - modified <= 1.1

    def test_rule_removed_early_is_reported_once(self, idle):
        rule_id, sent = self._add(idle, 1)
        idle.flow_mod(FlowModRequest(dpid=1, op=FlowModOp.REMOVE, rule_id=rule_id))
        time.sleep(max(0.0, sent + 1.3 - time.time()))  # past the stale deadline
        assert idle.flows(1) == []
        assert [rid for rid, _ in self._removed(idle)] == [rule_id]


class TestReportLink:
    def test_report_link_raises_event(self):
        core = Core()
        core.report_link(1, 2, 3, 4, True)
        (ev,) = core.event_log()
        assert isinstance(ev, TopologyLinkEvent)
        assert (ev.src_dpid, ev.src_port, ev.dst_dpid, ev.dst_port, ev.up) == (1, 2, 3, 4, True)
        assert event_kind(ev) is EventKind.LINK
