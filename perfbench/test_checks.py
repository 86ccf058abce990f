"""The benchmark's own tests: its checks and its tracer on hand-worked cases.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
from layers import per_layer_spec  # noqa: E402
from flowplane.topology import build_fat_tree, build_linear  # noqa: E402
from flowplane.wire import (  # noqa: E402
    ETHERTYPE_DATA,
    ETHERTYPE_DISCOVERY,
    Action,
    ActionKind,
    FlowRule,
    FlowRuleEvent,
    Frame,
    Hello,
    MacAddr,
    Match,
    PacketExceptionEvent,
    PacketIn,
    PacketOut,
    RuleEventOp,
    TopologyPortEvent,
    encode_event,
    encode_sb,
)

LINEAR = build_linear(5)
FAT = build_fat_tree(4)
H1, H2 = MacAddr.host(1), MacAddr.host(2)


# -- graph oracle --------------------------------------------------------------

def test_punt_counts_by_hand():
    assert checks.punts_per_ping(LINEAR, "h1", "h2") == 10  # s1..s5 each way
    assert checks.punts_per_ping(FAT, "h1", "h2") == 2  # same edge switch
    assert checks.punts_per_ping(FAT, "h1", "h3") == 6  # edge-agg-edge within pod 0
    assert checks.punts_per_ping(FAT, "h1", "h16") == 10  # edge-agg-core-agg-edge


def test_next_ports_by_hand():
    # linear: port 1 faces the lower neighbour, port 2 the higher; hosts follow
    assert checks.shortest_next_ports(LINEAR, 2, "h2") == {2}
    assert checks.shortest_next_ports(LINEAR, 2, "h1") == {1}
    assert checks.shortest_next_ports(LINEAR, 5, "h2") == {2}
    assert checks.shortest_next_ports(LINEAR, 1, "h1") == {2}
    # fat-tree edge switch of h1 (dpid 7): both aggregation uplinks reach pod 3
    assert checks.shortest_next_ports(FAT, 7, "h16") == {3, 4}


def test_directed_links_count_both_directions():
    assert len(checks.directed_links(LINEAR)) == 8
    assert len(checks.directed_links(FAT)) == 64
    assert checks.check_links(LINEAR, checks.directed_links(LINEAR)) == []
    assert checks.check_links(LINEAR, list(checks.directed_links(LINEAR))[1:])


def test_shortest_path_recognised():
    assert checks.is_shortest_path(LINEAR, [1, 2, 3, 4, 5], "h1", "h2")
    assert not checks.is_shortest_path(LINEAR, [1, 2, 4, 5], "h1", "h2")
    assert not checks.is_shortest_path(LINEAR, [1, 2, 3, 2, 3, 4, 5], "h1", "h2")
    assert not checks.is_shortest_path(LINEAR, [5, 4, 3, 2, 1], "h1", "h2")


def test_cross_pod_pairs_never_share_a_pod():
    from workloads import cross_pod_pairs

    pairs = cross_pod_pairs(FAT, 4, random.Random(7))
    for _ in range(200):
        src, dst = next(pairs)
        assert (int(src[1:]) - 1) // 4 != (int(dst[1:]) - 1) // 4
        assert checks.punts_per_ping(FAT, src, dst) == 10


# -- event-log checks ------------------------------------------------------------

def punt(dpid: int, payload: bytes, src: MacAddr, dst: MacAddr, seq: int) -> PacketExceptionEvent:
    frame = Frame(dst=dst, src=src, ethertype=ETHERTYPE_DATA, payload=payload)
    return PacketExceptionEvent(dpid=dpid, in_port=1, frame=frame, seq=seq)


def ping_events(path, echo_seq=1, start=1):
    head = echo_seq.to_bytes(4, "big")
    out = [punt(d, b"PING" + head, H1, H2, start + i) for i, d in enumerate(path)]
    out += [punt(d, b"PONG" + head, H2, H1, start + len(path) + i) for i, d in enumerate(reversed(path))]
    return out


def test_ping_check_accepts_shortest_punts():
    hosts = {H1: "h1", H2: "h2"}
    assert checks.check_pings(LINEAR, ping_events([1, 2, 3, 4, 5]), [("h1", "h2", 0.003)], hosts) == []


def test_ping_check_rejects_detours_and_missing_punts():
    hosts = {H1: "h1", H2: "h2"}
    assert checks.check_pings(LINEAR, ping_events([1, 2, 3, 4]), [("h1", "h2", 0.003)], hosts)
    detour = ping_events([1, 2, 3, 4, 5]) + ping_events([3], echo_seq=9, start=50)[:1]
    assert checks.check_pings(LINEAR, detour, [("h1", "h2", 0.003)], hosts)


def test_seq_must_strictly_increase():
    ok = ping_events([1, 2])
    assert checks.check_seq_increasing(ok) == []
    assert checks.check_seq_increasing([ok[0], ok[0]])
    assert checks.check_seq_increasing([ok[1], ok[0]])


def rule_event(op, rule_id, dpid, t_s, port=2, dst=H2):
    rule = FlowRule(rule_id=rule_id, priority=100, match=Match(eth_dst=dst),
                    actions=(Action(ActionKind.OUTPUT, port),), hard_timeout_s=1)
    return FlowRuleEvent(op=op, dpid=dpid, rule=rule, seq=rule_id * 2 + (op is RuleEventOp.REMOVED),
                         ts_micros=int(t_s * 1e6))


def test_stream_rule_ports_follow_bfs():
    hosts = {H1: "h1", H2: "h2"}
    good = [rule_event(RuleEventOp.ADDED, 1, 3, 0.0, port=2)]
    bad = [rule_event(RuleEventOp.ADDED, 1, 3, 0.0, port=1)]
    assert checks.check_stream_rules(LINEAR, good, hosts) == []
    assert checks.check_stream_rules(LINEAR, bad, hosts)


def test_expected_cycles_by_hand():
    assert checks.expected_cycles(3.3, 1, 0.35) == (2, 3)
    assert checks.expected_cycles(10.0, 1, 0.35) == (7, 10)


def test_churn_counts_expiries_per_rule_key():
    # a 3.3 s window, 1 s timeout: installs at 0, 1.01, 2.02, expiries 1.0 apart
    events = []
    for i in range(4):
        events.append(rule_event(RuleEventOp.ADDED, 10 + i, 1, 0.01 + 1.01 * i))
        if i < 3:
            events.append(rule_event(RuleEventOp.REMOVED, 10 + i, 1, 1.01 + 1.01 * i))
    assert checks.check_churn(events, 0, 3_300_000, 1, 0.35) == []
    early = events[:1] + [rule_event(RuleEventOp.REMOVED, 10, 1, 0.5)]
    assert checks.check_churn(early, 0, 3_300_000, 1, 0.35)  # expired before its timeout
    assert checks.check_churn(events[:2], 0, 3_300_000, 1, 0.35)  # too few cycles


def test_receiver_count():
    assert checks.check_receiver(100, 0, 100, 2) == []
    assert checks.check_receiver(100, 0, 102, 2) == []  # one unacked segment per connection
    assert checks.check_receiver(100, 0, 103, 2)
    assert checks.check_receiver(100, 0, 99, 2)


def test_rule_listing_must_match_exactly():
    assert checks.check_rule_listing([3, 1, 2], [1, 2, 3], 7) == []
    assert checks.check_rule_listing([1, 2, 3, 4], [1, 2, 3], 7)
    assert checks.check_rule_listing([1, 2], [1, 2, 3], 7)


def test_punt_call_check():
    assert checks.check_punt_calls("p2p", 100, 100, 100) == []
    assert checks.check_punt_calls("p2p", 100, 101, 100)


# -- fixed offsets, pinned against the program's own encoders ----------------------

def test_background_classifiers_match_the_encoders():
    data = Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=b"PING")
    probe = Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DISCOVERY, payload=b"DSC1")
    assert tracing.sb_bytes_are_background(encode_sb(PacketIn(dpid=1, in_port=2, frame=probe)))
    assert not tracing.sb_bytes_are_background(encode_sb(PacketIn(dpid=1, in_port=2, frame=data)))
    assert not tracing.sb_bytes_are_background(encode_sb(PacketOut(dpid=1, out_port=2, frame=data)))
    assert tracing.sb_bytes_are_background(encode_sb(PacketOut(dpid=1, out_port=2, frame=probe)))
    assert tracing.sb_bytes_are_background(encode_sb(Hello(dpid=1, ports=(1, 2))))
    assert tracing.sb_message_is_background(Hello(dpid=1, ports=(1,)))
    packet = PacketExceptionEvent(dpid=1, in_port=2, frame=data, seq=42)
    assert tracing.event_seq(encode_event(packet)) == 42
    assert not tracing.event_bytes_are_background(encode_event(packet))
    assert tracing.event_bytes_are_background(
        encode_event(PacketExceptionEvent(dpid=1, in_port=2, frame=probe, seq=5))
    )
    assert tracing.event_bytes_are_background(encode_event(TopologyPortEvent(dpid=1, port=2, up=True)))
    flow = rule_event(RuleEventOp.ADDED, 1, 3, 0.0)
    assert not tracing.event_bytes_are_background(encode_event(flow))
    assert not tracing.event_is_background(flow)


# -- tracer ----------------------------------------------------------------------

def test_self_time_excludes_wrapped_children():
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()

    ns.inner, ns.outer = inner, outer
    tracer = tracing.Tracer([tracing.Probe("t.outer", ns, "outer"), tracing.Probe("t.inner", ns, "inner")])
    tracer.install()
    try:
        ns.outer()  # outside any window: not recorded
        tracer.begin("m", "p")
        ns.outer()
        ns.outer()
        tracer.end()
    finally:
        tracer.uninstall()
    assert ns.outer is outer and ns.inner is inner
    spans = tracer.windows[("m", "p")].spans
    assert len(spans["t.outer"]) == len(spans["t.inner"]) == 2
    for self_ns in spans["t.outer"]:
        assert 0.009e9 <= self_ns < 0.019e9  # its own 10 ms sleep, not the child's 20 ms
    for self_ns in spans["t.inner"]:
        assert self_ns >= 0.019e9


def test_background_calls_are_kept_apart():
    ns = types.SimpleNamespace(f=lambda x: x)
    tracer = tracing.Tracer([tracing.Probe("t.f", ns, "f", background=lambda args: args[0] < 0)])
    tracer.install()
    tracer.begin("m", "p")
    for x in (1, -1, 2, -2, -3):
        ns.f(x)
    tracer.end()
    tracer.uninstall()
    window = tracer.windows[("m", "p")]
    assert len(window.spans["t.f"]) == 2 and len(window.background["t.f"]) == 3


# -- the declared metric set ---------------------------------------------------------

def test_benchmark_json_lists_every_per_layer_metric():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert declared["per_layer"] == per_layer_spec()
    names = [m["name"] for m in declared["per_layer"] + declared["end_to_end"]]
    assert len(names) == len(set(names)) and len(declared["per_layer"]) <= 128
