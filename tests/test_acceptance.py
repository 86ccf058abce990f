"""Acceptance gate: every criterion at its stated tolerance, one test each.

These run the full stack and include the two long measurement experiments;
the whole module takes several minutes. Deselect with
``pytest -m 'not acceptance'`` during development.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

import pytest

import genwire
from test_services import bfs_hop_count, graph_from_spec
from test_switch import MAC_POOL, ETHERTYPES, oracle_select, random_match

from flowplane.broker import Broker, BrokerConsumer
from flowplane.core import Core, CoreConfig, DistMode
from flowplane.p2p import P2pDistributor
from flowplane.bench import (
    RtConfig,
    TpConfig,
    run_install_comparison,
    run_response_time,
    run_throughput,
)
from flowplane.services import shortest_path
from flowplane.stack import Stack, StackConfig
from flowplane.topology import build_fat_tree, build_linear
from flowplane.wire import (
    Action,
    ActionKind,
    ETHERTYPE_DATA,
    EventKind,
    FlowRule,
    FlowRuleEvent,
    Frame,
    MacAddr,
    Match,
    PacketExceptionEvent,
    RuleEventOp,
    decode_event,
    decode_sb,
    encode_event,
    encode_sb,
)

pytestmark = pytest.mark.acceptance


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- criterion 1: codec round-trip -------------------------------------------------

def test_criterion_01_codec_roundtrip():
    """1,000 cases per message family, decode(encode(x)) == x, in under 5 s."""
    rng = random.Random(0xACCE97)
    start = time.monotonic()
    for _ in range(1000):
        event = genwire.rand_event(rng)
        assert decode_event(encode_event(event)) == event
    for _ in range(1000):
        message = genwire.rand_sb(rng)
        assert decode_sb(encode_sb(message)) == message
    assert time.monotonic() - start < 5.0


# -- criterion 2: flow-match oracle ------------------------------------------------

def test_criterion_02_flow_match_oracle():
    """1,000 random (table <= 64 rules, frame) cases equal the brute-force scan."""
    from flowplane.switch import SwitchState

    rng = random.Random(0x0DDB411)
    start = time.monotonic()
    for _ in range(1000):
        state = SwitchState(1, range(1, 5))
        for rid in rng.sample(range(1, 10_000), rng.randrange(0, 65)):
            state.install(
                FlowRule(
                    rule_id=rid,
                    priority=rng.randrange(0, 8),
                    match=random_match(rng),
                    actions=(Action(ActionKind.DROP),),
                    hard_timeout_s=rng.choice((0, 0, 5)),
                ),
                now=rng.uniform(0, 4),
            )
        frame = Frame(
            dst=rng.choice(MAC_POOL),
            src=rng.choice(MAC_POOL),
            ethertype=rng.choice(ETHERTYPES),
            payload=b"",
        )
        in_port = rng.randrange(1, 5)
        now = rng.uniform(0, 10)
        expected = oracle_select(state.rules(), frame, in_port, now)
        got = state.lookup(frame, in_port, now)
        assert (got.rule_id if got else None) == (expected.rule_id if expected else None)
    assert time.monotonic() - start < 10.0


# -- criterion 3: topology discovery -----------------------------------------------

@pytest.mark.parametrize("builder", ["fattree:2", "fattree:4", "linear:5"])
def test_criterion_03_topology_discovery(builder):
    """Discovered link set equals ground truth after 2 rounds; hosts located
    after their first transmission."""
    kind, arg = builder.split(":")
    spec = build_fat_tree(int(arg)) if kind == "fattree" else build_linear(int(arg))
    with Stack(spec, StackConfig(mode=DistMode.INTERNAL, discovery_interval=0)) as stack:
        expected_dpids = sorted(s.dpid for s in spec.switches)
        assert wait_until(lambda: stack.core.datapaths() == expected_dpids)
        truth = spec.switch_link_set()
        for _ in range(2):
            stack.topo.run_discovery_round()
            assert stack.fabric.quiesce()
            assert stack.topo.link_set() <= truth  # no phantom links, ever
        assert stack.topo.link_set() == truth
        for host in stack.fabric.hosts.values():
            host.announce()  # first transmission of each host
        assert stack.fabric.quiesce()
        located = stack.topo.hosts()
        assert {
            (str(m), loc.dpid, loc.port) for m, loc in located.items()
        } == {(str(h.mac), h.dpid, h.port) for h in spec.hosts}


# -- criterion 4: path optimality ---------------------------------------------------

def test_criterion_04_path_optimality():
    """shortest_path hop count equals a BFS oracle for all 120 host pairs (k=4)."""
    spec = build_fat_tree(4)
    graph = graph_from_spec(spec)
    pairs = list(itertools.combinations(spec.hosts, 2))
    assert len(pairs) == 120
    for a, b in pairs:
        assert len(shortest_path(graph, a.mac, b.mac)) == bfs_hop_count(
            spec, a.dpid, b.dpid
        )
        assert len(shortest_path(graph, b.mac, a.mac)) == bfs_hop_count(
            spec, b.dpid, a.dpid
        )


# -- criterion 5: expiry semantics ---------------------------------------------------

def test_criterion_05_expiry_reinstall_cycle():
    """A 1 s hard timeout (scaled from 10 s) removes the rule, logs REMOVED, and
    the next packet punts and reinstalls, in that seq order."""
    spec = build_linear(3)
    config = StackConfig(
        mode=DistMode.INTERNAL,
        discovery_interval=0,
        install_rules=True,
        hard_timeout_s=1,
    )
    with Stack(spec, config) as stack:
        stack.warm()
        h1, h2 = stack.host("h1"), stack.host("h2")
        (first,) = h1.ping(h2.mac, count=1)
        assert not first.lost
        stack.fabric.quiesce()
        installed = {d: stack.core.flows(d) for d in (1, 2, 3)}
        assert all(rules for rules in installed.values())
        assert all(
            r.hard_timeout_s == 1 for rules in installed.values() for r in rules
        )

        time.sleep(1.05)  # past the hard timeout
        assert all(stack.core.flows(d) == [] for d in (1, 2, 3))  # absent after expiry
        assert wait_until(
            lambda: any(
                isinstance(e, FlowRuleEvent) and e.op is RuleEventOp.REMOVED
                for e in stack.event_log()
            ),
            timeout=3,
        )
        removed_seqs = [
            e.seq
            for e in stack.event_log()
            if isinstance(e, FlowRuleEvent) and e.op is RuleEventOp.REMOVED
        ]

        (second,) = h1.ping(h2.mac, count=1)
        assert not second.lost
        stack.fabric.quiesce()
        log = stack.event_log()
        new_packets = [
            e.seq
            for e in log
            if isinstance(e, PacketExceptionEvent)
            and e.frame.ethertype == ETHERTYPE_DATA
            and e.seq > max(removed_seqs)
        ]
        new_adds = [
            e.seq
            for e in log
            if isinstance(e, FlowRuleEvent)
            and e.op is RuleEventOp.ADDED
            and e.seq > max(removed_seqs)
        ]
        assert new_packets, "expiry did not lead to a packet exception"
        assert new_adds, "packet exception did not lead to re-installation"
        assert max(removed_seqs) < min(new_packets) < min(new_adds)


# -- criterion 6: response-time ordering ----------------------------------------------

def test_criterion_06_response_time_ordering():
    """Over 500 pings on linear-5 with a 1 ms broker poll: mean and median RTT
    satisfy INTERNAL < P2P < BROKER with significant paired sign tests. < 2 min."""
    start = time.monotonic()
    result = run_response_time(RtConfig())  # defaults are the criterion's config
    elapsed = time.monotonic() - start
    assert result.valid, "lost-ping budget exceeded"
    means = {m: r.summary.mean for m, r in result.per_mode.items()}
    medians = {m: r.summary.median for m, r in result.per_mode.items()}
    assert means[DistMode.INTERNAL] < means[DistMode.P2P] < means[DistMode.BROKER]
    assert medians[DistMode.INTERNAL] < medians[DistMode.P2P] < medians[DistMode.BROKER]
    for comparison in result.comparisons:
        assert comparison.mean_gap_us > 0
        assert comparison.median_gap_us > 0
        assert comparison.significant, (
            f"{comparison.faster}->{comparison.slower} sign z={comparison.sign.z:.2f}"
        )
    assert result.ordering_holds
    assert elapsed < 120.0


# -- criterion 7: throughput negligibility ---------------------------------------------

def test_criterion_07_externalization_negligible_for_throughput():
    """P2P aggregate goodput within 10% of INTERNAL at every connection count,
    15 s runs with direct install. < 5 min."""
    start = time.monotonic()
    result = run_throughput(
        TpConfig(modes=(DistMode.INTERNAL, DistMode.P2P), conns=(1, 2, 4, 8),
                 duration=15.0, install="direct", hard_timeout_s=10)
    )
    elapsed = time.monotonic() - start
    assert result.valid
    for n_conns in (1, 2, 4, 8):
        internal = result.cell(DistMode.INTERNAL, n_conns).aggregate_bps
        p2p = result.cell(DistMode.P2P, n_conns).aggregate_bps
        assert abs(p2p - internal) <= 0.10 * internal, (
            f"conns={n_conns}: internal={internal / 1e6:.2f} p2p={p2p / 1e6:.2f} Mbit/s"
        )
    assert elapsed < 300.0


# -- criterion 8: REST install overhead direction ----------------------------------------

def test_criterion_08_rest_install_never_beats_direct():
    """For BROKER and P2P modes, goodput with REST install <= goodput with the
    direct channel at every connection count (1 s timeout scaled from 10 s).

    Measured paired: the two channels alternate on one live network per cell.
    The 8-switch chain gives each churn cycle a 16-rule install burst, and the
    0.3 ms link latency keeps the data plane latency-bound (stable) while
    short enough that in-flight overlap cannot hide the burst.
    """
    result = run_install_comparison(
        TpConfig(
            topology="linear:8",
            modes=(DistMode.P2P, DistMode.BROKER),
            conns=(1, 2, 4, 8),
            duration=18.0,
            hard_timeout_s=1,
            link_latency=0.0003,
        )
    )
    assert result.valid
    for mode in (DistMode.P2P, DistMode.BROKER):
        for n_conns in (1, 2, 4, 8):
            cell = result.cell(mode, n_conns)
            assert cell.rest_bps <= cell.direct_bps, (
                f"{mode.value} conns={n_conns}: rest={cell.rest_bps / 1e6:.2f} "
                f"> direct={cell.direct_bps / 1e6:.2f} Mbit/s"
            )


# -- criterion 9: backend contracts -----------------------------------------------------

def _stress_events(core: Core, per_thread: int = 1000, threads: int = 4) -> None:
    frame = Frame(MacAddr.host(2), MacAddr.host(1), ETHERTYPE_DATA, b"stress")

    def produce():
        for _ in range(per_thread):
            core.raise_event(PacketExceptionEvent(dpid=1, in_port=1, frame=frame))

    workers = [threading.Thread(target=produce) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


def test_criterion_09_broker_replay_and_ordering():
    broker = Broker()
    core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
    _stress_events(core)
    consumer = BrokerConsumer(broker, "replayer", ["events.packet"], poll_interval=0.0001)
    seqs = []
    while True:
        data = consumer.get(timeout=0.2)
        if data is None:
            break
        seqs.append(decode_event(data).seq)
    assert len(seqs) == 4000  # replay from 0 returns the complete history
    assert all(a < b for a, b in zip(seqs, seqs[1:])), "order violation in topic"


def test_criterion_09_p2p_no_retention_and_ordering():
    dist = P2pDistributor()
    core = Core(CoreConfig(mode=DistMode.P2P), p2p=dist)
    frame = Frame(MacAddr.host(2), MacAddr.host(1), ETHERTYPE_DATA, b"early")
    core.raise_event(PacketExceptionEvent(dpid=1, in_port=1, frame=frame))

    subscription = dist.subscribe({EventKind.PACKET})
    assert subscription.get(timeout=0.05) is None  # nothing published pre-subscribe

    _stress_events(core)
    seqs = []
    while True:
        data = subscription.get(timeout=0.2)
        if data is None:
            break
        seqs.append(decode_event(data).seq)
    assert len(seqs) == 4000
    assert subscription.dropped == 0
    assert all(a < b for a, b in zip(seqs, seqs[1:])), "order violation in stream"


# -- criterion 10: mode equivalence ------------------------------------------------------

def _run_traffic_script(mode: DistMode):
    """Deterministic serialized script; returns (rule multiset, frames per host)."""
    spec = build_linear(5)
    config = StackConfig(
        mode=mode, discovery_interval=0, install_rules=True, hard_timeout_s=60
    )
    with Stack(spec, config) as stack:
        stack.warm()
        h1, h2 = stack.host("h1"), stack.host("h2")
        script = [
            (h1, h2, b"script-frame-1"),
            (h2, h1, b"script-frame-2"),
            (h1, h2, b"script-frame-3"),
            (h2, h1, b"script-frame-4"),
        ]
        for src, dst, payload in script:
            before = dst.frames_received
            src.send_frame(dst.mac, ETHERTYPE_DATA, payload)
            assert wait_until(lambda: dst.frames_received > before), (
                f"{mode}: frame {payload!r} never delivered"
            )
        assert stack.fabric.quiesce()
        rules = []
        for sw in spec.switches:
            for r in stack.core.flows(sw.dpid):
                actions = tuple((a.kind.name, a.port) for a in r.actions)
                rules.append(
                    (sw.dpid, r.priority, str(r.match.eth_dst), actions, r.hard_timeout_s)
                )
        frames = {
            host_id: [
                (f.src.octets, f.dst.octets, f.ethertype, f.payload)
                for f in host.inbox
                if f.ethertype == ETHERTYPE_DATA
            ]
            for host_id, host in stack.fabric.hosts.items()
        }
    return sorted(rules), frames


def test_criterion_10_mode_equivalence():
    """The same script yields identical normalized rule multisets and
    byte-identical delivered frames in all three modes."""
    outcomes = {mode: _run_traffic_script(mode) for mode in DistMode}
    baseline_rules, baseline_frames = outcomes[DistMode.INTERNAL]
    assert baseline_rules, "script installed no rules"
    assert any(baseline_frames.values()), "script delivered no frames"
    for mode in (DistMode.P2P, DistMode.BROKER):
        rules, frames = outcomes[mode]
        assert rules == baseline_rules, f"{mode.value} rule multiset differs"
        assert frames == baseline_frames, f"{mode.value} delivered frames differ"
