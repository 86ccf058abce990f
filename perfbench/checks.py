"""Correctness checks computed apart from the program.

Everything here works from the ``NetworkSpec`` blueprint and from the
records a run hands back (core event log, ping samples, stream reports,
the northbound client's own rule record). None of it calls the program's
topology, path or forwarding code, so a fault there cannot hide itself.

Each check returns a list of failure strings; an empty list means it held.
"""

from __future__ import annotations

import struct
from collections import deque

from flowplane.fabric import PING_PREFIX, PONG_PREFIX
from flowplane.topology import NetworkSpec
from flowplane.wire import (
    ETHERTYPE_DATA,
    FlowRuleEvent,
    PacketExceptionEvent,
    RuleEventOp,
)


# -- independent graph oracle --------------------------------------------------

def adjacency(spec: NetworkSpec) -> dict[int, dict[int, int]]:
    """dpid -> {peer dpid: local port toward that peer}, from the blueprint."""
    adj: dict[int, dict[int, int]] = {s.dpid: {} for s in spec.switches}
    for link in spec.links:
        adj[link.a_dpid][link.b_dpid] = link.a_port
        adj[link.b_dpid][link.a_dpid] = link.b_port
    return adj


def bfs_distances(spec: NetworkSpec, root: int) -> dict[int, int]:
    """Switch hop counts from ``root`` to every reachable switch."""
    adj = adjacency(spec)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for peer in adj[node]:
            if peer not in dist:
                dist[peer] = dist[node] + 1
                queue.append(peer)
    return dist


def path_switch_count(spec: NetworkSpec, src_host: str, dst_host: str) -> int:
    """Number of switches on a minimum-hop path between two hosts."""
    src = spec.host_by_id(src_host).dpid
    dst = spec.host_by_id(dst_host).dpid
    return bfs_distances(spec, dst)[src] + 1


def punts_per_ping(spec: NetworkSpec, src_host: str, dst_host: str) -> int:
    """Packet-ins one ping and its reply cause with empty flow tables."""
    return 2 * path_switch_count(spec, src_host, dst_host)


def shortest_next_ports(spec: NetworkSpec, dpid: int, dst_host: str) -> set[int]:
    """Ports of ``dpid`` that start some minimum-hop path to ``dst_host``."""
    host = spec.host_by_id(dst_host)
    if dpid == host.dpid:
        return {host.port}
    dist = bfs_distances(spec, host.dpid)
    return {
        port
        for peer, port in adjacency(spec)[dpid].items()
        if dist.get(peer) == dist[dpid] - 1
    }


def directed_links(spec: NetworkSpec) -> frozenset[tuple[int, int, int, int]]:
    """Both directions of every cable, as (src dpid, src port, dst dpid, dst port)."""
    out = set()
    for link in spec.links:
        out.add((link.a_dpid, link.a_port, link.b_dpid, link.b_port))
        out.add((link.b_dpid, link.b_port, link.a_dpid, link.a_port))
    return frozenset(out)


def is_shortest_path(spec: NetworkSpec, dpids: list[int], src_host: str, dst_host: str) -> bool:
    """True when ``dpids`` walks adjacent switches from src's to dst's edge, minimally."""
    if not dpids:
        return False
    adj = adjacency(spec)
    if dpids[0] != spec.host_by_id(src_host).dpid or dpids[-1] != spec.host_by_id(dst_host).dpid:
        return False
    if any(b not in adj[a] for a, b in zip(dpids, dpids[1:])):
        return False
    return len(dpids) == path_switch_count(spec, src_host, dst_host)


# -- checks --------------------------------------------------------------------

def check_links(spec: NetworkSpec, discovered) -> list[str]:
    expected = directed_links(spec)
    discovered = frozenset(discovered)
    if discovered == expected:
        return []
    return [
        f"discovered links differ: missing={sorted(expected - discovered)[:4]} "
        f"phantom={sorted(discovered - expected)[:4]}"
    ]


def check_seq_increasing(events) -> list[str]:
    for a, b in zip(events, events[1:]):
        if b.seq <= a.seq:
            return [f"event seq not strictly increasing: {a.seq} then {b.seq}"]
    return []


def ping_key(payload: bytes) -> tuple[bytes, int] | None:
    """(PING|PONG, echo seq) of a ping payload, or None for other traffic."""
    head = payload[:4]
    if head not in (PING_PREFIX, PONG_PREFIX) or len(payload) < 8:
        return None
    return head, struct.unpack(">I", payload[4:8])[0]


def check_pings(spec: NetworkSpec, events, pings, mac_to_host: dict) -> list[str]:
    """Each completed ping punted exactly along a shortest path, both ways.

    ``pings`` holds (src host id, dst host id, rtt or None) in the order the
    pings were sent; ``events`` is the core log of that window. Echo requests
    are matched to pings by order of first appearance, replies to requests by
    their echo sequence number.
    """
    paths: dict[tuple, list[int]] = {}
    for e in events:
        if not isinstance(e, PacketExceptionEvent) or e.frame.ethertype != ETHERTYPE_DATA:
            continue
        key = ping_key(e.frame.payload)
        if key is None:
            return [f"unexpected data punt at dpid {e.dpid}: {e.frame.payload[:4]!r}"]
        paths.setdefault((key[0], e.frame.src, e.frame.dst, key[1]), []).append(e.dpid)
    requests = [k for k in paths if k[0] == PING_PREFIX]
    failures = []
    expected_total = 0
    for (src, dst, rtt), key in zip(pings, requests):
        if rtt is None:
            continue
        expected_total += punts_per_ping(spec, src, dst)
        forward = paths[key]
        back = paths.get((PONG_PREFIX, key[2], key[1], key[3]), [])
        if (mac_to_host[key[1]], mac_to_host[key[2]]) != (src, dst):
            failures.append(f"ping {src}->{dst} appears as {key[1]}->{key[2]}")
        elif not is_shortest_path(spec, forward, src, dst) or not is_shortest_path(
            spec, back, dst, src
        ):
            failures.append(f"ping {src}->{dst} punted along {forward} / {back}")
        if len(failures) >= 3:
            break
    if len(requests) != len(pings):
        failures.append(f"{len(pings)} pings sent, {len(requests)} seen punted")
    actual_total = sum(len(p) for p in paths.values())
    if all(rtt is not None for *_, rtt in pings) and actual_total != expected_total:
        failures.append(f"data punts {actual_total} != BFS count {expected_total}")
    return failures


def check_stream_rules(spec: NetworkSpec, events, mac_to_host: dict) -> list[str]:
    """Every ADDED rule forwards toward its destination along a shortest path."""
    failures = []
    for e in events:
        if not isinstance(e, FlowRuleEvent) or e.op is not RuleEventOp.ADDED:
            continue
        host = mac_to_host.get(e.rule.match.eth_dst)
        ports = [a.port for a in e.rule.actions]
        if host is None or len(ports) != 1 or ports[0] not in shortest_next_ports(spec, e.dpid, host):
            failures.append(f"rule {e.rule.rule_id} on {e.dpid} outputs {ports} for {host}")
    return failures[:3]


def expected_cycles(duration_s: float, timeout_s: int, max_lag_s: float) -> tuple[int, int]:
    """Bounds on how often a rule refreshed by steady traffic expires in a window.

    A cycle lasts at least the hard timeout and at most the timeout plus
    ``max_lag_s`` (purge and reinstall delay).
    """
    return int(duration_s // (timeout_s + max_lag_s)), int(duration_s // timeout_s)


def check_churn(events, t_start_us: int, t_end_us: int, timeout_s: int, max_lag_s: float) -> list[str]:
    """REMOVED events show one expiry per hard-timeout cycle for every rule key."""
    added: dict[int, tuple[int, object]] = {}
    removed: dict[tuple, int] = {}
    failures = []
    for e in events:
        if not isinstance(e, FlowRuleEvent):
            continue
        key = (e.dpid, e.rule.match.eth_dst)
        if e.op is RuleEventOp.ADDED:
            added[e.rule.rule_id] = (e.ts_micros, key)
            removed.setdefault(key, 0)
        elif e.op is RuleEventOp.REMOVED and t_start_us <= e.ts_micros <= t_end_us:
            born = added.get(e.rule.rule_id)
            if born is None:
                continue
            lived = (e.ts_micros - born[0]) / 1e6
            if lived < timeout_s - 0.01:
                failures.append(f"rule {e.rule.rule_id} removed after {lived:.3f}s < {timeout_s}s")
            removed[key] = removed.get(key, 0) + 1
    lo, hi = expected_cycles((t_end_us - t_start_us) / 1e6, timeout_s, max_lag_s)
    for key, count in sorted(removed.items(), key=str):
        if not lo <= count <= hi:
            failures.append(f"rule key {key}: {count} expiries, expected {lo}..{hi}")
    if not removed:
        failures.append("no rules were installed")
    return failures[:3]


def check_receiver(acked: int, retransmits: int, received: int, conns: int) -> list[str]:
    """The receiver saw every acked segment once, plus at most one in flight per connection."""
    if acked + retransmits <= received <= acked + retransmits + conns:
        return []
    return [f"receiver got {received} segments for {acked} acked, {retransmits} resent"]


def check_rule_listing(listed_ids, recorded_ids, dpid: int) -> list[str]:
    listed, recorded = set(listed_ids), set(recorded_ids)
    if listed == recorded:
        return []
    return [
        f"switch {dpid} lists {len(listed)} rules, client holds {len(recorded)}: "
        f"extra={sorted(listed - recorded)[:4]} missing={sorted(recorded - listed)[:4]}"
    ]


def check_punt_calls(mode: str, bfs_punts: int, packet_ins: int, fwd_calls: int) -> list[str]:
    """Traced ping windows: every punt crossed the core and the forwarding service once.

    ``packet_ins`` and ``fwd_calls`` count data-frame calls of
    ``Core.on_sb_bytes`` and ``ForwardingService.handle_packet``, background
    traffic excluded; ``bfs_punts`` sums the BFS punt count of the pings.
    """
    if packet_ins == fwd_calls == bfs_punts:
        return []
    return [
        f"{mode}: {packet_ins} packet-ins and {fwd_calls} forwarding calls "
        f"for a BFS punt count of {bfs_punts}"
    ]
