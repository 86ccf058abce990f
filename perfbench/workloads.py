"""The three workloads: what each deploys, what it drives, what it checks.

A run is ``ROUNDS`` rounds; each round builds every mode's deployment once,
in an order rotated by round, so a slow spell of the machine lands on all
modes alike. One mode's share of a round is a *slot*. Every slot starts a
fresh deployment (its start-to-converged time is a set-up sample), drives
one closed-loop generator for the slot, checks the outputs, and tears the
deployment down.

* ``punt``   in-process stacks on a k=4 fat-tree, empty tables, one pinger.
* ``stream`` in-process stacks on ``linear:5``, reactive rules with a short
             hard timeout, two stop-and-wait connections h1 -> h2.
* ``split``  the services of a k=4 fat-tree deployed apart from the core
             over loopback sockets: pings, then a northbound flow-mod client.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from flowplane.broker import Broker, BrokerClient, BrokerConsumer, BrokerServer
from flowplane.core import Core, CoreConfig, DistMode, FlowModRequest
from flowplane.coreapi import CoreApiServer, RemoteCore
from flowplane.fabric import Fabric
from flowplane.interservice import TopoQueryClient, TopoQueryServer
from flowplane.p2p import P2pDistributor, P2pStreamClient, P2pStreamServer
from flowplane.rest import RestFlowClient
from flowplane.services import ForwardingService, FwdConfig, ServiceStack, TopologyService
from flowplane.stack import FWD_KINDS, TOPO_KINDS, Stack, StackConfig
from flowplane.topology import build_fat_tree, build_linear
from flowplane import wire
from flowplane.wire import Action, ActionKind, FlowModOp, MacAddr, Match, TOPIC_FOR_KIND

import checks
from layers import MODES

ROUNDS = 6
FAT_TREE_K = 4
PING_TIMEOUT_S = 2.0
STREAM_CONNS = 2
STREAM_HARD_TIMEOUT_S = 1
STREAM_SAMPLE_S = 0.1
# a rule outlives its hard timeout by at most the core's sweep interval plus
# the time until the next frame triggers the reinstall
STREAM_MAX_EXPIRY_LAG_S = 0.35
STANDING_RULES_PER_SWITCH = 10
WARM_TIMEOUT_S = 20.0
SETTLE_QUIET_S = 0.1
INBOX_LIMIT = 256  # as the program's own bench harness sets it


class WorkloadError(Exception):
    pass


@dataclass
class ModeResult:
    """Everything one mode measured over the run's rounds."""

    mode: str
    setup_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)  # rtts, or per-window segment times
    slot_p50_ms: list[float] = field(default_factory=list)  # per slot: median latency
    slot_rate: list[float] = field(default_factory=list)  # per slot: operations per second
    attempted: int = 0
    failed: int = 0
    events_dropped: int = 0
    window_ops: dict[str, int] = field(default_factory=dict)  # traced-window phase -> ops
    extra: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


def mode_order(round_index: int) -> list[str]:
    shift = round_index % len(MODES)
    return list(MODES[shift:] + MODES[:shift])


def mac_to_host(spec) -> dict:
    return {h.mac: h.host_id for h in spec.hosts}


def start_stack(spec, config: StackConfig) -> tuple[Stack, float]:
    """Start a stack and converge it; returns it with its set-up time."""
    t0 = time.perf_counter()
    stack = Stack(spec, config).start()
    try:
        stack.warm(timeout=WARM_TIMEOUT_S)
    except BaseException:
        stack.stop()
        raise
    return stack, time.perf_counter() - t0


# -- pings (punt, split phase a) ----------------------------------------------

def cross_pod_pairs(spec, k: int, rng: random.Random):
    """Endless seeded walk over host pairs in different pods of a k-ary fat-tree."""
    hosts = sorted((h.host_id for h in spec.hosts), key=lambda h: int(h[1:]))
    pod = {h: (int(h[1:]) - 1) // (k * k // 4) for h in hosts}  # hosts are numbered pod-major
    while True:
        src = rng.choice(hosts)
        dst = rng.choice([h for h in hosts if pod[h] != pod[src]])
        yield src, dst


def drive_pings(result: ModeResult, spec, fabric, core, rng, seconds, tracer) -> tuple[int, float]:
    """One pinger, one ping outstanding, for ``seconds``; then check the punts.

    Returns the completed pings and the time they took.
    """
    hosts = fabric.hosts
    first = len(core.event_log())
    pairs = cross_pod_pairs(spec, FAT_TREE_K, rng)
    pings = []
    if tracer:
        tracer.begin(result.mode, "ping")
    start = time.perf_counter()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        src, dst = next(pairs)
        sample = hosts[src].ping(hosts[dst].mac, count=1, interval=0, timeout=PING_TIMEOUT_S)[0]
        pings.append((src, dst, sample.rtt_s))
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end()
    events = core.event_log()[first:]
    done = [p for p in pings if p[2] is not None]
    result.latencies_ms += [p[2] * 1000 for p in done]
    result.slot_p50_ms.append(median([p[2] * 1000 for p in done]))
    result.attempted += len(pings)
    result.failed += len(pings) - len(done)
    result.window_ops["ping"] = result.window_ops.get("ping", 0) + len(done)
    result.add("pings", len(done))
    result.add("bfs_punts", sum(checks.punts_per_ping(spec, s, d) for s, d, _ in done))
    result.failures += checks.check_seq_increasing(events)
    result.failures += checks.check_pings(spec, events, pings, mac_to_host(spec))
    return len(done), elapsed


def settle(fabric, core, timeout: float = 15.0) -> None:
    """Wait out the announce floods of warm-up before a measured window.

    A converged map does not mean a drained event path: the forwarding
    service may still hold hundreds of flooded announcements. The network
    counts as settled once the core raised no event for ``SETTLE_QUIET_S``
    and every actor queue is empty.
    """
    deadline = time.monotonic() + timeout
    seen = -1
    while time.monotonic() < deadline:
        fabric.quiesce(timeout=2.0)
        count = len(core.event_log())
        if count == seen:
            return
        seen = count
        time.sleep(SETTLE_QUIET_S)
    raise WorkloadError("event path never settled after warm-up")


# -- punt ------------------------------------------------------------------------

def punt_slot(result: ModeResult, seed: int, round_index: int, seconds: float, tracer) -> None:
    spec = build_fat_tree(FAT_TREE_K)
    config = StackConfig(mode=DistMode(result.mode), install_rules=False, inbox_limit=INBOX_LIMIT)
    stack, setup = start_stack(spec, config)
    result.setup_s.append(setup)
    try:
        result.failures += checks.check_links(spec, stack.topo.link_set())
        settle(stack.fabric, stack.core)
        rng = random.Random(f"punt/{seed}/{round_index}")
        pings, elapsed = drive_pings(result, spec, stack.fabric, stack.core, rng, seconds, tracer)
        result.slot_rate.append(pings / elapsed)
        result.failures += checks.check_links(spec, stack.topo.link_set())
        result.events_dropped += stack.core.metrics.events_dropped
    finally:
        stack.stop()


# -- stream ----------------------------------------------------------------------

def stream_slot(result: ModeResult, seed: int, round_index: int, seconds: float, tracer) -> None:
    spec = build_linear(5)
    config = StackConfig(
        mode=DistMode(result.mode),
        install_rules=True,
        install_channel="direct",
        hard_timeout_s=STREAM_HARD_TIMEOUT_S,
        inbox_limit=INBOX_LIMIT,
    )
    stack, setup = start_stack(spec, config)
    result.setup_s.append(setup)
    try:
        result.failures += checks.check_links(spec, stack.topo.link_set())
        settle(stack.fabric, stack.core)
        src, dst = stack.host("h1"), stack.host("h2")
        first = len(stack.core.event_log())
        received0, acks0 = dst.frames_received, src.frames_received
        reports: list = []
        runner = threading.Thread(
            target=lambda: reports.extend(src.stream(dst.mac, duration=seconds, n_conns=STREAM_CONNS)),
            name="stream-generator",
        )
        if tracer:
            tracer.begin(result.mode, "stream")
        t_start_us = time.time_ns() // 1000
        runner.start()
        # sample the sender's ack count to get the time per acked segment
        windows = []
        last_t, last_acks = time.perf_counter(), acks0
        while runner.is_alive():
            runner.join(STREAM_SAMPLE_S)
            now, acks = time.perf_counter(), src.frames_received
            if acks > last_acks:
                windows.append(1000 * STREAM_CONNS * (now - last_t) / (acks - last_acks))
            last_t, last_acks = now, acks
        t_end_us = time.time_ns() // 1000
        result.latencies_ms += windows
        result.slot_p50_ms.append(median(windows))
        if tracer:
            tracer.end()
        events = stack.core.event_log()[first:]
        acked = sum(r.segments_acked for r in reports)
        resent = sum(r.retransmits for r in reports)
        result.attempted += acked + resent
        result.failed += resent
        result.slot_rate.append(acked / seconds)
        result.window_ops["stream"] = result.window_ops.get("stream", 0) + acked
        result.add("bytes_acked", sum(r.bytes_acked for r in reports))
        result.add("segments", acked)
        result.add("stream_s", seconds)
        result.add("rules_removed", sum(
            1 for e in events if isinstance(e, wire.FlowRuleEvent) and e.op is wire.RuleEventOp.REMOVED
        ))
        result.failures += checks.check_receiver(
            acked, resent, dst.frames_received - received0, STREAM_CONNS
        )
        result.failures += checks.check_seq_increasing(events)
        result.failures += checks.check_stream_rules(spec, events, mac_to_host(spec))
        result.failures += checks.check_churn(
            events, t_start_us, t_end_us, STREAM_HARD_TIMEOUT_S, STREAM_MAX_EXPIRY_LAG_S
        )
        result.failures += checks.check_links(spec, stack.topo.link_set())
        result.events_dropped += stack.core.metrics.events_dropped
    finally:
        stack.stop()


# -- split -----------------------------------------------------------------------

class SubscriberLoop:
    """Event source -> decode -> service, on its own thread (as a standalone service runs)."""

    def __init__(self, source, service, name: str):
        self._source = source
        self._service = service
        self._running = True
        self.errors = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while self._running:
            data = self._source.get(timeout=0.05)
            if data is None:
                continue
            try:
                self._service.on_event(wire.decode_event(data))
            except Exception:  # keep consuming, as a standalone service does; reported as a failure
                self.errors += 1

    def stop(self) -> None:
        self._running = False
        self._thread.join(timeout=2)


class SplitDeployment:
    """Core + fabric in one place, topology and forwarding services behind sockets.

    Core calls go over ``CoreApiServer``/``RemoteCore`` and path queries over
    ``TopoQueryServer``/``TopoQueryClient`` in every mode. Events go over
    ``BrokerServer`` (broker) or ``P2pStreamServer`` (p2p); in internal mode
    the core hands them to the services in-process, so only the event path
    differs between modes.
    """

    def __init__(self, spec, mode: DistMode):
        self.spec = spec
        self.mode = mode
        self._closers: list = []
        self.loops: list[SubscriberLoop] = []

    def start(self) -> "SplitDeployment":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def _on_stop(self, fn):
        self._closers.append(fn)

    def _start(self) -> None:
        mode = self.mode
        self.fabric = Fabric(self.spec, inbox_limit=INBOX_LIMIT)
        rest_listen = ("127.0.0.1", 0)
        events_server = None
        if mode is DistMode.BROKER:
            broker = Broker()
            self.core = Core(CoreConfig(mode=mode, rest_listen=rest_listen), broker=broker)
            events_server = BrokerServer(broker).start()
        elif mode is DistMode.P2P:
            dist = P2pDistributor()
            self.core = Core(CoreConfig(mode=mode, rest_listen=rest_listen), p2p=dist)
            events_server = P2pStreamServer(dist).start()
        else:
            self.core = Core(CoreConfig(mode=mode, rest_listen=rest_listen))
        self.core.start()
        self._on_stop(self.core.stop)
        if events_server is not None:
            self._on_stop(events_server.stop)
        self.api = CoreApiServer(self.core).start()
        self._on_stop(self.api.stop)

        topo_core = self._client(RemoteCore(self.api.address))
        self.topo = TopologyService(topo_core)
        query = TopoQueryServer(self.topo).start()
        self._on_stop(query.stop)
        fwd_core = self._client(RemoteCore(self.api.address))
        topo_client = self._client(TopoQueryClient(query.address))
        self.fwd = ForwardingService(fwd_core, topo_client, FwdConfig())

        if mode is DistMode.INTERNAL:
            self.core.set_internal_app(ServiceStack(self.topo, self.fwd))
        else:
            for service, kinds, name in ((self.topo, TOPO_KINDS, "topo"), (self.fwd, FWD_KINDS, "fwd")):
                if mode is DistMode.BROKER:
                    source = BrokerConsumer(
                        self._client(BrokerClient(events_server.address)),
                        f"{name}-service",
                        [TOPIC_FOR_KIND[k] for k in sorted(kinds)],
                    )
                else:
                    source = self._client(P2pStreamClient(events_server.address, kinds))
                self.loops.append(SubscriberLoop(source, service, f"{name}-loop"))
            for loop in self.loops:
                self._on_stop(loop.stop)
            if mode is DistMode.P2P:
                # push streams keep no history: subscribe before any switch says hello
                deadline = time.monotonic() + 5
                while dist.subscription_count() < 2:
                    if time.monotonic() > deadline:
                        raise WorkloadError("p2p subscriptions never registered")
                    time.sleep(0.002)
        self.core.adopt(self.fabric)
        self.fabric.start()
        self._on_stop(self.fabric.stop)
        self.topo.start()
        self._on_stop(self.topo.stop)
        self.warm()

    def _client(self, client):
        self._on_stop(client.close)
        return client

    def warm(self) -> None:
        """Discovery and host announcements until the map is complete (as Stack.warm)."""
        deadline = time.monotonic() + WARM_TIMEOUT_S
        dpids = sorted(s.dpid for s in self.spec.switches)
        links = checks.directed_links(self.spec)
        macs = {h.mac for h in self.spec.hosts}
        while self.core.datapaths() != dpids:
            self._check_deadline(deadline, "switches never attached")
            time.sleep(0.005)
        while self.topo.link_set() != links:
            self._check_deadline(deadline, "discovery incomplete")
            self.topo.run_discovery_round()
            time.sleep(0.03)
        while set(self.topo.hosts()) != macs:
            self._check_deadline(deadline, "hosts never located")
            for mac in macs - set(self.topo.hosts()):
                self.fabric.hosts_by_mac[mac].announce()
            time.sleep(0.03)

    @staticmethod
    def _check_deadline(deadline: float, what: str) -> None:
        if time.monotonic() > deadline:
            raise WorkloadError(what)

    def stop(self) -> None:
        while self._closers:
            self._closers.pop()()


def flowmod_phase(result: ModeResult, dep: SplitDeployment, rng: random.Random, seconds, tracer) -> None:
    """Install, list and delete rules for absent MACs, alternating REST and the core API.

    The client keeps its own record of what it installed on each switch;
    every listing must match it exactly, so a deleted rule must be gone.
    """
    core = dep.core
    rest = RestFlowClient(core.rest_address)
    dpids = sorted(s.dpid for s in dep.spec.switches)
    record: dict[int, list[int]] = {d: [] for d in dpids}
    serial = iter(range(1, 1 << 24))
    busy = {"rest": 0.0, "coreapi": 0.0}
    done = {"rest": 0, "coreapi": 0}

    def add(dpid: int) -> FlowModRequest:
        n = next(serial)
        mac = MacAddr(bytes([0x06, 0xEE, 0, n >> 16, (n >> 8) & 0xFF, n & 0xFF]))  # in no host
        return FlowModRequest(
            dpid=dpid, op=FlowModOp.ADD, priority=10, match=Match(eth_dst=mac),
            actions=(Action(ActionKind.OUTPUT, 1),),
        )

    api = RemoteCore(dep.api.address)
    try:
        for dpid in dpids:
            for _ in range(STANDING_RULES_PER_SWITCH):
                record[dpid].append(api.flow_mod(add(dpid)))
        if tracer:
            tracer.begin(result.mode, "flowmod")
        deadline = time.monotonic() + seconds
        cycle = 0
        while time.monotonic() < deadline:
            channel = "rest" if cycle % 2 == 0 else "coreapi"
            cycle += 1
            dpid = rng.choice(dpids)
            result.attempted += 3
            try:
                t0 = time.perf_counter()
                if channel == "rest":
                    rule_id = rest.install(add(dpid))
                else:
                    rule_id = api.flow_mod(add(dpid))
                busy[channel] += time.perf_counter() - t0
                record[dpid].append(rule_id)
                if channel == "rest":
                    listed = [r["rule_id"] for r in rest.list_rules(dpid)]
                else:
                    listed = [r.rule_id for r in core.flows(dpid)]  # the socket API has no listing
                result.failures += checks.check_rule_listing(listed, record[dpid], dpid)
                victim = record[dpid][0]
                t0 = time.perf_counter()
                if channel == "rest":
                    rest.delete(dpid, victim)
                else:
                    api.flow_mod(FlowModRequest(dpid=dpid, op=FlowModOp.REMOVE, rule_id=victim))
                busy[channel] += time.perf_counter() - t0
                record[dpid].pop(0)
                done[channel] += 2
            except Exception as exc:  # a failed flow-mod is counted, and the run goes on
                result.failed += 1
                result.failures.append(f"{channel} flow-mod cycle on {dpid} failed: {exc}")
        if tracer:
            tracer.end()
        for dpid in dpids:
            listed = [r["rule_id"] for r in rest.list_rules(dpid)]
            result.failures += checks.check_rule_listing(listed, record[dpid], dpid)
    finally:
        api.close()
    for channel in busy:
        result.add(f"flowmods_{channel}", done[channel])
        result.add(f"flowmod_{channel}_s", busy[channel])
    result.slot_rate.append((done["rest"] + done["coreapi"]) / (busy["rest"] + busy["coreapi"]))
    result.window_ops["flowmod"] = result.window_ops.get("flowmod", 0) + done["rest"] + done["coreapi"]


def split_slot(result: ModeResult, seed: int, round_index: int, seconds: float, tracer) -> None:
    spec = build_fat_tree(FAT_TREE_K)
    t0 = time.perf_counter()
    dep = SplitDeployment(spec, DistMode(result.mode)).start()
    setup = time.perf_counter() - t0
    result.setup_s.append(setup)
    try:
        result.failures += checks.check_links(spec, dep.topo.link_set())
        settle(dep.fabric, dep.core)
        ping_rng = random.Random(f"split-ping/{seed}/{round_index}")
        drive_pings(result, spec, dep.fabric, dep.core, ping_rng, seconds / 2, tracer)
        result.failures += checks.check_links(spec, dep.topo.link_set())
        flowmod_rng = random.Random(f"split-flowmod/{seed}/{round_index}")
        flowmod_phase(result, dep, flowmod_rng, seconds / 2, tracer)
        result.events_dropped += dep.core.metrics.events_dropped
        if any(loop.errors for loop in dep.loops):
            result.failures.append(f"services raised on {sum(l.errors for l in dep.loops)} events")
    finally:
        dep.stop()


SLOTS = {"punt": punt_slot, "stream": stream_slot, "split": split_slot}
PRIMARY_PHASE = {"punt": "ping", "stream": "stream", "split": "ping"}


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> dict[str, ModeResult]:
    slot_fn = SLOTS[name]
    slot_s = seconds / (ROUNDS * len(MODES))
    results = {mode: ModeResult(mode) for mode in MODES}
    for round_index in range(ROUNDS):
        for mode in mode_order(round_index):
            slot_fn(results[mode], seed, round_index, slot_s, tracer)
    return results


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
