"""Live data plane: threaded switch and host actors wired per a NetworkSpec.

Each switch and host is an independent sequential actor fed by an ordered
queue; there is no shared mutable state between actors. Links deliver frames
either by direct enqueue (zero latency, the default) or through a single
timer thread that preserves per-link FIFO order.

Hosts carry two traffic generators: an echo-based ping that measures
round-trip times on the host's own monotonic clock, and a stop-and-wait
segment/ack byte stream used for goodput measurements. Hosts answer pings
and acknowledge segments automatically; discovery frames (ethertype 0x88CC)
are ignored by hosts entirely.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import struct
import threading
import time
from dataclasses import dataclass, replace
from queue import SimpleQueue
from typing import Callable

from .switch import (
    RuleExpiry,
    SwitchState,
    ToController,
    TxFrame,
    apply_packet_out,
    switch_rx,
)
from .topology import NetworkSpec
from .wire import (
    ETHERTYPE_ARP,
    ETHERTYPE_DATA,
    ETHERTYPE_DISCOVERY,
    BROADCAST,
    FlowMod,
    FlowModOp,
    FlowRule,
    Frame,
    Hello,
    MacAddr,
    PacketIn,
    PacketOut,
    PortStatus,
    decode_sb,
    encode_sb,
)

log = logging.getLogger(__name__)

PING_PREFIX = b"PING"
PONG_PREFIX = b"PONG"
SEG_PREFIX = b"SEG!"
ACK_PREFIX = b"ACK!"
ANNOUNCE_PREFIX = b"HOST"

DEFAULT_SEGMENT_BYTES = 1464
DEFAULT_RETRANSMIT_S = 1.0


class _DelayLine:
    """Single timer thread delivering callbacks after a fixed delay, FIFO."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._tick = itertools.count()
        self._cond = threading.Condition()
        self._running = True
        self._thread = threading.Thread(target=self._run, name="delayline", daemon=True)
        self._thread.start()

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        with self._cond:
            heapq.heappush(self._heap, (time.monotonic() + delay, next(self._tick), fn))
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while self._running and (
                    not self._heap or self._heap[0][0] > time.monotonic()
                ):
                    wait = None
                    if self._heap:
                        wait = max(0.0, self._heap[0][0] - time.monotonic())
                    self._cond.wait(timeout=wait)
                if not self._running:
                    return
                _, _, fn = heapq.heappop(self._heap)
            try:
                fn()
            except Exception:
                log.exception("delayed delivery failed")

    def stop(self) -> None:
        with self._cond:
            self._running = False
            self._cond.notify()
        self._thread.join(timeout=2)


class _Mailbox:
    """An actor's queue plus a count of items put and not yet fully handled.

    The count rises before an item is queued and falls only after its handler
    returned, so an actor that is idle cannot have work queued or running.
    """

    def __init__(self) -> None:
        self._q: SimpleQueue = SimpleQueue()
        self._lock = threading.Lock()
        self._in_flight = 0

    def put(self, item) -> None:
        with self._lock:
            self._in_flight += 1
        self._q.put(item)

    def get(self):
        return self._q.get()

    def done(self) -> None:
        with self._lock:
            self._in_flight -= 1

    def stop(self) -> None:
        self._q.put(None)

    def idle(self) -> bool:
        return self._in_flight == 0


class SimSwitch:
    """Actor around a SwitchState: frames in, effects out, controller uplink."""

    def __init__(self, state: SwitchState):
        self.state = state
        self.dpid = state.dpid
        self._q = _Mailbox()
        self._port_sinks: dict[int, Callable[[Frame], None]] = {}
        self._uplink: Callable[[bytes], None] | None = None
        self._on_expired: Callable[[int, list[FlowRule]], None] | None = None
        self._thread = threading.Thread(
            target=self._run, name=f"switch-{self.dpid}", daemon=True
        )

    # -- wiring (done before start) ----------------------------------------

    def wire_port(self, port: int, sink: Callable[[Frame], None]) -> None:
        self._port_sinks[port] = sink

    def connect_controller(
        self,
        uplink: Callable[[bytes], None],
        on_expired: Callable[[int, list[FlowRule]], None] | None = None,
    ) -> None:
        """Attach the controller channel and say hello from the actor thread."""
        self._uplink = uplink
        self._on_expired = on_expired
        self._q.put(("hello",))

    # -- actor inputs -------------------------------------------------------

    def inject(self, in_port: int, frame: Frame) -> None:
        """A frame arrives on ``in_port`` (from a link or attached host)."""
        self._q.put(("frame", in_port, frame))

    def control_rx(self, data: bytes) -> None:
        """Southbound bytes from the controller."""
        self._q.put(("sb", data))

    def sweep(self) -> None:
        """Ask the actor to purge hard-timed-out rules."""
        self._q.put(("expire",))

    def set_port_admin(self, port: int, up: bool) -> None:
        self._q.put(("port", port, up))

    def request_rules(self, timeout: float = 2.0) -> list[FlowRule]:
        """Synchronous table snapshot, ordered behind queued work."""
        reply: SimpleQueue = SimpleQueue()
        self._q.put(("query", reply))
        return reply.get(timeout=timeout)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._q.stop()
        self._thread.join(timeout=2)

    def idle(self) -> bool:
        return self._q.idle()

    # -- actor loop ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._q.get()
            if item is None:
                return
            try:
                self._dispatch(item)
            except Exception:
                log.exception("switch %d: failed to handle %r", self.dpid, item[0])
            finally:
                self._q.done()

    def _dispatch(self, item: tuple) -> None:
        kind = item[0]
        if kind == "frame":
            _, in_port, frame = item
            self._emit(switch_rx(self.state, in_port, frame, time.monotonic()))
        elif kind == "sb":
            self._handle_sb(decode_sb(item[1]))
        elif kind == "expire":
            removed = self.state.expire(time.monotonic())
            if removed and self._on_expired:
                self._on_expired(self.dpid, removed)
        elif kind == "port":
            _, port, up = item
            self.state.set_port(port, up)
            self._send(PortStatus(dpid=self.dpid, port=port, up=up))
        elif kind == "query":
            item[1].put(self.state.rules(now=time.monotonic()))
        elif kind == "hello":
            self._send(Hello(dpid=self.dpid, ports=tuple(sorted(self.state.ports))))

    def _handle_sb(self, msg) -> None:
        if isinstance(msg, PacketOut):
            self._emit(apply_packet_out(self.state, msg.out_port, msg.frame))
        elif isinstance(msg, FlowMod):
            now = time.monotonic()
            if msg.op is FlowModOp.ADD:
                self.state.install(replace(msg.rule), now)
            elif msg.op is FlowModOp.REMOVE:
                self.state.remove(msg.rule.rule_id)
            else:
                if self.state.modify(replace(msg.rule), now) is None:
                    log.warning(
                        "switch %d: MODIFY of vanished rule %d, installing fresh",
                        self.dpid,
                        msg.rule.rule_id,
                    )
                    self.state.install(replace(msg.rule), now)
        else:
            log.warning("switch %d: unexpected southbound %r", self.dpid, type(msg))

    def _emit(self, effects) -> None:
        for effect in effects:
            if isinstance(effect, TxFrame):
                sink = self._port_sinks.get(effect.out_port)
                if sink is not None:
                    sink(effect.frame)
            elif isinstance(effect, ToController):
                self._send(PacketIn(dpid=self.dpid, in_port=effect.in_port, frame=effect.frame))
            elif isinstance(effect, RuleExpiry):
                if self._on_expired:
                    self._on_expired(self.dpid, list(effect.rules))

    def _send(self, msg) -> None:
        if self._uplink is not None:
            self._uplink(encode_sb(msg))


@dataclass
class PingSample:
    index: int
    rtt_s: float | None

    @property
    def lost(self) -> bool:
        return self.rtt_s is None


@dataclass
class ConnReport:
    conn_id: int
    bytes_acked: int
    segments_acked: int
    retransmits: int
    duration_s: float

    @property
    def goodput_bps(self) -> float:
        return 8.0 * self.bytes_acked / self.duration_s if self.duration_s > 0 else 0.0


class _Waiter:
    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class SimHost:
    """End host actor: inbox plus ping and stop-and-wait stream generators."""

    def __init__(self, host_id: str, mac: MacAddr, inbox_limit: int | None = None):
        self.host_id = host_id
        self.mac = mac
        self.attachment: tuple[SimSwitch, int] | None = None
        self.inbox: list[Frame] = []
        self._inbox_limit = inbox_limit
        self.frames_received = 0
        self.bytes_received = 0
        self._q = _Mailbox()
        self._lock = threading.Lock()
        self._ping_seq = itertools.count(1)
        self._ping_waiters: dict[int, _Waiter] = {}
        self._ack_waiters: dict[tuple[int, int], _Waiter] = {}
        self._stream_rx: dict[tuple[MacAddr, int], int] = {}
        self._thread = threading.Thread(
            target=self._run, name=f"host-{host_id}", daemon=True
        )

    def attach(self, switch: SimSwitch, port: int) -> None:
        self.attachment = (switch, port)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._q.stop()
        self._thread.join(timeout=2)

    def idle(self) -> bool:
        return self._q.idle()

    # -- sending ------------------------------------------------------------

    def send_frame(self, dst: MacAddr, ethertype: int, payload: bytes) -> None:
        if self.attachment is None:
            raise RuntimeError(f"host {self.host_id} is not attached")
        switch, port = self.attachment
        switch.inject(port, Frame(dst=dst, src=self.mac, ethertype=ethertype, payload=payload))

    def announce(self) -> None:
        """Broadcast this host's presence (the ARP-analog frame)."""
        self.send_frame(BROADCAST, ETHERTYPE_ARP, ANNOUNCE_PREFIX + self.mac.octets)

    # -- ping ---------------------------------------------------------------

    def ping(
        self,
        dst: MacAddr,
        count: int = 1,
        interval: float = 0.01,
        timeout: float = 5.0,
        payload_size: int = 56,
    ) -> list[PingSample]:
        """Send ``count`` echo requests; a timed-out reply becomes a lost sample."""
        if count < 1:
            raise ValueError(f"ping count must be >= 1, got {count}")
        if dst == self.mac:
            raise ValueError("host cannot ping itself")
        samples = []
        for i in range(count):
            seq = next(self._ping_seq)
            waiter = _Waiter()
            start = time.monotonic()
            with self._lock:
                self._ping_waiters[seq] = waiter
            head = PING_PREFIX + struct.pack(">IQ", seq, time.time_ns() // 1000)
            payload = head + b"\x00" * max(0, payload_size - len(head))
            self.send_frame(dst, ETHERTYPE_DATA, payload)
            ok = waiter.event.wait(timeout)
            rtt = time.monotonic() - start if ok else None
            with self._lock:
                self._ping_waiters.pop(seq, None)
            samples.append(PingSample(index=i, rtt_s=rtt))
            if i + 1 < count and interval > 0:
                time.sleep(interval)
        return samples

    # -- streams ------------------------------------------------------------

    def stream(
        self,
        dst: MacAddr,
        duration: float,
        n_conns: int,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retransmit_timeout: float = DEFAULT_RETRANSMIT_S,
    ) -> list[ConnReport]:
        """Run ``n_conns`` concurrent stop-and-wait connections for ``duration``."""
        if n_conns < 1:
            raise ValueError(f"need at least one connection, got {n_conns}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if dst == self.mac:
            raise ValueError("host cannot stream to itself")
        reports = [
            ConnReport(conn_id=c, bytes_acked=0, segments_acked=0, retransmits=0, duration_s=duration)
            for c in range(n_conns)
        ]
        deadline = time.monotonic() + duration
        threads = [
            threading.Thread(
                target=self._stream_conn,
                args=(dst, deadline, segment_bytes, retransmit_timeout, reports[c]),
                name=f"{self.host_id}-conn{c}",
                daemon=True,
            )
            for c in range(n_conns)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return reports

    def _stream_conn(
        self,
        dst: MacAddr,
        deadline: float,
        segment_bytes: int,
        rto: float,
        report: ConnReport,
    ) -> None:
        seq = 0
        head_len = len(SEG_PREFIX) + 8
        body = b"\x00" * max(0, segment_bytes - head_len)
        while time.monotonic() < deadline:
            payload = SEG_PREFIX + struct.pack(">II", report.conn_id, seq) + body
            waiter = _Waiter()
            key = (report.conn_id, seq)
            with self._lock:
                self._ack_waiters[key] = waiter
            acked = False
            while time.monotonic() < deadline:
                self.send_frame(dst, ETHERTYPE_DATA, payload)
                if waiter.event.wait(min(rto, max(0.0, deadline - time.monotonic()))):
                    acked = True
                    break
                if time.monotonic() < deadline:
                    report.retransmits += 1
            with self._lock:
                self._ack_waiters.pop(key, None)
            if not acked:
                break
            report.segments_acked += 1
            report.bytes_acked += len(payload)
            seq += 1

    # -- receive path ---------------------------------------------------------

    def deliver(self, frame: Frame) -> None:
        """Entry point for frames arriving from the attachment port."""
        self._q.put(frame)

    def _run(self) -> None:
        while True:
            frame = self._q.get()
            if frame is None:
                return
            try:
                self._receive(frame)
            except Exception:
                log.exception("host %s: bad frame", self.host_id)
            finally:
                self._q.done()

    def _receive(self, frame: Frame) -> None:
        if frame.ethertype == ETHERTYPE_DISCOVERY:
            return  # hosts ignore discovery probes
        if frame.dst != self.mac and not frame.dst.is_broadcast:
            return  # not for us (a flood copy of someone else's traffic)
        self.frames_received += 1
        self.bytes_received += len(frame.payload)
        payload = frame.payload
        if payload.startswith(PING_PREFIX):
            self.send_frame(frame.src, ETHERTYPE_DATA, PONG_PREFIX + payload[4:])
            return
        if payload.startswith(PONG_PREFIX):
            (seq,) = struct.unpack(">I", payload[4:8])
            with self._lock:
                waiter = self._ping_waiters.get(seq)
            if waiter:
                waiter.event.set()
            return
        if payload.startswith(SEG_PREFIX):
            conn_id, seq = struct.unpack(">II", payload[4:12])
            key = (frame.src, conn_id)
            if self._stream_rx.get(key, -1) + 1 == seq:
                self._stream_rx[key] = seq
            self.send_frame(frame.src, ETHERTYPE_DATA, ACK_PREFIX + payload[4:12])
            return
        if payload.startswith(ACK_PREFIX):
            conn_id, seq = struct.unpack(">II", payload[4:12])
            with self._lock:
                waiter = self._ack_waiters.get((conn_id, seq))
            if waiter:
                waiter.event.set()
            return
        if self._inbox_limit is None or len(self.inbox) < self._inbox_limit:
            self.inbox.append(frame)


class Fabric:
    """All the actors for one NetworkSpec, wired and ready to start."""

    def __init__(
        self,
        spec: NetworkSpec,
        link_latency: float = 0.0,
        inbox_limit: int | None = None,
    ):
        spec.validate()
        self.spec = spec
        self.link_latency = link_latency
        self._delay: _DelayLine | None = None
        self.switches: dict[int, SimSwitch] = {
            s.dpid: SimSwitch(SwitchState(s.dpid, range(1, s.n_ports + 1)))
            for s in spec.switches
        }
        self.hosts: dict[str, SimHost] = {}
        self.hosts_by_mac: dict[MacAddr, SimHost] = {}
        for h in spec.hosts:
            host = SimHost(h.host_id, h.mac, inbox_limit=inbox_limit)
            host.attach(self.switches[h.dpid], h.port)
            self.hosts[h.host_id] = host
            self.hosts_by_mac[h.mac] = host
            self.switches[h.dpid].wire_port(h.port, host.deliver)
        for l in spec.links:
            a, b = self.switches[l.a_dpid], self.switches[l.b_dpid]
            a.wire_port(l.a_port, self._link_sink(b, l.b_port))
            b.wire_port(l.b_port, self._link_sink(a, l.a_port))

    def _link_sink(self, peer: SimSwitch, peer_port: int) -> Callable[[Frame], None]:
        if self.link_latency <= 0:
            return lambda frame: peer.inject(peer_port, frame)
        if self._delay is None:
            self._delay = _DelayLine()
        delay_line = self._delay
        latency = self.link_latency

        def sink(frame: Frame) -> None:
            delay_line.schedule(latency, lambda: peer.inject(peer_port, frame))

        return sink

    def start(self) -> None:
        for sw in self.switches.values():
            sw.start()
        for host in self.hosts.values():
            host.start()

    def stop(self) -> None:
        for sw in self.switches.values():
            sw.stop()
        for host in self.hosts.values():
            host.stop()
        if self._delay is not None:
            self._delay.stop()

    def __enter__(self) -> "Fabric":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def set_port(self, dpid: int, port: int, up: bool) -> None:
        self.switches[dpid].set_port_admin(port, up)

    def cut_link(self, a_dpid: int, a_port: int) -> None:
        """Take both ends of the cable at (a_dpid, a_port) down."""
        for l in self.spec.links:
            if (l.a_dpid, l.a_port) == (a_dpid, a_port):
                other = (l.b_dpid, l.b_port)
            elif (l.b_dpid, l.b_port) == (a_dpid, a_port):
                other = (l.a_dpid, l.a_port)
            else:
                continue
            self.set_port(a_dpid, a_port, False)
            self.set_port(other[0], other[1], False)
            return
        raise KeyError(f"no link at {a_dpid}:{a_port}")

    def quiesce(self, timeout: float = 5.0) -> bool:
        """Wait until no actor has work queued or running; True on success."""
        deadline = time.monotonic() + timeout
        calm = 0
        while time.monotonic() < deadline:
            if all(sw.idle() for sw in self.switches.values()) and all(
                h.idle() for h in self.hosts.values()
            ):
                calm += 1
                if calm >= 3:
                    return True
            else:
                calm = 0
            time.sleep(0.002)
        return False
