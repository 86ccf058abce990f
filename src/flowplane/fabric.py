"""Live data plane: switch and host actors wired per a NetworkSpec.

Each switch and host is a sequential actor, and one scheduler thread, owned
by the Fabric, runs every queued item's handler to completion in arrival
order. One thread draining one FIFO keeps each actor sequential and each
link's frames in order without locking between actors, and the data plane
runs on one thread whatever its size. Links deliver frames either by direct
enqueue (zero latency, the default) or after a fixed delay kept on the
scheduler's timer heap, which preserves per-link FIFO order. The scheduler
keeps the one count of pending work, frames waiting on a delayed link
included, and ``Fabric.quiesce`` waits for it to stay at zero.

Switches enforce their rules' hard timeouts themselves, as OpenFlow switches
do: installing or modifying a rule with a timeout puts its deadline on the same
timer heap, and when it falls due the switch purges what has expired and
reports it to the controller. The heap has no cancel, so a rule removed or
modified early leaves a timer that finds nothing due; pending entries are
bounded by the timed FlowMods issued within the longest timeout in use.

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
from queue import Empty, SimpleQueue
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
# after the prefix: a ping (echoed whole in its pong) carries seq and send
# time in microseconds; a segment (echoed in its ack) carries conn_id and seq
_PING_HEAD = struct.Struct(">IQ")
_SEGMENT_HEAD = struct.Struct(">II")

DEFAULT_SEGMENT_BYTES = 1464
DEFAULT_RETRANSMIT_S = 1.0


class _Scheduler:
    """One thread running every actor's queued handlers, in arrival order.

    Timed calls (frames delayed by link latency, rule deadlines) wait on a heap
    that the same thread keeps; it blocks on the queue only until the next of
    them is due. It counts pending work: an item until its handler returned,
    and a delayed frame until it was queued at the peer.
    """

    def __init__(self) -> None:
        self._q: SimpleQueue = SimpleQueue()
        self._timers: list[tuple[float, int, Callable[[], None], bool]] = []
        self._tick = itertools.count()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending = 0

    def put(self, actor, handler: str, item) -> None:
        """Queue ``item`` for the actor's method named ``handler``."""
        with self._lock:
            self._pending += 1
        self._q.put((actor, handler, item))

    def idle(self) -> bool:
        """Whether no item is queued or running and no delayed frame is in flight."""
        return self._pending == 0

    def call_later(self, delay: float, fn: Callable[[], None], pending: bool = False) -> None:
        """Run ``fn`` on the scheduler thread after ``delay`` seconds, counted as
        pending work until it returned if ``pending``. Only handlers call this:
        the heap belongs to the scheduler thread."""
        if pending:
            with self._lock:
                self._pending += 1
        heapq.heappush(self._timers, (time.monotonic() + delay, next(self._tick), fn, pending))

    def on_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, name="fabric", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._q.put((None, None, None))
            self._thread.join(timeout=2)
            self._thread = None

    def _run(self) -> None:
        get, get_nowait = self._q.get, self._q.get_nowait
        timers, lock = self._timers, self._lock
        while True:
            timeout = None
            if timers:
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    _, _, fn, pending = heapq.heappop(timers)
                    try:
                        fn()
                    except Exception:
                        log.exception("timer %r failed", fn)
                    finally:
                        if pending:
                            with lock:
                                self._pending -= 1
                if timers:
                    timeout = timers[0][0] - now
            try:
                # SimpleQueue.get(timeout) (CPython 3.11) waits for the next
                # put instead when its lock was free and its deadline passed
                # by a microsecond before it blocks, as a timer due in a few
                # microseconds often makes it; a get_nowait() on the empty
                # queue takes that lock first, so the timed get keeps its
                # timeout
                actor, handler, item = get_nowait()
            except Empty:
                try:
                    actor, handler, item = get(timeout=timeout)
                except Empty:
                    continue
            if actor is None:
                return
            try:
                # looked up per item, so a handler replaced on the actor is used
                getattr(actor, handler)(item)
            except Exception:
                log.exception("%s: failed to handle %.80r", actor.name, item)
            finally:
                with lock:
                    self._pending -= 1


class SimSwitch:
    """Actor around a SwitchState: frames in, effects out, controller uplink."""

    def __init__(self, state: SwitchState, scheduler: _Scheduler):
        self.state = state
        self.dpid = state.dpid
        self.name = f"switch {self.dpid}"
        self._scheduler = scheduler
        self._port_sinks: dict[int, Callable[[Frame], None]] = {}
        self._uplink: Callable[[bytes], None] | None = None
        self._on_expired: Callable[[int, list[FlowRule]], None] | None = None

    # -- wiring (done before start) ----------------------------------------

    def wire_port(self, port: int, sink: Callable[[Frame], None]) -> None:
        self._port_sinks[port] = sink

    def connect_controller(
        self,
        uplink: Callable[[bytes], None],
        on_expired: Callable[[int, list[FlowRule]], None] | None = None,
    ) -> None:
        """Attach the controller channel and say hello from the fabric thread."""
        self._uplink = uplink
        self._on_expired = on_expired
        self._scheduler.put(self, "_dispatch", ("hello",))

    # -- actor inputs -------------------------------------------------------

    def inject(self, in_port: int, frame: Frame) -> None:
        """A frame arrives on ``in_port`` (from a link or attached host)."""
        self._scheduler.put(self, "_dispatch", ("frame", in_port, frame))

    def control_rx(self, data: bytes) -> None:
        """Southbound bytes from the controller."""
        self._scheduler.put(self, "_dispatch", ("sb", data))

    def set_port_admin(self, port: int, up: bool) -> None:
        self._scheduler.put(self, "_dispatch", ("port", port, up))

    def request_rules(self, timeout: float = 2.0) -> list[FlowRule]:
        """Synchronous table snapshot, ordered behind queued work.

        Raises RuntimeError on the fabric thread, which would wait on itself.
        """
        if self._scheduler.on_thread():
            raise RuntimeError(
                f"switch {self.dpid}: request_rules on the fabric thread would deadlock "
                "waiting for that thread to answer"
            )
        reply: SimpleQueue = SimpleQueue()
        self._scheduler.put(self, "_dispatch", ("query", reply))
        return reply.get(timeout=timeout)

    # -- handler ------------------------------------------------------------

    def _dispatch(self, item: tuple) -> None:
        kind = item[0]
        if kind == "frame":
            _, in_port, frame = item
            self._emit(switch_rx(self.state, in_port, frame, time.monotonic()))
        elif kind == "sb":
            self._handle_sb(decode_sb(item[1]))
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
            if msg.op is not FlowModOp.REMOVE and msg.rule.hard_timeout_s > 0:
                # handlers run on the scheduler thread, as call_later requires
                self._scheduler.call_later(msg.rule.hard_timeout_s, self._expire)
        else:
            log.warning("switch %d: unexpected southbound %r", self.dpid, type(msg))

    def _expire(self) -> None:
        """A rule's deadline: purge whatever has expired and report it."""
        removed = self.state.expire(time.monotonic())
        if removed and self._on_expired:
            self._on_expired(self.dpid, removed)

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


class SimHost:
    """End host actor: inbox plus ping and stop-and-wait stream generators."""

    def __init__(
        self,
        host_id: str,
        mac: MacAddr,
        scheduler: _Scheduler,
        inbox_limit: int | None = None,
    ):
        self.host_id = host_id
        self.name = f"host {host_id}"
        self.mac = mac
        self.attachment: tuple[SimSwitch, int] | None = None
        self.inbox: list[Frame] = []
        self._inbox_limit = inbox_limit
        self.frames_received = 0
        self._scheduler = scheduler
        self._lock = threading.Lock()
        self._ping_seq = itertools.count(1)
        self._ping_waiters: dict[int, threading.Event] = {}
        self._ack_waiters: dict[tuple[int, int], threading.Event] = {}

    def attach(self, switch: SimSwitch, port: int) -> None:
        self.attachment = (switch, port)

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
            waiter = threading.Event()
            start = time.monotonic()
            with self._lock:
                self._ping_waiters[seq] = waiter
            head = PING_PREFIX + _PING_HEAD.pack(seq, time.time_ns() // 1000)
            payload = head + b"\x00" * max(0, payload_size - len(head))
            self.send_frame(dst, ETHERTYPE_DATA, payload)
            ok = waiter.wait(timeout)
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
        body = b"\x00" * max(0, segment_bytes - len(SEG_PREFIX) - _SEGMENT_HEAD.size)
        while time.monotonic() < deadline:
            payload = SEG_PREFIX + _SEGMENT_HEAD.pack(report.conn_id, seq) + body
            waiter = threading.Event()
            key = (report.conn_id, seq)
            with self._lock:
                self._ack_waiters[key] = waiter
            acked = False
            while time.monotonic() < deadline:
                self.send_frame(dst, ETHERTYPE_DATA, payload)
                if waiter.wait(min(rto, max(0.0, deadline - time.monotonic()))):
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
        self._scheduler.put(self, "_receive", frame)

    def _receive(self, frame: Frame) -> None:
        if frame.ethertype == ETHERTYPE_DISCOVERY:
            return  # hosts ignore discovery probes
        if frame.dst != self.mac and not frame.dst.is_broadcast:
            return  # not for us (a flood copy of someone else's traffic)
        self.frames_received += 1
        payload = frame.payload
        if payload.startswith(PING_PREFIX):
            self.send_frame(frame.src, ETHERTYPE_DATA, PONG_PREFIX + payload[4:])
            return
        if payload.startswith(PONG_PREFIX):
            seq, _sent_us = _PING_HEAD.unpack_from(payload, len(PONG_PREFIX))
            with self._lock:
                waiter = self._ping_waiters.get(seq)
            if waiter:
                waiter.set()
            return
        if payload.startswith(SEG_PREFIX):
            self.send_frame(frame.src, ETHERTYPE_DATA, ACK_PREFIX + payload[4:12])
            return
        if payload.startswith(ACK_PREFIX):
            conn_id, seq = _SEGMENT_HEAD.unpack_from(payload, len(ACK_PREFIX))
            with self._lock:
                waiter = self._ack_waiters.get((conn_id, seq))
            if waiter:
                waiter.set()
            return
        if self._inbox_limit is None or len(self.inbox) < self._inbox_limit:
            self.inbox.append(frame)


class Fabric:
    """All the actors for one NetworkSpec, wired and ready to start, and their scheduler."""

    def __init__(
        self,
        spec: NetworkSpec,
        link_latency: float = 0.0,
        inbox_limit: int | None = None,
    ):
        spec.validate()
        self.spec = spec
        self.link_latency = link_latency
        self._scheduler = _Scheduler()
        self.switches: dict[int, SimSwitch] = {
            s.dpid: SimSwitch(SwitchState(s.dpid, range(1, s.n_ports + 1)), self._scheduler)
            for s in spec.switches
        }
        self.hosts: dict[str, SimHost] = {}
        self.hosts_by_mac: dict[MacAddr, SimHost] = {}
        for h in spec.hosts:
            host = SimHost(h.host_id, h.mac, self._scheduler, inbox_limit=inbox_limit)
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
        call_later, latency = self._scheduler.call_later, self.link_latency
        # switch handlers call link sinks, so this runs on the scheduler thread;
        # the frame stays pending work until inject has queued it at the peer
        return lambda frame: call_later(latency, lambda: peer.inject(peer_port, frame), pending=True)

    def start(self) -> None:
        self._scheduler.start()

    def stop(self) -> None:
        self._scheduler.stop()

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
        """Wait until the data plane has no work queued, running or on a delayed
        link for three samples 2 ms apart; True on success. The calm window
        covers work that crosses other threads, which the count cannot see."""
        deadline = time.monotonic() + timeout
        calm = 0
        while time.monotonic() < deadline:
            if self._scheduler.idle():
                calm += 1
                if calm >= 3:
                    return True
            else:
                calm = 0
            time.sleep(0.002)
        return False
