"""Per-layer tracing by wrapping the program's functions from outside.

A ``Probe`` names one function or method at the place its caller looks it
up (``flowplane.fabric.decode_sb`` is a different binding from
``flowplane.core.decode_sb``), and the metric it feeds. ``Tracer.install``
swaps each binding for a wrapper that times the call on ``perf_counter_ns``
and keeps a per-thread stack, so a span's self time is its duration minus
the wrapped spans it called on the same thread.

Spans that start while a window is open (``begin``/``end``) are kept in it,
even when they end after it closed; windows are keyed by (mode, phase) and
accumulate over rounds. Nothing is written until the run ends.
"""

from __future__ import annotations

import statistics
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable

from flowplane.wire import ETHERTYPE_DATA

# Fixed offsets in the encodings (see flowplane.wire): a 10-byte envelope of
# magic u32, version u8, tag u8 and length u32, then the payload.
_TAG_OFFSET = 5
_SEQ_OFFSET = 10
_SB_ETHERTYPE_OFFSET = 32  # packet-in/out: dpid u64, port u16, dst, src, ethertype
_EVENT_ETHERTYPE_OFFSET = 48  # packet event: seq, ts, dpid u64, port u16, dst, src, ethertype
_SB_FRAME_TAGS = (2, 3)  # packet-in, packet-out
_SB_CONTROL_TAGS = (1, 5)  # hello, port-status
_EVENT_PACKET_TAG = 1
_EVENT_FLOWRULE_TAG = 5


def event_seq(data: bytes) -> int:
    return struct.unpack_from(">Q", data, _SEQ_OFFSET)[0]


# -- background traffic ------------------------------------------------------
# Discovery probes, host announcements and switch/port/link bookkeeping are
# not part of any workload's operations; spans that carry them are kept apart
# so per-operation call counts stay exact.

def frame_is_background(frame) -> bool:
    return frame.ethertype != ETHERTYPE_DATA


def sb_bytes_are_background(data: bytes) -> bool:
    tag = data[_TAG_OFFSET]
    if tag in _SB_FRAME_TAGS:
        return struct.unpack_from(">H", data, _SB_ETHERTYPE_OFFSET)[0] != ETHERTYPE_DATA
    return tag in _SB_CONTROL_TAGS


def sb_message_is_background(msg) -> bool:
    frame = getattr(msg, "frame", None)
    if frame is not None:
        return frame_is_background(frame)
    return not hasattr(msg, "rule")  # hello and port-status; flow-mods are work


def event_is_background(event) -> bool:
    frame = getattr(event, "frame", None)
    if frame is not None:
        return frame_is_background(frame)
    return not hasattr(event, "rule")  # topology events; flow-rule events are work


def event_bytes_are_background(data: bytes) -> bool:
    tag = data[_TAG_OFFSET]
    if tag == _EVENT_PACKET_TAG:
        return struct.unpack_from(">H", data, _EVENT_ETHERTYPE_OFFSET)[0] != ETHERTYPE_DATA
    return tag != _EVENT_FLOWRULE_TAG


@dataclass(frozen=True)
class Probe:
    """One wrapped binding and the metric it feeds.

    ``background`` tells from the call's arguments whether it carries
    background traffic. ``hook`` adds records beyond the span (see the hooks
    below); a probe with
    ``spans=False`` only runs its hook, for calls whose duration means nothing
    (blocking gets, enqueue calls).
    """

    metric: str
    owner: object
    attr: str
    hook: Callable | None = None
    spans: bool = True
    background: Callable[[tuple], bool] | None = None  # args -> carries background traffic


class Window:
    """Everything recorded for one (mode, phase): spans, waits and counters."""

    def __init__(self, metrics) -> None:
        self.spans: dict[str, list[int]] = {m: [] for m in metrics}
        self.background: dict[str, list[int]] = {m: [] for m in metrics}
        self.waits: dict[str, list[int]] = {
            "p2p.delivery_wait": [],
            "broker.delivery_wait": [],
            "fabric.hop_wait": [],
        }
        self.poll_hits: list[int] = []
        self.delivered: dict[str, int] = {"p2p": 0, "broker": 0}
        self.rules_max = 0
        self.sent: dict[int, int] = {}
        self.arrivals: dict[tuple, int] = {}


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.windows: dict[tuple[str, str], Window] = {}
        self.current: Window | None = None
        self.subscriptions: list = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for probe in self.probes:
            if isinstance(probe.owner, type):
                original = vars(probe.owner)[probe.attr]
            else:
                original = getattr(probe.owner, probe.attr)
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(probe, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, probe: Probe, fn):
        local = self._local
        tracer = self
        metric = probe.metric
        hook = probe.hook
        classify = probe.background
        clock = time.perf_counter_ns
        if not probe.spans:

            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                if hook is not None:
                    now = clock()
                    hook(tracer, tracer.current, args, result, now, now)
                return result

            return hooked

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            result = None
            window = tracer.current  # a span belongs to the window it started in
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                if window is not None:
                    if classify is not None and classify(args):
                        window.background[metric].append(t1 - t0 - child)
                    else:
                        window.spans[metric].append(t1 - t0 - child)
                    if hook is not None:
                        hook(tracer, window, args, result, t0, t1)

        return wrapper

    # -- windows -------------------------------------------------------------

    def begin(self, mode: str, phase: str) -> None:
        key = (mode, phase)
        if key not in self.windows:
            self.windows[key] = Window({p.metric for p in self.probes})
        self.current = self.windows[key]

    def end(self) -> None:
        window, self.current = self.current, None
        if window is not None:
            window.sent.clear()
            window.arrivals.clear()


# -- hooks: (tracer, window or None, args, result, t0_ns, t1_ns) ---------------

def mark_sent(tracer, window, args, result, t0, t1) -> None:
    """p2p push(event) / broker publish(topic, data): when each seq left the core."""
    data = args[-1]
    seq = data.seq if hasattr(data, "seq") else event_seq(data)
    window.sent.setdefault(seq, t1)


def _delivered(backend: str):
    name = f"{backend}.delivery_wait"

    def hook(tracer, window, args, result, t0, t1) -> None:
        if window is not None and result:
            window.delivered[backend] += 1
            sent = window.sent.get(event_seq(result))
            if sent is not None:
                window.waits[name].append(t1 - sent)

    return hook


p2p_delivered = _delivered("p2p")
broker_delivered = _delivered("broker")


def poll_hit(tracer, window, args, result, t0, t1) -> None:
    window.poll_hits.append(1 if result else 0)


def subscribed(tracer, window, args, result, t0, t1) -> None:
    tracer.subscriptions.append(result)


def switch_arrival(tracer, window, args, result, t0, t1) -> None:
    """SimSwitch.inject(self, in_port, frame)."""
    if window is not None:
        window.arrivals[("s", args[0].dpid, id(args[2]))] = t1


def host_arrival(tracer, window, args, result, t0, t1) -> None:
    """SimHost.deliver(self, frame)."""
    if window is not None:
        window.arrivals[("h", id(args[0]), id(args[1]))] = t1


def _handled(window, key, t0) -> None:
    arrived = window.arrivals.pop(key, None)
    if arrived is not None:
        window.waits["fabric.hop_wait"].append(t0 - arrived)


def switch_handled(tracer, window, args, result, t0, t1) -> None:
    """switch_rx(state, in_port, frame, now): the hop wait ends when handling starts."""
    state = args[0]
    size = len(state)
    if size > window.rules_max:
        window.rules_max = size
    _handled(window, ("s", state.dpid, id(args[2])), t0)


def host_handled(tracer, window, args, result, t0, t1) -> None:
    """SimHost._receive(self, frame)."""
    _handled(window, ("h", id(args[0]), id(args[1])), t0)


# -- reduction ---------------------------------------------------------------

def median_us(values: list[int]) -> float:
    return statistics.median(values) / 1000 if values else 0.0
