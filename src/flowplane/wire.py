"""Southbound message and network-event types with their binary encodings.

Every value that crosses a process or channel boundary in this project is one
of two message families, each with a fixed-layout big-endian format so any
implementation can produce identical bytes without schema tooling:

Network events ("EVNT"):
    magic 0x45564E54 (4B) | version u8 = 1 | tag u8 | payload_len u32 | payload
    tags: 1 packet exception, 2 link, 3 device, 4 port, 5 flow rule
    every payload starts with: seq u64 | ts_micros u64

Southbound messages ("SBMG"):
    magic 0x53424D47 (4B) | version u8 = 1 | tag u8 | payload_len u32 | payload
    tags: 1 hello, 2 packet-in, 3 packet-out, 4 flow-mod, 5 port-status

Shared sub-layouts:
    frame:   dst 6B | src 6B | ethertype u16 | payload_len u32 | payload
    match:   presence u8 (bit0 in_port, bit1 eth_src, bit2 eth_dst,
             bit3 ethertype) | present fields in that order
    action:  kind u8 (1 OUTPUT, 2 FLOOD, 3 DROP, 4 CONTROLLER) | port u16
             (OUTPUT: the port; FLOOD: 0xFFFF; CONTROLLER: 0xFFFE; DROP: 0)
    rule:    rule_id u64 | priority u16 | match | action_count u8 | actions
             | hard_timeout_s u32 | packet_count u64 | byte_count u64

The rule layout deliberately omits the installation timestamp: it is local
switch state, so decoded rules come back with ``installed_at == 0.0``.

Encoding is a pure function of its argument and all types here are value
objects, safe to share across threads. Both directions are table-driven: one
encoder per message type and one decoder per tag. Encoding and decoding share
one precompiled ``struct.Struct`` per layout, so each layout is spelled once;
decoders read with ``unpack_from`` straight out of the message. The socket
protocols (``framing`` and its users) build their bodies on the same layouts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from typing import Callable, Union

EVENT_MAGIC = 0x45564E54  # "EVNT"
SB_MAGIC = 0x53424D47  # "SBMG"
WIRE_VERSION = 1

ETHERTYPE_DISCOVERY = 0x88CC
ETHERTYPE_ARP = 0x0806
ETHERTYPE_DATA = 0x0800

FLOOD_PORT = 0xFFFF
CONTROLLER_PORT = 0xFFFE
MAX_FRAME_PAYLOAD = 1500


class WireError(ValueError):
    """Base class for encode/decode failures."""


class EncodeError(WireError):
    """Value cannot be represented in the wire format."""


class DecodeError(WireError):
    """Input bytes are not a valid message."""


class BadMagicError(DecodeError):
    pass


class BadVersionError(DecodeError):
    pass


class BadTagError(DecodeError):
    pass


class TruncatedError(DecodeError):
    pass


class LengthMismatchError(DecodeError):
    pass


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class MacAddr:
    """A 6-octet hardware address."""

    octets: bytes

    def __post_init__(self) -> None:
        if len(self.octets) != 6:
            raise ValueError(f"MAC address needs 6 octets, got {len(self.octets)}")

    @classmethod
    def from_str(cls, text: str) -> "MacAddr":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC address {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    @classmethod
    def host(cls, index: int) -> "MacAddr":
        """Deterministic MAC for host number ``index`` (02:00:00:00:hi:lo)."""
        if not 0 < index <= 0xFFFF:
            raise ValueError(f"host index out of range: {index}")
        return cls(bytes([0x02, 0, 0, 0, index >> 8, index & 0xFF]))

    @property
    def is_broadcast(self) -> bool:
        return self.octets == b"\xff" * 6

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.octets)


BROADCAST = MacAddr(b"\xff" * 6)


@dataclass(frozen=True)
class Frame:
    """Simplified Ethernet frame, the unit moved by the data plane."""

    dst: MacAddr
    src: MacAddr
    ethertype: int
    payload: bytes = b""


# Switch identifiers are plain 64-bit ints end to end.
DatapathId = int


class ActionKind(IntEnum):
    OUTPUT = 1
    FLOOD = 2
    DROP = 3
    CONTROLLER = 4


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    port: int | None = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.OUTPUT:
            if self.port is None:
                raise ValueError("OUTPUT action needs a port")
        elif self.port is not None:
            raise ValueError(f"{self.kind.name} action takes no port")


@dataclass(frozen=True)
class Match:
    """Flow-table match; ``None`` fields are wildcards."""

    in_port: int | None = None
    eth_src: MacAddr | None = None
    eth_dst: MacAddr | None = None
    ethertype: int | None = None

    def matches(self, frame: Frame, in_port: int) -> bool:
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_src is not None and self.eth_src != frame.src:
            return False
        if self.eth_dst is not None and self.eth_dst != frame.dst:
            return False
        if self.ethertype is not None and self.ethertype != frame.ethertype:
            return False
        return True


@dataclass
class FlowRule:
    """Prioritized match+actions switch table entry.

    ``installed_at`` is a monotonic timestamp local to the installing switch
    and is not carried on the wire; a nonzero ``hard_timeout_s`` expires the
    rule once ``now - installed_at >= hard_timeout_s``.
    """

    rule_id: int
    priority: int
    match: Match
    actions: tuple[Action, ...]
    hard_timeout_s: int = 0
    installed_at: float = 0.0
    packet_count: int = 0
    byte_count: int = 0

    def __post_init__(self) -> None:
        self.actions = tuple(self.actions)

    def expired(self, now: float) -> bool:
        return self.hard_timeout_s > 0 and now - self.installed_at >= self.hard_timeout_s


class FlowModOp(IntEnum):
    ADD = 1
    REMOVE = 2
    MODIFY = 3


class RuleEventOp(IntEnum):
    ADDED = 1
    REMOVED = 2
    UPDATED = 3


# ---------------------------------------------------------------------------
# Southbound messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    dpid: DatapathId
    ports: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", tuple(self.ports))


@dataclass(frozen=True)
class PacketIn:
    dpid: DatapathId
    in_port: int
    frame: Frame


@dataclass(frozen=True)
class PacketOut:
    """Controller-to-switch send; ``out_port`` may be the FLOOD sentinel."""

    dpid: DatapathId
    out_port: int
    frame: Frame


@dataclass(frozen=True)
class FlowMod:
    dpid: DatapathId
    op: FlowModOp
    rule: FlowRule


@dataclass(frozen=True)
class PortStatus:
    dpid: DatapathId
    port: int
    up: bool


SbMessage = Union[Hello, PacketIn, PacketOut, FlowMod, PortStatus]


# ---------------------------------------------------------------------------
# Network events
# ---------------------------------------------------------------------------

class EventKind(IntEnum):
    """Event families; values double as wire tags and topic indices."""

    PACKET = 1
    LINK = 2
    DEVICE = 3
    PORT = 4
    FLOWRULE = 5


TOPIC_FOR_KIND = {
    EventKind.PACKET: "events.packet",
    EventKind.LINK: "events.link",
    EventKind.DEVICE: "events.device",
    EventKind.PORT: "events.port",
    EventKind.FLOWRULE: "events.flowrule",
}

ALL_EVENT_KINDS = frozenset(EventKind)


@dataclass(frozen=True)
class PacketExceptionEvent:
    """A frame missed every flow rule and was sent to the controller."""

    dpid: DatapathId
    in_port: int
    frame: Frame
    seq: int = 0
    ts_micros: int = 0


@dataclass(frozen=True)
class TopologyLinkEvent:
    src_dpid: DatapathId
    src_port: int
    dst_dpid: DatapathId
    dst_port: int
    up: bool
    seq: int = 0
    ts_micros: int = 0


@dataclass(frozen=True)
class TopologyDeviceEvent:
    dpid: DatapathId
    up: bool
    seq: int = 0
    ts_micros: int = 0


@dataclass(frozen=True)
class TopologyPortEvent:
    dpid: DatapathId
    port: int
    up: bool
    seq: int = 0
    ts_micros: int = 0


@dataclass(frozen=True)
class FlowRuleEvent:
    op: RuleEventOp
    dpid: DatapathId
    rule: FlowRule
    seq: int = 0
    ts_micros: int = 0

    def __hash__(self) -> int:  # rule is mutable; identity by (seq, op, dpid)
        return hash((self.op, self.dpid, self.seq, self.ts_micros))


Event = Union[
    PacketExceptionEvent,
    TopologyLinkEvent,
    TopologyDeviceEvent,
    TopologyPortEvent,
    FlowRuleEvent,
]


def event_kind(event: Event) -> EventKind:
    return _EVENT_ENCODERS[type(event)][0]


# ---------------------------------------------------------------------------
# Shared layouts
# ---------------------------------------------------------------------------
# Every fixed layout is one precompiled Struct, packed by its encoder and
# read by its decoder. Unpacking a buffer too short for it raises
# struct.error, which the callers (Reader.read, _decode) turn into
# TruncatedError.

U8 = struct.Struct(">B")
U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")
PORT_REF = struct.Struct(">QH")  # dpid, port: one switch port, as the socket protocols send it
_HEADER = struct.Struct(">IBBI")  # magic, version, tag, payload_len
_FRAME_HEAD = struct.Struct(">6s6sHI")
_ACTION = struct.Struct(">BH")
RULE_HEAD = struct.Struct(">QH")  # rule_id, priority
_RULE_TAIL = struct.Struct(">IQQ")
_MATCH_FIELDS = ((1, "H"), (2, "6s"), (4, "6s"), (8, "H"))  # presence bit, format
_MATCH_LAYOUTS = tuple(  # indexed by presence byte: that byte, then the present fields
    struct.Struct(">B" + "".join(fmt for bit, fmt in _MATCH_FIELDS if presence & bit))
    for presence in range(16)
)
_ACTION_KINDS = {kind.value: kind for kind in ActionKind}
_ACTION_PORT_SENTINEL = {
    ActionKind.FLOOD: FLOOD_PORT,
    ActionKind.CONTROLLER: CONTROLLER_PORT,
    ActionKind.DROP: 0,
}


class Reader:
    """Cursor over immutable bytes; raises TruncatedError on underrun."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, unpack: struct.Struct | Callable[[bytes, int], tuple[object, int]]):
        """Read a fixed layout's fields, or run an ``unpack_*`` function, at the
        cursor and step past what it read."""
        try:
            if isinstance(unpack, struct.Struct):
                value = unpack.unpack_from(self.data, self.pos)
                self.pos += unpack.size
            else:
                value, self.pos = unpack(self.data, self.pos)
        except struct.error as exc:
            raise TruncatedError(str(exc)) from None
        return value


def take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    """The ``n`` bytes at ``pos`` and the offset after them; a variable-length
    field needs this check, since a short slice raises nothing."""
    end = pos + n
    if end > len(data):
        raise TruncatedError(f"need {n} bytes at offset {pos}, have {len(data) - pos}")
    return data[pos:end], end


# ---------------------------------------------------------------------------
# Shared sub-layout packers
# ---------------------------------------------------------------------------

def _frame_head(frame: Frame) -> tuple[bytes, bytes, int, int]:
    """The fields of a frame's fixed head, in wire order."""
    if len(frame.payload) > MAX_FRAME_PAYLOAD:
        raise EncodeError(
            f"frame payload {len(frame.payload)} exceeds {MAX_FRAME_PAYLOAD} bytes"
        )
    return frame.dst.octets, frame.src.octets, frame.ethertype, len(frame.payload)


def pack_frame(frame: Frame) -> bytes:
    return _FRAME_HEAD.pack(*_frame_head(frame)) + frame.payload


def pack_match(match: Match) -> bytes:
    presence = 0
    fields = []
    if match.in_port is not None:
        presence |= 1
        fields.append(match.in_port)
    if match.eth_src is not None:
        presence |= 2
        fields.append(match.eth_src.octets)
    if match.eth_dst is not None:
        presence |= 4
        fields.append(match.eth_dst.octets)
    if match.ethertype is not None:
        presence |= 8
        fields.append(match.ethertype)
    return _MATCH_LAYOUTS[presence].pack(presence, *fields)


def pack_actions(actions: tuple[Action, ...]) -> bytes:
    if len(actions) > 255:
        raise EncodeError("more than 255 actions")
    parts = [U8.pack(len(actions))]
    for a in actions:
        port = a.port if a.kind is ActionKind.OUTPUT else _ACTION_PORT_SENTINEL[a.kind]
        parts.append(_ACTION.pack(a.kind, port))
    return b"".join(parts)


def pack_rule(rule: FlowRule) -> bytes:
    return (
        RULE_HEAD.pack(rule.rule_id, rule.priority)
        + pack_match(rule.match)
        + pack_actions(rule.actions)
        + _RULE_TAIL.pack(rule.hard_timeout_s, rule.packet_count, rule.byte_count)
    )


# ---------------------------------------------------------------------------
# Shared sub-layout unpackers
# ---------------------------------------------------------------------------
# Each takes the buffer and an offset and returns (value, end offset).

def _frame_body(
    data: bytes, pos: int, dst: bytes, src: bytes, ethertype: int, plen: int
) -> tuple[Frame, int]:
    """Finish a frame whose fixed head is already unpacked; ``pos`` is its payload."""
    if plen > MAX_FRAME_PAYLOAD:
        raise LengthMismatchError(f"frame payload length {plen} out of range")
    payload, end = take(data, pos, plen)
    return Frame(dst=MacAddr(dst), src=MacAddr(src), ethertype=ethertype, payload=payload), end


def unpack_frame(data: bytes, pos: int) -> tuple[Frame, int]:
    return _frame_body(data, pos + _FRAME_HEAD.size, *_FRAME_HEAD.unpack_from(data, pos))


def unpack_match(data: bytes, pos: int) -> tuple[Match, int]:
    (presence,) = U8.unpack_from(data, pos)
    if presence & ~0x0F:
        raise DecodeError(f"unknown match presence bits 0x{presence:02x}")
    layout = _MATCH_LAYOUTS[presence]
    _, *values = layout.unpack_from(data, pos)
    fields = iter(values)
    match = Match(
        in_port=next(fields) if presence & 1 else None,
        eth_src=MacAddr(next(fields)) if presence & 2 else None,
        eth_dst=MacAddr(next(fields)) if presence & 4 else None,
        ethertype=next(fields) if presence & 8 else None,
    )
    return match, pos + layout.size


def unpack_actions(data: bytes, pos: int) -> tuple[tuple[Action, ...], int]:
    (count,) = U8.unpack_from(data, pos)
    pos += U8.size
    actions = []
    for _ in range(count):
        kind_raw, port = _ACTION.unpack_from(data, pos)
        pos += _ACTION.size
        kind = _ACTION_KINDS.get(kind_raw)
        if kind is None:
            raise BadTagError(f"unknown action kind {kind_raw}")
        actions.append(Action(kind, port if kind is ActionKind.OUTPUT else None))
    return tuple(actions), pos


def unpack_rule(data: bytes, pos: int) -> tuple[FlowRule, int]:
    rule_id, priority = RULE_HEAD.unpack_from(data, pos)
    match, pos = unpack_match(data, pos + RULE_HEAD.size)
    actions, pos = unpack_actions(data, pos)
    hard_timeout_s, packet_count, byte_count = _RULE_TAIL.unpack_from(data, pos)
    rule = FlowRule(
        rule_id=rule_id,
        priority=priority,
        match=match,
        actions=actions,
        hard_timeout_s=hard_timeout_s,
        packet_count=packet_count,
        byte_count=byte_count,
    )
    return rule, pos + _RULE_TAIL.size


# ---------------------------------------------------------------------------
# Message envelope
# ---------------------------------------------------------------------------

def _encode(msg, encoders: dict, magic: int, family: str) -> bytes:
    entry = encoders.get(type(msg))
    if entry is None:
        raise EncodeError(f"not {family}: {msg!r}")
    tag, encode = entry
    try:
        payload = encode(msg)
    except struct.error as exc:
        raise EncodeError(str(exc)) from None
    return _HEADER.pack(magic, WIRE_VERSION, tag, len(payload)) + payload


def _open_envelope(data: bytes, expect_magic: int) -> int:
    """Check the envelope and that the payload fills the rest; returns the tag."""
    n = len(data)
    if n >= _HEADER.size:
        magic, version, tag, plen = _HEADER.unpack_from(data)
    else:  # a short header still fails on its first wrong field before it counts as truncated
        magic = int.from_bytes(data[:4], "big") if n >= 4 else expect_magic
        version = data[4] if n >= 5 else WIRE_VERSION
        tag = plen = None
    if magic != expect_magic:
        raise BadMagicError(f"magic 0x{magic:08X} != 0x{expect_magic:08X}")
    if version != WIRE_VERSION:
        raise BadVersionError(f"unknown version {version}")
    if plen is None:
        raise TruncatedError(f"need {_HEADER.size} header bytes, have {n}")
    if n - _HEADER.size < plen:
        raise TruncatedError(f"need {plen} payload bytes, have {n - _HEADER.size}")
    if n - _HEADER.size > plen:
        raise LengthMismatchError(f"{n - _HEADER.size - plen} trailing bytes after payload")
    return tag


def _decode(data: bytes, expect_magic: int, decoders: dict, family: str):
    tag = _open_envelope(data, expect_magic)
    decode = decoders.get(tag)
    if decode is None:
        raise BadTagError(f"unknown {family} tag {tag}")
    try:
        msg, end = decode(data, _HEADER.size)
    except struct.error as exc:
        raise TruncatedError(str(exc)) from None
    if end != len(data):
        raise LengthMismatchError(f"{len(data) - end} unread payload bytes")
    return msg


# ---------------------------------------------------------------------------
# Event codec
# ---------------------------------------------------------------------------
# Each event payload starts with seq and ts_micros, packed and unpacked in
# one call with the fixed fields that follow them.

_PACKET_EVENT = struct.Struct(">QQQH6s6sHI")
_LINK_EVENT = struct.Struct(">QQQHQHB")
_DEVICE_EVENT = struct.Struct(">QQQB")
_PORT_EVENT = struct.Struct(">QQQHB")
_FLOWRULE_EVENT = struct.Struct(">QQB")  # the op is checked before the dpid is read
_RULE_EVENT_OPS = {op.value: op for op in RuleEventOp}

# type -> (tag, payload encoder)
_EVENT_ENCODERS: dict[type, tuple[EventKind, Callable[..., bytes]]] = {
    PacketExceptionEvent: (
        EventKind.PACKET,
        lambda e: _PACKET_EVENT.pack(e.seq, e.ts_micros, e.dpid, e.in_port, *_frame_head(e.frame))
        + e.frame.payload,
    ),
    TopologyLinkEvent: (
        EventKind.LINK,
        lambda e: _LINK_EVENT.pack(
            e.seq, e.ts_micros, e.src_dpid, e.src_port, e.dst_dpid, e.dst_port, int(e.up)
        ),
    ),
    TopologyDeviceEvent: (
        EventKind.DEVICE,
        lambda e: _DEVICE_EVENT.pack(e.seq, e.ts_micros, e.dpid, int(e.up)),
    ),
    TopologyPortEvent: (
        EventKind.PORT,
        lambda e: _PORT_EVENT.pack(e.seq, e.ts_micros, e.dpid, e.port, int(e.up)),
    ),
    FlowRuleEvent: (
        EventKind.FLOWRULE,
        lambda e: _FLOWRULE_EVENT.pack(e.seq, e.ts_micros, e.op) + U64.pack(e.dpid)
        + pack_rule(e.rule),
    ),
}


def encode_event(event: Event) -> bytes:
    """Serialize an event; equal events always produce equal bytes."""
    return _encode(event, _EVENT_ENCODERS, EVENT_MAGIC, "an event")


def _packet_event(data: bytes, pos: int) -> tuple[Event, int]:
    seq, ts, dpid, in_port, *frame_head = _PACKET_EVENT.unpack_from(data, pos)
    frame, end = _frame_body(data, pos + _PACKET_EVENT.size, *frame_head)
    return PacketExceptionEvent(dpid=dpid, in_port=in_port, frame=frame, seq=seq, ts_micros=ts), end


def _link_event(data: bytes, pos: int) -> tuple[Event, int]:
    seq, ts, src_dpid, src_port, dst_dpid, dst_port, up = _LINK_EVENT.unpack_from(data, pos)
    event = TopologyLinkEvent(
        src_dpid=src_dpid,
        src_port=src_port,
        dst_dpid=dst_dpid,
        dst_port=dst_port,
        up=bool(up),
        seq=seq,
        ts_micros=ts,
    )
    return event, pos + _LINK_EVENT.size


def _device_event(data: bytes, pos: int) -> tuple[Event, int]:
    seq, ts, dpid, up = _DEVICE_EVENT.unpack_from(data, pos)
    event = TopologyDeviceEvent(dpid=dpid, up=bool(up), seq=seq, ts_micros=ts)
    return event, pos + _DEVICE_EVENT.size


def _port_event(data: bytes, pos: int) -> tuple[Event, int]:
    seq, ts, dpid, port, up = _PORT_EVENT.unpack_from(data, pos)
    event = TopologyPortEvent(dpid=dpid, port=port, up=bool(up), seq=seq, ts_micros=ts)
    return event, pos + _PORT_EVENT.size


def _flowrule_event(data: bytes, pos: int) -> tuple[Event, int]:
    seq, ts, op_raw = _FLOWRULE_EVENT.unpack_from(data, pos)
    op = _RULE_EVENT_OPS.get(op_raw)
    if op is None:
        raise BadTagError(f"unknown rule-event op {op_raw}")
    pos += _FLOWRULE_EVENT.size
    (dpid,) = U64.unpack_from(data, pos)
    rule, end = unpack_rule(data, pos + U64.size)
    return FlowRuleEvent(op=op, dpid=dpid, rule=rule, seq=seq, ts_micros=ts), end


_EVENT_DECODERS = {
    EventKind.PACKET: _packet_event,
    EventKind.LINK: _link_event,
    EventKind.DEVICE: _device_event,
    EventKind.PORT: _port_event,
    EventKind.FLOWRULE: _flowrule_event,
}


def decode_event(data: bytes) -> Event:
    """Inverse of encode_event; rejects malformed input with distinct errors."""
    return _decode(data, EVENT_MAGIC, _EVENT_DECODERS, "event")


# ---------------------------------------------------------------------------
# Southbound codec
# ---------------------------------------------------------------------------

_SB_TAG_HELLO = 1
_SB_TAG_PACKET_IN = 2
_SB_TAG_PACKET_OUT = 3
_SB_TAG_FLOW_MOD = 4
_SB_TAG_PORT_STATUS = 5

_HELLO = struct.Struct(">QH")  # dpid, port count
_PACKET_SB = struct.Struct(">QH6s6sHI")  # packet-in and packet-out: dpid, port, frame head
FLOW_MOD_HEAD = struct.Struct(">QB")  # dpid, op
_PORT_STATUS = struct.Struct(">QHB")
_FLOW_MOD_OPS = {op.value: op for op in FlowModOp}


def _port_list(count: int) -> struct.Struct:
    """Layout of a Hello's ports, the one field whose length varies by message."""
    return struct.Struct(f">{count}H")


# type -> (tag, payload encoder)
_SB_ENCODERS: dict[type, tuple[int, Callable[..., bytes]]] = {
    Hello: (
        _SB_TAG_HELLO,
        lambda m: _HELLO.pack(m.dpid, len(m.ports)) + _port_list(len(m.ports)).pack(*m.ports),
    ),
    PacketIn: (
        _SB_TAG_PACKET_IN,
        lambda m: _PACKET_SB.pack(m.dpid, m.in_port, *_frame_head(m.frame)) + m.frame.payload,
    ),
    PacketOut: (
        _SB_TAG_PACKET_OUT,
        lambda m: _PACKET_SB.pack(m.dpid, m.out_port, *_frame_head(m.frame)) + m.frame.payload,
    ),
    FlowMod: (_SB_TAG_FLOW_MOD, lambda m: FLOW_MOD_HEAD.pack(m.dpid, m.op) + pack_rule(m.rule)),
    PortStatus: (_SB_TAG_PORT_STATUS, lambda m: _PORT_STATUS.pack(m.dpid, m.port, int(m.up))),
}


def encode_sb(msg: SbMessage) -> bytes:
    return _encode(msg, _SB_ENCODERS, SB_MAGIC, "a southbound message")


def _hello(data: bytes, pos: int) -> tuple[SbMessage, int]:
    dpid, count = _HELLO.unpack_from(data, pos)
    pos += _HELLO.size
    ports = _port_list(count)
    return Hello(dpid=dpid, ports=ports.unpack_from(data, pos)), pos + ports.size


def _packet_sb(cls, data: bytes, pos: int) -> tuple[SbMessage, int]:
    dpid, port, *frame_head = _PACKET_SB.unpack_from(data, pos)
    frame, end = _frame_body(data, pos + _PACKET_SB.size, *frame_head)
    return cls(dpid, port, frame), end


def _flow_mod(data: bytes, pos: int) -> tuple[SbMessage, int]:
    dpid, op_raw = FLOW_MOD_HEAD.unpack_from(data, pos)
    op = _FLOW_MOD_OPS.get(op_raw)
    if op is None:
        raise BadTagError(f"unknown flow-mod op {op_raw}")
    rule, end = unpack_rule(data, pos + FLOW_MOD_HEAD.size)
    return FlowMod(dpid=dpid, op=op, rule=rule), end


def _port_status(data: bytes, pos: int) -> tuple[SbMessage, int]:
    dpid, port, up = _PORT_STATUS.unpack_from(data, pos)
    return PortStatus(dpid=dpid, port=port, up=bool(up)), pos + _PORT_STATUS.size


_SB_DECODERS = {
    _SB_TAG_HELLO: _hello,
    _SB_TAG_PACKET_IN: partial(_packet_sb, PacketIn),
    _SB_TAG_PACKET_OUT: partial(_packet_sb, PacketOut),
    _SB_TAG_FLOW_MOD: _flow_mod,
    _SB_TAG_PORT_STATUS: _port_status,
}


def decode_sb(data: bytes) -> SbMessage:
    """Inverse of encode_sb; rejects malformed input with distinct errors."""
    return _decode(data, SB_MAGIC, _SB_DECODERS, "southbound")
