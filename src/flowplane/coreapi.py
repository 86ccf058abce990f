"""Request/response socket channel onto the core's call interface.

Standalone services use this to return packets, install flows, and report
links when they do not share a process with the core. It runs over the
shared framing (see ``framing``):

    tags:   1 packet-out   dpid u64 | out_port u16 | frame
            2 flow-mod     dpid u64 | op u8 | rule_id u64 (0 = none)
                           | priority u16 | match | actions | hard_timeout u32
                           -> rule_id u64
            3 report-link  src u64 | src_port u16 | dst u64 | dst_port u16 | up u8
    status: 1 CoreError, 2 UnknownDatapathError, 3 UnknownPortError,
            4 UnknownRuleError

``RemoteCore`` raises the same exception types as ``Core`` itself, so a
service cannot tell (apart from latency) whether its core handle is local.
"""

from __future__ import annotations

import struct
from functools import partial

from .core import (
    Core,
    CoreError,
    FlowModRequest,
    UnknownDatapathError,
    UnknownPortError,
    UnknownRuleError,
)
from .framing import CallClient, FramedServer
from .wire import (
    FLOW_MOD_HEAD,
    PORT_REF,
    RULE_HEAD,
    U8,
    U32,
    U64,
    FlowModOp,
    Frame,
    Reader,
    pack_actions,
    pack_frame,
    pack_match,
    unpack_actions,
    unpack_frame,
    unpack_match,
)

_REQ_PACKET_OUT = 1
_REQ_FLOW_MOD = 2
_REQ_REPORT_LINK = 3

_ERRORS = {
    1: CoreError,
    2: UnknownDatapathError,
    3: UnknownPortError,
    4: UnknownRuleError,
}

_REPORT_LINK = struct.Struct(">QHQHB")  # src, src_port, dst, dst_port, up


def _decode_flow_mod(r: Reader) -> FlowModRequest:
    dpid, op = r.read(FLOW_MOD_HEAD)
    op = FlowModOp(op)
    rule_id, priority = r.read(RULE_HEAD)
    match = r.read(unpack_match)
    actions = r.read(unpack_actions)
    (hard_timeout_s,) = r.read(U32)
    return FlowModRequest(
        dpid=dpid,
        op=op,
        priority=priority,
        match=match,
        actions=actions,
        hard_timeout_s=hard_timeout_s,
        rule_id=rule_id or None,
    )


def _dispatch(core: Core, body: bytes) -> bytes:
    r = Reader(body)
    (tag,) = r.read(U8)
    if tag == _REQ_PACKET_OUT:
        dpid, out_port = r.read(PORT_REF)
        core.packet_out(dpid, out_port, r.read(unpack_frame))
        return b""
    if tag == _REQ_FLOW_MOD:
        return U64.pack(core.flow_mod(_decode_flow_mod(r)))
    if tag == _REQ_REPORT_LINK:
        src, src_port, dst, dst_port, up = r.read(_REPORT_LINK)
        core.report_link(src, src_port, dst, dst_port, bool(up))
        return b""
    raise CoreError(f"unknown request tag {tag}")


class CoreApiServer(FramedServer):
    """Serves a core's call interface over TCP, one thread per connection."""

    def __init__(self, core: Core, host: str = "127.0.0.1", port: int = 0):
        super().__init__(partial(_dispatch, core), _ERRORS, host, port, "coreapi-server")


class RemoteCore(CallClient):
    """Socket client mirroring the core's packet_out/flow_mod/report_link."""

    errors = _ERRORS

    def packet_out(self, dpid: int, out_port: int, frame: Frame) -> None:
        self._call(bytes([_REQ_PACKET_OUT]) + PORT_REF.pack(dpid, out_port) + pack_frame(frame))

    def flow_mod(self, req: FlowModRequest) -> int:
        body = (
            bytes([_REQ_FLOW_MOD])
            + FLOW_MOD_HEAD.pack(req.dpid, req.op)
            + RULE_HEAD.pack(req.rule_id or 0, req.priority)
            + pack_match(req.match)
            + pack_actions(tuple(req.actions))
            + U32.pack(req.hard_timeout_s)
        )
        return U64.unpack_from(self._call(body))[0]

    def report_link(
        self, src_dpid: int, src_port: int, dst_dpid: int, dst_port: int, up: bool
    ) -> None:
        self._call(
            bytes([_REQ_REPORT_LINK])
            + _REPORT_LINK.pack(src_dpid, src_port, dst_dpid, dst_port, int(up))
        )
