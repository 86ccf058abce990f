"""Inter-service API: topology queries over a request/response socket.

The forwarding service needs three things from the topology service: where a
host sits, the path from a switch to a host, and a way to report host
sightings. In one process those are direct method calls; across processes
this protocol carries the same three calls over the shared framing (see
``framing``), so a standalone forwarding service keeps using the topology
service instead of building its own map.

    tags:   1 host-location   mac 6B -> dpid u64 | port u16
            2 path            start_dpid u64 | mac 6B
                              -> u16 count | count x (dpid u64 | out_port u16)
            3 learn-host      mac 6B | dpid u64 | port u16
    status: 1 RuntimeError, 2 UnknownHostError, 3 NoPathError
"""

from __future__ import annotations

import struct
from functools import partial

from .framing import CallClient, FramedServer
from .services import HostLocation, NoPathError, PathHop, TopologyService, UnknownHostError
from .wire import MacAddr, Reader

_REQ_HOST_LOCATION = 1
_REQ_PATH = 2
_REQ_LEARN_HOST = 3

_ERRORS = {1: RuntimeError, 2: UnknownHostError, 3: NoPathError}


def _dispatch(topo: TopologyService, body: bytes) -> bytes:
    r = Reader(body)
    tag = r.u8()
    if tag == _REQ_HOST_LOCATION:
        mac = MacAddr(r.take(6))
        loc = topo.host_location(mac)
        if loc is None:
            raise UnknownHostError(f"no location for {mac}")
        return struct.pack(">QH", loc.dpid, loc.port)
    if tag == _REQ_PATH:
        dpid = r.u64()
        mac = MacAddr(r.take(6))
        try:
            hops = topo.path_from_switch(dpid, mac)
        except NoPathError:
            raise NoPathError(f"no path from switch {dpid} to {mac}") from None
        parts = [struct.pack(">H", len(hops))]
        parts.extend(struct.pack(">QH", h.dpid, h.out_port) for h in hops)
        return b"".join(parts)
    if tag == _REQ_LEARN_HOST:
        mac = MacAddr(r.take(6))
        dpid = r.u64()
        port = r.u16()
        topo.learn_host(mac, dpid, port)
        return b""
    raise RuntimeError(f"unknown request tag {tag}")


class TopoQueryServer(FramedServer):
    """Serves a topology service's query API over TCP."""

    def __init__(self, topo: TopologyService, host: str = "127.0.0.1", port: int = 0):
        super().__init__(partial(_dispatch, topo), _ERRORS, host, port, "topo-query-server")


class TopoQueryClient(CallClient):
    """Remote handle with the same three calls the forwarding service uses."""

    errors = _ERRORS

    def host_location(self, mac: MacAddr) -> HostLocation | None:
        try:
            reply = self._call(bytes([_REQ_HOST_LOCATION]) + mac.octets)
        except UnknownHostError:
            return None
        dpid, port = struct.unpack(">QH", reply)
        return HostLocation(mac=mac, dpid=dpid, port=port)

    def path_from_switch(self, dpid: int, mac: MacAddr) -> list[PathHop]:
        r = Reader(self._call(bytes([_REQ_PATH]) + struct.pack(">Q", dpid) + mac.octets))
        count = r.u16()
        return [PathHop(dpid=r.u64(), out_port=r.u16()) for _ in range(count)]

    def learn_host(self, mac: MacAddr, dpid: int, port: int) -> None:
        self._call(bytes([_REQ_LEARN_HOST]) + mac.octets + struct.pack(">QH", dpid, port))
