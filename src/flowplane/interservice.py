"""Inter-service API: topology queries over a request/response socket.

The forwarding service makes one call to the topology service per punted
packet: a unicast frame's source sighting and the path from its switch to
its destination go in one learn-path request, a broadcast frame's sighting
in one learn-host request. In one process those are direct method calls;
across processes this protocol carries them over the shared framing (see
``framing``), so a standalone forwarding service keeps using the topology
service instead of building its own map. A learn-path request learns the
source even when its reply is an error.

    tags:   1 host-location   mac 6B -> dpid u64 | port u16
            2 path            start_dpid u64 | mac 6B
                              -> u16 count | count x (dpid u64 | out_port u16)
            3 learn-host      mac 6B | dpid u64 | port u16
            4 learn-path      start_dpid u64 | dst mac 6B | src mac 6B | in_port u16
                              -> as path
    status: 1 RuntimeError, 2 UnknownHostError, 3 NoPathError
"""

from __future__ import annotations

import struct
from functools import partial

from .framing import CallClient, FramedServer
from .services import HostLocation, NoPathError, PathHop, TopologyService, UnknownHostError
from .wire import PORT_REF, U8, U16, MacAddr, Reader

_REQ_HOST_LOCATION = 1
_REQ_PATH = 2
_REQ_LEARN_HOST = 3
_REQ_LEARN_PATH = 4

_ERRORS = {1: RuntimeError, 2: UnknownHostError, 3: NoPathError}

_HOST = struct.Struct(">6s")  # mac
_PATH = struct.Struct(">Q6s")  # start dpid, mac
_LEARN_HOST = struct.Struct(">6sQH")  # mac, dpid, port
_LEARN_PATH = struct.Struct(">Q6s6sH")  # start dpid, dst mac, src mac, in_port


def _path_reply(topo: TopologyService, dpid: int, mac: MacAddr, learn) -> bytes:
    try:
        hops = topo.path_from_switch(dpid, mac, learn)
    except NoPathError:
        raise NoPathError(f"no path from switch {dpid} to {mac}") from None
    return U16.pack(len(hops)) + b"".join(PORT_REF.pack(h.dpid, h.out_port) for h in hops)


def _dispatch(topo: TopologyService, body: bytes) -> bytes:
    r = Reader(body)
    (tag,) = r.read(U8)
    if tag == _REQ_HOST_LOCATION:
        mac = MacAddr(*r.read(_HOST))
        loc = topo.host_location(mac)
        if loc is None:
            raise UnknownHostError(f"no location for {mac}")
        return PORT_REF.pack(loc.dpid, loc.port)
    if tag == _REQ_PATH:
        dpid, octets = r.read(_PATH)
        return _path_reply(topo, dpid, MacAddr(octets), None)
    if tag == _REQ_LEARN_PATH:
        dpid, octets, src, in_port = r.read(_LEARN_PATH)
        return _path_reply(topo, dpid, MacAddr(octets), (MacAddr(src), in_port))
    if tag == _REQ_LEARN_HOST:
        octets, dpid, port = r.read(_LEARN_HOST)
        topo.learn_host(MacAddr(octets), dpid, port)
        return b""
    raise RuntimeError(f"unknown request tag {tag}")


class TopoQueryServer(FramedServer):
    """Serves a topology service's query API over TCP."""

    def __init__(self, topo: TopologyService, host: str = "127.0.0.1", port: int = 0):
        super().__init__(partial(_dispatch, topo), _ERRORS, host, port, "topo-query-server")


class TopoQueryClient(CallClient):
    """Remote handle on a topology service's query API."""

    errors = _ERRORS

    def host_location(self, mac: MacAddr) -> HostLocation | None:
        try:
            reply = self._call(bytes([_REQ_HOST_LOCATION]) + _HOST.pack(mac.octets))
        except UnknownHostError:
            return None
        dpid, port = PORT_REF.unpack_from(reply)
        return HostLocation(mac=mac, dpid=dpid, port=port)

    def path_from_switch(
        self, dpid: int, mac: MacAddr, learn: tuple[MacAddr, int] | None = None
    ) -> list[PathHop]:
        if learn is None:
            request = bytes([_REQ_PATH]) + _PATH.pack(dpid, mac.octets)
        else:
            src, in_port = learn
            request = bytes([_REQ_LEARN_PATH]) + _LEARN_PATH.pack(
                dpid, mac.octets, src.octets, in_port
            )
        r = Reader(self._call(request))
        (count,) = r.read(U16)
        return [PathHop(*r.read(PORT_REF)) for _ in range(count)]

    def learn_host(self, mac: MacAddr, dpid: int, port: int) -> None:
        self._call(bytes([_REQ_LEARN_HOST]) + _LEARN_HOST.pack(mac.octets, dpid, port))
