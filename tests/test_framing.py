"""Golden byte vectors for the socket protocols, and malformed-input handling.

Each call vector pins both ends of one call. The client must send exactly
the request bytes and turn the reply bytes into the expected result; the
server, fed the protocol's requests in order on one connection, must answer
exactly the reply bytes. Messages are written as text after their hex
length prefix.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from flowplane.broker import (
    MAX_RECORD_BYTES,
    Broker,
    BrokerClient,
    BrokerError,
    BrokerServer,
    OffsetOutOfRangeError,
    Record,
)
from flowplane.core import Core, FlowModRequest, UnknownDatapathError
from flowplane.coreapi import CoreApiServer, RemoteCore
from flowplane.fabric import Fabric
from flowplane.framing import MAX_REQUEST_BYTES
from flowplane.interservice import TopoQueryClient, TopoQueryServer
from flowplane.p2p import P2pDistributor, P2pStreamClient, P2pStreamServer
from flowplane.services import (
    DiscoveryPayload,
    HostLocation,
    NoPathError,
    PathHop,
    TopologyService,
    UnknownHostError,
)
from flowplane.topology import build_linear
from flowplane.wire import (
    Action,
    ActionKind,
    ETHERTYPE_DATA,
    EventKind,
    Frame,
    MacAddr,
    Match,
    PacketExceptionEvent,
    TopologyDeviceEvent,
    TopologyPortEvent,
    encode_event,
)

H1, H2, H77 = MacAddr.host(1), MacAddr.host(2), MacAddr.host(77)
FRAME = Frame(dst=H2, src=H1, ethertype=ETHERTYPE_DATA, payload=b"hi")


def x(hexstr: str, text: bytes = b"") -> bytes:
    return bytes.fromhex(hexstr) + text


@dataclass(frozen=True)
class Raises:
    exc: type
    message: str


@dataclass(frozen=True)
class Vector:
    name: str
    call: Callable | None  # client -> result; None for requests no client sends
    result: object
    request: bytes
    reply: bytes


# -- broker ----------------------------------------------------------------------

# Requests of the earlier framing that are now refused. The broker's poll
# read one topic under tag 2, and its reply carried no topic index, so a
# consumer over several topics polled each in turn and could not tell the
# order in which their records were appended. A peer still sending tag 2
# gets "unknown request tag 2" (the "earlier-poll-tag" vector).
EARLIER_REQUESTS = {
    "broker/poll": x("0000001b 02 0001", b"c") + x("0001", b"t")
    + x("0000000000000000 00000040 0000000000000000"),
}

BROKER = [
    Vector("publish", lambda c: c.publish("t", b"hi"), 0,
           x("0000000a 01 0001", b"t") + x("00000002", b"hi"),
           x("00000009 00 0000000000000000")),
    Vector("publish-2", lambda c: c.publish("u", b"yo"), 0,
           x("0000000a 01 0001", b"u") + x("00000002", b"yo"),
           x("00000009 00 0000000000000000")),
    # "u" is named first, "t" was appended first: the reply is in append
    # order and points at each record's topic by its place in the request
    Vector("poll", lambda c: c.poll("c", {"u": 0, "t": 0}),
           [Record("t", 0, b"hi"), Record("u", 0, b"yo")],
           x("00000028 05 0001", b"c") + x("0002")
           + x("0001", b"u") + x("0000000000000000")
           + x("0001", b"t") + x("0000000000000000")
           + x("00000040 0000000000000000"),
           x("00000025 00 00000002"
             " 0001 0000000000000000 00000002", b"hi")
           + x("0000 0000000000000000 00000002", b"yo")),
    Vector("commit", lambda c: c.commit("c", "t", 1), None,
           x("0000000f 03 0001", b"c") + x("0001", b"t") + x("0000000000000001"),
           x("00000001 00")),
    Vector("committed", lambda c: c.committed("c", "t"), 1,
           x("00000007 04 0001", b"c") + x("0001", b"t"),
           x("0000000a 00 01 0000000000000001")),
    Vector("committed-none", lambda c: c.committed("d", "t"), None,
           x("00000007 04 0001", b"d") + x("0001", b"t"),
           x("00000002 00 00")),
    Vector("poll-past-end", lambda c: c.poll("c", {"u": 0, "t": 5}),
           Raises(OffsetOutOfRangeError, "offset 5 beyond log length 1"),
           x("00000028 05 0001", b"c") + x("0002")
           + x("0001", b"u") + x("0000000000000000")
           + x("0001", b"t") + x("0000000000000005")
           + x("00000040 0000000000000000"),
           x("0000001f 02 001c", b"offset 5 beyond log length 1")),
    Vector("poll-no-topic", lambda c: c.poll("c", {}),
           Raises(BrokerError, "poll names no topic"),
           x("00000012 05 0001", b"c") + x("0000") + x("00000040 0000000000000000"),
           x("00000016 01 0013", b"poll names no topic")),
    Vector("poll-topic-twice", None, None,
           x("00000028 05 0001", b"c") + x("0002")
           + x("0001", b"t") + x("0000000000000000")
           + x("0001", b"t") + x("0000000000000000")
           + x("00000040 0000000000000000"),
           x("0000001d 01 001a", b"poll names topic 't' twice")),
    Vector("commit-past-end", lambda c: c.commit("c", "t", 5),
           Raises(OffsetOutOfRangeError, "cannot commit 5 beyond log length 1"),
           x("0000000f 03 0001", b"c") + x("0001", b"t") + x("0000000000000005"),
           x("00000026 02 0023", b"cannot commit 5 beyond log length 1")),
    Vector("earlier-poll-tag", None, None,
           EARLIER_REQUESTS["broker/poll"],
           x("00000018 01 0015", b"unknown request tag 2")),
    Vector("unknown-tag", None, None,
           x("00000001 09"),
           x("00000018 01 0015", b"unknown request tag 9")),
]

# -- core API --------------------------------------------------------------------

_FRAME_HEX = "020000000002 020000000001 0800 00000002"

CORE = [
    Vector("packet-out", lambda c: c.packet_out(2, 1, FRAME), None,
           x(f"0000001f 01 0000000000000002 0001 {_FRAME_HEX}", b"hi"),
           x("00000001 00")),
    Vector("flow-mod",
           lambda c: c.flow_mod(FlowModRequest(
               dpid=1, priority=7, match=Match(eth_dst=H2),
               actions=(Action(ActionKind.OUTPUT, 1),), hard_timeout_s=30)),
           1,
           x("00000023 02 0000000000000001 01 0000000000000000 0007"
             " 04 020000000002 01 01 0001 0000001e"),
           x("00000009 00 0000000000000001")),
    Vector("report-link", lambda c: c.report_link(1, 2, 3, 4, True), None,
           x("00000016 03 0000000000000001 0002 0000000000000003 0004 01"),
           x("00000001 00")),
    Vector("unknown-dpid", lambda c: c.packet_out(99, 1, FRAME),
           Raises(UnknownDatapathError, "dpid 99 not attached"),
           x(f"0000001f 01 0000000000000063 0001 {_FRAME_HEX}", b"hi"),
           x("00000017 02 0014", b"dpid 99 not attached")),
]

# -- topology queries ------------------------------------------------------------

TOPO = [
    # a learn-path request whose destination is unknown still learns its
    # source, as the host-location vector after it shows
    Vector("learn-path-unknown-dst", lambda c: c.path_from_switch(1, H77, learn=(H1, 2)),
           Raises(UnknownHostError, "no location for 02:00:00:00:00:4d"),
           x("00000017 04 0000000000000001 02000000004d 020000000001 0002"),
           x("00000024 02 0021", b"no location for 02:00:00:00:00:4d")),
    Vector("host-location-after-learn-path", lambda c: c.host_location(H1),
           HostLocation(H1, 1, 2),
           x("00000007 01 020000000001"),
           x("0000000b 00 0000000000000001 0002")),
    Vector("learn-host", lambda c: c.learn_host(H1, 1, 2), None,
           x("00000011 03 020000000001 0000000000000001 0002"),
           x("00000001 00")),
    Vector("learn-host-2", lambda c: c.learn_host(H2, 2, 2), None,
           x("00000011 03 020000000002 0000000000000002 0002"),
           x("00000001 00")),
    Vector("host-location", lambda c: c.host_location(H1), HostLocation(H1, 1, 2),
           x("00000007 01 020000000001"),
           x("0000000b 00 0000000000000001 0002")),
    Vector("path", lambda c: c.path_from_switch(1, H2), [PathHop(1, 1), PathHop(2, 2)],
           x("0000000f 02 0000000000000001 020000000002"),
           x("00000017 00 0002 0000000000000001 0001 0000000000000002 0002")),
    Vector("learn-path", lambda c: c.path_from_switch(1, H2, learn=(H1, 2)),
           [PathHop(1, 1), PathHop(2, 2)],
           x("00000017 04 0000000000000001 020000000002 020000000001 0002"),
           x("00000017 00 0002 0000000000000001 0001 0000000000000002 0002")),
    Vector("host-location-unknown", lambda c: c.host_location(H77), None,
           x("00000007 01 02000000004d"),
           x("00000024 02 0021", b"no location for 02:00:00:00:00:4d")),
    Vector("path-unknown-host", lambda c: c.path_from_switch(1, H77),
           Raises(UnknownHostError, "no location for 02:00:00:00:00:4d"),
           x("0000000f 02 0000000000000001 02000000004d"),
           x("00000024 02 0021", b"no location for 02:00:00:00:00:4d")),
    Vector("path-no-switch", lambda c: c.path_from_switch(7, H2),
           Raises(NoPathError, "no path from switch 7 to 02:00:00:00:00:02"),
           x("0000000f 02 0000000000000007 020000000002"),
           x("0000002d 03 002a", b"no path from switch 7 to 02:00:00:00:00:02")),
    Vector("unknown-tag", None, None,
           x("00000001 09"),
           x("00000018 01 0015", b"unknown request tag 9")),
]

# Deliberate changes from the earlier framing, with the replies it gave.
# The broker sent every error as status 1 and its client told
# OffsetOutOfRangeError apart by finding "offset" in the message, so a
# commit past the end raised BrokerError; typed statuses end that. The
# topology query protocol sent its error message as bare utf-8 (status 1)
# or nothing (statuses 2 and 3); it now uses the shared error body, and its
# client raises the same types with the same messages as before.
EARLIER_REPLIES = {
    "broker/poll-past-end": x("0000001f 01 001c", b"offset 5 beyond log length 1"),
    "broker/commit-past-end": x("00000026 01 0023", b"cannot commit 5 beyond log length 1"),
    "topo/host-location-unknown": x("00000001 02"),
    "topo/path-unknown-host": x("00000001 02"),
    "topo/path-no-switch": x("00000001 03"),
    "topo/unknown-tag": x("00000016 01", b"unknown request tag 9"),
}

STREAM_SUBSCRIBE = x("03")  # kind bitmap: PACKET | LINK
STREAM_EVENT = PacketExceptionEvent(
    dpid=1, in_port=2, frame=Frame(H2, H1, ETHERTYPE_DATA, b"x"), seq=7, ts_micros=70
)
STREAM_FRAME = x(
    "00000037"  # frame length
    " 45564e54 01 01 0000002d"  # event envelope: magic, version, tag, length
    " 0000000000000007 0000000000000046 0000000000000001 0002"
    " 020000000002 020000000001 0800 00000001",
    b"x",
)


# -- served protocols ------------------------------------------------------------

def _broker_server(stops):
    return BrokerServer(Broker())


def _core_server(stops):
    fabric = Fabric(build_linear(2))
    core = Core()
    core.adopt(fabric)
    fabric.start()
    fabric.quiesce()
    stops.append(fabric.stop)
    return CoreApiServer(core)


def _topo_server(stops):
    class NullCore:
        def packet_out(self, *a):
            pass

        def report_link(self, *a):
            pass

    topo = TopologyService(NullCore(), discovery_interval=0)
    for dpid in (1, 2):
        topo.on_event(TopologyDeviceEvent(dpid=dpid, up=True))
        for port in (1, 2):
            topo.on_event(TopologyPortEvent(dpid=dpid, port=port, up=True))
    for dpid, seen_from in ((2, 1), (1, 2)):  # switch 1 port 1 <-> switch 2 port 1
        topo.on_event(
            PacketExceptionEvent(
                dpid=dpid, in_port=1, frame=DiscoveryPayload(seen_from, 1, 1).frame()
            )
        )
    return TopoQueryServer(topo)


# protocol -> (server factory, client class, vectors in server order)
PROTOCOLS = {
    "broker": (_broker_server, BrokerClient, BROKER),
    "core": (_core_server, RemoteCore, CORE),
    "topo": (_topo_server, TopoQueryClient, TOPO),
}


@pytest.fixture
def serve():
    """serve(protocol) -> (started server, client class); all stopped after."""
    stops = []

    def start(protocol):
        make_server, client_cls, _ = PROTOCOLS[protocol]
        server = make_server(stops)
        stops.append(server.stop)
        return server.start(), client_cls

    yield start
    for stop in reversed(stops):
        stop()


def _read_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("peer closed")
        data += chunk
    return data


def _read_reply(sock: socket.socket) -> bytes:
    head = _read_exact(sock, 4)
    return head + _read_exact(sock, struct.unpack(">I", head)[0])


class _FakePeer:
    """Accepts one connection, records the first frame and answers ``reply``."""

    def __init__(self, reply: bytes, request_len: int | None = None):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5)
        self.address = self._listener.getsockname()
        self.request = b""
        self._thread = threading.Thread(
            target=self._serve, args=(reply, request_len), daemon=True
        )
        self._thread.start()

    def _serve(self, reply: bytes, request_len: int | None) -> None:
        conn, _ = self._listener.accept()
        with conn:
            conn.settimeout(5)
            if request_len is None:
                self.request = _read_reply(conn)  # same u32 length prefix
            else:
                self.request = _read_exact(conn, request_len)
            conn.sendall(reply)

    def close(self) -> None:
        self._thread.join(timeout=5)
        self._listener.close()


def _call_vectors():
    for protocol, (_, _, vectors) in PROTOCOLS.items():
        for v in vectors:
            if v.call is not None:
                yield pytest.param(protocol, v, id=f"{protocol}/{v.name}")


class TestGoldenVectors:
    @pytest.mark.parametrize("protocol,vector", list(_call_vectors()))
    def test_client_bytes(self, protocol, vector):
        peer = _FakePeer(vector.reply)
        client = PROTOCOLS[protocol][1](peer.address)
        try:
            if isinstance(vector.result, Raises):
                with pytest.raises(vector.result.exc) as info:
                    vector.call(client)
                assert type(info.value) is vector.result.exc
                assert str(info.value) == vector.result.message
            else:
                assert vector.call(client) == vector.result
        finally:
            client.close()
            peer.close()
        assert peer.request.hex(" ") == vector.request.hex(" ")

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_server_bytes(self, protocol, serve):
        server, _ = serve(protocol)
        with socket.create_connection(server.address, timeout=5) as sock:
            for v in PROTOCOLS[protocol][2]:
                sock.sendall(v.request)
                assert _read_reply(sock).hex(" ") == v.reply.hex(" "), v.name

    def test_deliberate_changes_keep_status_or_message(self):
        """Broker errors change only their status byte; topology errors keep
        their status and wrap the same message in the shared error body."""
        vectors = {
            f"{p}/{v.name}": v for p, (_, _, vs) in PROTOCOLS.items() for v in vs
        }
        for name, earlier in EARLIER_REPLIES.items():
            new = vectors[name].reply
            assert new != earlier
            if name.startswith("broker/"):
                assert new[:4] + new[5:] == earlier[:4] + earlier[5:], name
            else:
                assert new[4] == earlier[4], name
                assert not earlier[5:] or new[7:] == earlier[5:], name

    def test_stream_subscribe_and_frame(self):
        dist = P2pDistributor()
        server = P2pStreamServer(dist).start()
        try:
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(STREAM_SUBSCRIBE)
                _wait_for(lambda: dist.subscription_count() == 1)
                dist.push(STREAM_EVENT)
                assert _read_reply(sock).hex(" ") == STREAM_FRAME.hex(" ")
        finally:
            server.stop()
        assert encode_event(STREAM_EVENT) == STREAM_FRAME[4:]

    def test_stream_client_bytes(self):
        peer = _FakePeer(STREAM_FRAME, request_len=1)
        client = P2pStreamClient(peer.address, {EventKind.PACKET, EventKind.LINK})
        try:
            assert client.get(timeout=5) == STREAM_FRAME[4:]
        finally:
            client.close()
            peer.close()
        assert peer.request == STREAM_SUBSCRIBE


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


# -- malformed input ---------------------------------------------------------------

def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _cut_bodies(protocol: str):
    """Each request tag's golden body, cut at every shorter length."""
    bodies = {}
    for v in PROTOCOLS[protocol][2]:
        if v.call is not None:
            bodies.setdefault(v.request[4], v.request[4:])
    return [body[:n] for body in bodies.values() for n in range(len(body))]


OVERSIZED = struct.pack(">I", 0xFFFFFFF0)
TRUNCATED = struct.pack(">I", 100) + bytes(10)
UNKNOWN_TAG = _frame(b"\x09")
# a broker publish whose topic is not utf-8; the other two protocols carry
# no strings, so theirs stop short inside their first field
MALFORMED = {
    "broker": [_frame(b"\x01\x00\x02\xff\xfe\x00\x00\x00\x00")],
    "core": [_frame(b"\x01\x00\x00")],
    "topo": [_frame(b"\x02\x00"), _frame(b"\x04\x00")],
}
# one well-formed call each, made from a new client afterwards
WELL_FORMED = {
    "broker": lambda c: c.publish("t", b"ok") == 0,
    "core": lambda c: c.report_link(1, 2, 3, 4, True) is None,
    "topo": lambda c: c.learn_host(H1, 1, 2) is None,
}


@pytest.fixture
def crashes(monkeypatch):
    """Uncaught exceptions in any thread, collected instead of printed."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", seen.append)
    return seen


def _error_or_close(
    address, data: bytes, close_after_send: bool = False, must_reply: bool = False
) -> None:
    """Send ``data``; the server must answer a non-ok status or close."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(data)
        if close_after_send:
            return
        try:
            head = sock.recv(5)
        except ConnectionResetError:
            head = b""
        if head:  # a reply rather than a close
            head += _read_exact(sock, 5 - len(head))
            assert head[4] != 0, f"ok status for malformed request {data[:16].hex()}"
        assert head or not must_reply, f"no reply to malformed request {data[:16].hex()}"


class TestMalformedInput:
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_request_servers_survive(self, protocol, serve, crashes):
        server, client_cls = serve(protocol)
        _error_or_close(server.address, OVERSIZED)
        _error_or_close(server.address, TRUNCATED, close_after_send=True)
        _error_or_close(server.address, UNKNOWN_TAG, must_reply=True)
        for request in MALFORMED[protocol]:
            _error_or_close(server.address, request, must_reply=True)
        client = client_cls(server.address)
        try:
            assert WELL_FORMED[protocol](client)
        finally:
            client.close()
        time.sleep(0.05)  # let the handler threads of closed connections finish
        assert crashes == []

    def test_every_topology_request_tag_is_cut(self):
        assert {cut[0] for cut in _cut_bodies("topo") if cut} == {1, 2, 3, 4}

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_every_cut_request_body_is_refused(self, protocol, serve, crashes):
        """Each request tag's golden body, cut at every shorter length, gets an
        error status on one connection, which then still serves a good call."""
        server, client_cls = serve(protocol)
        with socket.create_connection(server.address, timeout=5) as sock:
            for cut in _cut_bodies(protocol):
                sock.sendall(_frame(cut))
                reply = _read_reply(sock)
                assert reply[4] != 0, f"{cut.hex(' ')} got {reply.hex(' ')}"
        client = client_cls(server.address)
        try:
            assert WELL_FORMED[protocol](client)
        finally:
            client.close()
        assert crashes == []

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_undecodable_request_logs_one_line(self, protocol, serve, caplog):
        """A peer's malformed bytes cost one warning line each, not a traceback."""
        server, _ = serve(protocol)
        requests = MALFORMED[protocol] + [_frame(cut) for cut in _cut_bodies(protocol)]
        caplog.set_level(logging.WARNING, logger="flowplane.framing")
        with socket.create_connection(server.address, timeout=5) as sock:
            for request in requests:
                sock.sendall(request)
                assert _read_reply(sock)[4] == 1  # the generic error status
        records = [r for r in caplog.records if r.name == "flowplane.framing"]
        assert [(r.levelno, r.exc_info) for r in records] == [(logging.WARNING, None)] * len(requests)

    def test_stream_server_survives(self, crashes):
        dist = P2pDistributor()
        server = P2pStreamServer(dist).start()
        try:
            _error_or_close(server.address, OVERSIZED)
            _error_or_close(server.address, b"", close_after_send=True)
            _error_or_close(server.address, b"\x00")  # subscribes to no kind
            _error_or_close(server.address, b"\x20")  # bit of a kind that does not exist
            client = P2pStreamClient(server.address, {EventKind.PACKET})
            try:
                _wait_for(lambda: dist.subscription_count() == 1)
                dist.push(STREAM_EVENT)
                assert client.get(timeout=5) == STREAM_FRAME[4:]
            finally:
                client.close()
        finally:
            server.stop()
        assert crashes == []

    def test_request_cap_is_the_largest_publish(self, serve, crashes):
        server, _ = serve("broker")
        topic = "t" * 0xFFFF
        largest = (
            b"\x01" + struct.pack(">H", len(topic)) + topic.encode()
            + struct.pack(">I", MAX_RECORD_BYTES) + bytes(MAX_RECORD_BYTES)
        )
        assert len(largest) == MAX_REQUEST_BYTES
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(_frame(largest))
            assert _read_reply(sock) == x("00000009 00 0000000000000000")
            sock.sendall(struct.pack(">I", MAX_REQUEST_BYTES + 1))
            assert sock.recv(1) == b""
        assert crashes == []

    def test_client_raises_generic_error_for_unknown_status(self):
        peer = _FakePeer(x("00000005 63 0002", b"no"))
        client = BrokerClient(peer.address)
        try:
            with pytest.raises(BrokerError, match="^no$"):
                client.committed("c", "t")
        finally:
            client.close()
            peer.close()


class TestStop:
    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_stopped_server_ends_its_connections(self, protocol, serve):
        server, client_cls = serve(protocol)
        before = set(threading.enumerate())
        client = client_cls(server.address)
        try:
            assert WELL_FORMED[protocol](client)
            handlers = set(threading.enumerate()) - before
            assert handlers
            server.stop()
            assert not [t for t in handlers if t.is_alive()]
            with pytest.raises(OSError):  # ConnectionError among them
                WELL_FORMED[protocol](client)
        finally:
            client.close()
