"""Length-prefixed framing shared by the socket transports.

The request/response protocols (broker, core API, topology queries) each
run one TCP connection per client with serial calls, big-endian throughout:

    request:    u32 body_len | tag u8 | fields
    reply:      u32 body_len | status u8 | body
    status:     0 ok; otherwise an index into the protocol's status table
                of exception types, where 1 is the protocol's generic error
    error body: u16 len | utf-8 message
    strings:    u16 len | utf-8 bytes

A protocol supplies only its tags, a ``dispatch(body) -> reply`` function
that raises on failure, and its status table. The server answers each
connection's requests in order on a thread of its own; it closes a
connection whose request length exceeds ``MAX_REQUEST_BYTES`` or whose peer
hangs up mid-frame, and stopping it closes every connection it still has.
The p2p push stream writes events in the same ``u32 len | body`` frame.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import socketserver
import struct
import threading
from typing import Callable

from .wire import U16, U32, DecodeError, Reader, take

log = logging.getLogger(__name__)

MAX_RECORD_BYTES = 64 * 1024
# Room for the largest broker publish: tag, longest topic, record. A broker
# poll naming very many topics can exceed it and is refused.
MAX_REQUEST_BYTES = 1 + 2 + 0xFFFF + 4 + MAX_RECORD_BYTES

STATUS_OK = 0
STATUS_ERROR = 1

_REPLY_HEAD = struct.Struct(">IB")


def frame(body: bytes) -> bytes:
    return U32.pack(len(body)) + body


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return U16.pack(len(raw)) + raw


def unpack_str(data: bytes, pos: int) -> tuple[str, int]:
    (n,) = U16.unpack_from(data, pos)
    raw, end = take(data, pos + U16.size, n)
    return raw.decode("utf-8"), end


def recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


class TcpServer(socketserver.ThreadingTCPServer):
    """A daemon thread per connection. Closing the server sets ``stopping``,
    shuts down every connection still open and waits for its handler."""

    allow_reuse_address = True

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self.stopping = False
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        # registered before it runs, so server_close sees every connection
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._conns_lock:
            self._conns[request] = thread
        thread.start()

    def process_request_thread(self, request, client_address) -> None:
        # unlike the stdlib's, lets a crashed handler reach threading.excepthook
        try:
            self.finish_request(request, client_address)
        finally:
            with self._conns_lock:
                del self._conns[request]
            self.shutdown_request(request)

    def server_close(self) -> None:
        self.stopping = True
        super().server_close()
        with self._conns_lock:
            conns = list(self._conns.items())
        for sock, thread in conns:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            thread.join(timeout=2)


class ServerThread:
    """A bound socketserver, served on a daemon thread between start() and stop()."""

    def __init__(self, server: socketserver.BaseServer, name: str):
        self._server = server
        self.address: tuple[str, int] = server.server_address
        self._thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05), name=name, daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2)


class _FramedHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        dispatch, statuses = self.server.dispatch, self.server.statuses  # type: ignore[attr-defined]
        sock = self.request
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                (body_len,) = U32.unpack(recv_exact(sock, U32.size))
                if body_len > MAX_REQUEST_BYTES:
                    log.warning("closing %s: request of %d bytes", self.client_address, body_len)
                    return
                body = recv_exact(sock, body_len)
                try:
                    status, reply = STATUS_OK, dispatch(body)
                except Exception as exc:
                    status = statuses.get(type(exc), STATUS_ERROR)
                    # a peer's malformed bytes are its fault: one line, no traceback
                    if isinstance(exc, (DecodeError, UnicodeDecodeError)):
                        log.warning("malformed request from %s: %s", self.client_address, exc)
                    elif not isinstance(exc, tuple(statuses)):
                        log.exception("request failed")
                    reply = pack_str(str(exc))
                sock.sendall(_REPLY_HEAD.pack(len(reply) + 1, status) + reply)
        except OSError:  # includes the peer closing mid-frame
            return


class FramedServer(ServerThread):
    """Answers each request with ``dispatch(body)``; a raised exception
    becomes an error reply under its type's status in ``errors``."""

    def __init__(
        self,
        dispatch: Callable[[bytes], bytes],
        errors: dict[int, type[Exception]],
        host: str,
        port: int,
        name: str,
    ):
        server = TcpServer((host, port), _FramedHandler)
        server.dispatch = dispatch  # type: ignore[attr-defined]
        server.statuses = {exc: status for status, exc in errors.items()}  # type: ignore[attr-defined]
        super().__init__(server, name)


class CallClient:
    """One connection, serial calls; a reply with status s raises ``errors[s]``."""

    errors: dict[int, type[Exception]]

    def __init__(self, address: tuple[str, int], connect_timeout: float = 5.0):
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lock = threading.Lock()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def _call(self, body: bytes) -> bytes:
        with self._lock:
            self._sock.sendall(frame(body))
            length, status = _REPLY_HEAD.unpack(recv_exact(self._sock, 5))
            reply = recv_exact(self._sock, length - 1)
        if status != STATUS_OK:
            error = self.errors.get(status, self.errors[STATUS_ERROR])
            raise error(Reader(reply).read(unpack_str))
        return reply
