"""Point-to-point event distribution: push streams with no retention.

Every subscriber registers the event kinds it wants and gets its own bounded
queue of encoded events. ``push`` copies each event reference into every
matching queue immediately; events published before a subscription existed
are gone forever (consumers that need history belong on the broker backend).
A full queue drops its oldest entry and counts the drop, so a stalled
subscriber can never block the push path.

Out-of-process mode is a long-lived stream socket per subscription: the
client sends a single byte, a bitmap of event kinds (bit ``tag-1`` for wire
tag ``tag``), and the server then writes each encoded event in the shared
``u32 len | event`` frame (see ``framing``) for the life of the connection.
An empty or unknown bitmap closes the connection.

Coupling contrast with the broker backend (documented, not enforced): a
push subscriber must know the distributor's endpoint and the event-kind
enumeration up front, while a broker consumer needs only topic names and
can start long after the producer, since topics retain history.
"""

from __future__ import annotations

import itertools
import logging
import socket
import socketserver
import threading
import time
from collections import deque
from typing import Iterable

from .framing import ServerThread, TcpServer, frame
from .wire import U32, Event, EventKind, encode_event, event_kind

log = logging.getLogger(__name__)

DEFAULT_QUEUE_BOUND = 10_000


class P2pError(Exception):
    pass


class Subscription:
    """One subscriber's bounded stream of encoded events."""

    def __init__(self, sub_id: int, kinds: frozenset[EventKind], bound: int):
        self.sub_id = sub_id
        self.kinds = kinds
        self.dropped = 0
        self._bound = bound
        self._queue: deque[bytes] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def _offer(self, data: bytes) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._queue) >= self._bound:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(data)
            self._cond.notify()

    def get(self, timeout: float | None = None) -> bytes | None:
        """Next encoded event; None on timeout or once closed and drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue and not self._closed:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(timeout=remaining):
                        break
            if self._queue:
                return self._queue.popleft()
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)


class P2pDistributor:
    """Subscriber registry keyed by event kind; push fans out copies."""

    def __init__(self, queue_bound: int = DEFAULT_QUEUE_BOUND):
        self._queue_bound = queue_bound
        self._subs: dict[int, Subscription] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.pushed = 0

    def subscribe(self, kinds: Iterable[EventKind]) -> Subscription:
        kindset = frozenset(kinds)
        if not kindset:
            raise P2pError("subscription needs at least one event kind")
        with self._lock:
            sub = Subscription(next(self._ids), kindset, self._queue_bound)
            self._subs[sub.sub_id] = sub
            return sub

    def unsubscribe(self, sub_id: int) -> None:
        with self._lock:
            sub = self._subs.pop(sub_id, None)
        if sub is None:
            raise P2pError(f"unknown subscription {sub_id}")
        sub.close()

    def push(self, event: Event) -> int:
        """Deliver to every matching subscription; returns the copy count."""
        kind = event_kind(event)
        data = encode_event(event)
        with self._lock:
            targets = [s for s in self._subs.values() if kind in s.kinds]
        for sub in targets:
            sub._offer(data)
        self.pushed += 1
        return len(targets)

    def subscription_count(self) -> int:
        with self._lock:
            return len(self._subs)


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------

def kinds_to_bitmap(kinds: Iterable[EventKind]) -> int:
    bitmap = 0
    for k in kinds:
        bitmap |= 1 << (k - 1)
    return bitmap


def bitmap_to_kinds(bitmap: int) -> frozenset[EventKind]:
    kinds = set()
    for k in EventKind:
        if bitmap & (1 << (k - 1)):
            kinds.add(k)
    if bitmap >> len(EventKind):
        raise P2pError(f"unknown bits in kind bitmap 0x{bitmap:02x}")
    return frozenset(kinds)


class _P2pStreamHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        distributor: P2pDistributor = self.server.distributor  # type: ignore[attr-defined]
        sock = self.request
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            first = sock.recv(1)
            if not first:
                return
            sub = distributor.subscribe(bitmap_to_kinds(first[0]))
        except P2pError as exc:
            log.warning("rejected stream subscription: %s", exc)
            return
        except OSError:
            return
        try:
            while not self.server.stopping:  # type: ignore[attr-defined]
                data = sub.get(timeout=0.1)
                if data is not None:
                    sock.sendall(frame(data))
        except OSError:
            pass
        finally:
            try:
                distributor.unsubscribe(sub.sub_id)
            except P2pError:
                pass


class P2pStreamServer(ServerThread):
    """Serves push subscriptions over TCP, one long-lived stream each."""

    def __init__(self, distributor: P2pDistributor, host: str = "127.0.0.1", port: int = 0):
        super().__init__(TcpServer((host, port), _P2pStreamHandler), "p2p-server")
        self._server.distributor = distributor  # type: ignore[attr-defined]


class P2pStreamClient:
    """Client end of a socket subscription; same get() contract."""

    def __init__(
        self,
        address: tuple[str, int],
        kinds: Iterable[EventKind],
        connect_timeout: float = 5.0,
    ):
        kindset = frozenset(kinds)
        if not kindset:
            raise P2pError("subscription needs at least one event kind")
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.sendall(bytes([kinds_to_bitmap(kindset)]))
        self._buffer = b""

    def get(self, timeout: float | None = None) -> bytes | None:
        """Next encoded event; None on timeout; ConnectionError once the stream is lost."""
        self._sock.settimeout(timeout)
        try:
            while True:
                if len(self._buffer) >= 4:
                    (n,) = U32.unpack_from(self._buffer)
                    if len(self._buffer) >= 4 + n:
                        data = self._buffer[4 : 4 + n]
                        self._buffer = self._buffer[4 + n :]
                        return data
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionError("closed by the server")
                self._buffer += chunk
        except TimeoutError:
            return None
        except OSError as exc:
            raise ConnectionError(f"p2p stream lost: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
