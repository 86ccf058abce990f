"""Publish-subscribe event distribution: in-memory topic logs, polled by offset.

Topics are append-only logs with dense offsets starting at 0; records are
immutable once appended and retained for the whole run. Consumers pull by
offset and commit progress with each poll, so a reconnecting consumer can
resume where it left off, and a fresh consumer replays the full history.
Nothing here knows who the producers or consumers are; publishing succeeds
with zero consumers attached.

The broker also runs out of process over the shared framing (see
``framing``):

    tags:   1 publish          topic str | u32 len | record
                               -> offset u64
            3 commit           consumer str | topic str | offset u64
            4 committed-offset consumer str | topic str
                               -> u8 0, or u8 1 | offset u64
            5 poll             consumer str | u16 n | n x (topic str | from_offset u64)
                               | max_records u32 | max_wait_micros u64
                               -> u32 count | count x (topic index u16 | offset u64
                                                       | u32 len | record)
    status: 1 BrokerError, 2 OffsetOutOfRangeError, 3 RecordTooLargeError

A poll names each topic once; the reply's topic index points into the
request's list. A poll also commits: each from_offset becomes the consumer's
committed offset of its topic, unless the poll fails. So a consumer never
sends tag 3 while it delivers records; tag 3 sets an offset explicitly. Tag 2
was a poll of one topic and is now unknown.

``BrokerClient`` speaks that protocol and exposes the same operation
contract as ``Broker``, so ``BrokerConsumer`` works over either. Consumers
sleep ``poll_interval`` between empty polls; that interval, not the
transport, is the dominant latency of this backend.
"""

from __future__ import annotations

import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter

from .framing import MAX_RECORD_BYTES, CallClient, FramedServer, frame, pack_str, unpack_str
from .wire import U8, U16, U32, U64, Reader, take

DEFAULT_POLL_INTERVAL = 0.001


class BrokerError(Exception):
    pass


class OffsetOutOfRangeError(BrokerError):
    pass


class RecordTooLargeError(BrokerError):
    pass


@dataclass(frozen=True)
class Record:
    topic: str
    offset: int
    data: bytes
    # the broker-wide append position; it orders a poll over several topics
    # and is not sent over the socket
    index: int = field(default=0, compare=False)


class Broker:
    """In-process event broker; all operations are thread-safe."""

    def __init__(self) -> None:
        self._topics: dict[str, list[Record]] = {}
        self._committed: dict[str, dict[str, int]] = {}  # consumer -> topic -> offset
        self._next_index = 0
        self._lock = threading.Lock()
        self._appended = threading.Condition(self._lock)

    def _log(self, topic: str) -> list[Record]:
        return self._topics.setdefault(topic, [])

    def publish(self, topic: str, data: bytes) -> int:
        """Append a record; returns its offset (= previous log length)."""
        if len(data) > MAX_RECORD_BYTES:
            raise RecordTooLargeError(
                f"record of {len(data)} bytes exceeds {MAX_RECORD_BYTES}"
            )
        with self._lock:
            records = self._log(topic)
            offset = len(records)
            records.append(Record(topic, offset, data, self._next_index))
            self._next_index += 1
            self._appended.notify_all()
            return offset

    def poll(
        self,
        consumer_id: str,
        offsets: dict[str, int],
        max_records: int = 64,
        max_wait: float = 0.0,
    ) -> list[Record]:
        """Up to ``max_records`` records of the topics in ``offsets``, each
        topic read from its offset, in the order the broker appended them.

        The result is a prefix of the unread records: a topic's slice stops
        short only after ``max_records`` records that all came earlier.
        Blocks up to ``max_wait`` seconds when no topic has a record, then
        returns an empty batch.

        Each offset becomes ``consumer_id``'s committed offset of its topic,
        as a Kafka consumer's next poll commits what its last one returned.
        A poll that raises commits nothing.
        """
        if not offsets:
            raise BrokerError("poll names no topic")
        deadline = time.monotonic() + max_wait
        with self._lock:
            while True:
                slices = []
                for topic, start in offsets.items():
                    records = self._log(topic)
                    if start > len(records):
                        raise OffsetOutOfRangeError(
                            f"offset {start} beyond log length {len(records)}"
                        )
                    if start < len(records):
                        slices.append(records[start : start + max_records])
                # no offset is out of range: commit them (a wait repeats this)
                self._committed.setdefault(consumer_id, {}).update(offsets)
                if slices:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._appended.wait(timeout=remaining)
        if len(slices) == 1:
            return slices[0]
        return sorted(chain.from_iterable(slices), key=attrgetter("index"))[:max_records]

    def commit(self, consumer_id: str, topic: str, offset: int) -> None:
        """Record ``offset`` as the consumer's next read position."""
        with self._lock:
            length = len(self._log(topic))
            if offset > length:
                raise OffsetOutOfRangeError(f"cannot commit {offset} beyond log length {length}")
            self._committed.setdefault(consumer_id, {})[topic] = offset

    def committed(self, consumer_id: str, topic: str) -> int | None:
        with self._lock:
            return self._committed.get(consumer_id, {}).get(topic)

    # -- introspection ------------------------------------------------------

    def record_count(self, topic: str) -> int:
        with self._lock:
            return len(self._topics.get(topic, ()))

    def total_records(self) -> int:
        with self._lock:
            return sum(map(len, self._topics.values()))

    def topics(self) -> list[str]:
        with self._lock:
            return sorted(self._topics)


class BrokerConsumer:
    """Offset-tracking puller over one or more topics.

    ``resume=True`` starts each topic at its committed offset; otherwise the
    consumer replays from 0. Empty polls sleep ``poll_interval`` before the
    next attempt, which makes the interval the floor of this backend's
    delivery latency.

    Progress is committed by the polls themselves, never by a request of its
    own: each poll commits the offsets it reads from, that is, every record
    handed out before it. A subscriber loop calls ``get`` only after the
    service has handled the last record, so the committed offset never
    passes an unhandled record (at least once, as with Kafka's auto-commit).
    A consumer stopped between a hand-out and its next poll is resumed at
    the first record handed out since its last poll, so it replays at most
    ``batch_size`` records. An idle consumer polls every ``poll_interval``,
    which commits the last record within one interval.

    Each refill is one poll over all the consumer's topics, so records are
    handed out ordered by the broker's append order whatever topic they
    came from. The core publishes under its seq lock, so that order is the
    order it stamped its events in. Record bytes are never read here.
    """

    def __init__(
        self,
        broker,
        consumer_id: str,
        topics: list[str],
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        batch_size: int = 64,
        resume: bool = False,
    ):
        self.broker = broker
        self.consumer_id = consumer_id
        self.topics = list(topics)
        self.poll_interval = poll_interval
        self.batch_size = batch_size
        self._offsets: dict[str, int] = {}
        for t in self.topics:
            start = broker.committed(consumer_id, t) if resume else None
            self._offsets[t] = start if start is not None else 0
        self._buffer: deque[Record] = deque()

    def get(self, timeout: float | None = 0.0) -> bytes | None:
        """Next record's bytes across this consumer's topics, or None."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._buffer:
                record = self._buffer.popleft()
                self._offsets[record.topic] = record.offset + 1
                return record.data
            self._buffer.extend(
                self.broker.poll(self.consumer_id, self._offsets, self.batch_size, 0.0)
            )
            if self._buffer:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_interval)

    def close(self) -> None:
        """Close the broker's socket channel; an in-process broker has none."""
        if isinstance(self.broker, CallClient):
            self.broker.close()


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------

_REQ_PUBLISH = 1
_REQ_COMMIT = 3
_REQ_COMMITTED = 4
_REQ_POLL = 5

_ERRORS = {1: BrokerError, 2: OffsetOutOfRangeError, 3: RecordTooLargeError}

_POLL = struct.Struct(">IQ")  # max_records, max_wait_micros
_POLLED = struct.Struct(">HQ")  # a reply record's topic index and offset


def _unpack_record(data: bytes, pos: int) -> tuple[bytes, int]:
    """A ``u32 len | record`` field, as ``frame`` packs it."""
    (n,) = U32.unpack_from(data, pos)
    return take(data, pos + U32.size, n)


def _dispatch(broker: Broker, body: bytes) -> bytes:
    r = Reader(body)
    (tag,) = r.read(U8)
    if tag == _REQ_PUBLISH:
        topic = r.read(unpack_str)
        return U64.pack(broker.publish(topic, r.read(_unpack_record)))
    if tag == _REQ_POLL:
        consumer = r.read(unpack_str)
        (n,) = r.read(U16)
        offsets = {}
        for _ in range(n):
            topic = r.read(unpack_str)
            if topic in offsets:
                raise BrokerError(f"poll names topic {topic!r} twice")
            (offsets[topic],) = r.read(U64)
        max_records, wait_micros = r.read(_POLL)
        batch = broker.poll(consumer, offsets, max_records, wait_micros / 1e6)
        index = {topic: i for i, topic in enumerate(offsets)}
        return U32.pack(len(batch)) + b"".join(
            _POLLED.pack(index[x.topic], x.offset) + frame(x.data) for x in batch
        )
    if tag == _REQ_COMMIT:
        consumer, topic = r.read(unpack_str), r.read(unpack_str)
        broker.commit(consumer, topic, *r.read(U64))
        return b""
    if tag == _REQ_COMMITTED:
        consumer, topic = r.read(unpack_str), r.read(unpack_str)
        offset = broker.committed(consumer, topic)
        if offset is None:
            return U8.pack(0)
        return U8.pack(1) + U64.pack(offset)
    raise BrokerError(f"unknown request tag {tag}")


class BrokerServer(FramedServer):
    """Serves a Broker over TCP; one thread per connection."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = 0):
        super().__init__(partial(_dispatch, broker), _ERRORS, host, port, "broker-server")


class BrokerClient(CallClient):
    """Socket client with the same contract as Broker (one serial channel)."""

    errors = _ERRORS

    def publish(self, topic: str, data: bytes) -> int:
        if len(data) > MAX_RECORD_BYTES:
            raise RecordTooLargeError(
                f"record of {len(data)} bytes exceeds {MAX_RECORD_BYTES}"
            )
        reply = self._call(bytes([_REQ_PUBLISH]) + pack_str(topic) + frame(data))
        return U64.unpack_from(reply)[0]

    def poll(
        self,
        consumer_id: str,
        offsets: dict[str, int],
        max_records: int = 64,
        max_wait: float = 0.0,
    ) -> list[Record]:
        topics = list(offsets)
        body = (
            bytes([_REQ_POLL])
            + pack_str(consumer_id)
            + U16.pack(len(topics))
            + b"".join(pack_str(t) + U64.pack(offsets[t]) for t in topics)
            + _POLL.pack(max_records, int(max_wait * 1e6))
        )
        r = Reader(self._call(body))
        (count,) = r.read(U32)
        records = []
        for _ in range(count):
            i, offset = r.read(_POLLED)
            records.append(Record(topics[i], offset, r.read(_unpack_record)))
        return records

    def commit(self, consumer_id: str, topic: str, offset: int) -> None:
        self._call(
            bytes([_REQ_COMMIT]) + pack_str(consumer_id) + pack_str(topic) + U64.pack(offset)
        )

    def committed(self, consumer_id: str, topic: str) -> int | None:
        reply = self._call(bytes([_REQ_COMMITTED]) + pack_str(consumer_id) + pack_str(topic))
        return U64.unpack_from(reply, U8.size)[0] if reply[0] else None
