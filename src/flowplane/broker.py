"""Publish-subscribe event distribution: in-memory topic logs, polled by offset.

Topics are append-only logs with dense offsets starting at 0; records are
immutable once appended and retained for the whole run. Consumers pull by
offset and may commit progress, so a reconnecting consumer can resume where
it left off, and a fresh consumer replays the full history. Nothing here
knows who the producers or consumers are; publishing succeeds with zero
consumers attached.

The broker also runs out of process over the shared framing (see
``framing``):

    tags:   1 publish          topic str | u32 len | record
                               -> offset u64
            2 poll             consumer str | topic str | from_offset u64
                               | max_records u32 | max_wait_micros u64
                               -> u32 count | count x (offset u64 | u32 len | record)
            3 commit           consumer str | topic str | offset u64
            4 committed-offset consumer str | topic str
                               -> u8 0, or u8 1 | offset u64
    status: 1 BrokerError, 2 OffsetOutOfRangeError, 3 RecordTooLargeError

``BrokerClient`` speaks that protocol and exposes the same operation
contract as ``Broker``, so ``BrokerConsumer`` works over either. Consumers
sleep ``poll_interval`` between empty polls; that interval, not the
transport, is the dominant latency of this backend.
"""

from __future__ import annotations

import math
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from .framing import MAX_RECORD_BYTES, CallClient, FramedServer, frame, pack_str, unpack_str
from .wire import U8, U32, U64, Reader, event_seq, take

DEFAULT_POLL_INTERVAL = 0.001


class BrokerError(Exception):
    pass


class OffsetOutOfRangeError(BrokerError):
    pass


class RecordTooLargeError(BrokerError):
    pass


@dataclass(frozen=True)
class Record:
    offset: int
    data: bytes


@dataclass
class _TopicLog:
    name: str
    records: list[Record] = field(default_factory=list)


class Broker:
    """In-process event broker; all operations are thread-safe."""

    def __init__(self) -> None:
        self._topics: dict[str, _TopicLog] = {}
        self._committed: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self._appended = threading.Condition(self._lock)

    def _topic(self, name: str) -> _TopicLog:
        topic = self._topics.get(name)
        if topic is None:
            topic = self._topics[name] = _TopicLog(name)
        return topic

    def publish(self, topic: str, data: bytes) -> int:
        """Append a record; returns its offset (= previous log length)."""
        if len(data) > MAX_RECORD_BYTES:
            raise RecordTooLargeError(
                f"record of {len(data)} bytes exceeds {MAX_RECORD_BYTES}"
            )
        with self._lock:
            t = self._topic(topic)
            offset = len(t.records)
            t.records.append(Record(offset=offset, data=data))
            self._appended.notify_all()
            return offset

    def poll(
        self,
        consumer_id: str,
        topic: str,
        from_offset: int,
        max_records: int = 64,
        max_wait: float = 0.0,
    ) -> list[Record]:
        """Records from ``from_offset`` in offset order, up to ``max_records``.

        Blocks up to ``max_wait`` seconds when nothing is available, then
        returns an empty batch.
        """
        deadline = time.monotonic() + max_wait
        with self._lock:
            t = self._topic(topic)
            if from_offset > len(t.records):
                raise OffsetOutOfRangeError(
                    f"offset {from_offset} beyond log length {len(t.records)}"
                )
            while from_offset == len(t.records):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._appended.wait(timeout=remaining)
            return t.records[from_offset : from_offset + max_records]

    def commit(self, consumer_id: str, topic: str, offset: int) -> None:
        """Record ``offset`` as the consumer's next read position."""
        with self._lock:
            t = self._topic(topic)
            if offset > len(t.records):
                raise OffsetOutOfRangeError(
                    f"cannot commit {offset} beyond log length {len(t.records)}"
                )
            self._committed[(consumer_id, topic)] = offset

    def committed(self, consumer_id: str, topic: str) -> int | None:
        with self._lock:
            return self._committed.get((consumer_id, topic))

    # -- introspection ------------------------------------------------------

    def record_count(self, topic: str) -> int:
        with self._lock:
            t = self._topics.get(topic)
            return len(t.records) if t else 0

    def total_records(self) -> int:
        with self._lock:
            return sum(len(t.records) for t in self._topics.values())

    def topics(self) -> list[str]:
        with self._lock:
            return sorted(self._topics)


class BrokerConsumer:
    """Offset-tracking puller over one or more topics.

    ``resume=True`` starts each topic at its committed offset; otherwise the
    consumer replays from 0. Progress is committed after every record handed
    out. Empty polls sleep ``poll_interval`` before the next attempt, which
    makes the interval the floor of this backend's delivery latency.

    Over several topics each refill is merged by the ``seq`` in the events'
    fixed header, so events arrive in the order the core stamped them
    whatever topic they came from. A record that is not an event keeps its
    place in its topic and is handed out like any other.
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
        self._buffer: deque[tuple[str, Record]] = deque()

    def get(self, timeout: float | None = 0.0) -> bytes | None:
        """Next record's bytes across this consumer's topics, or None."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._buffer:
                topic, record = self._buffer.popleft()
                self._offsets[topic] = record.offset + 1
                self.broker.commit(self.consumer_id, topic, record.offset + 1)
                return record.data
            if self._refill():
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_interval)

    def close(self) -> None:
        """Close the broker's socket channel; an in-process broker has none."""
        if isinstance(self.broker, CallClient):
            self.broker.close()

    def _refill(self) -> bool:
        batches = []
        for t in self.topics:
            batch = self.broker.poll(self.consumer_id, t, self._offsets[t], self.batch_size, 0.0)
            if batch:
                batches.append((t, batch))
        if len(batches) == 1:
            t, batch = batches[0]
            self._buffer.extend((t, r) for r in batch)
        elif batches:
            keyed = [(t, batch, _merge_keys(batch)) for t, batch in batches]
            # a full batch may stop short of records that precede another topic's:
            # hand out nothing past its last key, and poll the rest again
            full_ends = [keys[-1] for _, batch, keys in keyed if len(batch) >= self.batch_size]
            horizon = min(full_ends, default=math.inf)
            merged = [(k, t, r) for t, batch, keys in keyed for k, r in zip(keys, batch) if k <= horizon]
            merged.sort(key=itemgetter(0))
            self._buffer.extend((t, r) for _, t, r in merged)
        return bool(batches)


def _merge_keys(batch: list[Record]) -> list[int]:
    """Each record's seq, kept from falling below an earlier record's key.

    A record that is not an event takes the key before it, so the keys never
    fall within a topic: ``get`` then never moves a topic's offset past a
    record it has not handed out yet, and the record reaches the consumer,
    whose decoder rejects it.
    """
    keys, key = [], 0
    for record in batch:
        seq = event_seq(record.data)
        if seq is not None and seq > key:
            key = seq
        keys.append(key)
    return keys


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------

_REQ_PUBLISH = 1
_REQ_POLL = 2
_REQ_COMMIT = 3
_REQ_COMMITTED = 4

_ERRORS = {1: BrokerError, 2: OffsetOutOfRangeError, 3: RecordTooLargeError}

_POLL = struct.Struct(">QIQ")  # from_offset, max_records, max_wait_micros


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
        consumer, topic = r.read(unpack_str), r.read(unpack_str)
        from_offset, max_records, wait_micros = r.read(_POLL)
        batch = broker.poll(consumer, topic, from_offset, max_records, wait_micros / 1e6)
        return U32.pack(len(batch)) + b"".join(U64.pack(x.offset) + frame(x.data) for x in batch)
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
        topic: str,
        from_offset: int,
        max_records: int = 64,
        max_wait: float = 0.0,
    ) -> list[Record]:
        body = (
            bytes([_REQ_POLL])
            + pack_str(consumer_id)
            + pack_str(topic)
            + _POLL.pack(from_offset, max_records, int(max_wait * 1e6))
        )
        r = Reader(self._call(body))
        (count,) = r.read(U32)
        return [Record(offset=r.read(U64)[0], data=r.read(_unpack_record)) for _ in range(count)]

    def commit(self, consumer_id: str, topic: str, offset: int) -> None:
        self._call(
            bytes([_REQ_COMMIT]) + pack_str(consumer_id) + pack_str(topic) + U64.pack(offset)
        )

    def committed(self, consumer_id: str, topic: str) -> int | None:
        reply = self._call(bytes([_REQ_COMMITTED]) + pack_str(consumer_id) + pack_str(topic))
        return U64.unpack_from(reply, U8.size)[0] if reply[0] else None
