"""Broker backend tests: log contracts, consumer offsets, socket transport."""

from __future__ import annotations

import threading
import time

import pytest

from flowplane.broker import (
    Broker,
    BrokerClient,
    BrokerConsumer,
    BrokerServer,
    OffsetOutOfRangeError,
    RecordTooLargeError,
)
from flowplane.core import Core, CoreConfig, DistMode
from flowplane.stack import TOPO_KINDS
from flowplane.wire import (
    BROADCAST,
    ETHERTYPE_ARP,
    TOPIC_FOR_KIND,
    Frame,
    MacAddr,
    PacketExceptionEvent,
    TopologyDeviceEvent,
    TopologyPortEvent,
    decode_event,
    encode_event,
    event_kind,
)


def _in_process_and_over_socket():
    """A fresh Broker, then a BrokerClient onto another fresh Broker."""
    yield Broker()
    server = BrokerServer(Broker()).start()
    client = BrokerClient(server.address)
    try:
        yield client
    finally:
        client.close()
        server.stop()


class TestLogContract:
    def test_first_publish_gets_offset_zero(self):
        broker = Broker()
        assert broker.publish("events.packet", b"a") == 0

    def test_offsets_are_dense(self):
        broker = Broker()
        offsets = [broker.publish("t", bytes([i])) for i in range(3)]
        assert offsets == [0, 1, 2]

    def test_poll_returns_byte_identical_records(self):
        broker = Broker()
        broker.publish("t", b"\x00\xffpayload")
        (record,) = broker.poll("c", "t", 0)
        assert record.offset == 0
        assert record.data == b"\x00\xffpayload"

    def test_poll_batching(self):
        broker = Broker()
        for i in range(5):
            broker.publish("t", bytes([i]))
        batch = broker.poll("c", "t", 0, max_records=2)
        assert [r.offset for r in batch] == [0, 1]

    def test_poll_at_end_with_zero_wait_is_empty(self):
        broker = Broker()
        broker.publish("t", b"a")
        assert broker.poll("c", "t", 1, max_wait=0.0) == []

    def test_poll_beyond_end_errors(self):
        broker = Broker()
        with pytest.raises(OffsetOutOfRangeError):
            broker.poll("c", "t", 1)

    def test_poll_blocks_until_publish(self):
        broker = Broker()
        result = {}

        def consume():
            result["batch"] = broker.poll("c", "t", 0, max_wait=5.0)

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.05)
        broker.publish("t", b"late")
        t.join(timeout=2)
        assert [r.data for r in result["batch"]] == [b"late"]

    def test_poll_wait_expires_to_empty_batch(self):
        broker = Broker()
        start = time.monotonic()
        assert broker.poll("c", "t", 0, max_wait=0.05) == []
        assert time.monotonic() - start >= 0.05

    def test_oversized_record_rejected(self):
        broker = Broker()
        with pytest.raises(RecordTooLargeError):
            broker.publish("t", bytes(64 * 1024 + 1))

    def test_publish_with_zero_consumers_is_retained(self):
        # Loose coupling: nobody was listening, the record is still there later.
        broker = Broker()
        broker.publish("t", b"early")
        time.sleep(0.01)
        (record,) = broker.poll("latecomer", "t", 0)
        assert record.data == b"early"

    def test_replay_from_zero_returns_complete_history(self):
        broker = Broker()
        blobs = [bytes([i, i]) for i in range(20)]
        for b in blobs:
            broker.publish("t", b)
        got = []
        offset = 0
        while True:
            batch = broker.poll("replayer", "t", offset, max_records=7)
            if not batch:
                break
            got.extend(r.data for r in batch)
            offset = batch[-1].offset + 1
        assert got == blobs

    def test_fanout_independence(self):
        broker = Broker()
        for i in range(10):
            broker.publish("t", bytes([i]))
        fast = [r.data for r in broker.poll("fast", "t", 0, max_records=100)]
        slow_first = broker.poll("slow", "t", 0, max_records=1)
        assert len(fast) == 10
        assert slow_first[0].data == bytes([0])
        # slow consumer's lag does not hide records from anyone
        again = [r.data for r in broker.poll("fast", "t", 0, max_records=100)]
        assert again == fast

    def test_concurrent_publishes_yield_gapless_offsets(self):
        broker = Broker()
        per_thread = 1000
        results: list[list[int]] = [[] for _ in range(4)]

        def produce(slot):
            for _ in range(per_thread):
                results[slot].append(broker.publish("t", b"x"))

        threads = [threading.Thread(target=produce, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        all_offsets = sorted(o for r in results for o in r)
        assert all_offsets == list(range(4 * per_thread))
        # each producer saw its own offsets strictly increasing
        for r in results:
            assert r == sorted(r)


class TestCommitResume:
    def test_commit_then_resume(self):
        broker = Broker()
        for i in range(5):
            broker.publish("t", bytes([i]))
        broker.commit("c", "t", 3)
        consumer = BrokerConsumer(broker, "c", ["t"], resume=True)
        assert consumer.get() == bytes([3])

    def test_no_commit_resumes_from_zero(self):
        broker = Broker()
        broker.publish("t", b"first")
        consumer = BrokerConsumer(broker, "fresh", ["t"], resume=True)
        assert consumer.get() == b"first"

    def test_post_commit_records_only(self):
        broker = Broker()
        broker.publish("t", b"old")
        consumer = BrokerConsumer(broker, "c", ["t"])
        assert consumer.get() == b"old"  # auto-commits offset 1
        broker.publish("t", b"new-1")
        broker.publish("t", b"new-2")
        resumed = BrokerConsumer(broker, "c", ["t"], resume=True)
        assert resumed.get() == b"new-1"
        assert resumed.get() == b"new-2"
        assert resumed.get(timeout=0.01) is None

    def test_commit_beyond_log_errors(self):
        for broker in _in_process_and_over_socket():
            broker.publish("t", b"a")
            with pytest.raises(OffsetOutOfRangeError, match="cannot commit 5 beyond log length 1"):
                broker.commit("c", "t", 5)

    def test_poll_beyond_log_errors(self):
        for broker in _in_process_and_over_socket():
            broker.publish("t", b"a")
            with pytest.raises(OffsetOutOfRangeError, match="offset 5 beyond log length 1"):
                broker.poll("c", "t", 5)

    def test_consumer_get_timeout(self):
        broker = Broker()
        consumer = BrokerConsumer(broker, "c", ["t"], poll_interval=0.001)
        start = time.monotonic()
        assert consumer.get(timeout=0.03) is None
        assert time.monotonic() - start >= 0.03


class TestCrossTopicOrder:
    """A consumer over several topics gets events in the core's seq order."""

    def _drain(self, consumer) -> list[int]:
        seqs = []
        while (data := consumer.get(timeout=0.05)) is not None:
            seqs.append(decode_event(data).seq)
        return seqs

    def test_topology_consumer_sees_stamping_order(self):
        for broker in _in_process_and_over_socket():
            core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
            core.raise_event(TopologyDeviceEvent(dpid=1, up=True))
            core.raise_event(TopologyPortEvent(dpid=1, port=1, up=True))
            core.raise_event(
                PacketExceptionEvent(
                    dpid=1, in_port=1, frame=Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP)
                )
            )
            topics = [TOPIC_FOR_KIND[k] for k in sorted(TOPO_KINDS)]
            consumer = BrokerConsumer(broker, "topo", topics, poll_interval=0.001)
            assert self._drain(consumer) == [1, 2, 3]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
    def test_mixed_kinds_merge_across_refills(self, batch_size):
        # a full batch on one topic must not let a later seq from another overtake it
        broker = Broker()
        kinds = [
            lambda seq: TopologyDeviceEvent(dpid=seq, up=True, seq=seq),
            lambda seq: TopologyPortEvent(dpid=1, port=seq, up=True, seq=seq),
            lambda seq: PacketExceptionEvent(
                dpid=1, in_port=1, frame=Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP), seq=seq
            ),
        ]
        pattern = [0, 0, 0, 0, 1, 2, 2, 0, 1, 1, 1, 1, 1, 2, 0, 2, 2, 2, 2, 0, 1]
        for seq, k in enumerate(pattern, start=1):
            event = kinds[k](seq)
            broker.publish(TOPIC_FOR_KIND[event_kind(event)], encode_event(event))
        topics = ["events.packet", "events.device", "events.port"]
        consumer = BrokerConsumer(broker, "c", topics, poll_interval=0.001, batch_size=batch_size)
        assert self._drain(consumer) == list(range(1, len(pattern) + 1))
        # and every topic's committed offset reached the end of its log
        assert sum(broker.committed("c", t) for t in topics) == len(pattern)


class TestIntrospection:
    def test_counters(self):
        broker = Broker()
        broker.publish("a", b"1")
        broker.publish("a", b"2")
        broker.publish("b", b"3")
        assert broker.record_count("a") == 2
        assert broker.record_count("missing") == 0
        assert broker.total_records() == 3
        assert broker.topics() == ["a", "b"]


class TestSocketTransport:
    @pytest.fixture
    def served(self):
        broker = Broker()
        server = BrokerServer(broker).start()
        client = BrokerClient(server.address)
        yield broker, client
        client.close()
        server.stop()

    def test_publish_poll_commit_roundtrip(self, served):
        broker, client = served
        assert client.publish("t", b"hello") == 0
        assert client.publish("t", b"world") == 1
        batch = client.poll("c", "t", 0, max_records=10)
        assert [(r.offset, r.data) for r in batch] == [(0, b"hello"), (1, b"world")]
        client.commit("c", "t", 2)
        assert client.committed("c", "t") == 2
        assert client.committed("other", "t") is None
        assert broker.record_count("t") == 2

    def test_poll_error_crosses_socket(self, served):
        _, client = served
        with pytest.raises(OffsetOutOfRangeError):
            client.poll("c", "t", 5)

    def test_consumer_over_socket(self, served):
        broker, client = served
        broker.publish("t", b"via-server")
        consumer = BrokerConsumer(client, "c", ["t"], poll_interval=0.001)
        assert consumer.get(timeout=1.0) == b"via-server"

    def test_blocking_poll_over_socket(self, served):
        broker, client = served

        def later():
            time.sleep(0.05)
            broker.publish("t", b"late")

        threading.Thread(target=later).start()
        batch = client.poll("c", "t", 0, max_wait=2.0)
        assert [r.data for r in batch] == [b"late"]
