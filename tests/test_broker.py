"""Broker backend tests: log contracts, consumer offsets, socket transport."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from flowplane.broker import (
    Broker,
    BrokerClient,
    BrokerConsumer,
    BrokerError,
    BrokerServer,
    OffsetOutOfRangeError,
    Record,
    RecordTooLargeError,
)
from flowplane.core import Core, CoreConfig, DistMode
from flowplane.stack import TOPO_KINDS, _SubscriberLoop
from flowplane.wire import (
    BROADCAST,
    ETHERTYPE_ARP,
    TOPIC_FOR_KIND,
    EventKind,
    Frame,
    MacAddr,
    PacketExceptionEvent,
    TopologyDeviceEvent,
    TopologyPortEvent,
    U64,
    decode_event,
    encode_event,
    event_kind,
)


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _arp_packet_in():
    return PacketExceptionEvent(
        dpid=1, in_port=1, frame=Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP)
    )


class _Recorder:
    def __init__(self):
        self.seqs = []

    def on_event(self, event):
        self.seqs.append(event.seq)


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
        (record,) = broker.poll("c", {"t": 0})
        assert record.offset == 0
        assert record.data == b"\x00\xffpayload"

    def test_poll_batching(self):
        broker = Broker()
        for i in range(5):
            broker.publish("t", bytes([i]))
        batch = broker.poll("c", {"t": 0}, max_records=2)
        assert [r.offset for r in batch] == [0, 1]

    def test_poll_at_end_with_zero_wait_is_empty(self):
        broker = Broker()
        broker.publish("t", b"a")
        assert broker.poll("c", {"t": 1}, max_wait=0.0) == []

    def test_poll_beyond_end_errors(self):
        broker = Broker()
        with pytest.raises(OffsetOutOfRangeError):
            broker.poll("c", {"t": 1})

    def test_poll_blocks_until_publish(self):
        broker = Broker()
        result = {}

        def consume():
            result["batch"] = broker.poll("c", {"t": 0}, max_wait=5.0)

        t = threading.Thread(target=consume)
        t.start()
        time.sleep(0.05)
        broker.publish("t", b"late")
        t.join(timeout=2)
        assert [r.data for r in result["batch"]] == [b"late"]

    def test_poll_wait_expires_to_empty_batch(self):
        broker = Broker()
        start = time.monotonic()
        assert broker.poll("c", {"t": 0}, max_wait=0.05) == []
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
        (record,) = broker.poll("latecomer", {"t": 0})
        assert record.data == b"early"

    def test_replay_from_zero_returns_complete_history(self):
        broker = Broker()
        blobs = [bytes([i, i]) for i in range(20)]
        for b in blobs:
            broker.publish("t", b)
        got = []
        offset = 0
        while True:
            batch = broker.poll("replayer", {"t": offset}, max_records=7)
            if not batch:
                break
            got.extend(r.data for r in batch)
            offset = batch[-1].offset + 1
        assert got == blobs

    def test_fanout_independence(self):
        broker = Broker()
        for i in range(10):
            broker.publish("t", bytes([i]))
        fast = [r.data for r in broker.poll("fast", {"t": 0}, max_records=100)]
        slow_first = broker.poll("slow", {"t": 0}, max_records=1)
        assert len(fast) == 10
        assert slow_first[0].data == bytes([0])
        # slow consumer's lag does not hide records from anyone
        again = [r.data for r in broker.poll("fast", {"t": 0}, max_records=100)]
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


class TestMultiTopicPoll:
    def test_records_come_in_append_order_across_topics(self):
        for broker in _in_process_and_over_socket():
            for topic, data in (("b", b"1"), ("a", b"2"), ("b", b"3"), ("c", b"4"), ("a", b"5")):
                broker.publish(topic, data)
            batch = broker.poll("c", {"a": 0, "b": 0, "c": 0})
            assert [(r.topic, r.offset, r.data) for r in batch] == [
                ("b", 0, b"1"), ("a", 0, b"2"), ("b", 1, b"3"), ("c", 0, b"4"), ("a", 1, b"5"),
            ]
            # each topic from its own offset
            assert [r.data for r in broker.poll("c", {"a": 1, "b": 2, "c": 0})] == [b"4", b"5"]

    def test_a_short_batch_is_a_prefix_of_the_unread_records(self):
        broker = Broker()
        for i in range(6):
            broker.publish("a" if i < 4 else "b", bytes([i]))
        broker.publish("a", b"late")
        # "a" holds 0-3 and "late"; "b" holds 4-5, appended before "late"
        in_order = [bytes([i]) for i in range(6)] + [b"late"]
        for n in range(1, 9):
            batch = broker.poll("c", {"a": 0, "b": 0}, max_records=n)
            assert [r.data for r in batch] == in_order[:n]

    def test_offset_past_end_on_one_topic_errors(self):
        for broker in _in_process_and_over_socket():
            broker.publish("t", b"a")
            with pytest.raises(OffsetOutOfRangeError, match="offset 5 beyond log length 0"):
                broker.poll("c", {"t": 0, "u": 5})

    def test_poll_of_no_topic_is_refused(self):
        for broker in _in_process_and_over_socket():
            with pytest.raises(BrokerError, match="poll names no topic"):
                broker.poll("c", {})

    def test_wait_ends_at_a_publish_on_any_topic(self):
        broker = Broker()
        threading.Timer(0.05, broker.publish, ("b", b"late")).start()
        assert broker.poll("c", {"a": 0, "b": 0}, max_wait=2.0) == [Record("b", 0, b"late")]


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
        assert consumer.get() == b"old"
        assert consumer.get(timeout=0) is None  # this poll commits offset 1
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
                broker.poll("c", {"t": 5})

    def test_consumer_get_timeout(self):
        broker = Broker()
        consumer = BrokerConsumer(broker, "c", ["t"], poll_interval=0.001)
        start = time.monotonic()
        assert consumer.get(timeout=0.03) is None
        assert time.monotonic() - start >= 0.03


class TestPollCommits:
    """A poll commits the offsets it reads from, for its consumer id only."""

    def test_handed_out_record_is_replayed_until_the_next_poll(self):
        for broker in _in_process_and_over_socket():
            for i in range(5):
                broker.publish("t", bytes([i]))
            # one record per poll, so each get() polls once, then hands out
            consumer = BrokerConsumer(broker, "c", ["t"], batch_size=1)
            assert [consumer.get() for _ in range(3)] == [bytes([i]) for i in range(3)]
            # record 2 is handed out but may not be handled yet
            assert broker.committed("c", "t") == 2
            assert BrokerConsumer(broker, "c", ["t"], resume=True).get() == bytes([2])
            assert consumer.get() == bytes([3])
            assert broker.committed("c", "t") == 3
            assert BrokerConsumer(broker, "c", ["t"], resume=True).get() == bytes([3])

    def test_a_poll_that_raises_commits_nothing(self):
        for broker in _in_process_and_over_socket():
            broker.publish("t", b"a")
            broker.poll("c", {"t": 1})
            with pytest.raises(OffsetOutOfRangeError):
                broker.poll("c", {"t": 0, "u": 5})
            assert broker.committed("c", "t") == 1
            assert broker.committed("c", "u") is None
            with pytest.raises(OffsetOutOfRangeError):
                broker.poll("d", {"t": 0, "u": 5})
            assert broker.committed("d", "t") is None

    def test_polls_commit_for_their_own_consumer_id_only(self):
        for broker in _in_process_and_over_socket():
            for i in range(3):
                broker.publish("t", bytes([i]))
            broker.commit("a", "t", 2)
            broker.poll("b", {"t": 0})
            assert broker.committed("a", "t") == 2
            assert broker.committed("b", "t") == 0
            broker.poll("a", {"t": 3})
            assert broker.committed("a", "t") == 3
            assert broker.committed("b", "t") == 0


class TestUnseenNames:
    """The broker keeps no state for a topic nobody published to."""

    def _apis(self):
        """A fresh Broker, in process and then behind a BrokerServer."""
        broker = Broker()
        yield broker, broker
        broker = Broker()
        server = BrokerServer(broker).start()
        client = BrokerClient(server.address)
        try:
            yield broker, client
        finally:
            client.close()
            server.stop()

    def test_polls_of_unknown_topics_leave_no_state(self):
        for broker, api in self._apis():
            api.publish("t", b"a")
            api.poll("c", {"t": 1})
            for i in range(1000):
                assert api.poll(f"consumer-{i}", {f"unknown-{i}": 0}) == []
            assert broker.topics() == ["t"]
            assert api.committed("c", "t") == 1
            assert [api.committed(f"consumer-{i}", f"unknown-{i}") for i in range(1000)] == [
                None
            ] * 1000
            assert api.committed("consumer-0", "t") is None

    def test_a_poll_commits_only_the_topics_that_have_a_log(self):
        for broker, api in self._apis():
            api.publish("t", b"a")
            assert [r.data for r in api.poll("c", {"u": 0, "t": 0})] == [b"a"]
            assert api.committed("c", "t") == 0
            assert api.committed("c", "u") is None
            with pytest.raises(OffsetOutOfRangeError, match="offset 1 beyond log length 0"):
                api.poll("c", {"u": 1})
            assert broker.topics() == ["t"]

    def test_commit_reads_an_unknown_topic_as_empty(self):
        for broker, api in self._apis():
            api.commit("c", "u", 0)
            with pytest.raises(OffsetOutOfRangeError, match="cannot commit 1 beyond log length 0"):
                api.commit("c", "u", 1)
            assert api.committed("c", "u") is None
            assert broker.topics() == []
            api.publish("u", b"a")
            api.commit("c", "u", 1)
            assert api.committed("c", "u") == 1

    def test_a_waiting_poll_sees_a_topic_created_while_it_waits(self):
        broker = Broker()
        publisher = threading.Timer(0.05, broker.publish, ("late", b"x"))
        publisher.start()
        try:
            batch = broker.poll("c", {"late": 0}, max_wait=2.0)
        finally:
            publisher.join()
        assert [r.data for r in batch] == [b"x"]
        assert broker.committed("c", "late") == 0

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

    @pytest.mark.parametrize("batch_size", [1, 2, 64])
    def test_records_that_are_not_events_are_counted_and_passed(self, batch_size):
        # too short to hold a seq, and long enough but with 2**63 where the seq
        # would be and no event envelope around it
        short, bogus = b"x" * 12, bytes(10) + U64.pack(2**63) + bytes(22)
        device, port, packet = EventKind.DEVICE, EventKind.PORT, EventKind.PACKET
        events = {
            device: TopologyDeviceEvent(dpid=1, up=True),
            port: TopologyPortEvent(dpid=1, port=1, up=True),
            packet: PacketExceptionEvent(
                dpid=1, in_port=1, frame=Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP)
            ),
        }
        # (kind, None) raises an event of that kind; (kind, raw) publishes raw on its topic
        steps = [(device, None), (port, None), (port, short), (packet, None), (device, None),
                 (packet, None), (packet, bogus), (port, None), (packet, None), (device, None),
                 (port, None)]
        topics = [TOPIC_FOR_KIND[k] for k in sorted(TOPO_KINDS)]
        for broker in _in_process_and_over_socket():
            core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
            for kind, raw in steps:
                if raw is None:
                    core.raise_event(events[kind])
                else:
                    broker.publish(TOPIC_FOR_KIND[kind], raw)
            consumer = BrokerConsumer(
                broker, "topo", topics, poll_interval=0.001, batch_size=batch_size
            )
            service = _Recorder()
            loop = _SubscriberLoop(consumer, service, "topo-loop")
            try:
                assert wait_until(lambda: len(service.seqs) == 9 and loop.errors == 2)
                time.sleep(0.05)  # room for anything that should not arrive
                assert service.seqs == list(range(1, 10))
                assert loop.errors == 2
                assert loop._thread.is_alive()
                # packet, device and port topics, each to its end
                assert [broker.committed("topo", t) for t in topics] == [4, 3, 4]
            finally:
                loop.stop()

    def test_publish_between_topic_reads_keeps_order(self):
        # the core raises a packet event, then a device event, right after the
        # consumer's first poll: the packet event must not fall behind
        topics = [TOPIC_FOR_KIND[k] for k in sorted(TOPO_KINDS)]
        for broker in _in_process_and_over_socket():
            core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
            consumer = BrokerConsumer(broker, "topo", topics, poll_interval=0.001)
            poll, raised = broker.poll, []

            def poll_then_raise(*args, **kwargs):
                batch = poll(*args, **kwargs)
                if not raised:
                    raised.append(core.raise_event(_arp_packet_in()))
                    raised.append(core.raise_event(TopologyDeviceEvent(dpid=1, up=True)))
                return batch

            broker.poll = poll_then_raise
            assert self._drain(consumer) == [1, 2]

    def test_forged_seq_does_not_reorder_the_records_behind_it(self):
        topics = [TOPIC_FOR_KIND[k] for k in sorted(TOPO_KINDS)]
        for broker in _in_process_and_over_socket():
            core = Core(CoreConfig(mode=DistMode.BROKER), broker=broker)
            first = core.raise_event(_arp_packet_in())
            broker.publish("events.packet", encode_event(replace(first, seq=10**9)))
            core.raise_event(_arp_packet_in())
            core.raise_event(TopologyDeviceEvent(dpid=1, up=True))
            consumer = BrokerConsumer(broker, "topo", topics, poll_interval=0.001)
            assert [seq for seq in self._drain(consumer) if seq != 10**9] == [1, 2, 3]


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
        batch = client.poll("c", {"t": 0}, max_records=10)
        assert [(r.offset, r.data) for r in batch] == [(0, b"hello"), (1, b"world")]
        client.commit("c", "t", 2)
        assert client.committed("c", "t") == 2
        assert client.committed("other", "t") is None
        assert broker.record_count("t") == 2

    def test_poll_error_crosses_socket(self, served):
        _, client = served
        with pytest.raises(OffsetOutOfRangeError):
            client.poll("c", {"t": 5})

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
        batch = client.poll("c", {"t": 0}, max_wait=2.0)
        assert [r.data for r in batch] == [b"late"]

    def test_blocking_poll_over_socket_wakes_on_any_topic(self, served):
        broker, client = served
        threading.Timer(0.05, broker.publish, ("b", b"late")).start()
        assert client.poll("c", {"a": 0, "b": 0}, max_wait=2.0) == [Record("b", 0, b"late")]
