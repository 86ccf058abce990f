"""Point-to-point backend tests: filtering, fan-out, bounds, socket streams."""

from __future__ import annotations

import threading

import pytest

from flowplane.p2p import (
    P2pDistributor,
    P2pError,
    P2pStreamClient,
    P2pStreamServer,
    bitmap_to_kinds,
    kinds_to_bitmap,
)
from flowplane.wire import (
    EventKind,
    Frame,
    MacAddr,
    PacketExceptionEvent,
    TopologyLinkEvent,
    decode_event,
    encode_event,
    ETHERTYPE_DATA,
)


def packet_event(seq=1) -> PacketExceptionEvent:
    return PacketExceptionEvent(
        dpid=1,
        in_port=2,
        frame=Frame(MacAddr.host(2), MacAddr.host(1), ETHERTYPE_DATA, b"x"),
        seq=seq,
        ts_micros=seq * 10,
    )


def link_event(seq=1) -> TopologyLinkEvent:
    return TopologyLinkEvent(
        src_dpid=1, src_port=1, dst_dpid=2, dst_port=1, up=True, seq=seq, ts_micros=0
    )


class TestSubscribe:
    def test_kind_filter_excludes_other_kinds(self):
        dist = P2pDistributor()
        sub = dist.subscribe({EventKind.PACKET})
        assert dist.push(link_event()) == 0
        assert sub.get(timeout=0.01) is None

    def test_matching_kind_delivers_exactly_one(self):
        dist = P2pDistributor()
        sub = dist.subscribe({EventKind.PACKET})
        assert dist.push(packet_event()) == 1
        assert decode_event(sub.get(timeout=1)) == packet_event()
        assert sub.get(timeout=0.01) is None

    def test_each_subscriber_gets_its_own_copy(self):
        dist = P2pDistributor()
        a = dist.subscribe({EventKind.PACKET})
        b = dist.subscribe({EventKind.PACKET})
        assert dist.push(packet_event()) == 2
        got_a = a.get(timeout=1)
        got_b = b.get(timeout=1)
        assert got_a == got_b == encode_event(packet_event())

    def test_empty_kind_set_rejected(self):
        dist = P2pDistributor()
        with pytest.raises(P2pError):
            dist.subscribe(set())


class TestPush:
    def test_zero_subscribers_discards(self):
        dist = P2pDistributor()
        assert dist.push(packet_event()) == 0
        # no retention: a later subscriber sees nothing
        sub = dist.subscribe({EventKind.PACKET})
        assert sub.get(timeout=0.01) is None

    def test_three_matching_subscribers(self):
        dist = P2pDistributor()
        for _ in range(3):
            dist.subscribe({EventKind.PACKET, EventKind.LINK})
        assert dist.push(packet_event()) == 3

    def test_bounded_queue_drops_oldest(self):
        dist = P2pDistributor(queue_bound=2)
        sub = dist.subscribe({EventKind.PACKET})
        for seq in (1, 2, 3):
            dist.push(packet_event(seq))
        assert sub.dropped == 1
        seqs = [decode_event(sub.get(timeout=1)).seq for _ in range(2)]
        assert seqs == [2, 3]  # oldest (1) was dropped

    def test_per_subscription_seq_order_under_concurrency(self):
        dist = P2pDistributor()
        sub = dist.subscribe({EventKind.PACKET})
        lock = threading.Lock()
        counter = iter(range(1, 4001))

        def produce():
            for _ in range(1000):
                with lock:
                    seq = next(counter)
                    dist.push(packet_event(seq))

        threads = [threading.Thread(target=produce) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = []
        while True:
            data = sub.get(timeout=0.05)
            if data is None:
                break
            seqs.append(decode_event(data).seq)
        assert len(seqs) == 4000
        assert seqs == sorted(seqs)
        assert sub.dropped == 0


class TestUnsubscribe:
    def test_unsubscribed_stream_skipped(self):
        dist = P2pDistributor()
        sub = dist.subscribe({EventKind.PACKET})
        dist.unsubscribe(sub.sub_id)
        assert dist.push(packet_event()) == 0
        assert sub.closed

    def test_double_unsubscribe_errors(self):
        dist = P2pDistributor()
        sub = dist.subscribe({EventKind.PACKET})
        dist.unsubscribe(sub.sub_id)
        with pytest.raises(P2pError):
            dist.unsubscribe(sub.sub_id)

    def test_resubscribe_gets_fresh_id(self):
        dist = P2pDistributor()
        first = dist.subscribe({EventKind.PACKET})
        dist.unsubscribe(first.sub_id)
        second = dist.subscribe({EventKind.PACKET})
        assert second.sub_id != first.sub_id
        assert dist.subscription_count() == 1


class TestBitmap:
    def test_roundtrip_all_kinds(self):
        kinds = frozenset(EventKind)
        assert bitmap_to_kinds(kinds_to_bitmap(kinds)) == kinds

    def test_single_kind(self):
        assert bitmap_to_kinds(kinds_to_bitmap({EventKind.PACKET})) == {EventKind.PACKET}

    def test_unknown_bits_rejected(self):
        with pytest.raises(P2pError):
            bitmap_to_kinds(0x80)


class TestSocketStream:
    @pytest.fixture
    def served(self):
        dist = P2pDistributor()
        server = P2pStreamServer(dist).start()
        clients = []

        def connect(kinds):
            c = P2pStreamClient(server.address, kinds)
            clients.append(c)
            return c

        yield dist, connect
        for c in clients:
            c.close()
        server.stop()

    def _wait_subs(self, dist, n, timeout=2.0):
        import time

        deadline = time.monotonic() + timeout
        while dist.subscription_count() < n and time.monotonic() < deadline:
            time.sleep(0.005)
        assert dist.subscription_count() >= n

    def test_stream_receives_matching_events(self, served):
        dist, connect = served
        client = connect({EventKind.PACKET})
        self._wait_subs(dist, 1)
        dist.push(packet_event(7))
        data = client.get(timeout=2)
        assert decode_event(data) == packet_event(7)

    def test_stream_filters_kinds(self, served):
        dist, connect = served
        client = connect({EventKind.LINK})
        self._wait_subs(dist, 1)
        dist.push(packet_event())
        dist.push(link_event(5))
        assert decode_event(client.get(timeout=2)).seq == 5

    def test_burst_arrives_in_seq_order(self, served):
        dist, connect = served
        client = connect({EventKind.PACKET})
        self._wait_subs(dist, 1)
        for seq in range(1, 2001):
            dist.push(packet_event(seq))
        seqs = [decode_event(client.get(timeout=2)).seq for _ in range(2000)]
        assert seqs == list(range(1, 2001))
        assert client.get(timeout=0.05) is None

    def test_socket_timeout_is_set_only_when_it_changes(self, served):
        dist, connect = served
        client = connect({EventKind.PACKET})
        self._wait_subs(dist, 1)
        set_to = []
        sock = client._sock

        class CountingSocket:
            def settimeout(self, value):
                set_to.append(value)
                sock.settimeout(value)

            def __getattr__(self, name):
                return getattr(sock, name)

        client._sock = CountingSocket()
        for seq in range(1, 6):
            dist.push(packet_event(seq))
        assert [decode_event(client.get(timeout=2)).seq for _ in range(5)] == [1, 2, 3, 4, 5]
        assert client.get(timeout=0.01) is None
        assert client.get(timeout=0.01) is None
        dist.push(packet_event(6))
        assert decode_event(client.get(timeout=2)).seq == 6
        assert set_to == [2, 0.01, 2]

    def test_client_close_unsubscribes(self, served):
        dist, connect = served
        client = connect({EventKind.PACKET})
        self._wait_subs(dist, 1)
        client.close()
        import time

        deadline = time.monotonic() + 2
        while dist.subscription_count() > 0 and time.monotonic() < deadline:
            dist.push(packet_event())  # wake the writer so it notices the close
            time.sleep(0.01)
        assert dist.subscription_count() == 0
