"""Codec tests: layout oracles, round-trips, and malformed-input rejection."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genwire
from flowplane.wire import (
    Action,
    ActionKind,
    BadMagicError,
    BadTagError,
    BadVersionError,
    BROADCAST,
    EncodeError,
    FLOOD_PORT,
    FlowMod,
    FlowModOp,
    FlowRule,
    FlowRuleEvent,
    Frame,
    Hello,
    LengthMismatchError,
    MacAddr,
    Match,
    PacketExceptionEvent,
    PacketIn,
    PacketOut,
    PortStatus,
    RuleEventOp,
    TopologyDeviceEvent,
    TopologyLinkEvent,
    TopologyPortEvent,
    TruncatedError,
    decode_event,
    decode_sb,
    encode_event,
    encode_sb,
    ETHERTYPE_ARP,
    ETHERTYPE_DATA,
)


def _arp_frame(payload_len: int = 64) -> Frame:
    return Frame(
        dst=BROADCAST,
        src=MacAddr.host(1),
        ethertype=ETHERTYPE_ARP,
        payload=bytes(payload_len),
    )


class TestLayoutOracles:
    """Expected sizes/values computed from the documented field layout, not the codec."""

    def test_packet_exception_length(self):
        # Field-size table summed independently of the encoder.
        header = 4 + 1 + 1 + 4  # magic, version, tag, payload_len
        prefix = 8 + 8  # seq, ts_micros
        fixed = 8 + 2  # dpid, in_port
        payload_len = 64
        frame = 6 + 6 + 2 + 4 + payload_len
        expected = header + prefix + fixed + frame
        ev = PacketExceptionEvent(
            dpid=1,
            in_port=2,
            frame=Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP, bytes(payload_len)),
        )
        assert len(encode_event(ev)) == expected == 118

    def test_device_event_layout(self):
        ev = TopologyDeviceEvent(dpid=1, up=True, seq=0, ts_micros=0)
        data = encode_event(ev)
        assert data[:4] == b"EVNT"
        assert data[4] == 1  # version
        assert data[5] == 3  # device tag
        assert struct.unpack(">I", data[6:10])[0] == len(data) - 10
        assert decode_event(data) == ev

    def test_flowrule_event_carries_timeout_value(self):
        # hard timeout sits right after the action list; with an empty match
        # and no actions its offset is computable by hand.
        rule = FlowRule(rule_id=7, priority=1, match=Match(), actions=(), hard_timeout_s=10)
        ev = FlowRuleEvent(op=RuleEventOp.ADDED, dpid=3, rule=rule)
        data = encode_event(ev)
        offset = 10 + 16 + 1 + 8 + 8 + 2 + 1 + 1  # header|seq,ts|op|dpid|rule_id|prio|match|count
        assert struct.unpack(">I", data[offset : offset + 4])[0] == 10

    def test_packet_out_flood_sentinel_bytes(self):
        msg = PacketOut(dpid=9, out_port=FLOOD_PORT, frame=_arp_frame(0))
        data = encode_sb(msg)
        # header(10) | dpid u64 | out_port u16
        assert struct.unpack(">H", data[18:20])[0] == 0xFFFF

    def test_sb_magic_differs_from_event_magic(self):
        assert encode_sb(Hello(dpid=1, ports=(1,)))[:4] == b"SBMG"


_GOLDEN_FRAME = Frame(
    dst=MacAddr.host(2), src=MacAddr.host(1), ethertype=ETHERTYPE_DATA, payload=b"PING\x00\x01"
)
_GOLDEN_RULE = FlowRule(
    rule_id=0x0102030405060708,
    priority=300,
    match=Match(in_port=3, eth_src=MacAddr.host(1), eth_dst=MacAddr.host(2), ethertype=ETHERTYPE_DATA),
    actions=(
        Action(ActionKind.OUTPUT, 4),
        Action(ActionKind.FLOOD),
        Action(ActionKind.CONTROLLER),
        Action(ActionKind.DROP),
    ),
    hard_timeout_s=10,
    packet_count=5,
    byte_count=640,
)

# One vector per tag, fields separated by spaces; bytes.fromhex skips them.
GOLDEN_EVENTS = [
    (
        PacketExceptionEvent(dpid=5, in_port=2, frame=_GOLDEN_FRAME, seq=1, ts_micros=1700000000000001),
        "45564e54 01 01 00000032  0000000000000001 00060a24181e4001  0000000000000005 0002"
        "  020000000002 020000000001 0800 00000006 50494e470001",
    ),
    (
        TopologyLinkEvent(src_dpid=5, src_port=3, dst_dpid=6, dst_port=1, up=True, seq=2, ts_micros=3),
        "45564e54 01 02 00000025  0000000000000002 0000000000000003"
        "  0000000000000005 0003 0000000000000006 0001 01",
    ),
    (
        TopologyDeviceEvent(dpid=7, up=False, seq=3, ts_micros=4),
        "45564e54 01 03 00000019  0000000000000003 0000000000000004  0000000000000007 00",
    ),
    (
        TopologyPortEvent(dpid=7, port=4, up=True, seq=4, ts_micros=5),
        "45564e54 01 04 0000001b  0000000000000004 0000000000000005  0000000000000007 0004 01",
    ),
    (
        FlowRuleEvent(op=RuleEventOp.REMOVED, dpid=8, rule=_GOLDEN_RULE, seq=5, ts_micros=6),
        "45564e54 01 05 00000055  0000000000000005 0000000000000006  02 0000000000000008"
        "  0102030405060708 012c  0f 0003 020000000001 020000000002 0800"
        "  04 010004 02ffff 04fffe 030000  0000000a 0000000000000005 0000000000000280",
    ),
]

GOLDEN_SB = [
    (
        Hello(dpid=10, ports=(1, 2, 3)),
        "53424d47 01 01 00000010  000000000000000a 0003 0001 0002 0003",
    ),
    (
        PacketIn(dpid=5, in_port=2, frame=_GOLDEN_FRAME),
        "53424d47 01 02 00000022  0000000000000005 0002"
        "  020000000002 020000000001 0800 00000006 50494e470001",
    ),
    (
        PacketOut(
            dpid=5,
            out_port=FLOOD_PORT,
            frame=Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP, b"HOST"),
        ),
        "53424d47 01 03 00000020  0000000000000005 ffff"
        "  ffffffffffff 020000000001 0806 00000004 484f5354",
    ),
    (
        FlowMod(
            dpid=8,
            op=FlowModOp.MODIFY,
            rule=FlowRule(
                rule_id=9,
                priority=100,
                match=Match(eth_dst=MacAddr.host(7)),
                actions=(Action(ActionKind.OUTPUT, 2), Action(ActionKind.CONTROLLER)),
            ),
        ),
        "53424d47 01 04 00000035  0000000000000008 03  0000000000000009 0064"
        "  04 020000000007  02 010002 04fffe  00000000 0000000000000000 0000000000000000",
    ),
    (
        PortStatus(dpid=7, port=4, up=False),
        "53424d47 01 05 0000000b  0000000000000007 0004 00",
    ),
]


def _golden_id(case) -> str:
    return type(case[0]).__name__


class TestGoldenVectors:
    """Literal bytes of every event and southbound tag, pinned in both directions."""

    @pytest.mark.parametrize("case", GOLDEN_EVENTS, ids=_golden_id)
    def test_event_bytes(self, case):
        event, hexstr = case
        data = bytes.fromhex(hexstr)
        assert encode_event(event) == data
        assert decode_event(data) == event

    @pytest.mark.parametrize("case", GOLDEN_SB, ids=_golden_id)
    def test_sb_bytes(self, case):
        msg, hexstr = case
        data = bytes.fromhex(hexstr)
        assert encode_sb(msg) == data
        assert decode_sb(data) == msg

    def test_every_tag_has_a_vector(self):
        assert [bytes.fromhex(h)[5] for _, h in GOLDEN_EVENTS] == [1, 2, 3, 4, 5]
        assert [bytes.fromhex(h)[5] for _, h in GOLDEN_SB] == [1, 2, 3, 4, 5]


class TestRoundTrip:
    def test_device_event_roundtrip(self):
        ev = TopologyDeviceEvent(dpid=1, up=True, seq=0, ts_micros=0)
        assert decode_event(encode_event(ev)) == ev

    def test_hello_roundtrip(self):
        msg = Hello(dpid=7, ports=(1, 2, 3))
        assert decode_sb(encode_sb(msg)) == msg

    def test_flowmod_wildcard_controller_roundtrip(self):
        rule = FlowRule(
            rule_id=1,
            priority=1,
            match=Match(),
            actions=(Action(ActionKind.CONTROLLER),),
        )
        msg = FlowMod(dpid=2, op=FlowModOp.ADD, rule=rule)
        assert decode_sb(encode_sb(msg)) == msg

    def test_seeded_sweep(self):
        rng = random.Random(0xC0DEC)
        for _ in range(300):
            ev = genwire.rand_event(rng)
            assert decode_event(encode_event(ev)) == ev
            msg = genwire.rand_sb(rng)
            assert decode_sb(encode_sb(msg)) == msg

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_event_roundtrip_property(self, rng):
        ev = genwire.rand_event(rng)
        assert decode_event(encode_event(ev)) == ev

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_sb_roundtrip_property(self, rng):
        msg = genwire.rand_sb(rng)
        assert decode_sb(encode_sb(msg)) == msg

    def test_encode_deterministic(self):
        rng = random.Random(7)
        ev = genwire.rand_event(rng)
        clone = decode_event(encode_event(ev))
        assert encode_event(ev) == encode_event(ev) == encode_event(clone)


class TestDecodeErrors:
    def test_empty_input(self):
        with pytest.raises(TruncatedError):
            decode_event(b"")

    def test_bad_magic(self):
        data = bytearray(encode_event(TopologyDeviceEvent(dpid=1, up=True)))
        data[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            decode_event(bytes(data))

    def test_unknown_version(self):
        data = bytearray(encode_event(TopologyDeviceEvent(dpid=1, up=True)))
        data[4] = 2
        with pytest.raises(BadVersionError):
            decode_event(bytes(data))

    def test_unknown_tag(self):
        data = bytearray(encode_event(TopologyDeviceEvent(dpid=1, up=True)))
        data[5] = 99
        with pytest.raises(BadTagError):
            decode_event(bytes(data))

    def test_truncated_at_every_length(self):
        data = encode_event(
            PacketExceptionEvent(dpid=1, in_port=2, frame=_arp_frame(16))
        )
        for cut in range(len(data)):
            with pytest.raises((TruncatedError, LengthMismatchError)):
                decode_event(data[:cut])

    def test_trailing_bytes_rejected(self):
        data = encode_event(TopologyDeviceEvent(dpid=1, up=True))
        with pytest.raises(LengthMismatchError):
            decode_event(data + b"\x00")

    def test_payload_length_mismatch(self):
        data = bytearray(encode_event(TopologyDeviceEvent(dpid=1, up=True)))
        data[9] += 1  # declared payload one byte longer than present
        with pytest.raises(TruncatedError):
            decode_event(bytes(data))

    def test_sb_rejects_event_bytes(self):
        with pytest.raises(BadMagicError):
            decode_sb(encode_event(TopologyDeviceEvent(dpid=1, up=True)))


class TestEncodeErrors:
    def test_oversized_frame_payload(self):
        frame = Frame(BROADCAST, MacAddr.host(1), ETHERTYPE_ARP, bytes(1501))
        with pytest.raises(EncodeError):
            encode_event(PacketExceptionEvent(dpid=1, in_port=1, frame=frame))

    def test_out_of_range_port(self):
        with pytest.raises(EncodeError):
            encode_sb(PacketOut(dpid=1, out_port=0x10000, frame=_arp_frame(0)))


class TestDomainTypes:
    def test_mac_str_roundtrip(self):
        mac = MacAddr.host(5)
        assert MacAddr.from_str(str(mac)) == mac
        assert str(mac) == "02:00:00:00:00:05"

    def test_broadcast(self):
        assert BROADCAST.is_broadcast
        assert str(BROADCAST) == "ff:ff:ff:ff:ff:ff"
        assert not MacAddr.host(1).is_broadcast

    def test_mac_validation(self):
        with pytest.raises(ValueError):
            MacAddr(b"\x00" * 5)

    def test_output_action_requires_port(self):
        with pytest.raises(ValueError):
            Action(ActionKind.OUTPUT)
        with pytest.raises(ValueError):
            Action(ActionKind.FLOOD, port=3)

    def test_wildcard_match_matches_everything(self):
        rng = random.Random(3)
        m = Match()
        for _ in range(50):
            assert m.matches(genwire.rand_frame(rng), rng.randrange(1, 10))

    def test_match_fields(self):
        f = Frame(MacAddr.host(2), MacAddr.host(1), ETHERTYPE_ARP, b"")
        assert Match(eth_dst=MacAddr.host(2)).matches(f, 1)
        assert not Match(eth_dst=MacAddr.host(3)).matches(f, 1)
        assert Match(in_port=4).matches(f, 4)
        assert not Match(in_port=4).matches(f, 5)
        assert not Match(ethertype=0x0800).matches(f, 1)
