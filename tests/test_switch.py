"""Flow-table tests, including the brute-force match-selection oracle."""

from __future__ import annotations

import random

import pytest

from flowplane.switch import (
    RuleExpiry,
    SwitchState,
    ToController,
    TxFrame,
    apply_packet_out,
    frame_len,
    switch_rx,
)
from flowplane.wire import (
    Action,
    ActionKind,
    FLOOD_PORT,
    FlowRule,
    Frame,
    MacAddr,
    Match,
    ETHERTYPE_DATA,
)

H1 = MacAddr.host(1)
H2 = MacAddr.host(2)
H3 = MacAddr.host(3)


def data_frame(dst=H2, src=H1, payload=b"x" * 10) -> Frame:
    return Frame(dst=dst, src=src, ethertype=ETHERTYPE_DATA, payload=payload)


def rule(rule_id, priority, match, actions, timeout=0) -> FlowRule:
    return FlowRule(
        rule_id=rule_id,
        priority=priority,
        match=match,
        actions=tuple(actions),
        hard_timeout_s=timeout,
    )


class TestRx:
    def test_empty_table_punts_to_controller(self):
        st = SwitchState(1, range(1, 4))
        frame = data_frame()
        effects = switch_rx(st, 1, frame, now=0.0)
        assert effects == [ToController(1, frame)]

    def test_priority_selection(self):
        st = SwitchState(1, range(1, 4))
        st.install(rule(1, 10, Match(eth_dst=H2), [Action(ActionKind.OUTPUT, 2)]), now=0.0)
        st.install(rule(2, 1, Match(), [Action(ActionKind.CONTROLLER)]), now=0.0)
        effects = switch_rx(st, 1, data_frame(dst=H2), now=1.0)
        assert effects == [TxFrame(2, data_frame(dst=H2))]

    def test_equal_priority_lowest_rule_id_wins(self):
        st = SwitchState(1, range(1, 4))
        st.install(rule(8, 5, Match(), [Action(ActionKind.OUTPUT, 2)]), now=0.0)
        st.install(rule(3, 5, Match(), [Action(ActionKind.OUTPUT, 3)]), now=0.0)
        effects = switch_rx(st, 1, data_frame(), now=1.0)
        assert effects == [TxFrame(3, data_frame())]

    def test_counters_increment(self):
        st = SwitchState(1, range(1, 3))
        r = st.install(rule(1, 5, Match(), [Action(ActionKind.OUTPUT, 2)]), now=0.0)
        frame = data_frame(payload=b"q" * 100)
        switch_rx(st, 1, frame, now=1.0)
        switch_rx(st, 1, frame, now=2.0)
        assert r.packet_count == 2
        assert r.byte_count == 2 * frame_len(frame) == 2 * 114

    def test_flood_excludes_ingress(self):
        st = SwitchState(1, range(1, 5))
        st.install(rule(1, 5, Match(), [Action(ActionKind.FLOOD)]), now=0.0)
        effects = switch_rx(st, 2, data_frame(), now=1.0)
        assert {e.out_port for e in effects} == {1, 3, 4}

    def test_flood_skips_down_ports(self):
        st = SwitchState(1, range(1, 5))
        st.set_port(3, False)
        st.install(rule(1, 5, Match(), [Action(ActionKind.FLOOD)]), now=0.0)
        effects = switch_rx(st, 2, data_frame(), now=1.0)
        assert {e.out_port for e in effects} == {1, 4}

    def test_drop_rule_emits_nothing(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.DROP)]), now=0.0)
        assert switch_rx(st, 1, data_frame(), now=1.0) == []

    def test_stale_output_port_degrades_to_drop(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.OUTPUT, 9)]), now=0.0)
        assert switch_rx(st, 1, data_frame(), now=1.0) == []

    def test_frame_on_down_port_dropped(self):
        st = SwitchState(1, range(1, 3))
        st.set_port(1, False)
        assert switch_rx(st, 1, data_frame(), now=0.0) == []

    def test_unknown_in_port_raises(self):
        st = SwitchState(1, range(1, 3))
        with pytest.raises(KeyError):
            switch_rx(st, 7, data_frame(), now=0.0)


class TestExpiry:
    def test_strict_threshold(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.DROP)], timeout=10), now=0.0)
        assert st.expire(now=9.99) == []
        assert len(st) == 1
        removed = st.expire(now=10.0)
        assert [r.rule_id for r in removed] == [1]
        assert len(st) == 0

    def test_zero_timeout_is_permanent(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.DROP)], timeout=0), now=0.0)
        assert st.expire(now=1e9) == []

    def test_rx_reports_expiry_then_misses(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.OUTPUT, 2)], timeout=10), now=0.0)
        frame = data_frame()
        effects = switch_rx(st, 1, frame, now=10.0)
        assert effects[0] == RuleExpiry((effects[0].rules[0],))
        assert effects[0].rules[0].rule_id == 1
        assert effects[1] == ToController(1, frame)


class TestTableOps:
    def test_remove(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.DROP)]), now=0.0)
        assert st.remove(1).rule_id == 1
        assert st.remove(1) is None

    def test_modify_keeps_counters(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.OUTPUT, 2)]), now=0.0)
        switch_rx(st, 1, data_frame(), now=1.0)
        updated = rule(1, 7, Match(eth_dst=H2), [Action(ActionKind.DROP)])
        st.modify(updated, now=2.0)
        (current,) = st.rules()
        assert current.priority == 7
        assert current.packet_count == 1

    def test_modify_unknown_returns_none(self):
        st = SwitchState(1, range(1, 3))
        assert st.modify(rule(9, 5, Match(), []), now=0.0) is None

    def test_rules_snapshot_is_copy(self):
        st = SwitchState(1, range(1, 3))
        st.install(rule(1, 5, Match(), [Action(ActionKind.DROP)]), now=0.0)
        snap = st.rules()[0]
        snap.packet_count = 99
        assert st.rules()[0].packet_count == 0


class TestPacketOut:
    def test_flood_sentinel_uses_all_up_ports(self):
        st = SwitchState(3, range(1, 5))
        effects = apply_packet_out(st, FLOOD_PORT, data_frame())
        assert {e.out_port for e in effects} == {1, 2, 3, 4}

    def test_directed_output(self):
        st = SwitchState(3, range(1, 5))
        assert apply_packet_out(st, 2, data_frame()) == [TxFrame(2, data_frame())]

    def test_no_counter_side_effects(self):
        st = SwitchState(3, range(1, 5))
        r = st.install(rule(1, 5, Match(), [Action(ActionKind.OUTPUT, 2)]), now=0.0)
        apply_packet_out(st, 2, data_frame())
        assert r.packet_count == 0


MAC_POOL = [MacAddr.host(i) for i in range(1, 7)] + [MacAddr(b"\xff" * 6)]
ETHERTYPES = [0x0800, 0x0806, 0x88CC]


def random_match(rng: random.Random) -> Match:
    return Match(
        in_port=rng.randrange(1, 5) if rng.random() < 0.4 else None,
        eth_src=rng.choice(MAC_POOL) if rng.random() < 0.4 else None,
        eth_dst=rng.choice(MAC_POOL) if rng.random() < 0.4 else None,
        ethertype=rng.choice(ETHERTYPES) if rng.random() < 0.4 else None,
    )


def oracle_select(table, frame, in_port, now):
    """Brute-force: scan every live rule, field-compare by hand, then order."""
    candidates = []
    for r in table:
        if r.hard_timeout_s > 0 and now - r.installed_at >= r.hard_timeout_s:
            continue
        m = r.match
        if m.in_port is not None and m.in_port != in_port:
            continue
        if m.eth_src is not None and m.eth_src.octets != frame.src.octets:
            continue
        if m.eth_dst is not None and m.eth_dst.octets != frame.dst.octets:
            continue
        if m.ethertype is not None and m.ethertype != frame.ethertype:
            continue
        candidates.append(r)
    if not candidates:
        return None
    return min(candidates, key=lambda r: (-r.priority, r.rule_id))


def test_match_oracle_equivalence():
    rng = random.Random(0x5EED)
    for _ in range(1000):
        st = SwitchState(1, range(1, 5))
        n_rules = rng.randrange(0, 65)
        ids = rng.sample(range(1, 10_000), n_rules)
        for rid in ids:
            st.install(
                FlowRule(
                    rule_id=rid,
                    priority=rng.randrange(0, 8),
                    match=random_match(rng),
                    actions=(Action(ActionKind.DROP),),
                    hard_timeout_s=rng.choice((0, 0, 5)),
                ),
                now=rng.uniform(0, 4),
            )
        frame = Frame(
            dst=rng.choice(MAC_POOL),
            src=rng.choice(MAC_POOL),
            ethertype=rng.choice(ETHERTYPES),
            payload=b"",
        )
        in_port = rng.randrange(1, 5)
        now = rng.uniform(0, 10)
        expected = oracle_select(st.rules(), frame, in_port, now)
        got = st.lookup(frame, in_port, now)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.rule_id == expected.rule_id


class TestNextDeadline:
    """Expiry keeps the table's next deadline, so a frame with nothing due
    costs one comparison instead of a walk over the table."""

    def _count_expired_calls(self, monkeypatch) -> list[int]:
        calls = [0]
        expired = FlowRule.expired

        def counting(self, now):
            calls[0] += 1
            return expired(self, now)

        monkeypatch.setattr(FlowRule, "expired", counting)
        return calls

    def test_frame_with_nothing_due_checks_no_rule(self, monkeypatch):
        st = SwitchState(1, range(1, 3))
        for rid in range(1, 101):
            st.install(rule(rid, 5, Match(eth_dst=MacAddr.host(100 + rid)),
                            [Action(ActionKind.OUTPUT, 2)], timeout=10), now=0.0)
        calls = self._count_expired_calls(monkeypatch)
        effects = switch_rx(st, 1, data_frame(), now=9.0)
        assert effects == [ToController(1, data_frame())]
        assert calls[0] == 0
        assert st.expire(now=9.999) == []
        assert calls[0] == 0 and len(st) == 100

    def test_due_rule_is_found_among_many(self):
        st = SwitchState(1, range(1, 3))
        for rid in range(1, 101):
            st.install(rule(rid, 5, Match(), [Action(ActionKind.DROP)], timeout=0), now=0.0)
        st.install(rule(200, 5, Match(), [Action(ActionKind.DROP)], timeout=3), now=1.0)
        st.install(rule(201, 5, Match(), [Action(ActionKind.DROP)], timeout=7), now=1.0)
        assert st.expire(now=3.9) == []
        assert [r.rule_id for r in st.expire(now=4.0)] == [200]
        assert st.expire(now=7.9) == []
        assert [r.rule_id for r in st.expire(now=8.0)] == [201]
        assert st.expire(now=1e9) == [] and len(st) == 100

    def test_random_table_changes_expire_as_a_full_walk_does(self):
        rng = random.Random(0xDEAD)
        for trial in range(200):
            st = SwitchState(1, range(1, 3))
            now = 0.0
            for step in range(40):
                now += rng.uniform(0, 1.5)
                op = rng.random()
                if op < 0.5:
                    st.install(rule(1000 * trial + step, rng.randrange(4), Match(),
                                    [Action(ActionKind.DROP)], timeout=rng.choice((0, 1, 2, 5))),
                               now=now)
                elif op < 0.65 and len(st):
                    st.remove(rng.choice(st.rules()).rule_id)
                elif op < 0.8 and len(st):
                    old = rng.choice(st.rules())
                    st.modify(rule(old.rule_id, old.priority, Match(), [Action(ActionKind.DROP)],
                                   timeout=rng.choice((0, 1, 3))), now=now)
                # the brute-force answer, from snapshot copies of the table
                due = sorted(r.rule_id for r in st.rules() if r.expired(now))
                assert sorted(r.rule_id for r in st.expire(now)) == due
                assert all(not r.expired(now) for r in st.rules())


class TestDirectedPacketOut:
    def test_directed_output_builds_no_action(self, monkeypatch):
        import flowplane.switch as switch_mod

        def no_action(*args, **kwargs):
            raise AssertionError("an Action was built for a packet-out")

        monkeypatch.setattr(switch_mod, "Action", no_action)
        st = SwitchState(3, range(1, 5))
        assert apply_packet_out(st, 2, data_frame()) == [TxFrame(2, data_frame())]

    def test_directed_output_to_down_port_drops(self, caplog):
        st = SwitchState(3, range(1, 5))
        st.set_port(2, False)
        assert apply_packet_out(st, 2, data_frame()) == []
        assert apply_packet_out(st, 9, data_frame()) == []
        assert "OUTPUT to missing/down port 2 dropped" in caplog.text
