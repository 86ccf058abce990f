"""Harness tests: statistics against numpy oracles, small experiment runs, CSV."""

from __future__ import annotations

import csv
import random

import numpy as np
import pytest

from flowplane.bench import (
    BenchError,
    RtConfig,
    SignTest,
    StatsSummary,
    TpConfig,
    percentile,
    run_install_comparison,
    run_response_time,
    run_throughput,
)
from flowplane.core import DistMode


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        rng = random.Random(42)
        for _ in range(50):
            values = [rng.uniform(0, 1000) for _ in range(rng.randrange(1, 200))]
            q = rng.uniform(0, 100)
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-9
            )

    def test_edges(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummary:
    def test_matches_numpy(self):
        rng = random.Random(7)
        values = [rng.gauss(1000, 100) for _ in range(500)]
        s = StatsSummary.from_samples(values, lost=3)
        assert s.n == 500
        assert s.lost == 3
        assert s.mean == pytest.approx(float(np.mean(values)))
        assert s.median == pytest.approx(float(np.median(values)))
        assert s.p95 == pytest.approx(float(np.percentile(values, 95)))
        assert s.p99 == pytest.approx(float(np.percentile(values, 99)))
        assert s.stddev == pytest.approx(float(np.std(values, ddof=1)))
        assert s.min == min(values) and s.max == max(values)
        # ordering invariant
        assert s.min <= s.median <= s.p95 <= s.max

    def test_empty_and_single(self):
        empty = StatsSummary.from_samples([], lost=2)
        assert empty.n == 0 and empty.lost == 2
        single = StatsSummary.from_samples([10.0], lost=0)
        assert single.stddev == 0.0 and single.mean == 10.0


class TestSignTest:
    def test_all_greater(self):
        t = SignTest.compare([1, 1, 1, 1], [2, 2, 2, 2])
        assert t.pairs == 4 and t.b_greater == 4
        assert t.z == pytest.approx(4 / 2)  # (2*4-4)/sqrt(4)

    def test_even_split_is_zero(self):
        t = SignTest.compare([1, 2, 3, 4], [2, 1, 4, 3])
        assert t.z == 0.0

    def test_ties_dropped(self):
        t = SignTest.compare([1, 2, 3], [1, 5, 6])
        assert t.pairs == 2 and t.b_greater == 2

    def test_known_binomial_z(self):
        # 450 of 500 wins: z = (900-500)/sqrt(500)
        a = [0.0] * 500
        b = [1.0] * 450 + [-1.0] * 50
        t = SignTest.compare(a, b)
        assert t.z == pytest.approx(400 / np.sqrt(500))


class TestRtSmall:
    def test_two_mode_run_produces_files_and_counts(self, tmp_path):
        cfg = RtConfig(
            topology="linear:3",
            modes=(DistMode.INTERNAL, DistMode.P2P),
            count=5,
            warmup=2,
            ping_interval=0.001,
            discovery_interval=0,
        )
        result = run_response_time(cfg, out_dir=tmp_path)
        assert result.valid
        assert set(result.per_mode) == {DistMode.INTERNAL, DistMode.P2P}
        for res in result.per_mode.values():
            assert res.summary.n == 5
            assert res.packet_events == 5 * 2 * 3  # pings x directions x switches
        assert len(result.comparisons) == 1

        with (tmp_path / "rt-raw.csv").open() as fh:
            lines = [l for l in fh if not l.startswith("#")]
        header = lines[0].strip().split(",")
        assert header == ["mode", "run_index", "rtt_micros", "lost"]
        assert len(lines) == 1 + 2 * 5
        with (tmp_path / "rt-summary.csv").open() as fh:
            comments = [l for l in fh if l.startswith("#")]
        assert "ping_interval_ms=1" in comments[0]
        assert "payload_bytes=56" in comments[0]
        assert (tmp_path / "events-rt-internal.csv").exists()
        assert (tmp_path / "events-rt-p2p.csv").exists()

    def test_rerun_has_identical_row_counts(self, tmp_path):
        cfg = RtConfig(
            topology="linear:2",
            modes=(DistMode.INTERNAL,),
            count=4,
            warmup=1,
            ping_interval=0.001,
            discovery_interval=0,
        )
        counts = []
        for sub in ("a", "b"):
            run_response_time(cfg, out_dir=tmp_path / sub)
            with (tmp_path / sub / "rt-raw.csv").open() as fh:
                counts.append(sum(1 for _ in fh))
        assert counts[0] == counts[1]

    def test_single_switch_internal_is_the_floor(self):
        # fewer hops means fewer controller crossings per ping; medians keep
        # scheduler outliers from deciding the comparison
        base = dict(
            modes=(DistMode.INTERNAL,), count=60, warmup=5,
            ping_interval=0.001, discovery_interval=0,
        )
        short = run_response_time(RtConfig(topology="linear:1", **base))
        longer = run_response_time(RtConfig(topology="linear:3", **base))
        assert (
            short.per_mode[DistMode.INTERNAL].summary.median
            < longer.per_mode[DistMode.INTERNAL].summary.median
        )

    def test_zero_count_rejected(self):
        with pytest.raises(BenchError):
            run_response_time(RtConfig(count=0))

    def test_no_modes_rejected(self):
        with pytest.raises(BenchError):
            run_response_time(RtConfig(modes=()))

    def test_sub_100us_poll_flagged(self, tmp_path):
        cfg = RtConfig(
            topology="linear:2",
            modes=(DistMode.BROKER,),
            count=2,
            warmup=0,
            ping_interval=0.001,
            broker_poll_interval=50e-6,
            discovery_interval=0,
        )
        result = run_response_time(cfg)
        assert any("100us" in n or "100 us" in n for n in result.notes)


class TestTpSmall:
    def test_single_mode_run(self, tmp_path):
        cfg = TpConfig(
            topology="linear:2",
            modes=(DistMode.INTERNAL,),
            conns=(1, 2),
            duration=1.0,
            hard_timeout_s=10,
            discovery_interval=0,
        )
        result = run_throughput(cfg, out_dir=tmp_path)
        assert result.valid
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.aggregate_bps > 0
            assert len(cell.conns) == cell.n_conns
        # duration <= 2x timeout should have produced a warning note
        assert any("churn" in n for n in result.notes)
        with (tmp_path / "tp-summary.csv").open() as fh:
            lines = [l for l in fh if not l.startswith("#")]
        assert lines[0].strip().split(",")[:4] == ["mode", "install", "n_conns", "aggregate_bps"]
        assert (tmp_path / "tp-raw.csv").exists()
        assert (tmp_path / "events-tp-internal-c1.csv").exists()

    def test_bad_configs_rejected(self):
        with pytest.raises(BenchError):
            run_throughput(TpConfig(duration=0))
        with pytest.raises(BenchError):
            run_throughput(TpConfig(conns=()))
        with pytest.raises(BenchError):
            run_throughput(TpConfig(conns=(0,)))
        with pytest.raises(BenchError):
            run_throughput(TpConfig(install="telepathy"))

    def test_install_comparison_smoke(self, tmp_path):
        cfg = TpConfig(
            topology="linear:2",
            modes=(DistMode.INTERNAL,),
            conns=(1,),
            duration=2.0,
            hard_timeout_s=0,  # permanent rules: one install per direction
            discovery_interval=0,
        )
        result = run_install_comparison(cfg, out_dir=tmp_path)
        assert result.valid
        (cell,) = result.cells
        assert cell.direct_bps > 0 and cell.rest_bps > 0
        assert cell.windows_per_channel >= 2
        with (tmp_path / "tp-install-compare.csv").open() as fh:
            lines = [l for l in fh if not l.startswith("#")]
        assert lines[0].strip().split(",") == [
            "mode", "n_conns", "direct_bps", "rest_bps", "rest_slowdown"
        ]

    def test_modes_take_turns_in_abba_windows(self, monkeypatch):
        from flowplane.fabric import SimHost

        streamed = []
        stream = SimHost.stream

        def recording_stream(host, dst, duration, **kwargs):
            streamed.append((id(host), duration))
            return stream(host, dst, duration, **kwargs)

        monkeypatch.setattr(SimHost, "stream", recording_stream)
        cfg = TpConfig(
            topology="linear:2",
            modes=(DistMode.INTERNAL, DistMode.P2P),
            conns=(2,),
            duration=2.0,
            hard_timeout_s=10,
            discovery_interval=0,
        )
        result = run_throughput(cfg)
        assert [c.mode for c in result.cells] == [DistMode.INTERNAL, DistMode.P2P]
        # one stack per mode, streaming in 1 s windows in the order A B B A
        hosts = [h for h, _ in streamed]
        assert len(hosts) == 4 and hosts[0] == hosts[3] != hosts[1] == hosts[2]
        assert all(d == pytest.approx(1.0) for _, d in streamed)
        for cell in result.cells:
            assert cell.valid
            assert len(cell.conns) == 2
            assert all(c.duration_s == pytest.approx(2.0) for c in cell.conns)
            assert cell.bytes_acked == sum(c.segments_acked for c in cell.conns) * 1464

    def test_install_channels_take_turns_in_abba_windows(self, monkeypatch):
        from flowplane.services import ForwardingService

        channels = []
        set_channel = ForwardingService.set_install_channel

        def recording_set(fwd, channel, rest=None):
            channels.append(channel)
            return set_channel(fwd, channel, rest=rest)

        monkeypatch.setattr(ForwardingService, "set_install_channel", recording_set)
        cfg = TpConfig(
            topology="linear:2",
            modes=(DistMode.INTERNAL,),
            conns=(1,),
            duration=2.0,
            hard_timeout_s=0,
            discovery_interval=0,
        )
        run_install_comparison(cfg)
        assert channels == ["direct", "rest", "rest", "direct"]

    def test_expiry_churn_counted(self):
        cfg = TpConfig(
            topology="linear:2",
            modes=(DistMode.INTERNAL,),
            conns=(1,),
            duration=2.5,
            hard_timeout_s=1,
            discovery_interval=0,
        )
        result = run_throughput(cfg)
        (cell,) = result.cells
        # at least one full expiry/reinstall cycle per direction
        assert cell.removed_events >= 2
        assert cell.added_events > cell.removed_events - 4


class TestEventLogCsv:
    def test_event_rows_cover_all_kinds(self, tmp_path):
        from flowplane.bench import write_event_log
        from flowplane.wire import (
            Action,
            ActionKind,
            FlowRule,
            FlowRuleEvent,
            Frame,
            MacAddr,
            Match,
            PacketExceptionEvent,
            RuleEventOp,
            TopologyDeviceEvent,
            TopologyLinkEvent,
            TopologyPortEvent,
        )

        events = [
            PacketExceptionEvent(
                dpid=1,
                in_port=2,
                frame=Frame(MacAddr.host(2), MacAddr.host(1), 0x0800, b"x"),
                seq=1,
            ),
            TopologyLinkEvent(src_dpid=1, src_port=1, dst_dpid=2, dst_port=1, up=True, seq=2),
            TopologyDeviceEvent(dpid=3, up=False, seq=3),
            TopologyPortEvent(dpid=3, port=9, up=True, seq=4),
            FlowRuleEvent(
                op=RuleEventOp.REMOVED,
                dpid=4,
                rule=FlowRule(5, 1, Match(), (Action(ActionKind.DROP),), 10),
                seq=5,
            ),
        ]
        path = tmp_path / "events.csv"
        write_event_log(events, path, ["test"])
        with path.open() as fh:
            rows = list(csv.reader(l for l in fh if not l.startswith("#")))
        assert rows[0] == ["seq", "ts_micros", "kind", "dpid", "detail"]
        assert [r[2] for r in rows[1:]] == ["PACKET", "LINK", "DEVICE", "PORT", "FLOWRULE"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
