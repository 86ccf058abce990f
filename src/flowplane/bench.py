"""Experiment harness: response-time and throughput runs across event paths.

Response time: ping between the two end hosts of a chain with empty flow
tables, so every switch on the path punts every packet to the controller and
the distribution backend is exercised once per switch per direction. The
interesting output is the ordering INTERNAL < P2P < BROKER and the gaps, not
absolute milliseconds (those belong to whatever clock and scheduler the run
sits on). Each gap gets a paired sign test over per-ping differences; the
harness flags rather than asserts, and notes when a sub-100 microsecond
broker poll interval makes the ordering claim unreliable.

Throughput: stop-and-wait byte streams with reactive forwarding installing
rules (hard timeout included, so rules churn mid-run), comparing aggregate
goodput across modes, connection counts, and flow-install channels.

Every run keeps the full core event log and can write it out next to the
result CSVs, so post-hoc checks (events per ping, expiry counts) work from
recorded data.
"""

from __future__ import annotations

import csv
import logging
import math
import statistics
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .core import DistMode
from .fabric import ConnReport
from .stack import Stack, StackConfig
from .topology import parse_topology
from .wire import (
    Event,
    FlowRuleEvent,
    PacketExceptionEvent,
    RuleEventOp,
    TopologyDeviceEvent,
    TopologyLinkEvent,
    TopologyPortEvent,
    event_kind,
)

log = logging.getLogger(__name__)

MODE_ORDER = (DistMode.INTERNAL, DistMode.P2P, DistMode.BROKER)
# a response-time run is valid with at most this share of its pings lost, and
# a mode-ordering gap counts only at this sign-test z or above
MAX_LOST_FRACTION = 0.01
SIGNIFICANCE_Z = 3.0


class BenchError(Exception):
    pass


# Measurement runs pin a short GIL switch interval: with the fabric thread,
# subscriber loops and stream connections all busy, the default 5 ms quantum
# lets flows convoy behind one another, which adds variance without
# representing anything about the system under test. Applied only for the
# duration of an experiment.
MEASUREMENT_SWITCH_INTERVAL = 0.001


@contextmanager
def _measurement_scheduling():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(MEASUREMENT_SWITCH_INTERVAL)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _stack_config(cfg: RtConfig | TpConfig, mode: DistMode, **install) -> StackConfig:
    """The stack an experiment measures; ``install`` sets its flow-install fields."""
    return StackConfig(
        mode=mode,
        discovery_interval=cfg.discovery_interval,
        broker_poll_interval=cfg.broker_poll_interval,
        broker_batch=cfg.broker_batch,
        link_latency=cfg.link_latency,
        inbox_limit=256,
        **install,
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of unsorted values, q in [0, 100]."""
    if not values:
        raise ValueError("no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} out of range")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


@dataclass
class StatsSummary:
    """Dispersion summary of RTT samples, all values in microseconds."""

    n: int
    lost: int
    mean: float
    median: float
    p95: float
    p99: float
    min: float
    max: float
    stddev: float

    @classmethod
    def from_samples(cls, rtts_us: list[float], lost: int) -> "StatsSummary":
        if not rtts_us:
            return cls(n=0, lost=lost, mean=0.0, median=0.0, p95=0.0, p99=0.0,
                       min=0.0, max=0.0, stddev=0.0)
        return cls(
            n=len(rtts_us),
            lost=lost,
            mean=statistics.fmean(rtts_us),
            median=statistics.median(rtts_us),
            p95=percentile(rtts_us, 95),
            p99=percentile(rtts_us, 99),
            min=min(rtts_us),
            max=max(rtts_us),
            stddev=statistics.stdev(rtts_us) if len(rtts_us) > 1 else 0.0,
        )


@dataclass
class SignTest:
    """Paired comparison: how often b exceeded a, and how surprising that is."""

    pairs: int
    b_greater: int
    z: float

    @classmethod
    def compare(cls, a: list[float], b: list[float]) -> "SignTest":
        paired = [(x, y) for x, y in zip(a, b) if x != y]
        m = len(paired)
        wins = sum(1 for x, y in paired if y > x)
        z = (2 * wins - m) / math.sqrt(m) if m else 0.0
        return cls(pairs=m, b_greater=wins, z=z)


# ---------------------------------------------------------------------------
# Event-log plumbing
# ---------------------------------------------------------------------------

def event_row(event: Event) -> tuple:
    kind = event_kind(event).name
    if isinstance(event, PacketExceptionEvent):
        detail = (
            f"in_port={event.in_port} ethertype=0x{event.frame.ethertype:04x} "
            f"src={event.frame.src} dst={event.frame.dst} plen={len(event.frame.payload)}"
        )
        dpid = event.dpid
    elif isinstance(event, TopologyLinkEvent):
        detail = f"{event.src_dpid}:{event.src_port}->{event.dst_dpid}:{event.dst_port} up={event.up}"
        dpid = event.src_dpid
    elif isinstance(event, TopologyDeviceEvent):
        detail = f"up={event.up}"
        dpid = event.dpid
    elif isinstance(event, TopologyPortEvent):
        detail = f"port={event.port} up={event.up}"
        dpid = event.dpid
    else:
        detail = (
            f"op={event.op.name} rule_id={event.rule.rule_id} "
            f"timeout={event.rule.hard_timeout_s}"
        )
        dpid = event.dpid
    return (event.seq, event.ts_micros, kind, dpid, detail)


def write_event_log(events: list[Event], path: Path, header: list[str]) -> None:
    _write_csv(path, header, ["seq", "ts_micros", "kind", "dpid", "detail"], map(event_row, events))


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Response-time experiment
# ---------------------------------------------------------------------------

@dataclass
class RtConfig:
    topology: str = "linear:5"
    modes: tuple[DistMode, ...] = MODE_ORDER
    count: int = 500
    warmup: int = 10
    ping_interval: float = 0.010
    ping_timeout: float = 5.0
    payload_bytes: int = 56
    link_latency: float = 0.0
    broker_poll_interval: float = 0.001
    broker_batch: int = 64
    discovery_interval: float = 1.0


@dataclass
class RtModeResult:
    mode: DistMode
    rtts_us: list[float | None]  # None = lost
    summary: StatsSummary
    packet_events: int
    valid: bool


@dataclass
class RtComparison:
    faster: DistMode
    slower: DistMode
    mean_gap_us: float
    median_gap_us: float
    sign: SignTest
    significant: bool


@dataclass
class RtResult:
    config: RtConfig
    per_mode: dict[DistMode, RtModeResult]
    comparisons: list[RtComparison]
    ordering_holds: bool
    valid: bool
    notes: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = []
        for mode, res in self.per_mode.items():
            s = res.summary
            lines.append(
                f"rt {mode.value:>8}: n={s.n} lost={s.lost} mean={s.mean / 1000:.3f}ms "
                f"median={s.median / 1000:.3f}ms p95={s.p95 / 1000:.3f}ms "
                f"{'ok' if res.valid else 'INVALID'}"
            )
        for cmp in self.comparisons:
            lines.append(
                f"rt {cmp.faster.value} < {cmp.slower.value}: mean gap "
                f"{cmp.mean_gap_us / 1000:.3f}ms, median gap {cmp.median_gap_us / 1000:.3f}ms, "
                f"sign z={cmp.sign.z:.2f} "
                f"({'significant' if cmp.significant else 'NOT significant'})"
            )
        lines.append(f"rt ordering {'holds' if self.ordering_holds else 'VIOLATED'}")
        lines.extend(f"note: {n}" for n in self.notes)
        return lines


def run_response_time(cfg: RtConfig, out_dir: str | Path | None = None) -> RtResult:
    """Ping experiment with empty flow tables across the configured modes."""
    if cfg.count < 1:
        raise BenchError(f"ping count must be >= 1, got {cfg.count}")
    if not cfg.modes:
        raise BenchError("no modes configured")
    notes = []
    if cfg.broker_poll_interval < 100e-6 and DistMode.BROKER in cfg.modes:
        notes.append(
            "broker poll interval below 100us: mode ordering may legitimately invert"
        )
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    per_mode: dict[DistMode, RtModeResult] = {}
    for mode in cfg.modes:
        spec = parse_topology(cfg.topology)
        with _measurement_scheduling(), Stack(spec, _stack_config(cfg, mode)) as stack:
            stack.warm()
            src = stack.host("h1")
            dst = stack.host("h2")
            if cfg.warmup > 0:
                src.ping(
                    dst.mac,
                    count=cfg.warmup,
                    interval=cfg.ping_interval,
                    timeout=cfg.ping_timeout,
                    payload_size=cfg.payload_bytes,
                )
            first_seq = stack.event_log()[-1].seq if stack.event_log() else 0
            samples = src.ping(
                dst.mac,
                count=cfg.count,
                interval=cfg.ping_interval,
                timeout=cfg.ping_timeout,
                payload_size=cfg.payload_bytes,
            )
            events = [e for e in stack.event_log() if e.seq > first_seq]
        rtts_us = [None if s.lost else s.rtt_s * 1e6 for s in samples]
        good = [r for r in rtts_us if r is not None]
        lost = len(rtts_us) - len(good)
        packet_events = sum(1 for e in events if isinstance(e, PacketExceptionEvent))
        result = RtModeResult(
            mode=mode,
            rtts_us=rtts_us,
            summary=StatsSummary.from_samples(good, lost),
            packet_events=packet_events,
            valid=lost <= MAX_LOST_FRACTION * cfg.count,
        )
        per_mode[mode] = result
        if out is not None:
            write_event_log(
                events,
                out / f"events-rt-{mode.value}.csv",
                [f"experiment=rt mode={mode.value} topology={cfg.topology}"],
            )
        log.info("rt %s: mean %.3fms", mode.value, result.summary.mean / 1000)

    comparisons = []
    ordered_present = [m for m in MODE_ORDER if m in per_mode]
    for faster, slower in zip(ordered_present, ordered_present[1:]):
        a = [r for r in per_mode[faster].rtts_us if r is not None]
        b = [r for r in per_mode[slower].rtts_us if r is not None]
        paired_len = min(len(a), len(b))
        sign = SignTest.compare(a[:paired_len], b[:paired_len])
        comparisons.append(
            RtComparison(
                faster=faster,
                slower=slower,
                mean_gap_us=per_mode[slower].summary.mean - per_mode[faster].summary.mean,
                median_gap_us=per_mode[slower].summary.median
                - per_mode[faster].summary.median,
                sign=sign,
                significant=sign.z >= SIGNIFICANCE_Z,
            )
        )
    ordering_holds = bool(comparisons) and all(
        c.mean_gap_us > 0 and c.median_gap_us > 0 and c.significant for c in comparisons
    )
    valid = all(r.valid for r in per_mode.values())
    result = RtResult(
        config=cfg,
        per_mode=per_mode,
        comparisons=comparisons,
        ordering_holds=ordering_holds,
        valid=valid,
        notes=notes,
    )
    if out is not None:
        header = [
            f"experiment=rt topology={cfg.topology} count={cfg.count} "
            f"warmup={cfg.warmup} ping_interval_ms={cfg.ping_interval * 1000:g} "
            f"payload_bytes={cfg.payload_bytes} "
            f"broker_poll_ms={cfg.broker_poll_interval * 1000:g} "
            f"link_latency_ms={cfg.link_latency * 1000:g}"
        ]
        _write_csv(
            out / "rt-raw.csv",
            header,
            ["mode", "run_index", "rtt_micros", "lost"],
            (
                (mode.value, i, "" if rtt is None else round(rtt), int(rtt is None))
                for mode, res in per_mode.items()
                for i, rtt in enumerate(res.rtts_us)
            ),
        )
        _write_csv(
            out / "rt-summary.csv",
            header,
            ["mode", "n", "lost", "mean_us", "median_us", "p95_us", "p99_us",
             "min_us", "max_us", "stddev_us", "packet_events", "valid"],
            (
                (
                    mode.value,
                    res.summary.n,
                    res.summary.lost,
                    f"{res.summary.mean:.1f}",
                    f"{res.summary.median:.1f}",
                    f"{res.summary.p95:.1f}",
                    f"{res.summary.p99:.1f}",
                    f"{res.summary.min:.1f}",
                    f"{res.summary.max:.1f}",
                    f"{res.summary.stddev:.1f}",
                    res.packet_events,
                    int(res.valid),
                )
                for mode, res in per_mode.items()
            ),
        )
    return result


# ---------------------------------------------------------------------------
# Throughput experiment
# ---------------------------------------------------------------------------

# the length a window of a paired goodput run aims at: short enough that the
# machine's speed barely moves within one round of the modes or channels
TP_WINDOW_S = 1.0


@dataclass
class TpConfig:
    topology: str = "linear:5"
    modes: tuple[DistMode, ...] = MODE_ORDER
    conns: tuple[int, ...] = (1, 2, 4, 8)
    duration: float = 15.0
    install: str = "direct"  # "direct" or "rest"
    hard_timeout_s: int = 10
    segment_bytes: int = 1464
    link_latency: float = 0.0
    broker_poll_interval: float = 0.001
    broker_batch: int = 64
    discovery_interval: float = 1.0


@dataclass
class TpCell:
    mode: DistMode
    install: str
    n_conns: int
    conns: list[ConnReport]
    removed_events: int
    added_events: int
    valid: bool

    @property
    def per_conn_bps(self) -> list[float]:
        return [c.goodput_bps for c in self.conns]

    @property
    def bytes_acked(self) -> int:
        return sum(c.bytes_acked for c in self.conns)

    @property
    def retransmits(self) -> int:
        return sum(c.retransmits for c in self.conns)

    @property
    def aggregate_bps(self) -> float:
        return sum(self.per_conn_bps)


@dataclass
class TpResult:
    config: TpConfig
    cells: list[TpCell]
    valid: bool
    notes: list[str] = field(default_factory=list)

    def cell(self, mode: DistMode, n_conns: int) -> TpCell:
        for c in self.cells:
            if c.mode is mode and c.n_conns == n_conns:
                return c
        raise KeyError((mode, n_conns))

    def summary_lines(self) -> list[str]:
        lines = [
            f"tp {c.mode.value:>8} conns={c.n_conns} install={c.install}: "
            f"{c.aggregate_bps / 1e6:.2f} Mbit/s "
            f"(removed={c.removed_events} added={c.added_events})"
            f"{'' if c.valid else ' INVALID'}"
            for c in self.cells
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        return lines


def _check_tp_config(cfg: TpConfig) -> None:
    if cfg.duration <= 0:
        raise BenchError(f"duration must be positive, got {cfg.duration}")
    if not cfg.conns or any(c < 1 for c in cfg.conns):
        raise BenchError(f"bad connection counts {cfg.conns}")
    if not isinstance(cfg.hard_timeout_s, int) or cfg.hard_timeout_s < 0:
        raise BenchError(
            f"hard timeout must be a whole number of seconds, got {cfg.hard_timeout_s!r}"
        )


def _window_order(items: tuple, round_no: int) -> tuple:
    """Alternate an ordering and its mirror (ABBA for two), so that no item
    always runs first and a steady drift of the machine's speed reaches every
    item's total alike."""
    return items if round_no % 2 == 0 else items[::-1]


def _throughput_cells(cfg: TpConfig, n_conns: int) -> list[tuple[TpCell, list[Event]]]:
    """One cell per mode at ``n_conns``, with the mode's core event log.

    With one mode, its stream runs for ``cfg.duration`` on one stack. With
    several, one stack per mode is started and warmed, and the modes take
    turns in windows of about ``TP_WINDOW_S`` until each has streamed for
    ``cfg.duration``: the machine's speed drifts by more than the gaps
    between modes within seconds, and paired windows spread that drift over
    every mode alike. The stacks not streaming sit idle meanwhile (a broker
    stack's consumers keep polling).
    """
    if len(cfg.modes) == 1:
        windows, window = 1, cfg.duration
    else:
        windows = max(2, round(cfg.duration / TP_WINDOW_S))
        window = cfg.duration / windows
    with _measurement_scheduling(), ExitStack() as running:
        stacks = {}
        for mode in cfg.modes:
            config = _stack_config(
                cfg, mode, install_rules=True, install_channel=cfg.install,
                hard_timeout_s=cfg.hard_timeout_s,
            )
            stacks[mode] = running.enter_context(Stack(parse_topology(cfg.topology), config))
            stacks[mode].warm()
        totals = {
            mode: [
                ConnReport(conn_id=c, bytes_acked=0, segments_acked=0, retransmits=0,
                           duration_s=window * windows)
                for c in range(n_conns)
            ]
            for mode in cfg.modes
        }
        for round_no in range(windows):
            for mode in _window_order(cfg.modes, round_no):
                stack = stacks[mode]
                reports = stack.host("h1").stream(
                    stack.host("h2").mac,
                    duration=window,
                    n_conns=n_conns,
                    segment_bytes=cfg.segment_bytes,
                )
                for total, report in zip(totals[mode], reports):
                    total.bytes_acked += report.bytes_acked
                    total.segments_acked += report.segments_acked
                    total.retransmits += report.retransmits
        event_logs = {mode: stack.event_log() for mode, stack in stacks.items()}
    measured = []
    for mode in cfg.modes:
        events = event_logs[mode]
        reports = totals[mode]
        removed = sum(
            1
            for e in events
            if isinstance(e, FlowRuleEvent) and e.op is RuleEventOp.REMOVED
        )
        added = sum(
            1
            for e in events
            if isinstance(e, FlowRuleEvent) and e.op is RuleEventOp.ADDED
        )
        cell = TpCell(
            mode=mode,
            install=cfg.install,
            n_conns=n_conns,
            conns=reports,
            removed_events=removed,
            added_events=added,
            valid=sum(r.bytes_acked for r in reports) > 0,
        )
        measured.append((cell, events))
    return measured


def run_throughput(cfg: TpConfig, out_dir: str | Path | None = None) -> TpResult:
    """Goodput vs connection count with reactive flow installation.

    For each connection count the modes are measured side by side, in
    alternating windows (see ``_throughput_cells``)."""
    _check_tp_config(cfg)
    if cfg.install not in ("direct", "rest"):
        raise BenchError(f"unknown install channel {cfg.install!r}")
    notes = []
    if cfg.duration <= 2 * cfg.hard_timeout_s:
        message = (
            f"duration {cfg.duration}s is not > 2x hard timeout "
            f"{cfg.hard_timeout_s}s; rule churn may not occur"
        )
        notes.append(message)
        log.warning(message)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    measured: dict[tuple[DistMode, int], TpCell] = {}
    for n_conns in cfg.conns:
        for cell, events in _throughput_cells(cfg, n_conns):
            measured[cell.mode, n_conns] = cell
            if out is not None:
                write_event_log(
                    events,
                    out / f"events-tp-{cell.mode.value}-c{n_conns}.csv",
                    [
                        f"experiment=tp mode={cell.mode.value} conns={n_conns} "
                        f"install={cfg.install}"
                    ],
                )
            log.info(
                "tp %s conns=%d: %.2f Mbit/s",
                cell.mode.value,
                n_conns,
                cell.aggregate_bps / 1e6,
            )
    cells = [measured[mode, n_conns] for mode in cfg.modes for n_conns in cfg.conns]

    result = TpResult(
        config=cfg, cells=cells, valid=all(c.valid for c in cells), notes=notes
    )
    if out is not None:
        header = [
            f"experiment=tp topology={cfg.topology} duration_s={cfg.duration:g} "
            f"install={cfg.install} hard_timeout_s={cfg.hard_timeout_s} "
            f"segment_bytes={cfg.segment_bytes} "
            f"broker_poll_ms={cfg.broker_poll_interval * 1000:g}"
        ]
        _write_csv(
            out / "tp-raw.csv",
            header,
            ["mode", "install", "n_conns", "conn_id", "bytes_acked", "goodput_bps",
             "retransmits"],
            (
                (c.mode.value, c.install, c.n_conns, conn.conn_id, conn.bytes_acked,
                 f"{conn.goodput_bps:.1f}", conn.retransmits)
                for c in cells
                for conn in c.conns
            ),
        )
        _write_csv(
            out / "tp-summary.csv",
            header,
            ["mode", "install", "n_conns", "aggregate_bps", "total_bytes",
             "removed_events", "added_events", "valid"],
            (
                (c.mode.value, c.install, c.n_conns, f"{c.aggregate_bps:.1f}",
                 c.bytes_acked, c.removed_events, c.added_events, int(c.valid))
                for c in cells
            ),
        )
    return result


# ---------------------------------------------------------------------------
# Paired install-channel comparison
# ---------------------------------------------------------------------------

@dataclass
class InstallComparisonCell:
    """Direct vs REST goodput measured in alternating windows on one stack."""

    mode: DistMode
    n_conns: int
    direct_bps: float
    rest_bps: float
    window_s: float
    windows_per_channel: int

    @property
    def rest_slowdown(self) -> float:
        """Fraction of goodput lost to REST installs (negative = REST won)."""
        return 1.0 - self.rest_bps / self.direct_bps if self.direct_bps else 0.0


@dataclass
class InstallComparisonResult:
    config: TpConfig
    cells: list[InstallComparisonCell]
    valid: bool

    def cell(self, mode: DistMode, n_conns: int) -> InstallComparisonCell:
        for c in self.cells:
            if c.mode is mode and c.n_conns == n_conns:
                return c
        raise KeyError((mode, n_conns))

    def summary_lines(self) -> list[str]:
        return [
            f"cmp {c.mode.value:>8} conns={c.n_conns}: direct={c.direct_bps / 1e6:.2f} "
            f"rest={c.rest_bps / 1e6:.2f} Mbit/s "
            f"(rest slowdown {c.rest_slowdown * 100:+.1f}%)"
            for c in self.cells
        ]


def run_install_comparison(
    cfg: TpConfig, out_dir: str | Path | None = None
) -> InstallComparisonResult:
    """Measure the two flow-install channels against each other, paired.

    Separate runs of the throughput experiment carry scheduler variance that
    can swamp the install-channel effect, so this experiment alternates
    direct and REST windows on one live network per (mode, n_conns) cell:
    both channels see the same threads, the same convoys, the same rule
    churn. The channels take turns in windows of ``TP_WINDOW_S``, in ABBA
    order, so neither always runs first and the machine's drift reaches both
    alike; a rule expiring during a window is reinstalled over that window's
    channel. ``cfg.duration`` is the measured time per channel; one leading
    window is discarded as warm-up.
    """
    _check_tp_config(cfg)
    from .rest import RestFlowClient

    window = TP_WINDOW_S
    windows_per_channel = max(2, round(cfg.duration / window))
    cells = []
    for mode in cfg.modes:
        for n_conns in cfg.conns:
            spec = parse_topology(cfg.topology)
            config = _stack_config(
                cfg, mode, install_rules=True, rest=True, hard_timeout_s=cfg.hard_timeout_s
            )
            with _measurement_scheduling(), Stack(spec, config) as stack:
                stack.warm()
                rest_client = RestFlowClient(stack.core.rest_address)
                src = stack.host("h1")
                dst = stack.host("h2")
                src.stream(dst.mac, duration=window, n_conns=n_conns,
                           segment_bytes=cfg.segment_bytes)  # discarded warm-up
                acked = {"direct": 0, "rest": 0}
                for round_no in range(windows_per_channel):
                    for channel in _window_order(("direct", "rest"), round_no):
                        stack.fwd.set_install_channel(channel, rest=rest_client)
                        reports = src.stream(
                            dst.mac,
                            duration=window,
                            n_conns=n_conns,
                            segment_bytes=cfg.segment_bytes,
                        )
                        acked[channel] += sum(r.bytes_acked for r in reports)
            measured = window * windows_per_channel
            cell = InstallComparisonCell(
                mode=mode,
                n_conns=n_conns,
                direct_bps=8.0 * acked["direct"] / measured,
                rest_bps=8.0 * acked["rest"] / measured,
                window_s=window,
                windows_per_channel=windows_per_channel,
            )
            cells.append(cell)
            log.info(
                "cmp %s conns=%d: direct %.2f vs rest %.2f Mbit/s",
                mode.value,
                n_conns,
                cell.direct_bps / 1e6,
                cell.rest_bps / 1e6,
            )
    result = InstallComparisonResult(
        config=cfg,
        cells=cells,
        valid=all(c.direct_bps > 0 and c.rest_bps > 0 for c in cells),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(
            out / "tp-install-compare.csv",
            [
                f"experiment=tp-install-compare topology={cfg.topology} "
                f"per_channel_s={window * windows_per_channel:g} window_s={window:g} "
                f"hard_timeout_s={cfg.hard_timeout_s}"
            ],
            ["mode", "n_conns", "direct_bps", "rest_bps", "rest_slowdown"],
            (
                (c.mode.value, c.n_conns, f"{c.direct_bps:.1f}", f"{c.rest_bps:.1f}",
                 f"{c.rest_slowdown:.4f}")
                for c in cells
            ),
        )
    return result
