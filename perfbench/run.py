"""flowplane benchmark: one workload, every metric, checked outputs.

    python3 perfbench/run.py --workload punt|stream|split --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
give the figures in the paper's terms (RTT p50/p95 with sample counts,
goodput, flow-mod rates per channel). A full record of the run goes to
``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Short GIL switch interval, as the program's own bench harness uses while it
# measures: with dozens of actor threads the default 5 ms quantum convoys
# frames behind each other and doubles the run-to-run spread.
SWITCH_INTERVAL_S = 0.001
WORKLOADS = ("punt", "stream", "split")
# what the printed closed-loop rate counts: median over slots, not gated
RATE_OF = {"punt": "pings", "stream": "acked segments", "split": "flow-mods"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "flowplane" / "__init__.py").is_file():
        raise SystemExit(f"error: no flowplane package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(workload: str, results: dict) -> tuple[dict, list[str], dict]:
    """The result-line metrics, the readable lines and the detail record."""
    from workloads import STREAM_CONNS, median

    metrics: dict[str, dict] = {}
    lines: list[str] = []
    detail: dict[str, dict] = {}
    setups = [s for r in results.values() for s in r.setup_s]
    for mode, r in results.items():
        metrics[f"rtt_p50_ms.{mode}"] = {"value": median(r.slot_p50_ms), "unit": "ms"}
        lines.append(f"throughput {mode}: {median(r.slot_rate):.1f} {RATE_OF[workload]}/s")
        d = {
            "setup_s": r.setup_s,
            "slot_p50_ms": r.slot_p50_ms,
            "slot_rate": r.slot_rate,
            "latencies_ms": r.latencies_ms,
            "samples": len(r.latencies_ms),
            **r.extra,
        }
        if workload in ("punt", "split"):
            n = len(r.latencies_ms)
            p95 = f", p95 {quantile(r.latencies_ms, 0.95):.3f} ms" if n >= 200 else ""
            lines.append(f"rtt {mode}: p50 {median(r.latencies_ms):.3f} ms{p95} over {n} pings")
        if workload == "stream":
            mbps = 8 * r.extra.get("bytes_acked", 0) / r.extra.get("stream_s", 1) / 1e6
            d["goodput_mbps"] = mbps
            lines.append(
                f"goodput_mbps {mode}: {mbps:.2f} ({STREAM_CONNS} conns, "
                f"{int(r.extra.get('segments', 0))} segments, "
                f"{int(r.extra.get('rules_removed', 0))} rule expiries)"
            )
        if workload == "split":
            for channel in ("rest", "coreapi"):
                busy = r.extra.get(f"flowmod_{channel}_s", 0)
                rate = r.extra.get(f"flowmods_{channel}", 0) / busy if busy else 0.0
                d[f"flowmods_per_s.{channel}"] = rate
                lines.append(f"flowmods_per_s.{channel} {mode}: {rate:.1f}")
        lines.append(f"setup_s {mode}: " + " ".join(f"{s:.3f}" for s in r.setup_s))
        detail[mode] = d
    if workload == "split":
        for channel in ("rest", "coreapi"):
            done = sum(r.extra.get(f"flowmods_{channel}", 0) for r in results.values())
            busy = sum(r.extra.get(f"flowmod_{channel}_s", 0) for r in results.values())
            lines.append(f"flowmods_per_s.{channel}: {done / busy if busy else 0.0:.1f} (all modes)")
    metrics["setup_s"] = {"value": median(setups), "unit": "s"}
    return metrics, lines, detail


def per_layer(workload: str, results: dict, tracer) -> tuple[dict, dict, list[str]]:
    """Traced-run metrics, the extra layers, and the per-ping punt-count check."""
    from checks import check_punt_calls
    from layers import extra_metrics, window_metrics
    from workloads import PRIMARY_PHASE

    phase = PRIMARY_PHASE[workload]
    metrics: dict[str, dict] = {}
    extra: dict[str, float] = {}
    failures: list[str] = []
    for mode, r in results.items():
        ops = r.window_ops.get(phase, 0)
        for name, (value, unit) in window_metrics(tracer, mode, phase, ops, r.events_dropped).items():
            metrics[name] = {"value": value, "unit": unit}
        extra.update(extra_metrics(tracer, mode, phase, ops))
        if workload == "split":
            flowmods = r.window_ops.get("flowmod", 0)
            extra.update({
                f"flowmod_phase.{k}": v for k, v in extra_metrics(tracer, mode, "flowmod", flowmods).items()
            })
        if phase == "ping":
            spans = tracer.windows[(mode, phase)].spans
            failures += check_punt_calls(
                mode, int(r.extra.get("bfs_punts", 0)),
                len(spans["core.on_sb_bytes"]), len(spans["services.fwd_handle_packet"]),
            )
    return metrics, extra, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    logging.basicConfig(level=logging.ERROR)
    sys.setswitchinterval(SWITCH_INTERVAL_S)

    from layers import probes
    from tracing import Tracer
    from workloads import run_workload

    tracer = None
    if args.trace:
        tracer = Tracer(probes(split=args.workload == "split"))
        tracer.install()
    started = time.perf_counter()
    try:
        results = run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    wall_s = time.perf_counter() - started

    e2e, lines, detail = end_to_end(args.workload, results)
    failures = [f"{mode}: {f}" for mode, r in results.items() for f in r.failures]
    extra: dict = {}
    if tracer:
        metrics, extra, trace_failures = per_layer(args.workload, results, tracer)
        failures += trace_failures
    else:
        metrics = e2e
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "end_to_end": {k: v["value"] for k, v in e2e.items()},
        "modes": detail,
        "per_layer": {k: v["value"] for k, v in metrics.items()} if tracer else {},
        "per_layer_extra": extra,
        "failures": failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True))

    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}")
    print(f"record: {out_file.relative_to(ROOT)} (wall {wall_s:.1f}s)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
