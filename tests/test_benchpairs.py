"""tools/benchpairs.py: pairing parent and change run records into BENCH_*.json."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchpairs", ROOT / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

DIRECTIONS = {"rtt_p50_ms.internal": "lower", "broker.poll_hit_ratio.broker": "higher"}


def write_record(out: Path, seed: int, rtt: float, trace: int = 0, mtime: float = 0.0,
                 failures=(), extra=None, **config) -> None:
    record = {
        "workload": "punt", "seed": seed, "seconds": 45, "trace": trace,
        "python": "3.11.7", "cpus": 2, "wall_s": 50.0,
        "end_to_end": {} if trace else {"rtt_p50_ms.internal": rtt, "setup_s": 0.07},
        "per_layer": {"broker.poll_hit_ratio.broker": rtt} if trace else {},
        "per_layer_extra": extra or {},
        "failures": list(failures),
        **config,
    }
    path = out / f"punt-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record))
    os.utime(path, (mtime, mtime))


@pytest.fixture
def dirs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    return parent, change


def test_pairs_by_seed_and_counts_wins(dirs):
    parent, change = dirs
    parent_rtts = [1.0, 1.1, 1.2, 1.3, 1.4]
    change_rtts = [0.7, 0.8, 0.9, 1.5, 0.6]
    for i, (p, c) in enumerate(zip(parent_rtts, change_rtts)):
        # the parent ran first in even pairs
        write_record(parent, 100 + i, p, mtime=1000 + 10 * i + (i % 2))
        write_record(change, 100 + i, c, mtime=1000 + 10 * i + 1 - (i % 2))
    write_record(parent, 999, 5.0)  # no counterpart: left out

    (name, group), = benchpairs.pair_records(parent, change, DIRECTIONS).items()
    assert name == "punt-trace0"
    assert group["config"] == {"workload": "punt", "seconds": 45, "trace": 0,
                               "python": "3.11.7", "cpus": 2}
    assert [p["seed"] for p in group["pairs"]] == [100, 101, 102, 103, 104]
    assert [p["first"] for p in group["pairs"]] == ["parent", "change"] * 2 + ["parent"]
    rtt = group["metrics"]["rtt_p50_ms.internal"]
    assert (rtt["pairs"], rtt["wins"], rtt["losses"], rtt["ties"]) == (5, 4, 1, 0)
    assert rtt["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3}
    assert rtt["change"]["median"] == 0.8
    assert rtt["parent_iqr"] == pytest.approx(0.2)
    assert not rtt["gain"]  # 4 of 5 wins is under nine tenths
    setup = group["metrics"]["setup_s"]
    assert (setup["wins"], setup["losses"], setup["ties"]) == (0, 0, 5)


def test_gain_needs_the_median_gap_to_exceed_the_parent_iqr(dirs):
    parent, change = dirs
    for i in range(10):
        write_record(parent, i, 1.0 + 0.1 * i)  # IQR 0.45
        write_record(change, i, 0.9 + 0.1 * i)  # wins every pair by 0.1
    groups = benchpairs.pair_records(parent, change, DIRECTIONS)
    rtt = groups["punt-trace0"]["metrics"]["rtt_p50_ms.internal"]
    assert rtt["wins"] == 10
    assert not rtt["gain"]
    for i in range(10):
        write_record(change, i, 0.4 + 0.1 * i)
    groups = benchpairs.pair_records(parent, change, DIRECTIONS)
    assert groups["punt-trace0"]["metrics"]["rtt_p50_ms.internal"]["gain"]


def test_traced_runs_pair_their_per_layer_metrics_in_their_own_group(dirs):
    parent, change = dirs
    write_record(parent, 7, 0.5, trace=1, failures=["x"])
    write_record(change, 7, 0.9, trace=1)
    (name, group), = benchpairs.pair_records(parent, change, DIRECTIONS).items()
    assert name == "punt-trace1"
    ratio = group["metrics"]["broker.poll_hit_ratio.broker"]
    assert ratio["better"] == "higher" and ratio["wins"] == 1
    assert group["pairs"][0]["parent_failures"] == 1
    assert group["pairs"][0]["change_failures"] == 0


def test_traced_runs_pair_their_extra_layers_without_a_verdict(dirs):
    parent, change = dirs
    for seed, (p_us, c_us) in enumerate([(200.0, 150.0), (210.0, 160.0), (190.0, 200.0)]):
        write_record(parent, seed, 0.5, trace=1,
                     extra={"coreapi.call.us.broker": p_us, "broker.delivered.broker": 20.0})
        write_record(change, seed, 0.5, trace=1,
                     extra={"coreapi.call.us.broker": c_us, "broker.delivered.broker": 20.0})
    bounds = {"rtt_p50_ms.internal": 0.25}
    metrics = benchpairs.pair_records(parent, change, DIRECTIONS, bounds)["punt-trace1"]["metrics"]
    call = metrics["coreapi.call.us.broker"]
    assert call["better"] == "lower"
    assert (call["wins"], call["losses"], call["ties"]) == (2, 1, 0)
    assert call["parent"]["median"] == 200.0 and call["change"]["median"] == 160.0
    assert "verdict" not in call
    assert metrics["broker.delivered.broker"]["ties"] == 3
    assert "broker.poll_hit_ratio.broker" in metrics  # the per-layer metrics stay


def test_pairs_run_with_different_settings_are_refused(dirs):
    parent, change = dirs
    write_record(parent, 1, 1.0)
    write_record(change, 1, 1.0, seconds=10)
    with pytest.raises(ValueError, match="different settings"):
        benchpairs.pair_records(parent, change, DIRECTIONS)


def test_directions_cover_every_benchmark_metric():
    directions = benchpairs.metric_directions(ROOT / "BENCHMARK.json")
    assert directions["rtt_p50_ms.internal"] == "lower"
    assert directions["broker.poll_hit_ratio.broker"] == "higher"


@pytest.mark.parametrize(
    "parent_rtts,change_rtts,expected",
    [
        # medians 1.0 -> 1.2: worse by 20 %, inside the 0.25 bound
        ([0.98, 0.99, 1.0, 1.01, 1.02], [1.18, 1.19, 1.2, 1.21, 1.22], "ok"),
        # medians 1.0 -> 1.3: worse by more than the bound, however noisy the parent
        ([0.98, 0.99, 1.0, 1.01, 1.02], [1.28, 1.29, 1.3, 1.31, 1.32], "worse"),
        ([0.5, 0.6, 1.0, 1.5, 2.0], [1.3, 1.3, 1.3, 1.3, 1.3], "worse"),
        # parent IQR 0.9 around a median of 1.0: wider than the bound
        ([0.5, 0.6, 1.0, 1.5, 2.0], [0.6, 0.7, 1.1, 1.5, 1.9], "unresolved"),
        # ... unless every change run beats every parent run
        ([0.5, 0.6, 1.0, 1.5, 2.0], [0.1, 0.2, 0.3, 0.4, 0.45], "ok"),
    ],
)
def test_no_regression_verdict_of_end_to_end_metrics(dirs, parent_rtts, change_rtts, expected):
    parent, change = dirs
    for i, (p, c) in enumerate(zip(parent_rtts, change_rtts)):
        write_record(parent, i, p)
        write_record(change, i, c)
    bounds = {"rtt_p50_ms.internal": 0.25}
    metrics = benchpairs.pair_records(parent, change, DIRECTIONS, bounds)["punt-trace0"]["metrics"]
    assert metrics["rtt_p50_ms.internal"]["verdict"] == expected
    assert "verdict" not in metrics["setup_s"]  # no bound given for it


def test_verdict_follows_the_metric_direction():
    parent, change = [0.8, 0.9, 1.0, 1.1, 1.2], [0.7, 0.7, 0.7, 0.7, 0.7]
    assert benchpairs.verdict(parent, change, sign=1, bound=0.25) == "worse"
    assert benchpairs.verdict(parent, change, sign=-1, bound=0.25) == "ok"


def test_bounds_come_from_the_end_to_end_metrics():
    bounds = benchpairs.metric_bounds(ROOT / "BENCHMARK.json")
    assert bounds["rtt_p50_ms.broker"] == 0.25
    assert "wire.decode_sb.calls.internal" not in bounds
