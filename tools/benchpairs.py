"""Pair benchmark run records of a parent and a change checkout into BENCH_<topic>.json.

    python3 tools/benchpairs.py PARENT_CHECKOUT CHANGE_CHECKOUT TOPIC

Each checkout's ``perfbench/run.py`` writes one record per run to
``perfbench/out/<workload>-seed<N>-trace<T>.json``. Records of the two
checkouts are paired by workload, seed and trace setting; seeds found on one
side only are left out. A traced record's metrics are its per-layer ones and
the extra layers it records beside them; metrics ``BENCHMARK.json`` does not
list count as lower-is-better. For every metric the output gives each pair, the
change's wins, losses and ties, each side's median and quartiles, and the
parent's interquartile range. ``gain`` applies the rule for claiming a gain:
the change wins at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's interquartile range.

Each end-to-end metric also gets a no-regression ``verdict`` against its
``bound`` (a fraction of the parent's median): ``worse`` when the change's
median is worse than the parent's by more than bound x parent median;
otherwise ``unresolved`` when the parent's own spread (IQR / median) is
wider than the bound, unless every change run beats every parent run; and
otherwise ``ok``. ``BENCH_<topic>.json`` is written at the root of the
repository that holds this script; metric directions and bounds come from
its ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# settings that must agree between the two sides of a pair
CONFIG_KEYS = ("workload", "seconds", "trace", "python", "cpus")


def load_records(out_dir: Path) -> dict[tuple[str, int, int], dict]:
    records = {}
    for path in sorted(out_dir.glob("*.json")):
        record = json.loads(path.read_text())
        record["_mtime"] = path.stat().st_mtime
        records[(record["workload"], record["seed"], record["trace"])] = record
    return records


def metric_directions(benchmark_json: Path) -> dict[str, str]:
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def metric_bounds(benchmark_json: Path) -> dict[str, float]:
    """The end-to-end metrics' regression bounds, as fractions of the parent median."""
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summary(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def metric_values(record: dict) -> dict[str, float]:
    """A traced record's per-layer metrics, the extra layers among them, or
    an untraced record's end-to-end metrics."""
    if record["trace"]:
        return {**record["per_layer"], **record["per_layer_extra"]}
    return record["end_to_end"]


def verdict(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """No-regression verdict of one end-to-end metric; ``sign`` is +1 when higher is better."""
    p_sum = summary(parent)
    allowed = bound * abs(p_sum["median"])
    if sign * (statistics.median(change) - p_sum["median"]) < -allowed:
        return "worse"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_sum["q3"] - p_sum["q1"] > allowed and not every_run_better:
        return "unresolved"
    return "ok"


def compare(name: str, pairs: list[dict], better: str, bound: float | None = None) -> dict:
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    sign = -1 if better == "lower" else 1
    deltas = [sign * (c - p) for p, c in zip(parent, change)]
    p_sum, c_sum = summary(parent), summary(change)
    parent_iqr = p_sum["q3"] - p_sum["q1"]
    wins = sum(d > 0 for d in deltas)
    extra = {}
    if bound is not None:
        extra = {"bound": bound, "verdict": verdict(parent, change, sign, bound)}
    return {
        "better": better,
        "pairs": len(pairs),
        "wins": wins,
        "losses": sum(d < 0 for d in deltas),
        "ties": sum(d == 0 for d in deltas),
        "parent": p_sum,
        "change": c_sum,
        "parent_iqr": parent_iqr,
        "gain": wins >= 0.9 * len(pairs)
        and sign * (c_sum["median"] - p_sum["median"]) > parent_iqr,
        **extra,
    }


def pair_records(
    parent_dir: Path,
    change_dir: Path,
    directions: dict[str, str],
    bounds: dict[str, float] | None = None,
) -> dict:
    parent, change = load_records(parent_dir), load_records(change_dir)
    groups: dict[str, dict] = {}
    for key in sorted(parent.keys() & change.keys()):
        p, c = parent[key], change[key]
        config = {k: p[k] for k in CONFIG_KEYS}
        if config != {k: c[k] for k in CONFIG_KEYS}:
            raise ValueError(f"{key}: the two sides ran with different settings")
        workload, seed, trace = key
        group = groups.setdefault(f"{workload}-trace{trace}", {"config": config, "pairs": []})
        if group["config"] != config:
            raise ValueError(f"{key}: settings differ from other runs of {workload}")
        group["pairs"].append({
            "seed": seed,
            "first": "parent" if p["_mtime"] <= c["_mtime"] else "change",
            "parent": metric_values(p),
            "change": metric_values(c),
            "parent_failures": len(p["failures"]),
            "change_failures": len(c["failures"]),
        })
    for group in groups.values():
        pairs = group["pairs"]
        names = sorted(set.intersection(*(set(p["parent"]) & set(p["change"]) for p in pairs)))
        group["metrics"] = {
            name: compare(name, pairs, directions.get(name, "lower"), (bounds or {}).get(name))
            for name in names
        }
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    parser.add_argument("topic", help="names the output file BENCH_<topic>.json")
    args = parser.parse_args(argv)
    groups = pair_records(
        args.parent / "perfbench" / "out",
        args.change / "perfbench" / "out",
        metric_directions(ROOT / "BENCHMARK.json"),
        metric_bounds(ROOT / "BENCHMARK.json"),
    )
    if not groups:
        raise SystemExit("error: no run found in both checkouts")
    out = ROOT / f"BENCH_{args.topic}.json"
    record = {"topic": args.topic, "groups": groups}
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for group_name, group in groups.items():
        for name, m in group["metrics"].items():
            print(
                f"{group_name} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                f" ({m['wins']}/{m['pairs']} won, parent IQR {m['parent_iqr']:.3g}"
                f"{', gain' if m['gain'] else ''}{', ' + m['verdict'] if 'verdict' in m else ''})"
            )
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
