"""Compare two result sets of the benchmark, metric by metric and workload by workload.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory written by sweep.py: `<workload>.jsonl` holds
one untraced result per line and `<workload>.trace.jsonl` one traced
result per line, in run order.  Run i of the parent is paired with run i
of the change.  For each metric the verdict is

- improved: the change wins at least 9/10 of the pairs and the medians
  differ, in the better direction, by more than the parent's interquartile
  range;
- unresolved: otherwise, when either side's interquartile range exceeds
  the metric's bound (a share of the parent median);
- worse: otherwise, when the change's median is worse than the parent's by
  more than the bound;
- no worse: otherwise.

Per-layer metrics have no bound, so they are either improved or "-".

Each workload also gets a `failed` row: failed jobs over attempted jobs,
summed over the untraced runs of each side.  It is worse when the change
fails a larger share of its jobs than the parent, whatever the timings
say, because a job that crashes or is refused early also ends early.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs (run i of each side) in which the change reads better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    sign = 1 if better == "lower" else -1
    pairs = min(len(parent), len(change))
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if pairs and wins(parent, change, better) >= 0.9 * pairs and sign * (pmed - cmed) > p3 - p1:
        return "improved"
    if bound is None:
        return "-"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "worse"
    return "no worse"


def fmt(q: tuple[float, ...]) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    metrics = {m["name"]: (m["better"], m.get("bound"), ".jsonl") for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m["better"], None, ".trace.jsonl") for m in spec["per_layer"]})
    print(f"{'workload':14} {'metric':44} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict")
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        parent, change = load(args.parent / f"{workload}.jsonl"), load(args.change / f"{workload}.jsonl")
        if parent and change:
            p_failed, p_attempted = (sum(r[k] for r in parent) for k in ("failed", "attempted"))
            c_failed, c_attempted = (sum(r[k] for r in change) for k in ("failed", "attempted"))
            v = "worse" if c_failed * p_attempted > p_failed * c_attempted else "no worse"
            worse |= v == "worse"
            print(f"{workload:14} {'failed':44} {f'{p_failed}/{p_attempted}':>32} {f'{c_failed}/{c_attempted}':>32} {'':>6}  {v}")
        for name, (better, bound, suffix) in metrics.items():
            parent = [r["metrics"][name]["value"] for r in load(args.parent / f"{workload}{suffix}") if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in load(args.change / f"{workload}{suffix}") if name in r["metrics"]]
            if not parent or not change:
                continue
            v = verdict(parent, change, better, bound)
            worse |= v == "worse"
            print(
                f"{workload:14} {name:44} {fmt(quartiles(parent)):>32} {fmt(quartiles(change)):>32} "
                f"{wins(parent, change, better):>3}/{min(len(parent), len(change)):<2}  {v}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
