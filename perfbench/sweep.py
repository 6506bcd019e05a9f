"""Run the benchmark once per seed and collect the results into a result set.

Usage:

    python3 perfbench/sweep.py --workload NAME --seeds 1-10 --seconds 20 --out DIR [--trace 1]

Each run's result line is appended, in run order, to DIR/<workload>.jsonl
(DIR/<workload>.trace.jsonl with --trace 1), which compare.py reads.  The
sweep then prints, per metric, the quartiles of the runs and their spread:
the interquartile range as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import quartiles, spread

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}{'.trace' if args.trace else ''}.jsonl"
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(last[0])
        results.append(result)
        with path.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        shown = ["trace.overhead_frac"] if args.trace else list(result["metrics"])
        print(f"seed {seed}: " + ", ".join(f"{k}={result['metrics'][k]['value']:.4g}" for k in shown), flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        print(f"{name:44} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  spread {spread(values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
