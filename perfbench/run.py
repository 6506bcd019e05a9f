"""Seeded end-to-end benchmark of the hmkit command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: this process sends one `hmkit.cli.main(argv)`
job at a time to a single job process (worker.py) and waits for it before
sending the next.  The workload is max(1, round(S / nominal round time))
rounds of seeded jobs (workloads.py), so S fixes the amount of work and the
number of samples behind each percentile; the run executes every job once.
Every answer is checked.  A job that overruns its budget is killed and
counted as failed, as is one that crashes or exits with a code that is no
answer.  A wrong answer or a failed job makes the run exit 1, after the
result line.  The metrics printed are those BENCHMARK.json names.

With --trace 0 the last line of output is the end-to-end result.  With
--trace 1 each round runs untraced and then traced, and the result holds
the per-layer metrics of the traced pass and the tracing overhead; the
spans are written to .perfbench-out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_S, calibrate  # noqa: E402

# seconds one round takes at the commit the benchmark was defined on; only
# used to turn --seconds into a round count, so the work of a run is fixed
NOMINAL_ROUND_S = {"free-pipeline": 2.8, "search": 3.5, "psl": 4.0, "evidence": 0.8}
JOB_BUDGET_S = 30.0  # every job of the workloads takes under 6 s
SETUP_SAMPLES = 12  # set-up probes, spread evenly between the rounds

# suffixes of per-layer names that are fields of tracing.summarize; any
# other suffix names the span's work count
SPAN_FIELDS = ("calls", "self_s", "errors")


def per_layer(names: list[str], rows: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from a span summary.

    `<layer>.<function>.<field>` reads that field of the span
    `<layer>.<function>`, or its work count when the field is none of
    SPAN_FIELDS; `<layer>.self_s` is the self time of the whole layer.
    A span never entered reads 0.  `trace.overhead_frac` is left to the caller.
    """
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if span in tracing.LAYERS:
            out[name] = sum(r[field] for s, r in rows.items() if s.startswith(span + "."))
        elif span != "trace":
            out[name] = rows.get(span, {}).get(field if field in SPAN_FIELDS else "count", 0)
    return out


class Worker:
    """One job process; restarted after a job overruns its budget."""

    def __init__(self, trace: bool, spans: Path | None = None) -> None:
        self.trace, self.spans = trace, spans
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        argv = [sys.executable, str(HERE / "worker.py")]
        if self.trace:
            argv += ["--trace", "--spans", str(self.spans)]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=job_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], budget: float) -> dict | None:
        """The worker's reply, or None when the job overran its budget."""
        if self.proc is None:
            self.start()
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], budget)
        if not ready:
            self.kill()
            return None
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            return {"code": None, "crash": "job process exited", "seconds": budget, "out": "", "rss_kb": 0}
        return json.loads(line)

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None

    def stop(self) -> None:
        """Close stdin so the worker writes its spans and exits; wait for it."""
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> tuple[float, float]:
    """Seconds for a fresh interpreter to start and import hmkit.cli, and the
    calibration time around it."""
    before = calibrate()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hmkit.cli"], cwd=ROOT, env=job_env(), check=True)
    seconds = time.perf_counter() - start
    return seconds, (before + calibrate()) / 2


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)  # nearest-rank
        if n - rank >= 10:
            return ordered[rank - 1], p
    return ordered[-1], 100


class Run:
    """The jobs of one workload, the workers that run them, and what they answered."""

    def __init__(self, name: str, rounds: list[list[workloads.Job]], budget: float) -> None:
        self.name, self.rounds, self.budget = name, rounds, budget
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.times: list[float] = []  # at the reference speed
        self.raw_times: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.rss_kb = 0

    def run_round(self, jobs: list[workloads.Job], worker: Worker) -> tuple[float, float]:
        """Run the jobs in sequence and check the answers afterwards.  Returns
        the clock time of the round and its job time at the reference speed."""
        start = time.perf_counter()
        replies = [worker.run(job.argv, self.budget) for job in jobs]
        clock = time.perf_counter() - start
        first = len(self.times)
        for job, reply in zip(jobs, replies):
            self.attempted += 1
            if reply is None:  # overran its budget; counts at the budget
                raw = seconds = self.budget
            else:
                raw = reply["seconds"]
                seconds = raw * REFERENCE_S / reply["calibration"]
            self.times.append(seconds)
            self.raw_times.append(raw)
            self.kinds.setdefault(job.kind, []).append(seconds)
            if reply is None:
                self.failed += 1
                continue
            self.rss_kb = max(self.rss_kb, reply["rss_kb"])
            if reply["code"] not in job.codes:
                self.failed += 1
                detail = reply.get("crash", "").strip().splitlines()[-1:] or [f"exit {reply['code']}"]
                print(f"failed: {' '.join(job.argv)}: {detail[0]}", file=sys.stderr)
                continue
            self.check(job, reply)
        return clock, sum(self.times[first:])

    def check(self, job: workloads.Job, reply: dict) -> None:
        text = reply["out"]
        try:
            job.check(reply["code"], json.loads(text) if text.strip() else None)
        except (workloads.WrongAnswer, KeyError, TypeError, IndexError, ValueError) as exc:
            self.wrong.append(f"{' '.join(job.argv)}: {type(exc).__name__}: {exc}")


def round_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def timed(run: Run) -> dict:
    """Every job once, round by round; set-up probes run between rounds."""
    worker = Worker(trace=False)
    walls, probes = [], []
    try:
        worker.start()
        n = len(run.rounds)
        for i, jobs in enumerate(run.rounds):
            probes.extend(measure_setup() for _ in range((i + 1) * SETUP_SAMPLES // n - i * SETUP_SAMPLES // n))
            walls.append(run.run_round(jobs, worker)[0])
    finally:
        worker.stop()
    job_tail, percentile = tail(run.times)
    print(
        f"{run.name}: {len(walls)} rounds, {len(run.times)} jobs; clock time per round "
        f"{[round(w, 3) for w in walls]}; job time {sum(run.raw_times):.3f} s as measured, "
        f"{sum(run.times):.3f} s at the reference speed; job_tail_s is p{percentile} of "
        f"{len(run.times)} job times; failed_frac {run.failed}/{run.attempted}"
    )
    for kind, times in sorted(run.kinds.items()):
        print(f"  {kind:18} {len(times):5} jobs, median {statistics.median(times):.4f} s, max {max(times):.4f} s")
    return {
        "setup_s": statistics.median(seconds * REFERENCE_S / cal for seconds, cal in probes),
        "wall_s": sum(run.times),
        "job_p50_s": statistics.median(run.times),
        "job_tail_s": job_tail,
        "peak_rss_mb": run.rss_kb / 1024,
    }


def traced(run: Run, spans_path: Path, names: list[str]) -> dict:
    """Each round untraced, then traced.  Per-layer totals cover the traced
    pass, as measured; a job process killed on a budget overrun takes its
    spans with it."""
    plain, tracer_worker = Worker(trace=False), Worker(trace=True, spans=spans_path)
    plain_s = traced_s = 0.0
    try:
        plain.start()
        tracer_worker.start()
        for jobs in run.rounds:
            plain_s += run.run_round(jobs, plain)[1]
            traced_s += run.run_round(jobs, tracer_worker)[1]
    finally:
        plain.stop()
        tracer_worker.stop()
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    metrics = per_layer(names, tracing.summarize(spans))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    print(
        f"{run.name}: traced wall_s {traced_s:.3f} against untraced {plain_s:.3f}; "
        f"{len(spans)} spans in {spans_path.relative_to(ROOT)}"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-up below

    if not (ROOT / "src" / "hmkit" / "cli.py").is_file():
        print(f"error: no hmkit sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = f".perfbench-work/{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench-out"
    try:
        rounds = workloads.build(args.workload, args.seed, round_count(args.workload, args.seconds), ROOT, workdir)
        run = Run(args.workload, rounds, JOB_BUDGET_S)
        if args.trace:
            outdir.mkdir(exist_ok=True)
            metrics = traced(run, outdir / f"spans-{args.workload}.jsonl", [m["name"] for m in wanted])
        else:
            metrics = timed(run)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            (ROOT / workdir).parent.rmdir()

    for line in run.wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    # every job of every workload answers within its budget at the commit the
    # benchmark was defined on, so a failed job is a defect, not a data point
    correct = not run.wrong and not run.failed
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
