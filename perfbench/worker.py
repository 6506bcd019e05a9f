"""Job process: imports hmkit.cli once and runs `main(argv)` for each request.

Protocol, one JSON object per line.  The runner sends {"argv": [...]};
the worker answers {"code", "out", "seconds", "calibration", "rss_kb"},
with "code" null and a "crash" traceback when main raised.
"calibration" is the mean time of `calibrate()` run just before and just
after the job, which tells how fast the machine ran meanwhile.  With
--trace, spans are kept in memory and written to the file named by
--spans when stdin closes.

Run as: python3 perfbench/worker.py [--trace --spans FILE]
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

# seconds calibrate() takes when the machine runs at the reference speed;
# times scaled by REFERENCE_S / calibrate() read in seconds at that speed
REFERENCE_S = 0.0005


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, with garbage collection off."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(5000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> None:
    trace = "--trace" in sys.argv
    import hmkit.cli

    tracer = None
    if trace:
        import hmkit
        from hmkit import freecons, gadget, homsearch, identlang, semilat, structures

        import tracing

        tracer = tracing.Tracer()
        modules = {
            "structures": structures,
            "homsearch": homsearch,
            "semilat": semilat,
            "freecons": freecons,
            "gadget": gadget,
            "identlang": identlang,
            "cli": hmkit.cli,
            "package": hmkit,
        }
        tracing.install(tracer, modules)

    requests, replies = sys.stdin, sys.stdout
    for job, line in enumerate(requests):
        argv = json.loads(line)["argv"]
        out = io.StringIO()
        reply = {}
        if tracer is not None:
            tracer.job = job
        before = calibrate()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                reply["code"] = hmkit.cli.main(argv)
        except Exception:
            reply["code"] = None
            reply["crash"] = traceback.format_exc()
        reply["seconds"] = time.perf_counter() - start
        reply["calibration"] = (before + calibrate()) / 2
        reply["out"] = out.getvalue()
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        replies.write(json.dumps(reply) + "\n")
        replies.flush()

    if tracer is not None:
        path = sys.argv[sys.argv.index("--spans") + 1]
        with open(path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    main()
