"""One measurement in a fresh interpreter; prints one JSON line and exits.

Usage: python3 worker.py '<job json>'

A job is {"workload", "mode", "seed", "seconds", "trace", "params", "workdir",
"spans_out"}; a traced job writes its raw spans to ``spans_out``.
Mode "setup" only times set-up (importing the package and building the
workload's laws); mode "work" then runs the workload for ``seconds`` (at least
one unit) and checks every output.  Set-up is timed before anything else is
imported beyond the standard library, so the package's import is measured
cold, as every CLI invocation pays it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager


class Units:
    """Wall time of each unit of work, and its root span when tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = []

    @contextmanager
    def __call__(self, op: int):
        idx = None
        if self.tracer is not None:
            self.tracer.op = op
            idx = self.tracer.open("unit")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds.append(time.perf_counter() - t0)
            if idx is not None:
                self.tracer.close(idx)


def main(argv) -> int:
    job = json.loads(argv[1])
    from workloads import WORKLOADS, Context

    ctx = Context(WORKLOADS[job["workload"]], job)
    t0 = time.perf_counter()
    ctx.setup()
    out = {"setup_s": time.perf_counter() - t0}
    if job["mode"] == "work":
        tracer = None
        if job["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        units = Units(tracer)
        ops, failed, problems = ctx.workload.run(ctx, units)
        out.update(
            unit_s=units.seconds,
            ops=ops,
            failed=failed,
            problems=problems[:20],
            counts=ctx.counts,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            out["trace"] = {
                "summary": tracer.summary(),
                "counts": dict(tracer.counts),
                "maxima": tracer.maxima,
            }
            with open(job["spans_out"], "w") as fh:
                json.dump([vars(s) for s in tracer.spans], fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
