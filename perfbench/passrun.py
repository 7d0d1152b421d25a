"""One pass of a workload, in a fresh process started by run.py.

Usage: python passrun.py ROOT WORKLOAD SEED TRACE FULL_CHECKS WORKDIR SPANS_PATH

Imports mspec from ROOT/src, runs the workload's operations one at a time
(timed), runs the checks, and prints one JSON line: job_s, peak_rss_mb,
the ops attempted and failed, the environment record and, when traced,
the per-layer metrics of this pass.  With TRACE=1 the spans are written
to SPANS_PATH.  The light check after each operation always runs; the
deferred checks, which recompute references with the library, run only
with FULL_CHECKS=1.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv):
    root, workload, seed, trace, full_checks, workdir, spans_path = argv
    seed, trace = int(seed), trace == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import mspec
    import mspec.cli  # noqa: F401  (the CLI layer, imported as a user would)

    if not os.path.realpath(mspec.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"mspec imported from {mspec.__file__}, not {src}")

    import envinfo
    import workloads
    from tracer import Tracer, derive_metrics

    tracer = Tracer()
    if trace:
        tracer.install(mspec)
    ctx = workloads.Pass(mspec, workdir)
    ctx.install_capture()
    ops = workloads.build(workload, ctx, seed)

    failures = {}
    job_s = check_s = 0.0
    for i, op in enumerate(ops):
        ctx.op_index = i
        tracer.op_id = i
        ctx.capturing = True
        result = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            failures[i] = f"raised {exc!r}"
        finally:
            job_s += time.perf_counter() - start
            ctx.capturing = False
            tracer.op_id = None
        start = time.perf_counter()
        if i not in failures:
            try:
                op.check(result)
            except Exception as exc:
                failures[i] = f"check: {exc!r}"
        ctx.spectra = []
        del result
        check_s += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    for i, check in ctx.deferred if full_checks == "1" else ():
        if i in failures:
            continue
        try:
            check()
        except Exception as exc:
            failures[i] = f"check: {exc!r}"
    check_s += time.perf_counter() - start

    out = {
        "job_s": job_s,
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [f"{ops[i].label}: {msg}" for i, msg in sorted(failures.items())][:20],
        "env": envinfo.environment(
            numpy, mspec.group.parse_shape(workloads.LARGEST_TRANSFORM[workload])),
    }
    if trace:
        metrics, touched = derive_metrics(tracer.spans, job_s)
        out["layer"] = metrics
        out["touched"] = sorted(touched)
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "ops": [op.label for op in ops], "spans": tracer.spans},
                      fh, default=list)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
