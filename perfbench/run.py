"""mspec benchmark driver.

    python3 perfbench/run.py --workload {whole_table,char_scan,learning,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload is a closed loop:
one client issues one operation at a time.  Each pass over a workload's
operation list runs in a fresh process (passrun.py) that imports mspec
from ./src, so lazy caches fill inside the pass as they do for a CLI user.
Passes repeat until --seconds is used (at least MIN_PASSES of them).

--trace 0 reports the end-to-end metrics: setup_s (median time for a fresh
interpreter to import mspec.cli), job_s (median pass time) and peak_rss_mb
(median peak RSS of the pass process).  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics (see tracer.py), including
trace.overhead, traced over untraced job_s minus 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A workload whose checks fail prints
correct=false; a harness error (no ./src/mspec, a metric list that
disagrees with BENCHMARK.json) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import EXACT_COUNTS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES_PER_PASS = 2  # spread over the run: the machine's speed drifts
MIN_PASSES = 4          # untraced passes per --trace 0 run
MIN_TRACED_PASSES = 2   # of each kind per --trace 1 run
RUN_LIMIT_S = 170.0     # a run must end within 180 s
BLAS_THREADS = "1"


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env, count):
    """Wall times of `count` fresh interpreters that import mspec.cli."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import mspec.cli"], env=env,
                       check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_pass(root, workload, seed, traced, full_checks, workdir, spans_path, env,
             timeout):
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), root, workload,
           str(seed), "1" if traced else "0", "1" if full_checks else "0",
           workdir, spans_path]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"pass exited {proc.returncode}"}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(root, workload, seed, seconds, trace):
    run_start = time.perf_counter()
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)
    measure_setup(env, 1)  # writes the bytecode caches a user's first call leaves
    setup = []
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")

    passes = {False: [], True: []}
    crashes, attempted, failed, failures = [], 0, 0, []
    while True:
        t0 = time.perf_counter()
        setup += measure_setup(env, SETUP_SAMPLES_PER_PASS)
        traced = trace and len(passes[True]) < len(passes[False])
        first = not passes[False] and not passes[True]
        res = run_pass(root, workload, seed, traced, first, workdir, spans_path, env,
                       RUN_LIMIT_S - (time.perf_counter() - run_start))
        if "crashed" in res:
            crashes.append(res["crashed"])
            attempted, failed = attempted + 1, failed + 1
            break
        passes[traced].append(res)
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        # the time used if one more pass took as long as this one
        now = time.perf_counter()
        projected = now - run_start + (now - t0)
        enough = (len(passes[False]) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
                  and (not trace or len(passes[True]) >= MIN_TRACED_PASSES))
        if projected > RUN_LIMIT_S or (enough and projected > seconds):
            break

    plain = passes[False]
    record = {"workload": workload, "seed": seed, "trace": trace,
              "setup_s_samples": setup, "crashes": crashes, "failures": failures,
              "passes": passes}
    correct = failed == 0 and not crashes and bool(plain)
    metrics, notes = {}, []
    if plain:
        jobs = [p["job_s"] for p in plain]
        rss = [p["peak_rss_mb"] for p in plain]
        record["env"] = plain[0]["env"]
        summary = {
            "setup_s": (statistics.median(setup), quartiles(setup), len(setup)),
            "job_s": (statistics.median(jobs), quartiles(jobs), len(jobs)),
            "peak_rss_mb": (statistics.median(rss), quartiles(rss), len(rss)),
        }
        record["summary"] = summary
        for name, unit in END_TO_END:
            med, (q1, q3), n = summary[name]
            notes.append(f"  {name:<14} {med:12.4f} {unit:<5} "
                         f"(median of {n}; q1 {q1:.4f}, q3 {q3:.4f})")
            metrics[name] = {"value": med, "unit": unit}
    notes.append(f"  {'ops_failed':<14} {failed / max(attempted, 1):12.4f} ratio "
                 f"({failed} of {attempted} operations)")
    if trace and passes[True]:
        metrics, trace_notes, trace_ok = layer_report(passes)
        notes += trace_notes
        correct = correct and trace_ok
        record["layer"] = metrics
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"closed loop, 1 client, {len(plain)} untraced + {len(passes[True])} "
          f"traced passes")
    for line in notes:
        print(line)
    for msg in crashes + failures[:10]:
        print(f"  FAILED {msg}")
    if "env" in record:
        print("  env " + json.dumps(record["env"], sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_report(passes):
    """Median over traced passes of each per-layer metric."""
    traced = passes[True]
    touched = set().union(*(p["touched"] for p in traced))
    metrics, notes, ok = {}, [], True
    for name, unit in PER_LAYER:
        value = statistics.median(p["layer"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    traced_job = statistics.median(p["job_s"] for p in traced)
    plain_job = statistics.median(p["job_s"] for p in passes[False])
    metrics["trace.overhead"]["value"] = traced_job / plain_job - 1.0
    for p in traced:
        if p["layer"]["trace.self_total_s"] > p["job_s"]:
            notes.append(f"  FAILED self times {p['layer']['trace.self_total_s']} "
                         f"exceed traced job_s {p['job_s']}")
            ok = False
        for name in EXACT_COUNTS:
            if p["layer"][name] != traced[0]["layer"][name]:
                notes.append(f"  FAILED count {name} differs between passes")
                ok = False
    for name, unit in PER_LAYER:
        shown = (f"{metrics[name]['value']:.6g}" if name in touched else "n/a")
        notes.append(f"  {name:<32} {shown:>14} {unit}")
    return metrics, notes, ok


def check_benchmark_json(root):
    """The metric lists here and in BENCHMARK.json must agree."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    declared = ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                [(m["name"], m["unit"]) for m in spec["per_layer"]],
                [w["name"] for w in spec["workloads"]])
    if declared != (list(END_TO_END), list(PER_LAYER), list(WORKLOADS)):
        print("error: BENCHMARK.json disagrees with the metrics and workloads "
              "defined in perfbench/", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mspec", "cli.py")):
        print(f"error: no mspec sources under {root}/src; run from the root "
              "of a source checkout", file=sys.stderr)
        sys.exit(2)
    check_benchmark_json(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
