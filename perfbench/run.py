#!/usr/bin/env python3
"""Build and run Motor's end-to-end benchmark (see README.md).

One run:
    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

prints a run manifest, a human-readable table and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.

Repeat mode:
    python3 perfbench/run.py --repeat 10 [--workloads pingpong,objects] [--seconds 10]

runs each workload N times untraced and N times traced (seeds 1..N) and
prints the median, quartiles and min/max of every end-to-end metric, and
the tracing overhead.

Run from anywhere inside a Motor checkout; the benchmark builds the
executable with dune first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "motor_bench.exe")
WORKLOADS = ["pingpong", "objects", "stencil"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a Motor source checkout" % ROOT)
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/motor_bench.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run_once(workload, seed, seconds, trace, rev):
    """Runs the executable; returns (human-readable lines, full result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--revision", rev]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(results[-1][len("RESULT "):])
    declared = declared_metrics()
    if declared is not None:
        want = declared[trace]
        got = set(result["metrics"])
        if got != want:
            fail("metrics %s do not match BENCHMARK.json %s"
                 % (sorted(got ^ want), "end_to_end" if trace == 0 else "per_layer"))
    human = [l for l in lines if not l.startswith("RESULT ")]
    return human, result


def repeat(workloads, n, seconds, rev):
    for w in workloads:
        runs = [run_once(w, seed, seconds, 0, rev)[1] for seed in range(1, n + 1)]
        traced = [run_once(w, seed, seconds, 1, rev)[1] for seed in range(1, n + 1)]
        bad = [r for r in runs + traced if not r["correct"] or r["failed"]]
        print("manifest " + json.dumps(runs[0]["manifest"]))
        print("workload %s: %d untraced + %d traced runs of %g s, %d incorrect"
              % (w, n, n, seconds, len(bad)))
        print("  %-16s %14s %14s %14s %14s %14s %8s" %
              ("metric", "median", "q1", "q3", "min", "max", "iqr/med"))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(vals, n=4) if n >= 2 else (vals[0],) * 3
            rel = (q3 - q1) / med if med else 0.0
            print("  %-16s %14.6g %14.6g %14.6g %14.6g %14.6g %8.4f %s"
                  % (name, med, q1, q3, min(vals), max(vals), rel, unit))
        untraced_p50 = statistics.median(
            r["metrics"]["host_op_us_p50"]["value"] for r in runs)
        traced_p50 = statistics.median(
            r["end_to_end"]["host_op_us_p50"]["value"] for r in traced)
        in_run = statistics.median(
            r["metrics"]["trace.overhead_pct"]["value"] for r in traced)
        print("  tracing overhead: host op p50 %.2f ref_us traced vs %.2f ref_us untraced "
              "(%+.2f%% across runs, %+.2f%% median within traced runs)"
              % (traced_p50, untraced_p50,
                 100.0 * (traced_p50 / untraced_p50 - 1.0), in_run))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, metavar="N")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    if args.repeat is None and args.workload is None:
        ap.error("give --workload, or --repeat N")
    if args.repeat is not None:
        ws = args.workloads.split(",")
        unknown = [w for w in ws if w not in WORKLOADS]
        if unknown or args.repeat < 1:
            ap.error("bad --workloads or --repeat")
    build()
    rev = revision()
    if args.repeat is not None:
        repeat(ws, args.repeat, args.seconds, rev)
        return
    human, result = run_once(args.workload, args.seed, args.seconds, args.trace, rev)
    print("\n".join(human))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
