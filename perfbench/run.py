#!/usr/bin/env python3
"""The repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload live|service|churn|reuse \\
        [--seed N] [--seconds S] [--trace 0|1] [--sched-seed M]

Run from the repository root. Builds perfbench/dgbench from source into
.bench_build/ on first use, runs it, and prints a table of every metric
(median, quartiles, sample count), an environment record, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from a separate traced run; its spans and accumulators are written to
.bench_build/traces/). Exits 1 when a correctness check fails, 2 when the
sources or the build are missing.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")

# BENCHMARK.json gates live and service; churn and reuse run on demand
# (README.md, "Workloads").
WORKLOADS = ("live", "service", "churn", "reuse")
CONFIGS = ("byte", "dynamic", "byte-sharded", "dynamic-sharded")
DEFAULT_SEED = 7
# A later gain must also hold on this seed, which no tuning may use.
HELD_OUT_SEED = 1009

# (name, unit): the end-to-end metrics, printed by --trace 0.
E2E = [(f"analysis_s.{c}", "s") for c in CONFIGS] + [
    ("peak_shadow_bytes.byte", "B"),
    ("peak_shadow_bytes.dynamic", "B"),
    ("setup_s", "s"),
    ("delivered_frac", "ratio"),
]

# (name, unit): per-layer metrics that carry a config suffix.
LAYER_BY_CONFIG = [
    ("rt.access_call_ns", "ns"),
    ("rt.sync_call_ns", "ns"),
    ("rt.fast_path_ratio", "ratio"),
    ("rt.events_per_lock", "events/lock"),
    ("rt.drain_ns", "ns"),
    ("rt.ring_depth_hwm", "count"),
    ("rt.dropped_events", "count"),
    ("bench.order_wait_ns", "ns"),
    ("service.push_ns", "ns"),
    ("service.stop_ns", "ns"),
    ("service.full_stalls", "count"),
    ("service.events_total", "count"),
    ("service.filter_ratio", "ratio"),
    ("service.wire_bytes", "B"),
    ("service.drain_ns", "ns"),
    ("service.piggyback_ratio", "ratio"),
    ("service.quarantined", "count"),
    ("detect.access_ns", "ns"),
    ("detect.sync_ns", "ns"),
    ("detect.free_ns", "ns"),
    ("detect.access_events", "count"),
    ("detect.shared_accesses", "count"),
    ("shadow.same_epoch_ratio", "ratio"),
    ("shadow.peak_hash_bytes", "B"),
    ("shadow.peak_bitmap_bytes", "B"),
    ("vc.allocs", "count"),
    ("vc.frees", "count"),
    ("vc.max_live", "count"),
    ("vc.peak_bytes", "B"),
    ("report.unique_races", "count"),
]
LAYER = (
    [("sim.record_s", "s"), ("sim.events", "count"), ("rt.replay_null_s", "s")]
    + [(f"{n}.{c}", u) for n, u in LAYER_BY_CONFIG for c in CONFIGS]
    + [(f"vc.avg_sharing_at_peak.{c}", "ratio")
       for c in ("dynamic", "dynamic-sharded")]
    + [("bench.trace_overhead_s", "s"), ("dropped_frac", "ratio")]
)


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sources under {ROOT}/src; run from a repository checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dgbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "dgbench")


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--sched-seed", type=int, default=None,
                    help="simulator scheduler seed (default: --seed)")
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    for d in ("run", "results", "traces"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(OUT, "run")]
    if args.sched_seed is not None:
        cmd += ["--sched-seed", str(args.sched_seed)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, "traces", tag + ".json")]
    # The benchmark fixes every runtime option itself; environment
    # overrides (memory budget, sampling, delivery mode) must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNGRAN_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=env, timeout=170)
    if proc.returncode != 0:
        fail(f"dgbench exited with {proc.returncode}", 1)
    raw = json.loads(proc.stdout)
    samples = raw["samples"]
    problems = list(raw["problems"])

    if args.trace:
        overhead = 0.0
        for c in CONFIGS:
            overhead += (statistics.median(samples[f"traced_analysis_s.{c}"])
                         - statistics.median(samples[f"analysis_s.{c}"]))
        samples["bench.trace_overhead_s"] = [overhead]
    wanted = LAYER if args.trace else E2E

    stats, metrics = {}, {}
    for name, unit in wanted:
        if name not in samples:
            problems.append(f"metric {name} was not measured")
            continue
        s = summary(samples[name])
        stats[name] = dict(s, unit=unit)
        metrics[name] = {"value": s["median"], "unit": unit}
        if not args.trace and s["median"] <= 0:
            problems.append(f"end-to-end metric {name} is not positive")

    env_record = dict(raw["env"], git_sha=git_sha(),
                      source_sha256=source_digest(), nproc=os.cpu_count(),
                      seconds=args.seconds, trace=args.trace,
                      held_out_seed=HELD_OUT_SEED)
    correct = not problems
    result = {"env": env_record, "cycles": raw["cycles"],
              "measure_s": raw["measure_s"], "gate_s": raw["gate_s"],
              "gate": raw["gate"], "problems": problems, "stats": stats,
              "samples": {k: samples[k] for k, _ in wanted if k in samples}}
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, s in stats.items():
        print(f"{name:<40} {s['median']:>14.6g} {s['q1']:>14.6g} "
              f"{s['q3']:>14.6g} {s['n']:>4}  {s['unit']}")
    print("gate: " + json.dumps(raw["gate"]))
    for p in problems:
        print("problem: " + p)
    print("env: " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
