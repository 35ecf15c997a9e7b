#!/usr/bin/env python3
"""Build and run the YGM benchmark for one workload and one seed.

    python3 ygmbench/run.py --workload degree_er --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
ygmbench/ (which compiles ../src) into .bench_build/; later runs rebuild
only what changed. The benchmark binary then runs the workload on the
inproc backend, checks every output against a serial reference, and prints
one JSON line per launch; this script reduces those lines to the metrics
named in BENCHMARK.json.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and a Chrome trace of the benchmark's spans is written
under .bench_build/trace/. The provenance and the per-launch records go to
.bench_build/results/. The exit code is 0 only when every launch passed its
output checks within its deadline.

Extra options override a workload's defaults, for experiments such as the
engine-mode reproduction in ygmbench/NOTES.md: --progress polling|engine,
--layout NODESxCORES, --scale K.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("degree_er", "cc_rmat", "cascade_engine")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type

# A run must end within 180 s of its start once the binary is built.
RUN_BUDGET_S = 170

# Metric names and units, in BENCHMARK.json's order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

PROBES = ("ser.roundtrip_ns", "router.next_hop_ns", "transport.pingpong_us")

# The scored workloads run in polling mode, so with --trace 1 the progress
# engine's metrics come from an engine probe: a short run of the
# cascade_engine workload (see NOTES.md for why it is not scored itself).
ENGINE_KEYS = ("engine.passes", "engine.steal_ratio", "engine.hook_pumps",
               "progress.deferred_batches", "engine.deliveries_per_batch",
               "engine.hop_us.p50", "engine.hop_us.p99")
ENGINE_PROBE_SECONDS = 4
ENGINE_PROBE_BUDGET_S = 40


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *gen,
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return BUILD_DIR / "ygm_bench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_binary(exe, args, extra, trace_out, budget_s):
    """Runs the benchmark binary; returns (records, exit code, timed out)."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        timed_out = True
    records = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                log(f"unparsable line from the benchmark: {line[:200]}")
    return records, proc.returncode, timed_out


def median(values):
    return statistics.median(values) if values else 0.0


def reduce(records, trace):
    """Turns the binary's records into (attempted, failed, metrics, notes)."""
    launches = [r for r in records if "launch" in r]
    done = next((r for r in records if r.get("done")), None)
    probes = next((r["probes"] for r in records if "probes" in r), {})
    notes = [r for r in records
             if "deadline_missed" in r or "probe_error" in r]
    attempted = len(launches)
    failed = sum(1 for r in launches if not r["ok"])
    if done is None:
        # The process ended early: a missed deadline, a crash or a probe
        # failure. The launch in progress counts as a failed attempt.
        attempted += 1
        failed += 1
    timed = [r for r in launches if not r["warmup"] and r["ok"]]
    untraced = [r for r in timed if r["instrument"] == "none"]
    spanned = [r for r in timed if r["instrument"] == "spans"]
    layered = [r for r in timed if "layers" in r]
    solves = [s for r in untraced for s in r["solves"]]

    metrics = {}
    if not trace:
        metrics = {
            "msgs_per_s": median([s["deliveries"] / s["solve_s"]
                                  for s in solves]),
            "solve_s": median([s["solve_s"] for s in solves]),
            "deliver_us.p50": median([s["p50_us"] for s in solves]),
            "deliver_us.p99": median([s["p99_us"] for s in solves]),
            "setup_s": median([r["setup_s"] for r in untraced]),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in untraced]),
        }
        units = E2E_UNITS
    else:
        # Span launches and counter launches each carry some of the keys.
        layer_keys = [k for k in LAYER_UNITS
                      if k not in PROBES and k != "trace.overhead_pct"
                      and not k.startswith("engine.hop_us")
                      and k != "fail_ratio"]
        for k in layer_keys:
            metrics[k] = median([r["layers"][k] for r in layered
                                 if k in r["layers"]])
        for k in PROBES:
            metrics[k] = probes.get(k, 0.0)
        metrics["engine.hop_us.p50"] = median([s["p50_us"] for s in solves])
        metrics["engine.hop_us.p99"] = median([s["p99_us"] for s in solves])
        spanned_solve = median([s["solve_s"] for r in spanned
                                for s in r["solves"]])
        untraced_solve = median([s["solve_s"] for s in solves])
        metrics["trace.overhead_pct"] = (
            (spanned_solve / untraced_solve - 1.0) * 100.0
            if untraced_solve > 0 else 0.0)
        metrics["fail_ratio"] = failed / attempted if attempted else 1.0
        units = LAYER_UNITS
    return attempted, failed, {k: {"value": metrics[k], "unit": units[k]}
                               for k in units}, notes


def report(records, notes, timed_out, budget_s):
    for n in notes:
        log(f"ygmbench: {json.dumps(n)}")
    for r in records:
        for e in r.get("errors", []):
            log(f"ygmbench: launch {r['launch']}: {e}")
    if timed_out:
        log(f"ygmbench: killed after {budget_s} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--progress", choices=("polling", "engine"))
    ap.add_argument("--layout")
    ap.add_argument("--scale", type=int)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    extra = []
    for opt in ("progress", "layout", "scale"):
        v = getattr(args, opt)
        if v is not None:
            extra += ["--" + opt, str(v)]

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"ygmbench: build failed: {e}")
        return 2
    started = time.monotonic()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = None
    if args.trace:
        (BUILD_DIR / "trace").mkdir(parents=True, exist_ok=True)
        trace_out = BUILD_DIR / "trace" / f"{stem}.trace.json"
    budget = RUN_BUDGET_S - (ENGINE_PROBE_BUDGET_S if args.trace else 0)
    records, code, timed_out = run_binary(exe, args, extra, trace_out, budget)
    attempted, failed, metrics, notes = reduce(records, args.trace)
    correct = code == 0 and not timed_out
    report(records, notes, timed_out, budget)

    provenance = next((r["provenance"] for r in records
                       if "provenance" in r), {})
    probe_records = []
    if args.trace and provenance.get("progress_mode") != "engine":
        probe_args = argparse.Namespace(**vars(args))
        probe_args.workload = "cascade_engine"
        probe_args.seconds = ENGINE_PROBE_SECONDS
        probe_records, code, timed_out = run_binary(
            exe, probe_args, [], None, ENGINE_PROBE_BUDGET_S)
        p_attempted, p_failed, p_metrics, p_notes = reduce(probe_records, 1)
        report(probe_records, p_notes, timed_out, ENGINE_PROBE_BUDGET_S)
        for k in ENGINE_KEYS:
            metrics[k] = p_metrics[k]
        attempted += p_attempted
        failed += p_failed
        metrics["fail_ratio"]["value"] = failed / attempted
        correct = correct and code == 0 and not timed_out
    correct = correct and failed == 0
    provenance.update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "argv": sys.argv[1:],
        "wall_s": round(time.monotonic() - started, 3),
    })
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (BUILD_DIR / "results").mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "results" / f"{stem}.json", "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "records": records, "engine_probe_records": probe_records},
                  f, indent=1)

    print(json.dumps({"provenance": provenance}))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
