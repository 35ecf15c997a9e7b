#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and check it against its bounds.

    python3 ygmbench/check.py [--runs 10] [--workloads degree_er,cc_rmat]

Run from the repository root. For each workload, runs BENCHMARK.json's
command --runs times with seeds 1, 2, ... and run_seconds (--trace 0), then
reports for every end-to-end metric:

  spread  (Q3 - Q1) / median of the runs, with statistics.quantiles(n=4).
          Must stay within the metric's bound; "steady" means below a third
          of the bound.
  seed    how far the first seed's value lies from the median of the other
          seeds, as a share of that median. Must stay within the bound, so
          a tuning that only helps the default seed shows up here.

Every run must also pass its output checks. The summary is written to
.bench_build/check/; the exit code is 0 only when every check passes.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds):
    argv = [*cmd, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return p.returncode, result, time.monotonic() - t0, p.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 (quartiles need them)")

    ok = True
    seconds = spec["run_seconds"]
    summary = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = 1 + i
            code, res, wall, err = run_once(spec["command"], w, seed, seconds)
            if code != 0 or res is None or not res["correct"]:
                ok = False
                print(f"{w} seed {seed}: FAILED (exit {code})\n{err[-2000:]}")
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: ok in {wall:.1f} s", flush=True)

        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 4:
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            others = statistics.median(v[1:])
            seed_dev = abs(v[0] - others) / others
            bound = m["bound"]
            spread_ok = spread <= bound
            seed_ok = seed_dev <= bound
            ok = ok and spread_ok and seed_ok
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "seed_dev": seed_dev,
                               "bound": bound, "values": v}
            flag = ("steady" if spread < bound / 3 else
                    "within bound" if spread_ok else "SPREAD TOO WIDE")
            print(f"  {m['name']:16s} median {med:<12.6g} spread "
                  f"{spread:6.3f} seed {seed_dev:6.3f} bound {bound:5.3f} "
                  f"{flag}{'' if seed_ok else ' SEED CHECK FAILED'}")
        summary["workloads"][w] = rows

    out_dir = ROOT / ".bench_build" / "check"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / time.strftime("check-%Y%m%d-%H%M%S.json")
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out.relative_to(ROOT)}; "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
