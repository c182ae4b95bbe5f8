#!/usr/bin/env python3
"""Perf-regression guard for the simulator benches.

Runs bench/sim_throughput, bench/sim_multipipe, bench/sim_membw,
bench/sim_service, bench/sim_dse and bench/sql_join, collects
wall-clock metrics, and compares them against a committed
baseline (bench/perf_baseline.json). Any metric that regresses by more
than the tolerance (default 15%) fails the run, so host-side slowdowns
in the simulator core are caught in CI rather than discovered months
later in a profile.

Usage:
  # Compare against the committed baseline (CI mode; exits non-zero on
  # regression) and write the fresh numbers for artifact upload:
  scripts/check_perf.py --bench-dir build/bench \
      --baseline bench/perf_baseline.json --out perf_current.json

  # Re-measure and overwrite the baseline (after intentional perf work
  # or a CI-runner hardware change):
  scripts/check_perf.py --bench-dir build/bench \
      --baseline bench/perf_baseline.json --update

Wall-clock numbers are hardware-dependent: the baseline must be
refreshed (--update) when the machine class running the guard changes.
Improvements are reported but never fail the guard; refresh the
baseline to lock them in. GENESIS_PERF_TOLERANCE overrides the
tolerance (e.g. 0.30 on noisy shared runners).
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

# Workload shrink used for every timed run so the guard stays fast and
# the baseline is comparable across invocations.
BENCH_ENV = {"GENESIS_BENCH_PAIRS": "500"}

# Metrics whose baseline is below this floor are reported but never
# failed: at sub-50ms scales, scheduler jitter exceeds any real signal.
NOISE_FLOOR_SECONDS = 0.05

# Each bench runs this many times; every metric keeps its best (minimum)
# value. Wall-clock minima are far more stable than single samples.
REPEATS = 3


def run_timed(cmd, extra_env):
    env = dict(os.environ)
    env.update(extra_env)
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench failed: {' '.join(cmd)}")
    return wall, proc.stdout


def collect_once(bench_dir):
    """Run the three benches once and return {metric_name: seconds}."""
    metrics = {}

    wall, out = run_timed([os.path.join(bench_dir, "sim_throughput")],
                          BENCH_ENV)
    metrics["sim_throughput.wall_seconds"] = wall
    for line in out.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "scenario" in rec and "host_seconds" in rec:
            metrics[f"sim_throughput.{rec['scenario']}.host_seconds"] = \
                rec["host_seconds"]

    wall, out = run_timed([os.path.join(bench_dir, "sim_multipipe")],
                          BENCH_ENV)
    metrics["sim_multipipe.wall_seconds"] = wall
    array = re.search(r"\[.*\]", out, re.S)
    if array:
        for rec in json.loads(array.group(0)):
            if "lanes" in rec:
                key = f"sim_multipipe.lanes{rec['lanes']}.wall_seconds"
                metrics[key] = rec["wall_seconds"]

    # Memory bandwidth sweep: the whole-bench wall clock plus the
    # per-pattern event-jump records the bench emits. The bench fatals
    # on any per-cycle vs event-jump divergence, so a regression here is
    # purely host-side perf.
    wall, out = run_timed([os.path.join(bench_dir, "sim_membw")],
                          BENCH_ENV)
    metrics["sim_membw.wall_seconds"] = wall
    for line in out.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if rec.get("bench") == "sim_membw" and "pattern" in rec:
            metrics[f"sim_membw.{rec['pattern']}.evjump_wall_seconds"] = \
                rec["evjump_wall_seconds"]

    # Multi-tenant service bench: the wall clock guards the whole
    # queue/scheduler/cache path; the calibration record guards one
    # job's service time. The bench itself verifies bit-identity to
    # host goldens and balanced accounting, failing the run otherwise.
    service_env = dict(BENCH_ENV)
    service_env["GENESIS_SERVICE_JOBS"] = "32"
    wall, out = run_timed([os.path.join(bench_dir, "sim_service")],
                          service_env)
    metrics["sim_service.wall_seconds"] = wall
    array = re.search(r"\[.*\]", out, re.S)
    if array:
        for rec in json.loads(array.group(0)):
            if rec.get("phase") == "calibration":
                metrics["sim_service.mean_service_seconds"] = \
                    rec["mean_service_seconds"]

    # DSE sweep: a shrunken grid (small synthetic workload) timed end to
    # end; guards the whole sweep path (96 simulations farmed across
    # cores plus the model joins). --check also gates frontier sanity
    # on every guard run.
    dse_env = dict(BENCH_ENV)
    dse_env["GENESIS_DSE_PAIRS"] = "60"
    wall, _ = run_timed(
        [os.path.join(bench_dir, "sim_dse"), "--check"], dse_env)
    metrics["sim_dse.wall_seconds"] = wall

    # SQL join suite: per-mode totals plus the optimizer/vectorizer
    # speedups. The bench itself verifies result parity across modes
    # and fails on mismatch, so a regression here is purely perf.
    wall, out = run_timed([os.path.join(bench_dir, "sql_join")],
                          BENCH_ENV)
    metrics["sql_join.wall_seconds"] = wall
    for line in out.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if rec.get("bench") != "sql_join":
            continue
        if rec.get("summary"):
            for mode in ("naive", "optimized", "vectorized"):
                metrics[f"sql_join.{mode}_seconds"] = \
                    rec[f"{mode}_seconds"]
        elif "query" in rec:
            key = f"sql_join.{rec['query']}.{rec['mode']}_seconds"
            metrics[key] = rec["wall_seconds"]
    return metrics


def collect_metrics(bench_dir):
    """Best-of-REPEATS metrics across repeated bench runs."""
    best = {}
    for _ in range(REPEATS):
        for name, value in collect_once(bench_dir).items():
            if name not in best or value < best[name]:
                best[name] = value
    return best


def compare(baseline, current, tolerance):
    """Return (failures, report_lines)."""
    failures = []
    lines = []
    for name, base in sorted(baseline["metrics"].items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        delta = (cur - base) / base if base > 0 else 0.0
        status = "ok"
        if base < NOISE_FLOOR_SECONDS:
            status = "skip (below noise floor)"
        elif delta > tolerance:
            status = "REGRESSION"
            failures.append(
                f"{name}: {base:.4f}s -> {cur:.4f}s "
                f"(+{delta * 100.0:.1f}% > {tolerance * 100.0:.0f}%)")
        elif delta < -tolerance:
            status = "improved (consider --update)"
        lines.append(f"  {name:50s} {base:8.4f}s -> {cur:8.4f}s "
                     f"{delta * 100.0:+6.1f}%  {status}")
    for name in sorted(set(current) - set(baseline["metrics"])):
        lines.append(f"  {name:50s} {'':>8s}    {current[name]:8.4f}s "
                     f"{'':>7s}  new (not in baseline)")
    return failures, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the built benches")
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON path")
    parser.add_argument("--out", default=None,
                        help="write the fresh metrics to this JSON file")
    parser.add_argument("--update", "--update-baseline",
                        action="store_true", dest="update",
                        help="overwrite the baseline instead of comparing")
    parser.add_argument("--tolerance", type=float, default=float(
        os.environ.get("GENESIS_PERF_TOLERANCE", "0.15")),
        help="fractional regression allowed before failing (default "
             "0.15; env GENESIS_PERF_TOLERANCE)")
    args = parser.parse_args()

    metrics = collect_metrics(args.bench_dir)
    payload = {
        "note": "wall-clock perf baseline; refresh with "
                "scripts/check_perf.py --update on hardware changes",
        "bench_env": BENCH_ENV,
        "host": platform.platform(),
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    if args.update:
        with open(args.baseline, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        for name, value in sorted(metrics.items()):
            print(f"  {name:50s} {value:8.4f}s")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    failures, lines = compare(baseline, metrics, args.tolerance)
    print(f"perf guard (tolerance {args.tolerance * 100.0:.0f}%, "
          f"baseline host: {baseline.get('host', 'unknown')})")
    print("\n".join(lines))
    if failures:
        print("\nPERF REGRESSIONS DETECTED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
