#!/usr/bin/env python3
"""Build the Genesis benchmark and run its workloads.

Run from the repository root:

    python3 benchmark/run.py                      # both workloads
    python3 benchmark/run.py --workload stages16 --seed 7 --seconds 10
    python3 benchmark/run.py --trace 1            # plus one traced pass
    python3 benchmark/run.py --smoke              # tiny sizes, < 20 s

The script configures and builds benchmark/ (its own CMake project,
Release) into .bench_build/, then runs each workload in its own process
with every GENESIS_* variable removed from the environment, so programs
run with their default configuration. It prints every metric as

    name unit median [q1,q3] n=<samples>

(latency_ms and setup_s are derived from the host.* samples; see
host_normalized), writes .bench_build/results/bench_results.json, and
exits non-zero on any mismatch or failed operation. With a single --workload, the last
line of standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

--trace takes 0, 1 or a file name: 1 writes the Chrome trace of the
extra traced pass to .bench_build/results/trace_<workload>.json, a file
name writes it there. Load it at https://ui.perfetto.dev.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["stages16", "sql_mapped"]
# A run must finish within 180 s; leave room for the build check.
CHILD_TIMEOUT_S = 165
# The probe's typical 10th-percentile time on the 4-vCPU KVM guest the
# benchmark was built on, so normalized values read close to raw ones.
# Changing it rescales latency_ms and setup_s: it must stay fixed.
REF_PROBE_MS = 27.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"run.py: no src/ next to {HERE.name}/; nothing to build")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            return False
    return True


def summarize(samples):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, q1, q3


def low_decile(samples):
    """The 10th percentile, as statistics.quantiles(n=10) gives it."""
    if len(samples) < 2:
        return min(samples)
    return statistics.quantiles(samples, n=10)[0]


def host_normalized(samples):
    """latency_ms and setup_s from the host.* samples of one run.

    Each is the 10th percentile of the run's pass (set-up) times,
    rescaled to a host on which the fixed probe (HostProbe in
    harness.cpp) takes REF_PROBE_MS: its value times REF_PROBE_MS over
    the 10th percentile of the probe times taken between the passes.

    Tenants sharing this host's cores change how fast it runs by up to
    50 % within an hour. The fastest tenth of a run's passes ran in the
    best state the host offered during the run, and the fastest tenth
    of its probes measure that state, so the ratio cancels it
    (benchmark/README.md has the measurements).
    """
    probe = low_decile(samples["host.probe_ms"])
    scale = REF_PROBE_MS / probe
    return {"latency_ms": ("ms", low_decile(samples["host.pass_ms"]) * scale),
            "setup_s": ("s", low_decile(samples["host.setup_s"]) * scale)}


def trace_path(arg, workload, out_dir, many):
    if arg == "0":
        return None
    if arg == "1":
        return out_dir / f"trace_{workload}.json"
    path = Path(arg)
    if many:
        path = path.with_name(f"{path.stem}_{workload}{path.suffix}")
    return path


def run_workload(binary, workload, args, out_dir, trace, env):
    """Run one workload process; returns its summarized results."""
    raw = out_dir / f"raw_{workload}.json"
    if raw.exists():
        raw.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json-out", str(raw)]
    if trace:
        cmd += ["--trace-out", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    elapsed = time.monotonic() - start
    if code is None or not raw.exists():
        why = "timed out" if code is None else f"exited {code}"
        log(f"run.py: {workload} {why} without results")
        return {"workload": workload, "correct": False, "attempted": 1,
                "failed": 1, "failures": [why], "metrics": {},
                "elapsed_s": elapsed}
    data = json.loads(raw.read_text())
    metrics, consistent = {}, True
    attempted, failed = data["attempted"], data["failed"]
    for name, m in data["metrics"].items():
        # The program writes a value that is not finite as null: a
        # measurement that failed.
        if None in m["samples"]:
            attempted, failed = attempted + 1, failed + 1
            data["failures"].append(f"metric {name} is not a finite number")
            continue
        med, q1, q3 = summarize(m["samples"])
        metrics[name] = {"unit": m["unit"], "exact": m["exact"],
                         "median": med, "q1": q1, "q3": q3,
                         "n": len(m["samples"])}
        # A simulated value must not change between passes of one run.
        if m["exact"] and len(set(m["samples"])) > 1:
            consistent = False
            data["failures"].append(f"exact metric {name} varied "
                                    "between passes")
    if all(f"host.{k}" in metrics for k in ("pass_ms", "probe_ms", "setup_s")):
        n = metrics["host.pass_ms"]["n"]
        raw = {k: v["samples"] for k, v in data["metrics"].items()}
        for name, (unit, value) in host_normalized(raw).items():
            metrics[name] = {"unit": unit, "exact": False, "median": value,
                             "q1": value, "q3": value, "n": n}
    frac = failed / max(attempted, 1)
    metrics["fail_frac"] = {"unit": "ratio", "exact": False, "median": frac,
                            "q1": frac, "q3": frac, "n": 1}
    return {"workload": workload, "seed": data["seed"],
            "correct": (code == 0 and attempted > 0 and failed == 0
                        and consistent),
            "attempted": attempted, "failed": failed,
            "failures": data["failures"], "metrics": metrics,
            "elapsed_s": elapsed}


def print_metrics(result):
    print(f"== {result['workload']}  (attempted {result['attempted']}, "
          f"failed {result['failed']}, {result['elapsed_s']:.1f} s)")
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        print(f"{name} {m['unit']} {m['median']:.6g} "
              f"[{m['q1']:.6g},{m['q3']:.6g}] n={m['n']}")
    for failure in result["failures"]:
        print(f"MISMATCH {failure}")


def contract_line(result, contract, traced):
    """The one-line JSON the benchmark contract asks for; a declared
    metric the workload did not produce (or produced as null) makes the
    run incorrect."""
    wanted = contract["per_layer" if traced else "end_to_end"]
    metrics = {}
    for spec in wanted:
        m = result["metrics"].get(spec["name"])
        if m is None:
            log(f"run.py: metric {spec['name']} missing")
            result["correct"] = False
            continue
        metrics[spec["name"]] = {"value": m["median"], "unit": spec["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=2020)
    ap.add_argument("--seconds", type=float,
                    default=contract["run_seconds"])
    ap.add_argument("--trace", default="0",
                    help="0, 1, or a Chrome trace output file")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: a fast bit-rot and mismatch check")
    ap.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)

    if not build(args.build_dir):
        return 2
    out_dir = args.build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    binary = args.build_dir / "genesis_benchmark"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GENESIS_")}

    workloads = args.workload or WORKLOADS
    results = []
    for workload in workloads:
        trace = trace_path(args.trace, workload, out_dir, len(workloads) > 1)
        result = run_workload(binary, workload, args, out_dir, trace, env)
        results.append(result)
        print_metrics(result)
        if trace and result["correct"]:
            print(f"trace {trace}")

    line = None
    if len(workloads) == 1:
        line = contract_line(results[0], contract, args.trace != "0")
    summary = out_dir / "bench_results.json"
    summary.write_text(json.dumps({r["workload"]: r for r in results},
                                  indent=1, sort_keys=True) + "\n")
    ok = all(r["correct"] for r in results)
    if line is None:
        print(f"results {summary}")
        print("all checks passed" if ok else "CHECKS FAILED")
    else:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
