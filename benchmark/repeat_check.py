#!/usr/bin/env python3
"""Check that the benchmark repeats within its own bounds.

Runs every workload once per seed (seeds 100..100+N-1), as a set, and
the whole set twice, exactly as the benchmark command is run (for
BENCHMARK.json's run_seconds):

    python3 benchmark/repeat_check.py              # 2 sets x 10 seeds
    python3 benchmark/repeat_check.py --seeds 4 --workload sql_mapped

For every (workload, end-to-end metric) it prints both sets' medians
over the seeds, each set's spread (distance between the first and third
quartile, as statistics.quantiles(n=4) gives them, over the median) and
the metric's bound from BENCHMARK.json. It fails when

  - a spread exceeds the bound,
  - the second set's median is worse than the first's by more than the
    bound, or
  - any exact (simulated or modeled) metric differs between the two
    runs of one seed, or any run fails its correctness checks.

Spreads above a third of the bound are flagged as "noisy": the fix is
to lengthen the workload (more jobs or passes), never to widen a bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["stages16", "sql_mapped"]
SETS = 2


def run_once(workload, seed):
    """One benchmark run; returns (contract line, bench_results entry)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {"correct": False}
    results = ROOT / ".bench_build" / "results" / "bench_results.json"
    detail = json.loads(results.read_text()).get(workload, {})
    return line, detail


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or WORKLOADS
    # Seeds 100 and up: 2020 is the default and 7 is held out for claims.
    seeds = list(range(100, 100 + args.seeds))

    # runs[set][workload][seed] = (line, detail)
    runs = []
    for s in range(SETS):
        runs.append({})
        for w in workloads:
            runs[s][w] = {}
            for seed in seeds:
                line, detail = run_once(w, seed)
                runs[s][w][seed] = (line, detail)
                vals = {k: round(v["value"], 4)
                        for k, v in line.get("metrics", {}).items()}
                print(f"set {s + 1} {w} seed {seed}: "
                      f"correct={line.get('correct')} {vals}",
                      file=sys.stderr, flush=True)

    problems = []
    print(f"{'workload':<11} {'metric':<12} {'median1':>11} {'median2':>11}"
          f" {'spread1':>8} {'spread2':>8} {'bound':>6}  verdict")
    for w in workloads:
        for spec in contract["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            meds, spreads = [], []
            for s in range(SETS):
                values = [runs[s][w][seed][0]["metrics"][name]["value"]
                          for seed in seeds
                          if name in runs[s][w][seed][0].get("metrics", {})]
                if len(values) < 2:
                    problems.append(f"{w} {name}: too few values")
                    meds.append(float("nan"))
                    spreads.append(float("nan"))
                    continue
                med, spr = spread(values)
                meds.append(med)
                spreads.append(spr)
            verdict = "steady"
            if max(spreads) > bound:
                verdict = "SPREAD"
                problems.append(f"{w} {name}: spread {max(spreads):.3f} > "
                                f"bound {bound}")
            elif max(spreads) > bound / 3:
                verdict = "noisy"
            worse = (meds[1] - meds[0]) / meds[0]
            if spec["better"] == "higher":
                worse = -worse
            if worse > bound:
                verdict = "DRIFT"
                problems.append(f"{w} {name}: median worse by "
                                f"{worse:.3f} > bound {bound}")
            cols = " ".join(f"{m:>11.5g}" for m in meds)
            sprs = " ".join(f"{x:>8.3f}" for x in spreads)
            print(f"{w:<11} {name:<12} {cols} {sprs} {bound:>6}  {verdict}")

        # Exact metrics must repeat bit-for-bit for the same seed.
        for seed in seeds:
            first = runs[0][w][seed][1].get("metrics", {})
            for s in range(SETS):
                line, detail = runs[s][w][seed]
                if not line.get("correct"):
                    problems.append(f"{w} seed {seed} set {s + 1}: "
                                    "run not correct")
                for name, m in detail.get("metrics", {}).items():
                    if m.get("exact") and first[name]["median"] != m["median"]:
                        problems.append(
                            f"{w} seed {seed}: exact {name} "
                            f"{first[name]['median']!r} != {m['median']!r}")
    for p in problems:
        print("FAIL " + p)
    print("repeat check passed" if not problems else
          f"repeat check FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
