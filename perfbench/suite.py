#!/usr/bin/env python3
"""Run the benchmark of record over several seeds and summarise it.

    python3 perfbench/suite.py                      # seeds 1-10, all workloads
    python3 perfbench/suite.py --held-out           # the held-out seed only
    python3 perfbench/suite.py --compare perfbench/baseline.json
    python3 perfbench/suite.py --write summary.json

For every workload and metric it prints the median over the runs and
the spread (the distance between the first and third quartile as a
share of the median). With --compare it also prints each median's
change against the baseline file and flags end-to-end metrics that got
worse by more than their bound in BENCHMARK.json.

The held-out seed was never used while the benchmark was tuned; check a
performance claim on it as well as on seeds 1-10.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 1000003


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed,
                                                  proc.returncode))
    return result


def summarise(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[-1],
            "spread": (q[-1] - q[0]) / med if med else 0.0,
            "values": values}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5")
    parser.add_argument("--held-out", action="store_true",
                        help="run only the held-out seed %d" % HELD_OUT_SEED)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="BASELINE")
    parser.add_argument("--write", metavar="FILE")
    args = parser.parse_args()

    seeds = [HELD_OUT_SEED] if args.held_out else parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    baseline = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            baseline = json.load(f)
        key = "held_out" if args.held_out else "workloads"
        baseline = baseline.get(key, {})

    summary = {}
    regressions = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"]
                                       for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary[workload] = metrics

        print("%s (seeds %s)" % (workload, ",".join(map(str, seeds))))
        for name, m in metrics.items():
            line = "  %-26s %14.6g %-6s spread %.3f" % (
                name, m["median"], m["unit"], m["spread"])
            base = (baseline or {}).get(workload, {}).get(name)
            if base and base["median"]:
                change = m["median"] / base["median"] - 1.0
                line += "  vs baseline %+.1f%%" % (100.0 * change)
                spec = bounds.get(name)
                if spec:
                    worse = -change if spec["better"] == "higher" else change
                    if worse > spec["bound"]:
                        line += "  WORSE THAN BOUND %.2f" % spec["bound"]
                        regressions += 1
            print(line)

    if args.write:
        with open(args.write, "w", encoding="utf-8") as f:
            json.dump({"seeds": seeds, "seconds": args.seconds,
                       "trace": args.trace, "workloads": summary}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
