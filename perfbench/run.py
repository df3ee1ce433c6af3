#!/usr/bin/env python3
"""Build and run the SynDCIM end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/e2e.exe with dune from the repository root it is run in,
then replaces itself with one run of one workload; the last line of
standard output is the run's JSON result.

    python3 perfbench/run.py --workload all --runs 5 [--seed N] ...

runs every workload (or the named one) --runs times, each run in its own
process with seeds N, N+1, ..., and prints each metric's median and its
spread: the distance between the first and third quartiles as a share of
the median. It also checks that every metric named in BENCHMARK.json is
printed with its unit. The last line is a JSON summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paper_macros", "fuzz_batch", "warm_service", "verify_campaign"]
EXE = os.path.join(os.environ.get("DUNE_BUILD_DIR", "_build"), "default",
                   "perfbench", "e2e.exe")


def build():
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "--cache", "disabled", "./perfbench/e2e.exe"],
        stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run_args(workload, seed, args):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json expects in this mode."""
    if not os.path.exists("BENCHMARK.json"):
        return {}
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def calibrate(args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    expected = declared_metrics(args.trace)
    ok, attempted, failed, summary = True, 0, 0, {}
    for w in workloads:
        values, units = {}, {}
        for i in range(args.runs):
            seed = args.seed + i
            done = subprocess.run(run_args(w, seed, args),
                                  stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(done.stdout)
                print(f"{w} seed {seed}: run failed "
                      f"(exit {done.returncode})")
                ok = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: {result['attempted']} attempted, "
                  f"{result['failed']} failed; " +
                  " ".join(f"{name}={m['value']:.6g}"
                           for name, m in result["metrics"].items()),
                  flush=True)
        for name, unit in expected.items():
            if units.get(name) != unit:
                print(f"{w}: metric {name} ({unit}) missing or mislabelled")
                ok = False
        print(f"{w}: median and quartile spread over {args.runs} runs")
        for name, vs in values.items():
            med, sp = spread(vs)
            print(f"  {name:36s} {med:14.6g} {units[name]:9s} "
                  f"spread {sp:.4f}")
            summary[f"{w}/{name}"] = {"value": med, "unit": units[name],
                                      "spread": sp}
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if ok and failed == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1)
    args = p.parse_args()
    build()
    if args.workload != "all" and args.runs == 1:
        os.execv(EXE, run_args(args.workload, args.seed, args))
    sys.exit(calibrate(args))


if __name__ == "__main__":
    main()
