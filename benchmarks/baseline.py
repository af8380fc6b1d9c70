"""Record the benchmark baseline of this machine in benchmarks/baseline.json.

Runs every workload of BENCHMARK.json ``--runs`` times untraced, each on
another seed (the first is the reference seed 42), then once traced at
seed 42. For each end-to-end metric it records the median, the
quartiles, and the spread (interquartile distance as a share of the
median) that the metric's bound is compared against. Run it from the
repository root:

    python3 benchmarks/baseline.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args(argv)
    seeds = [42] + list(range(1, args.runs))
    baseline = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            env, result = run_once(name, seed, 0)
            runs.append(result)
            print(name, seed, result["correct"],
                  {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  flush=True)
        _, traced = run_once(name, 42, 1)
        baseline["env"] = env
        baseline["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"], **summarize(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in SPEC["end_to_end"]
            },
            "per_layer_seed42": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in baseline["workloads"][name]["end_to_end"].items():
            print(f"{name:14s} {metric:14s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} bound {s['bound']}", flush=True)
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
