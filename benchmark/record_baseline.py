"""Record a baseline: seeded untraced runs of every workload, then one traced run.

    python3 benchmark/record_baseline.py --out benchmark/baseline/NAME.json

Runs `run.py` once per workload of BENCHMARK.json and seed 1 to 10, one
run at a time, for the `run_seconds` of BENCHMARK.json. Writes every run's
final JSON object and printed lines and, per end-to-end metric, the median,
the quartiles from `statistics.quantiles(values, n=4)` and their distance
as a share of the median. Exits 1 if any run failed or reported `"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace):
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.splitlines()
    return {
        "seed": seed,
        "trace": trace,
        "exit_code": done.returncode,
        "wall_s": time.perf_counter() - start,
        "result": json.loads(lines[-1]) if lines else None,
        "printed": lines[:-1],
        "stderr": done.stderr.splitlines(),
    }


def summary(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
    return out


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seconds = config["run_seconds"]
    doc = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(one_run(workload, seed, seconds, 0))
            print(workload, seed, runs[-1]["result"], flush=True)
        traced = one_run(workload, 1, seconds, 1)
        every = runs + [traced]
        ok &= all(r["exit_code"] == 0 and r["result"]["correct"] for r in every)
        doc["workloads"][workload] = {
            "summary": summary(runs),
            "runs": runs,
            "traced_run": traced,
        }
        doc["context"] = runs[0]["printed"][0]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, stats in entry["summary"].items():
            print(f"{workload} {name} median {stats['median']:.6g} "
                  f"{stats['unit']} spread {stats['spread']:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
