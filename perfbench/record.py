"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/record.py [--workloads a,b] [--seeds 1,2,3] \
        [--seconds 15] [--trace 0|1] [--out FILE]

For every workload and seed this runs perfbench/run.py in a fresh
process and keeps the JSON object it prints last.  The summary gives,
per metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, plus failed and attempted op counts.
With --out the raw results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((ln[5:] for ln in lines if ln.startswith("env: ")), "{}")
    return json.loads(lines[-1]), env


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, m in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan")}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    env = "{}"
    for seed in seeds:
        for w in workloads:
            res, env = run_one(w, seed, args.seconds, args.trace)
            res["seed"] = seed
            runs[w].append(res)
            print(f"{w} seed {seed}: attempted {res['attempted']}, "
                  f"failed {res['failed']}", file=sys.stderr, flush=True)

    summary = {w: summarize(rs) for w, rs in runs.items()}
    print(f"env: {env}")
    for w, s in summary.items():
        att = sum(r["attempted"] for r in runs[w])
        fail = sum(r["failed"] for r in runs[w])
        print(f"\n{w}: {len(runs[w])} runs, ops attempted {att}, failed {fail}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit")
        for name, m in s.items():
            print(f"  {name:40s} {m['median']:12.6g} {m['q1']:12.6g} "
                  f"{m['q3']:12.6g} {m['spread']:8.4f}  {m['unit']}")
    if args.out:
        doc = {"env": json.loads(env), "seconds": args.seconds, "trace": args.trace,
               "seeds": seeds, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
