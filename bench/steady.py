"""Steadiness of the benchmark: python3 bench/steady.py [--workload W] [--runs N] [--sets 1|2]

Runs run.py --trace 0 once per seed (seeds 1..N), for run_seconds from
BENCHMARK.json, each run in its own process, one after another, and
prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
next to the metric's bound in BENCHMARK.json.  With --sets 2
it runs a second set on the following seeds and checks that the sets
agree: the second median no worse than the first by more than the bound,
and the same share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("search", "fixpoint", "cli")


def one_run(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            runs = [one_run(workload, seed, seconds) for seed in seeds]
            sets.append({"runs": runs, "summary": summary(runs)})
        print(f"{workload}: {args.runs} runs per set, seeds from 1, {seconds:g} s each")
        for name, stats in sets[0]["summary"].items():
            bound = metrics[name]["bound"]
            line = f"  {name:14s} {metrics[name]['unit']:4s} bound {bound:.2f}"
            for n, st in enumerate(s["summary"][name] for s in sets):
                line += f" | set{n + 1} median {st['median']:10.4f} q1 {st['q1']:10.4f} q3 {st['q3']:10.4f} spread {st['spread']:.3f}"
                if st["spread"] > bound:
                    line += " SPREAD>BOUND"
                    ok = False
            if len(sets) == 2:
                worse = worse_by(stats["median"], sets[1]["summary"][name]["median"], metrics[name]["better"])
                line += f" | set2 worse by {worse:+.3f}"
                if worse > bound:
                    line += " >BOUND"
                    ok = False
            print(line)
        shares = [sum(r["failed"] for r in s["runs"]) / sum(r["attempted"] for r in s["runs"]) for s in sets]
        correct = all(r["correct"] for s in sets for r in s["runs"])
        print(f"  share of failed operations per set {shares}, all correct: {correct}")
        ok = ok and correct and len(set(shares)) == 1
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
