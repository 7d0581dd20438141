"""Run one workload under several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload census-f3 --seeds 1-10 --out summary.json

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, for
``run_seconds`` of BENCHMARK.json, and prints for every metric the median,
the quartiles and their distance as a share of the median (the spread), next
to the metric's bound from BENCHMARK.json.  The
summary file also holds, per task, the quartiles over seeds of each run's
median task time.  A run that fails or prints no result line stops the
summary with an error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import tasks_path  # noqa: E402
from perfbench.stats import median, quartiles, relative_spread  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(results: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = quartiles(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": q2,
                     "q1": q1, "q3": q3, "spread": relative_spread(values),
                     "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8-9")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    task_medians: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: seed {seed} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(lines[-1]))
        print(f"seed {seed}: {lines[-1]}", flush=True)
        with open(tasks_path(args.workload, seed)) as fh:
            for name, samples in json.load(fh).items():
                task_medians.setdefault(name, []).append(median(samples))
    summary = summarise(results, bounds)
    for name, s in summary.items():
        bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}"
        print(f"{name:45s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}{bound}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                       "metrics": summary,
                       "task_median_s": {n: quartiles(v) for n, v in task_medians.items()}},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
