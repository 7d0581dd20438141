"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tangent-q --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, measured with no instrumentation;
times are scaled to a reference CPU speed (see ``perfbench/speed.py``).
With ``--trace 1`` it runs the task list once untraced and once with every
layer wrapped, reports the per-layer metrics and the tracing overhead, and
writes the spans to ``perfbench/out/``; an untraced run leaves its per-task
time samples there.  The last line of standard output is the JSON result;
per-task details go to standard error.  The exit code is nonzero when any
answer is wrong or the checkout has no quotbilin sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.stats import median  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up is timed in this many fresh interpreters, spread evenly over the
# measured run; the median is reported.
SETUP_REPEATS = 11


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Outcome:
    samples: dict[str, list[float]]  # scaled seconds when timed with a probe
    attempted: int = 0
    failed: int = 0


def run_task(task, outcome: Outcome, probe: speed.SpeedProbe | None = None) -> None:
    """Run and check one task and record its time: wall seconds, or with a
    ``probe`` seconds at the reference speed."""
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    try:
        answer, error = task.run(), None
    except Exception as exc:  # a failing task is counted and the run goes on
        answer, error = None, exc
    if probe is not None:
        elapsed = speed.scale(probe.stop(), probe.mean())
    else:
        elapsed = time.perf_counter() - t0
    outcome.attempted += 1
    outcome.samples[task.name].append(elapsed)
    if error is not None:
        outcome.failed += 1
        log(f"FAIL {task.name}: {''.join(traceback.format_exception(error))}")
    elif answer != task.expected:
        outcome.failed += 1
        log(f"FAIL {task.name}: answer {answer!r}, expected {task.expected!r}")


def measure(tasks, seconds: float, before_task=None, probe=None) -> Outcome:
    """Run every task once, then repeat tasks while each still fits in the time.

    Tasks run one at a time in this process (a closed loop with one client).
    After the first pass a task is repeated only if its last duration fits in
    what is left of ``seconds``, so small tasks collect more samples.
    ``before_task(elapsed)`` is called before each task with the time spent
    so far; time spent in it does not count against ``seconds``.  With a
    ``probe``, task times are scaled to the reference speed; the time budget
    is always wall time.
    """
    outcome = Outcome({t.name: [] for t in tasks})
    last_wall: dict[str, float] = {}
    t0 = time.perf_counter()
    repeat = False
    while True:
        ran = False
        for task in tasks:
            if repeat and time.perf_counter() - t0 + last_wall[task.name] > seconds:
                continue
            if before_task is not None:
                h0 = time.perf_counter()
                before_task(h0 - t0)
                t0 += time.perf_counter() - h0
            w0 = time.perf_counter()
            run_task(task, outcome, probe)
            last_wall[task.name] = time.perf_counter() - w0
            ran = True
        if not ran:
            return outcome
        repeat = True


def list_time(outcome: Outcome) -> float:
    """Time to finish the task list once: the sum of per-task medians."""
    return sum(median(s) for s in outcome.samples.values())


def time_setup(workload: str, seed: int) -> float:
    """Time of interpreter start, imports and input generation, in seconds at
    the reference speed.

    The child probes its own speed from the start of ``main`` to the end of
    its set-up and prints the system-wide monotonic clock when probing began,
    the time it spent warming the probe up before that, the time probed less
    the probes and their mean duration; so the time excludes interpreter exit
    and the parent's polling for it.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, check=True, timeout=170, cwd=ROOT,
                          capture_output=True, text=True)
    probed_from, warmup, busy, mean_probe = map(float, proc.stdout.split()[-4:])
    return speed.scale(probed_from - t0 - warmup + busy, mean_probe)


def tasks_path(workload: str, seed: int) -> Path:
    """Where an untraced run leaves its per-task time samples."""
    return OUT_DIR / f"tasks-{workload}-seed{seed}.json"


def declared_metrics(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def result_line(correct: bool, outcome: Outcome, values: dict, kind: str) -> str:
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(set(values) ^ set(units))} "
                           f"do not match the {kind} metrics of BENCHMARK.json")
    return json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def log_tasks(outcome: Outcome, label: str) -> None:
    for name, samples in outcome.samples.items():
        log(f"{label} {name}: n={len(samples)} median={median(samples):.4f}s")


def run_untraced(wl, args) -> tuple[bool, Outcome, dict]:
    # Spreading the set-ups over the run makes their median sample the same
    # swings in host speed as the task times, rather than a few seconds of it.
    setups: list[float] = []

    def setup_when_due(elapsed: float) -> None:
        while (len(setups) < SETUP_REPEATS
               and elapsed >= len(setups) * args.seconds / SETUP_REPEATS):
            setups.append(time_setup(args.workload, args.seed))

    probe = speed.SpeedProbe()
    outcome = measure(wl.tasks, args.seconds, before_task=setup_when_due, probe=probe)
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(args.workload, args.seed))
    log_tasks(outcome, "task")
    log("setup: " + " ".join(f"{t:.3f}s" for t in setups))
    log(f"speed probe: kernel {1e3 * median(probe.means):.3f} ms (median over tasks), "
        f"{1e3 * speed.REF_PROBE_S:.3f} ms at the reference speed")
    with open(tasks_path(args.workload, args.seed), "w") as fh:
        json.dump(outcome.samples, fh, indent=1)
    values = {
        "wall_s": list_time(outcome),
        "largest_task_s": median(outcome.samples[wl.largest]),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
    }
    return outcome.failed == 0, outcome, values


def run_traced(wl, args) -> tuple[bool, Outcome, dict]:
    from perfbench import spans

    plain = measure(wl.tasks, 0)
    rec = spans.SpanRecorder()
    restore = spans.instrument(rec)

    def next_task(_elapsed: float) -> None:
        rec.task_id += 1

    try:
        traced = measure(wl.tasks, 0, before_task=next_task)
    finally:
        restore()
    log_tasks(plain, "untraced")
    log_tasks(traced, "traced")
    errors = rec.nesting_errors()
    for e in errors:
        log(f"span nesting: {e}")
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin.gz"
    rec.write(str(path))
    log(f"{len(rec)} spans written to {path.relative_to(ROOT)}")
    values = spans.layer_metrics(rec)
    values["trace.overhead_ratio"] = list_time(traced) / list_time(plain)
    log(f"tracing overhead: traced {list_time(traced):.3f}s / untraced "
        f"{list_time(plain):.3f}s = {values['trace.overhead_ratio']:.3f}")
    combined = Outcome(traced.samples, plain.attempted + traced.attempted,
                       plain.failed + traced.failed)
    return combined.failed == 0 and not errors, combined, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        w0 = time.monotonic()
        probe = speed.SpeedProbe()
        probed_from = time.monotonic()
        probe.start()
    if not (SRC / "quotbilin" / "__init__.py").is_file():
        log(f"error: no quotbilin sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.setup(args.workload, args.seed, workdir)
        if args.setup_only:
            busy = probe.stop()
            print(probed_from, probed_from - w0, busy, probe.mean())
            return 0
        if args.trace:
            correct, outcome, values = run_traced(wl, args)
            line = result_line(correct, outcome, values, "per_layer")
        else:
            correct, outcome, values = run_untraced(wl, args)
            line = result_line(correct, outcome, values, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
