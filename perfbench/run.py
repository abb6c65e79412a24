"""guesswork-lab benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload sampled-modes --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py for what each one exercises and why):
``sampled-modes``, ``scan-engine`` and ``cli-readme``.  All load comes from
this one process, one call or one child process at a time.

With ``--trace 0`` the run repeats the workload's fixed work ("a pass"),
at least MIN_PASSES times and then while another pass still ends within
``--seconds`` of the start, and reports the end-to-end metrics named in
BENCHMARK.json:

* ``setup_s`` -- median over at least SETUP_SAMPLES fresh processes of
  the time before the first trial: for in-process workloads, importing the
  package and building the pass's inputs; for ``cli-readme``, a bare CLI
  process start (``--version``) measured from outside.  One sample is
  taken before each pass, the rest after the last, so that the samples
  spread over the run: import time swings with host load more than the
  passes do.
* ``wall_s`` -- the median pass time, checks included, plus ``setup_s``
  for in-process workloads (``cli-readme`` passes start their own
  processes).  The pass time is built from medians: each trial-producing
  call's median over the passes, summed, plus the median of the rest.
* ``trials_per_s`` -- the workload's fixed trial count over the summed
  per-call medians of the trial-producing calls (for ``cli-readme``, the
  three trial-producing processes less one ``setup_s`` each).
* ``peak_rss_mb`` -- peak resident memory of this process, or of the
  largest child for ``cli-readme``.
* ``pass_frac`` -- correctness checks passed over checks attempted, i.e.
  1 - failed_frac.  Metrics must never read 0, so the failed fraction is
  printed by name above the result and carried by its ``failed`` and
  ``attempted`` fields.

With ``--trace 1`` the run makes one untraced pass and two traced passes
and reports the per-layer metrics (spans.py).  It checks that the two
traced passes took identical counts and that all passes returned identical
outputs, and reports traced minus untraced pass time as the tracing
overhead.  The traced ``cli-readme`` passes call the CLI in this process,
so that workload makes one more untraced pass in this process to take the
overhead from; its pass of child processes gives the outputs to match.

The last line of standard output is the JSON result.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the program under
test cannot be found.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
MIN_PASSES = 2
IMPORT_SAMPLES = 3

_SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]))\n"
    "print(time.perf_counter() - t0)\n"
)
_IMPORT_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import guesswork_lab.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def steal_ticks() -> int:
    """Host steal time so far, in clock ticks (read-only, from /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def _timed_child(code: str, *args: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def setup_sample(name: str, seed: int) -> float:
    """Set-up time in one fresh process."""
    import workloads as wl

    if wl.WORKLOADS[name].in_process:
        return _timed_child(_SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed))
    start = time.perf_counter()
    code, _ = wl.cli_subprocess(["--version"])
    if code != 0:
        raise RuntimeError(f"guesswork-lab --version exited {code}")
    return time.perf_counter() - start


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(name: str, seed: int, seconds: float):
    import workloads as wl

    workload = wl.WORKLOADS[name]
    begin = time.perf_counter()
    state = workload.setup(seed)
    setups, passes, walls = [], [], []
    # A set-up sample, then a pass, until the next pair would end past `seconds`.
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - begin + statistics.median(walls) + setups[-1] < seconds
    ):
        setups.append(setup_sample(name, seed))
        start = time.perf_counter()
        passes.append(workload.run(state))
        walls.append(time.perf_counter() - start)
    setups += [setup_sample(name, seed) for _ in range(SETUP_SAMPLES - len(setups))]
    setup = statistics.median(setups)
    # Each trial-producing call's median over the passes, summed: a burst of
    # host load that slows one call in one pass moves no median.
    trial_median = sum(
        statistics.median(p.trial_units[unit] for p in passes) for unit in passes[0].trial_units
    )
    other_median = statistics.median(wall - p.trial_s for wall, p in zip(walls, passes))
    checks = [c for p in passes for c in p.checks]
    metrics = {
        "setup_s": setup,
        "wall_s": trial_median + other_median + (setup if workload.in_process else 0.0),
        "trials_per_s": state.trials / (trial_median - state.process_starts * setup),
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
    }
    notes = {"pass_s": [round(w, 4) for w in walls], "setup_s": [round(s, 4) for s in setups]}
    return metrics, checks, notes


def run_traced(name: str, seed: int):
    import workloads as wl
    from spans import Tracer

    workload = wl.WORKLOADS[name]
    state = workload.setup(seed)
    start = time.perf_counter()
    plain = workload.run(state)
    plain_wall = time.perf_counter() - start
    untraced = [plain]

    import_s = 0.0
    run_here = workload.run
    if not workload.in_process:
        import_s = statistics.median(_timed_child(_IMPORT_CHILD, str(SRC)) for _ in range(IMPORT_SAMPLES))
        import guesswork_lab.cli  # noqa: F401  (so its namespace is rebound too)
        # The traced passes call the CLI in this process, so the overhead is
        # taken from an untraced pass made the same way, not from child
        # processes that each pay a start-up.
        run_here = functools.partial(workload.run, in_process=True)
        start = time.perf_counter()
        untraced.append(run_here(state))
        plain_wall = time.perf_counter() - start

    traced = []
    for _ in range(2):
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.installed():
            result = run_here(state)
        traced.append((tracer, result, time.perf_counter() - start))

    (tracer, result, wall), (tracer2, result2, _) = traced
    passes = [*untraced, result, result2]
    checks = [c for r in passes for c in r.checks]
    same_counts = tracer.deterministic_counts() == tracer2.deterministic_counts()
    checks.append(("trace.counts_repeat", same_counts, "counts of the two traced passes are identical"))
    same_outputs = all(r.outputs == plain.outputs for r in passes)
    checks.append(("trace.outputs_unchanged", same_outputs, "traced and untraced passes return identical outputs"))

    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_s
    for command, _ in wl.README_COMMANDS:
        metrics[f"cli.{command}.wall_s"] = result.command_s.get(command, 0.0)
    metrics["cli.stdout_bytes"] = sum(len(out) for out in result.outputs.values() if isinstance(out, bytes))
    metrics["trace.overhead_s"] = wall - plain_wall
    return metrics, checks, {"counts": tracer.deterministic_counts()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="guesswork-lab benchmark")
    parser.add_argument("--workload", required=True, choices=("sampled-modes", "scan-engine", "cli-readme"))
    parser.add_argument("--seed", type=lambda text: int(text, 0), default=0xC0FFEE)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "guesswork_lab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["GUESSWORK_LAB_WORKERS"] = "1"  # in-process CLI calls, like the child processes
    import numpy

    import guesswork_lab

    if Path(guesswork_lab.__file__).resolve().parent != SRC / "guesswork_lab":
        print(f"error: imported {guesswork_lab.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    steal_before = steal_ticks()
    if args.trace:
        measured, checks, extra = run_traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        measured, checks, extra = run_untraced(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    failed = sum(not ok for _, ok, _ in checks)
    measured["pass_frac"] = 1.0 - failed / len(checks)

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "steal_ticks": steal_ticks() - steal_before,
    }
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print("# machine: " + json.dumps(machine, sort_keys=True))
    print("# run: " + json.dumps({"workload": args.workload, "seed": args.seed, **extra}, sort_keys=True))
    for key, item in metrics.items():
        print(f"{key:<50} {item['value']:.6g} {item['unit']}")
    print(f"{'failed_frac':<50} {failed / len(checks):.6g} ratio ({failed} of {len(checks)} checks)")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
