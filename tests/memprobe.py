"""Print the page faults, system time and traced memory peak of each
scan-engine benchmark config, run repeatedly in this one process.

    PYTHONPATH=src python tests/memprobe.py [--seed S] [--runs R] [label ...]

The configs are those of perfbench's scan-engine workload
(``perfbench/workloads.py:scan_configs``), each one a ``run_experiment``
call with the literal scan; labels such as ``allocated-online.m10.scan``
pick some of them.  Every config runs R times (2 by default), one line
each: the minor page faults and the system time of the run, both read
with getrusage on this process, and its wall time.  A run that reuses
the pages of the runs before it takes few faults and little system time.
One more run under tracemalloc then gives the config's peak of traced
memory; it is kept apart because tracing adds allocations of its own.
The script is not a test (pytest does not collect it) and gates nothing.
"""
from __future__ import annotations

import argparse
import pathlib
import resource
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from guesswork_lab import experiments as ex  # noqa: E402
from workloads import scan_configs  # noqa: E402


def probe(cfg) -> tuple[int, float, float]:
    """(minor faults, system s, wall s) of one run_experiment call."""
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    ex.run_experiment(cfg)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime, wall


def traced_peak_mb(cfg) -> float:
    tracemalloc.start()
    try:
        ex.run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Page faults, system time and traced peak of scan-engine configs.")
    parser.add_argument("--seed", type=lambda text: int(text, 0), default=0xC0FFEE)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("labels", nargs="*")
    args = parser.parse_args(argv)
    configs = scan_configs(args.seed)
    unknown = set(args.labels) - set(configs)
    if unknown:
        parser.error(f"unknown config {sorted(unknown)}; known: {sorted(configs)}")
    for label in args.labels or configs:
        cfg = configs[label]
        for run in range(1, args.runs + 1):
            faults, system_s, wall_s = probe(cfg)
            print(f"{label} run {run}: {faults} minor faults, system {system_s * 1e3:.0f} ms, "
                  f"wall {wall_s * 1e3:.0f} ms")
        print(f"{label} traced peak: {traced_peak_mb(cfg):.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
