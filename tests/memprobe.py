"""Print the page faults, system time and traced memory peak of each
benchmark config, run repeatedly in this one process.

    PYTHONPATH=src python tests/memprobe.py [--seed S] [--runs R] [label ...]

The configs are those of perfbench's scan-engine and sampled-modes
workloads (``perfbench/workloads.py``): each scan-engine and sampled
``run_experiment`` config, the strategy-irrelevance arms of scan-engine
(``strategy_arms.ascending``, one ascending attack per key, and
``strategy_arms.permutation``, the seeded-permutation attacks of every
permutation arm), the m = 30 most-likely panel and the m = 10
concentration report.  Labels such as ``allocated-online.m10.scan`` or
``concentration.m10`` pick some of them, and a workload's name,
``scan-engine`` or ``sampled-modes``, picks all of its own.  The chosen
configs run R times (2 by default), in passes over them, one line per
config: the minor page faults and the system time of the run, both read
with getrusage on this process, and its wall time; each pass ends with
its total faults.  A pass that reuses the pages of the passes before it
takes few faults and little system time.  One more run of each config
under tracemalloc then gives its peak of traced memory; it is kept apart
because tracing adds allocations of its own.  The script is not a test
(pytest does not collect it) and gates nothing.
"""
from __future__ import annotations

import argparse
import pathlib
import resource
import sys
import time
import tracemalloc
from functools import partial
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from guesswork_lab import attack  # noqa: E402
from guesswork_lab import experiments as ex  # noqa: E402
from guesswork_lab import hashmodel as hm  # noqa: E402
from workloads import C03_M, C03_N, C03_TARGET, P, scan_configs, setup_sampled, setup_scan  # noqa: E402


def strategy_arms(seed: int) -> dict[str, Callable[[], object]]:
    """Label -> one pass of a strategy-irrelevance arm over scan-engine's keys."""
    state = setup_scan(seed)
    models = [hm.KeyedHashModel(m=C03_M, n=C03_N, p=P, seed=key_seed) for key_seed in state.key_seeds]

    def arm(*orders):
        return lambda: [attack.online_attack(h, C03_TARGET, strat) for order in orders for h, strat in zip(models, order)]

    return {
        "strategy_arms.ascending": arm([attack.ascending()] * len(models)),
        "strategy_arms.permutation": arm(*([attack.permutation(s) for s in seeds] for seeds in state.permutation_seeds)),
    }


def workload_calls(seed: int) -> dict[str, dict[str, Callable[[], object]]]:
    """Workload name -> label -> one call of that config."""
    sampled = setup_sampled(seed)
    calls = {
        "scan-engine": {
            **strategy_arms(seed),
            **{label: partial(ex.run_experiment, cfg) for label, cfg in scan_configs(seed).items()},
        },
        "sampled-modes": {label: partial(ex.run_experiment, cfg) for label, cfg in sampled.configs.items()},
    }
    calls["sampled-modes"]["most_likely_panel.m30"] = partial(ex.most_likely_panel, sampled.panel)
    calls["sampled-modes"]["concentration.m10"] = partial(ex.concentration_report, sampled.conc, sampled.l_values)
    return calls


def probe(call) -> tuple[int, float, float]:
    """(minor faults, system s, wall s) of one call."""
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    call()
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime, wall


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Page faults, system time and traced peak of benchmark configs.")
    parser.add_argument("--seed", type=lambda text: int(text, 0), default=0xC0FFEE)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("labels", nargs="*")
    args = parser.parse_args(argv)
    workloads = workload_calls(args.seed)
    calls = {label: call for group in workloads.values() for label, call in group.items()}
    unknown = set(args.labels) - set(calls) - set(workloads)
    if unknown:
        parser.error(f"unknown config {sorted(unknown)}; known: {sorted(workloads)} and {sorted(calls)}")
    chosen = [label for name in args.labels or workloads for label in workloads.get(name, [name])]
    for run in range(1, args.runs + 1):
        total = 0
        for label in chosen:
            faults, system_s, wall_s = probe(calls[label])
            total += faults
            print(f"{label} run {run}: {faults} minor faults, system {system_s * 1e3:.0f} ms, "
                  f"wall {wall_s * 1e3:.0f} ms")
        print(f"pass {run}: {total} minor faults")
    for label in chosen:
        print(f"{label} traced peak: {traced_peak_mb(calls[label]):.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
