"""The benchmark's own tests: tracing restores the package and changes no result.

    python3 -m pytest perfbench/test_bench.py
"""
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from guesswork_lab import attack, experiments, hashmodel  # noqa: E402
from guesswork_lab.rates import ScenarioParams  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import README_COMMANDS  # noqa: E402


def _exercise():
    """Small calls that cross every traced layer; returns their results."""
    scenario = ScenarioParams(s=0.9, p=0.3, m=6, n=14, theta=0.2)
    out = []
    for mode in ("allocated-online", "unallocated-offline", "biased-password"):
        for engine in ("sampled", "scan"):
            cfg = experiments.ExperimentConfig(scenario=scenario, trials=100, seed=7, mode=mode, engine=engine)
            est = experiments.run_experiment(cfg)
            out.append((mode, engine, est.mean, est.half_width_95, est.failures))
    model = hashmodel.KeyedHashModel(m=6, n=14, p=0.3, seed=11)
    out.append(attack.online_attack(model, 0b111100, attack.permutation(5)).guesses)
    cfg = experiments.ExperimentConfig(scenario=scenario, trials=100, seed=3, mode="unallocated-offline")
    panel = experiments.most_likely_panel(cfg)
    out.append((panel.offline_forced.mean, panel.online_conditional.mean))
    out.append([row.empirical for row in experiments.concentration_report(cfg, [0.5, 1.0])])
    table = hashmodel.sample_table_hash(4, 8, 0.25, seed=2)
    out.append(experiments.permutation_mean_guesswork(table, 0, 500, seed=4).mean)
    return out


def _snapshot():
    modules = [mod for name, mod in sys.modules.items() if name.startswith("guesswork_lab")]
    state = {(mod.__name__, key): value for mod in modules for key, value in vars(mod).items()}
    for key, value in vars(hashmodel.KeyedHashModel).items():
        state[("KeyedHashModel", key)] = value
    return state


def test_wrappers_restore_originals():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert experiments.run_experiment is not before[("guesswork_lab.experiments", "run_experiment")]
        _exercise()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_restored_after_an_exception():
    before = _snapshot()
    try:
        with Tracer().installed():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert all(_snapshot()[key] is value for key, value in before.items())


def test_tracing_changes_no_result_and_counts_repeat():
    untraced = _exercise()
    tracers = [Tracer(), Tracer()]
    traced = []
    for tracer in tracers:
        with tracer.installed():
            traced.append(_exercise())
    assert traced[0] == untraced
    assert traced[1] == untraced
    assert tracers[0].deterministic_counts() == tracers[1].deterministic_counts()

    metrics = tracers[0].metrics()
    for name in (
        "rng.biased_bits.calls", "rng.generator.calls", "rng.uniforms.calls",
        "hashmodel.models_built", "hashmodel.eval_many_overrides.idx",
        "allocation.allocate_bins.calls", "allocation.resolve_collisions.users",
        "allocation.backdoor_install.calls",
        "attack.strategy_chunks.ascending.idx", "attack.strategy_chunks.permutation.idx",
        "attack.strategy_chunks.descending.idx", "attack.attacks",
        "experiments.scan_outcome_sampled.calls", "experiments.trials",
        "experiments.most_likely_panel.self_s", "experiments.permutation_mean_guesswork.self_s",
        "experiments.concentration_report.self_s", "rates.self_s",
    ):
        assert metrics[name] > 0, name
    assert 0 < metrics["attack.useful_ratio"] <= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    added_by_run = {"cli.import_s", "cli.stdout_bytes", "trace.overhead_s"}
    added_by_run |= {f"cli.{name}.wall_s" for name, _ in README_COMMANDS}
    assert set(Tracer().metrics()) | added_by_run == {m["name"] for m in spec["per_layer"]}
