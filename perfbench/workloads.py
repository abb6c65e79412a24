"""The benchmark's three workloads: fixed work, inputs made from the seed, checks.

Each workload has a ``setup(seed)`` that builds everything a pass needs
(scenarios, experiment configs, key seeds, tables, command lines) and a
``run(state)`` that does the workload's fixed work once and checks its
outputs.  Every experiment seed derives from the workload seed.

Why these three:

* ``sampled-modes`` -- the sampled engine's per-trial Python loop (two
  generator builds, ``resolve_collisions``, ``np.unique``/``union1d`` over
  the special positions) in all six sampled modes at m = 8 and m = 14
  (6 and 47 users), the m = 30 most-likely panel that draws and sorts
  ~17,000 passwords per trial, and the already vectorized concentration
  report as a control.  No literal hashing: it makes no call into
  ``biased_bits``, ``eval_many`` or ``strategy_chunks``.
* ``scan-engine`` -- literal scans: the strategy-irrelevance kernel
  (ascending and seeded-permutation arms over shared key seeds), the scan
  engine in four modes, and the fixed-table permutation oracle.  Time goes
  to ``biased_bits`` (one ``mix64`` round per output bit), override
  lookups and permutation dedup.  It makes no sampled-engine call.
* ``cli-readme`` -- the six README command lines, each a fresh
  ``python -m guesswork_lab.cli`` process run one after another: process
  start, import and rendering, with the sampled engine behind ``simulate``
  and ``sweep``.

Correctness checks are written so that a change of random stream still
passes and a wrong distribution fails: estimates are compared with the
package's exact expressions where one applies, and otherwise with a
reference mean recorded by ``record_reference.py``, with a tolerance
scaled by the combined confidence intervals.
"""
from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from guesswork_lab import attack, rates, rng
from guesswork_lab import experiments as ex
from guesswork_lab import hashmodel as hm

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
GOLDEN_DIR = BENCH_DIR / "golden"

#: The CLI's default seed; at this workload seed the CLI runs the README
#: command lines exactly.
DEFAULT_SEED = 0xC0FFEE

#: A check fails when |estimate - expected| exceeds Z_MAX combined sigmas.
#: The guess counts are skewed, so |z| has heavier tails than a normal:
#: over 40 seeds of sampled-modes and 20 of scan-engine the largest |z|
#: was 3.4.
Z_MAX = 5.0

P, S, THETA = 0.3, 0.9, 0.2

SAMPLED_MODES = (
    "allocated-online",
    "allocated-offline",
    "unallocated-online",
    "unallocated-offline",
    "no-allocation-keyed",
    "biased-password",
)
SAMPLED_WIDTHS = (8, 14)
SAMPLED_TRIALS = 3000
PANEL_M, PANEL_TRIALS = 30, 200
CONC_M, CONC_N, CONC_TRIALS = 10, 26, 100_000
CONC_FRACTIONS = (0.25, 0.5, 0.8, 0.95, 1.0)

C03_M, C03_N, C03_TARGET = 8, 18, 0b11111100
C03_KEYS, C03_PERMUTATION_ARMS = 500, 2
#: (mode, m, trials, budget) for run_experiment(engine="scan").
#: The m = 14 scan has a budget of 2^18 guesses: without one, the rare
#: trials whose bin has probability below ~2^-20 scan millions of indices
#: and make the pass time depend on the seed; with it they are counted as
#: horizon failures.
SCAN_RUNS = (
    ("allocated-online", 10, 200, None),
    ("no-allocation-keyed", 8, 800, None),
    ("no-allocation-keyed", 14, 600, 1 << 18),
    ("biased-password", 8, 400, None),
)
C04_M, C04_N, C04_P = 4, 10, 0.25
C04_TABLES, C04_SAMPLES = 10, 20_000

README_COMMANDS = (
    ("rates", ["rates", "--p", "0.3", "--s", "0.9"]),
    ("table1", ["table1"]),
    ("simulate", ["simulate", "--mode", "no-allocation-keyed", "--m", "8", "--p", "0.3", "--n", "24",
                  "--trials", "100000", "--assert", "rate≈1±0.15"]),
    ("sweep", ["sweep", "--mode", "allocated-online", "--p", "0.3", "--s", "0.9", "--m", "8,10,12,14",
               "--trials", "10000", "--assert", "slope≈1.55±0.1"]),
    ("concentration", ["concentration", "--m", "10", "--p", "0.3", "--trials", "100000", "--assert"]),
    ("keysize", ["keysize", "--alpha", "1,1.25,1.5,2,3"]),
)
#: (mode, engine) of every run_experiment call the workloads make, sampled
#: first; the README commands pass no --engine, so the CLI's sampled default
#: applies.  The traced run reports trials_per_s for each pair.
MODE_ENGINES = tuple(dict.fromkeys(
    [(mode, "sampled") for mode in SAMPLED_MODES]
    + [(argv[argv.index("--mode") + 1], "sampled") for _, argv in README_COMMANDS if "--mode" in argv]
    + [(mode, "scan") for mode, *_ in SCAN_RUNS]
))
#: Commands whose stdout is compared byte for byte with a golden copy.
GOLDEN_COMMANDS = ("rates", "table1", "keysize")
#: Commands that produce trials, with their trial counts; each takes --seed.
CLI_TRIALS = {"simulate": 100_000, "sweep": 4 * 10_000, "concentration": 100_000}


@dataclass
class PassResult:
    """What one pass of a workload did: time in trial-producing calls,
    correctness checks, and outputs that tracing must leave unchanged."""

    trial_units: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    outputs: dict[str, object] = field(default_factory=dict)
    command_s: dict[str, float] = field(default_factory=dict)

    @property
    def trial_s(self) -> float:
        """Seconds spent in trial-producing calls."""
        return sum(self.trial_units.values())

    def call(self, name: str, n_checks: int, fn):
        """Time fn as trial-producing work.  If it raises, all n_checks
        checks that depend on it fail and None is returned."""
        start = time.perf_counter()
        try:
            return fn()
        except Exception as err:  # a failing call is a failed check, not a crash
            self.checks.extend((f"{name}[{k}]", False, f"raised {err!r}") for k in range(n_checks))
            return None
        finally:
            self.trial_units[name] = time.perf_counter() - start

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def check_mean(self, name: str, est, expected: float, expected_half: float = 0.0,
                   expected_trials: int = 0) -> None:
        """z-test of an estimate against an expected mean.  A reference
        recorded from expected_trials trials also sets the least spread the
        estimate can have: a heavy-tailed sample that misses its tail
        understates its own confidence interval as much as its mean."""
        self.outputs[name] = (est.mean, est.half_width_95, est.trials, est.failures)
        half = est.half_width_95
        if expected_trials:
            half = max(half, expected_half * math.sqrt(expected_trials / est.trials))
        sigma = math.hypot(half, expected_half) / 1.96
        diff = abs(est.mean - expected)
        z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
        self.check(name, z <= Z_MAX, f"mean {est.mean:.6g} vs expected {expected:.6g}: z {z:.2f}")


def scenario(m: int, theta: float | None = None, n: int | None = None) -> ex.ScenarioParams:
    return ex.ScenarioParams(
        s=S, p=P, m=m, n=ex.default_input_width(m, P, S) if n is None else n, theta=theta
    )


def _theta_for(mode: str) -> float | None:
    return THETA if mode == "biased-password" else None


def sampled_configs(seed: int, trials: int = SAMPLED_TRIALS) -> dict[str, ex.ExperimentConfig]:
    """The sampled-engine configs of sampled-modes, keyed by label."""
    return {
        f"{mode}.m{m}.sampled": ex.ExperimentConfig(
            scenario=scenario(m, _theta_for(mode)), trials=trials,
            seed=rng.derive_seed(seed, 1, m, j), mode=mode,
        )
        for m in SAMPLED_WIDTHS
        for j, mode in enumerate(SAMPLED_MODES)
    }


def panel_config(seed: int, trials: int = PANEL_TRIALS) -> ex.ExperimentConfig:
    return ex.ExperimentConfig(
        scenario=scenario(PANEL_M), trials=trials, seed=rng.derive_seed(seed, 8),
        mode="unallocated-offline",
    )


def scan_configs(seed: int, engine: str = "scan", trials: int | None = None) -> dict[str, ex.ExperimentConfig]:
    """The run_experiment configs of scan-engine, keyed by label.  With
    engine="sampled" the same scenarios give the reference distribution."""
    return {
        f"{mode}.m{m}.scan": ex.ExperimentConfig(
            scenario=scenario(m, _theta_for(mode)), trials=trials or count,
            seed=rng.derive_seed(seed, 2, m, k), mode=mode, engine=engine, budget=budget,
        )
        for k, (mode, m, count, budget) in enumerate(SCAN_RUNS)
    }


def _references() -> dict[str, tuple[float, float, int]]:
    """label -> (mean, 95% half-width, trials) of the recorded references."""
    doc = json.loads(REFERENCE.read_text())
    return {
        label: (mean, half, doc["panel_trials"] if label.startswith("most_likely_panel") else doc["trials"])
        for label, (mean, half) in doc["means"].items()
    }


# ---------------------------------------------------------------------------
# sampled-modes
# ---------------------------------------------------------------------------


def setup_sampled(seed: int) -> SimpleNamespace:
    configs = sampled_configs(seed)
    panel = panel_config(seed)
    conc = ex.ExperimentConfig(
        scenario=scenario(CONC_M, n=CONC_N), trials=CONC_TRIALS,
        seed=rng.derive_seed(seed, 9), mode="allocated-online",
    )
    l_values = [f * math.log2(1.0 / P) for f in CONC_FRACTIONS]
    n30 = panel.scenario.n
    return SimpleNamespace(
        configs=configs,
        panel=panel,
        panel_online=[rates.expected_guesses_per_bin(PANEL_M, n30, w / PANEL_M, P) for w in range(PANEL_M + 1)],
        conc=conc,
        l_values=l_values,
        conc_exact=[ex.exact_geometric_cdf(CONC_M, l, P ** CONC_M) for l in l_values],
        refs=_references(),
        trials=sum(c.trials for c in configs.values()) + panel.trials + conc.trials,
        process_starts=0,
    )


def run_sampled(state) -> PassResult:
    res = PassResult()
    for label, cfg in state.configs.items():
        est = res.call(label, 1, lambda cfg=cfg: ex.run_experiment(cfg))
        if est is not None:
            res.check_mean(label, est, *state.refs[label])

    panel = res.call("most_likely_panel.m30", 2, lambda: ex.most_likely_panel(state.panel))
    if panel is not None:
        res.check_mean(
            "most_likely_panel.m30.online", panel.online_conditional,
            state.panel_online[panel.modal_weight],
        )
        res.check_mean("most_likely_panel.m30.offline", panel.offline_forced,
                       *state.refs["most_likely_panel.m30.offline"])

    rows = res.call("concentration.m10", 2 * len(state.l_values),
                    lambda: ex.concentration_report(state.conc, state.l_values))
    if rows is not None:
        trials = state.conc.trials
        for row, exact in zip(rows, state.conc_exact):
            name = f"concentration.m10.l{row.l:.4f}"
            res.outputs[name] = (row.empirical, row.ci)
            z = abs(row.empirical - exact) / math.sqrt(exact * (1.0 - exact) / trials)
            res.check(name + ".exact", z <= Z_MAX,
                      f"empirical {row.empirical:.6g} vs exact geometric CDF {exact:.6g}: z {z:.2f}")
            res.check(name + ".bound", row.empirical <= row.bound + 3.0 * row.ci / 1.96,
                      f"empirical {row.empirical:.6g} vs bound {row.bound:.6g} + 3 sigma")
    return res


# ---------------------------------------------------------------------------
# scan-engine
# ---------------------------------------------------------------------------


def setup_scan(seed: int) -> SimpleNamespace:
    tables = [hm.sample_table_hash(C04_M, C04_N, C04_P, seed=rng.derive_seed(seed, 4, i)) for i in range(C04_TABLES)]
    targets, oracles = [], []
    for t in tables:
        preimages = np.bincount(t.table, minlength=1 << C04_M)
        target = int(preimages.argmax())  # the fullest bin, so L_b >= 1
        targets.append(target)
        oracles.append(attack.permutation_average_exact(1 << C04_N, int(preimages[target])))
    configs = scan_configs(seed)
    c03_attacks = C03_KEYS * (1 + C03_PERMUTATION_ARMS)
    return SimpleNamespace(
        key_seeds=[rng.derive_seed(seed, 3, k) for k in range(C03_KEYS)],
        permutation_seeds=[
            [rng.derive_seed(seed, 33, arm, k) for k in range(C03_KEYS)]
            for arm in range(1, C03_PERMUTATION_ARMS + 1)
        ],
        c03_expected=rates.expected_guesses_per_bin(C03_M, C03_N, C03_TARGET.bit_count() / C03_M, P),
        configs=configs,
        tables=tables,
        table_targets=targets,
        table_oracles=oracles,
        table_seeds=[rng.derive_seed(seed, 44, i) for i in range(C04_TABLES)],
        refs=_references(),
        trials=c03_attacks + sum(c.trials for c in configs.values()) + C04_TABLES * C04_SAMPLES,
        process_starts=0,
    )


def _strategy_arms(state) -> list[attack.GuessAccumulator]:
    """Ascending arm plus seeded-permutation arms, all over the same keys."""
    arms = [attack.GuessAccumulator() for _ in range(1 + C03_PERMUTATION_ARMS)]
    for k, key_seed in enumerate(state.key_seeds):
        model = hm.KeyedHashModel(m=C03_M, n=C03_N, p=P, seed=key_seed)
        strategies = [attack.ascending()] + [attack.permutation(s[k]) for s in state.permutation_seeds]
        for acc, strat in zip(arms, strategies):
            result = attack.online_attack(model, C03_TARGET, strat)
            acc.add(result.guesses, result.success)
    return [acc.estimate() for acc in arms]


def run_scan(state) -> PassResult:
    res = PassResult()
    arms = res.call("strategy_arms", 2 + C03_PERMUTATION_ARMS, lambda: _strategy_arms(state))
    if arms is not None:
        for arm, est in enumerate(arms):
            name = "strategy_arms.ascending" if arm == 0 else f"strategy_arms.permutation{arm}"
            res.check_mean(name, est, state.c03_expected)
        # Every order has the same law under key averaging, so the pooled
        # mean is a sharper test of the literal hash than any one arm.
        pooled = attack.EstimateWithCI(
            mean=sum(e.mean for e in arms) / len(arms),
            half_width_95=math.sqrt(sum(e.half_width_95 ** 2 for e in arms)) / len(arms),
            trials=sum(e.trials for e in arms),
            failures=sum(e.failures for e in arms),
        )
        res.check_mean("strategy_arms.pooled", pooled, state.c03_expected)

    for label, cfg in state.configs.items():
        est = res.call(label, 1, lambda cfg=cfg: ex.run_experiment(cfg))
        if est is not None:
            res.check_mean(label, est, *state.refs[label])

    for i, (table, target, oracle, seed) in enumerate(
        zip(state.tables, state.table_targets, state.table_oracles, state.table_seeds)
    ):
        est = res.call(f"permutation_oracle.{i}", 1,
                       lambda: ex.permutation_mean_guesswork(table, target, C04_SAMPLES, seed))
        if est is not None:
            res.check_mean(f"permutation_oracle.{i}", est, oracle)
    return res


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8", GUESSWORK_LAB_WORKERS="1")


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """The README command lines; trial-producing ones get the workload seed
    unless it is the CLI's own default."""
    extra = [] if seed == DEFAULT_SEED else ["--seed", str(seed)]
    return [(name, argv + extra if name in CLI_TRIALS else argv) for name, argv in README_COMMANDS]


def setup_cli(seed: int) -> SimpleNamespace:
    return SimpleNamespace(
        commands=cli_commands(seed),
        golden={name: (GOLDEN_DIR / f"{name}.txt").read_bytes() for name in GOLDEN_COMMANDS},
        trials=sum(CLI_TRIALS.values()),
        process_starts=len(CLI_TRIALS),  # trial time includes one process start each
    )


def cli_subprocess(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "guesswork_lab.cli", *argv],
        cwd=ROOT, env=cli_env(), capture_output=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    from guesswork_lab import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="guesswork-lab")
            code = 0
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
    return code, out.getvalue().encode("utf-8")


def run_cli(state, in_process: bool = False) -> PassResult:
    res = PassResult()
    invoke = cli_in_process if in_process else cli_subprocess
    for name, argv in state.commands:
        start = time.perf_counter()
        code, stdout = invoke(argv)
        seconds = time.perf_counter() - start
        res.command_s[name] = seconds
        res.outputs[name] = stdout
        if name in CLI_TRIALS:
            res.trial_units[name] = seconds
        if name in state.golden:
            res.check(name, code == 0 and stdout == state.golden[name],
                      f"exit {code}, stdout {'matches' if stdout == state.golden[name] else 'differs from'} golden copy")
        else:
            ok = code == 0 and any(line.startswith(b"ASSERT OK") for line in stdout.splitlines())
            res.check(name, ok, f"exit {code}, ASSERT OK line {'present' if ok else 'missing'}")
    return res


WORKLOADS = {
    "sampled-modes": SimpleNamespace(setup=setup_sampled, run=run_sampled, in_process=True),
    "scan-engine": SimpleNamespace(setup=setup_scan, run=run_scan, in_process=True),
    "cli-readme": SimpleNamespace(setup=setup_cli, run=run_cli, in_process=False),
}
