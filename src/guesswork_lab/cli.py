"""guesswork-lab command line front end.

Every run echoes its fully resolved configuration (defaulted seed
included), so any output can be reproduced by replaying the echoed
flags.  JSON output is deterministic byte-for-byte for a fixed config.

Exit codes: 0 success, 2 flag validation, 3 failed --assert check,
4 resource cap (explicit-table or permutation limits exceeded).
"""
from __future__ import annotations

import json
import math
import os
import re
import secrets
import sys
from contextlib import nullcontext
from dataclasses import asdict
from typing import Optional

import click

from . import __version__, rates
from .config import (
    MAX_INPUT_WIDTH, MODES, SCHEMA, ExperimentConfig, default_input_width, input_width_need,
)
from .infotheory import binary_entropy, kl_divergence
from .rates import ScenarioParams

DEFAULT_SEED = 0xC0FFEE  # fixed so bare invocations reproduce; use --seed random to vary

#: Reference comparison table: (p, 1-s) rows against the three rate columns
#: H(p)-H(1-s), D(1-s||p), D(s||p).  Values are kept as printed strings so
#: deltas can honor each cell's printed precision.
TABLE1_ROWS = (
    (0.5, 0.0, ("1", "1", "1")),
    (0.45, 0.0, ("0.9948", "0.8625", "1.15")),
    (0.5, 0.2, ("0.2781", "0.2781", "0.2781")),
    (0.21, 0.1, ("0.2725", "0.0622", "1.5914")),
)

#: The H(0.45) cell disagrees with recomputation by ~2e-3 beyond printed
#: precision; it gets a documented wider tolerance in acceptance checks.
TABLE1_LOOSE_CELL = (0.45, 0.0, 0)

_ASSERT_RE = re.compile(
    r"^\s*(rate|slope)\s*(?:≈|~=|=)\s*([-+0-9.eE]+)\s*(?:±|\+-)\s*([0-9.eE]+)\s*$"
)


def _parse_assert(text: str) -> tuple[str, float, float]:
    match = _ASSERT_RE.match(text)
    if not match:
        raise click.UsageError(
            f"bad --assert {text!r}; expected e.g. \"rate≈1±0.15\" or \"slope~=1+-0.1\""
        )
    return match.group(1), float(match.group(2)), float(match.group(3))


def _parse_seed(text: str) -> int:
    if text == "random":
        return secrets.randbits(63)
    try:
        return int(text, 0)
    except ValueError:
        raise click.UsageError(f"--seed must be an integer or 'random', got {text!r}")


def _parse_list(text: str, flag: str, kind=float) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"{flag} must be a comma-separated {'integer' if kind is int else 'number'} list")


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("GUESSWORK_LAB_WORKERS", "1")))
    except ValueError:
        return 1


def _emit(output: str, config: dict, body: dict, csv_lines, text_lines) -> None:
    """Print a report: {"schema", "config", **body} as sorted JSON, or the
    config echo followed by the csv or the text lines."""
    if output == "json":
        click.echo(json.dumps({"schema": SCHEMA, "config": config, **body}, sort_keys=True))
        return
    click.echo("# config: " + json.dumps(config, sort_keys=True))
    for line in csv_lines if output == "csv" else text_lines:
        click.echo(line)


def _check_assert(text: Optional[str], command: str, kind: str, value: Optional[float]) -> None:
    """Check --assert "kind≈center±tol" against value after the report:
    exit 3 when it fails, exit 2 when it names another kind."""
    if text is None:
        return
    got, center, tol = _parse_assert(text)
    if got != kind:
        raise click.UsageError(f"{command} only supports {kind} assertions")
    if value is None or abs(value - center) > tol:
        click.echo(f"ASSERT FAIL: {kind} {value} not within {center}±{tol}", err=True)
        sys.exit(3)
    click.echo(f"ASSERT OK: {kind} {value:.6f} within {center}±{tol}")


def _scenario(m: int, n: Optional[int], p: float, s: float, theta: Optional[float]) -> ScenarioParams:
    if n is None:
        ScenarioParams(s=s, p=p, m=m, n=m + 1, theta=theta)  # p and s checked before the width reads them
        n = default_input_width(m, p, s)
    return ScenarioParams(s=s, p=p, m=m, n=n, theta=theta)


class _Main(click.Group):
    """The command group, and the one error boundary of its commands: a
    ValueError is a usage error (exit 2), a ResourceCapError exits 4."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as err:
            name = ctx.invoked_subcommand  # the usage line names the command
            raise click.UsageError(str(err), click.Context(self.commands[name], ctx, name)) from err
        except RuntimeError as err:
            from .hashmodel import ResourceCapError  # loads numpy: only on this path

            if not isinstance(err, ResourceCapError):
                raise
            click.echo(f"resource cap: {err}", err=True)
            sys.exit(4)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="guesswork-lab")
def main():
    """Closed-form rates and Monte Carlo attack simulations for biased
    hash-based password storage."""


output_option = click.option(
    "--output", type=click.Choice(["text", "json", "csv"]), default="text",
    show_default=True, help="Report format.",
)
seed_option = click.option(
    "--seed", default=str(DEFAULT_SEED), show_default=True,
    help="64-bit experiment seed, or 'random' for a fresh one (echoed).",
)
workers_option = click.option(
    "--workers", type=click.IntRange(min=1), default=None,
    help="Worker processes; defaults to $GUESSWORK_LAB_WORKERS or 1. "
    "Results are identical for any worker count.",
)


@main.command("rates")
@click.option("--p", "p", type=float, required=True, help="Mapping bias in (0, 1/2].")
@click.option("--s", "s", type=float, required=True,
              help="User-count parameter in [1/2, 1]; M = floor(2^(H(s) m - 1)).")
@click.option("--m", "m", type=int, default=20, show_default=True,
              help="Bin width in bits (used for realizable types and M).")
@click.option("--n", "n", type=int, default=None,
              help="Input width in bits; defaults to a safe multiple of m.")
@click.option("--theta", type=float, default=None,
              help="Password bias; enables the biased-password rate.")
@click.option("--q-type", type=float, default=1.0, show_default=True,
              help="Bin type for the per-bin biased-password rate.")
@output_option
def cmd_rates(p, s, m, n, theta, q_type, output):
    """All applicable closed-form guesswork growth rates (bits per m)."""
    scenario = _scenario(m, n, p, s, theta)
    reports = {
        "online_allocated": rates.online_rate_allocated(s, p),
        "offline_allocated": rates.offline_rate_allocated(s, p),
        "online_unallocated_bounds": rates.online_rate_bounds_unallocated(s, p),
        "offline_unallocated_bounds": rates.offline_rate_bounds_unallocated(s, p),
        "most_likely_offline": rates.most_likely_rate_offline(s, p),
        "most_likely_online": rates.most_likely_rate_online(p),
    }
    key_size = rates.key_size_ratio(s, p)
    q_star, q_value = rates.guesswork_argmax_type(s, p)
    if theta is not None:
        reports["biased_password"] = rates.biased_password_rate(scenario, q_type)
    config = {
        "command": "rates", "p": p, "s": s, "m": scenario.m, "n": scenario.n,
        "theta": theta, "q_type": q_type, "output": output,
    }
    body = {
        "units": "bits_per_m",
        "rates": {
            name: {
                "rate": rep.rate, "lower": rep.lower, "upper": rep.upper,
                "region": rep.region, "units": "bits_per_m",
            }
            for name, rep in reports.items()
        },
        "key_size_ratio": key_size,
        "argmax_type": {"q_star": q_star, "value": q_value},
    }
    csv_lines = ["scenario,rate,lower,upper,region,units"] + [
        f"{name},{_num(rep.rate)},{_num(rep.lower)},{_num(rep.upper)},{rep.region or ''},bits_per_m"
        for name, rep in reports.items()
    ]
    width = max(len(name) for name in reports)
    text_lines = [
        f"{name:<{width}}  "
        + (f"{rep.rate:.6f}" if rep.rate is not None else f"[{rep.lower:.6f}, {rep.upper:.6f}]")
        + (f"  ({rep.region})" if rep.region else "")
        for name, rep in reports.items()
    ] + [
        f"{'key_size_ratio':<{width}}  {key_size:.6f}",
        f"{'argmax_type':<{width}}  q*={q_star:.6f} value={q_value:.6f}",
    ]
    _emit(output, config, body, csv_lines, text_lines)


def _num(x) -> str:
    return "" if x is None else f"{x:.10g}"


def _table1_cells():
    cells = []
    for p, one_minus_s, refs in TABLE1_ROWS:
        s = 1.0 - one_minus_s
        computed = (
            binary_entropy(p) - binary_entropy(one_minus_s),
            kl_divergence(one_minus_s, p),
            kl_divergence(s, p),
        )
        for col, (ref_text, value) in enumerate(zip(refs, computed)):
            decimals = len(ref_text.split(".")[1]) if "." in ref_text else 0
            printed = round(value, decimals)
            cells.append({
                "p": p,
                "one_minus_s": one_minus_s,
                "column": ("H(p)-H(1-s)", "D(1-s||p)", "D(s||p)")[col],
                "computed": value,
                "reference": float(ref_text),
                "delta": abs(value - float(ref_text)),
                "delta_at_printed_precision": abs(printed - float(ref_text)),
                "loose": (p, one_minus_s, col) == TABLE1_LOOSE_CELL,
            })
    return cells


@main.command("table1")
@output_option
def cmd_table1(output):
    """Recompute the reference rate table and report deviations.

    Twelve cells over four (bias, user count) settings and three rate
    columns; deltas are shown both raw and at each reference value's
    printed precision.
    """
    cells = _table1_cells()
    csv_lines = ["p,one_minus_s,column,computed,reference,delta,delta_at_printed_precision"] + [
        f"{c['p']},{c['one_minus_s']},{c['column']},{c['computed']:.10g},"
        f"{c['reference']},{c['delta']:.3e},{c['delta_at_printed_precision']:.3e}"
        for c in cells
    ]
    text_lines = [f"{'p':>5} {'1-s':>5} {'column':<12} {'computed':>10} {'reference':>10} {'delta':>10}"] + [
        f"{c['p']:>5g} {c['one_minus_s']:>5g} {c['column']:<12} "
        f"{c['computed']:>10.6f} {c['reference']:>10g} {c['delta']:>10.2e}"
        + ("  (known reference discrepancy)" if c["loose"] else "")
        for c in cells
    ]
    _emit(output, {"command": "table1", "output": output},
          {"units": "bits_per_m", "cells": cells}, csv_lines, text_lines)


def _warn_if_width_capped(cfg: ExperimentConfig, m: int) -> None:
    """Warn on stderr when a defaulted input width for bin width m was cut
    to the cap below the width its margin asks for, in a mode that draws
    trials (their guess counts can then be truncated)."""
    need = input_width_need(m, cfg.scenario.p, cfg.scenario.s)
    if not cfg.kind.exact and need > MAX_INPUT_WIDTH:
        click.echo(
            f"warning: input width capped at n={MAX_INPUT_WIDTH}, below the n={need} "
            f"that m={m} asks for; guess counts near 2^{MAX_INPUT_WIDTH} are cut short",
            err=True,
        )


def _config_dict(cfg: ExperimentConfig, command: str, **extra) -> dict:
    sc = cfg.scenario
    return {
        "command": command, "mode": cfg.mode, "m": sc.m, "n": sc.n, "p": sc.p, "s": sc.s,
        "theta": sc.theta, "trials": cfg.trials, "seed": cfg.seed, "engine": cfg.engine,
        "budget": cfg.budget, "rho": cfg.rho, **extra,
    }


@main.command("simulate")
@click.option("--mode", type=click.Choice(tuple(MODES)), required=True,
              help="Attack scenario to simulate.")
@click.option("--m", "m", type=int, required=True, help="Bin width in bits.")
@click.option("--n", "n", type=int, default=None, help="Input width in bits (auto if omitted).")
@click.option("--p", "p", type=float, required=True, help="Mapping bias in (0, 1/2].")
@click.option("--s", "s", type=float, default=0.9, show_default=True,
              help="User-count parameter in [1/2, 1].")
@click.option("--theta", type=float, default=None, help="Password bias (biased-password mode).")
@click.option("--trials", type=int, default=10_000, show_default=True)
@click.option("--engine", type=click.Choice(["sampled", "scan"]), default="sampled",
              show_default=True,
              help="sampled draws each scan outcome from its exact distribution; "
              "scan guesses passwords one by one.")
@click.option("--budget", default=None,
              help="Guess budget: an integer, or 'fast' for 2^(m(H+D)+6) on the "
              "worst-case bin (default: exhaust 2^n).")
@click.option("--rho", type=float, default=1.0, show_default=True,
              help="Moment order (broken-hash mode).")
@click.option("--trial-log", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write per-trial CSV lines to this file.")
@click.option("--assert", "assert_text", default=None,
              help="Check like \"rate≈1±0.15\"; exit 3 on failure.")
@seed_option
@workers_option
@output_option
def cmd_simulate(mode, m, n, p, s, theta, trials, engine, budget, rho, trial_log,
                 assert_text, seed, workers, output):
    """Monte Carlo estimate of the mean guesswork for one scenario."""
    from . import experiments

    scenario = _scenario(m, n, p, s, theta)
    if budget is not None:
        if budget == "fast":
            from .attack import fast_budget

            budget = fast_budget(m, 1.0, p)
        else:
            try:
                budget = int(budget)
            except ValueError:
                raise click.UsageError("--budget must be an integer or 'fast'")
    cfg = ExperimentConfig(
        seed=_parse_seed(seed), scenario=scenario, trials=trials,
        mode=mode, engine=engine, budget=budget, rho=rho,
    )
    if n is None:
        _warn_if_width_capped(cfg, m)
    workers = workers or _default_workers()
    with open(trial_log, "w", encoding="ascii") if trial_log is not None else nullcontext() as fh:
        est = experiments.run_experiment(cfg, workers=workers, trial_log=fh)
    rate = math.log2(est.mean) / cfg.scenario.m if est.mean > 0 else None
    result = {
        "mean": est.mean, "units": "guesses",
        "half_width_95": est.half_width_95,
        "trials": est.trials, "failures": est.failures,
        "rate": {"value": rate, "units": "bits_per_m"},
    }
    _emit(
        output, _config_dict(cfg, "simulate", workers=workers, output=output), {"result": result},
        [
            "mean,half_width_95,trials,failures,rate_bits_per_m",
            f"{est.mean:.10g},{est.half_width_95:.10g},{est.trials},{est.failures},{_num(rate)}",
        ],
        [
            f"mean guesses: {est.mean:.6g} +- {est.half_width_95:.3g} (95% CI), "
            f"failures {est.failures}/{est.trials}"
        ] + ([f"rate: {rate:.6f} bits_per_m"] if rate is not None else []),
    )
    _check_assert(assert_text, "simulate", "rate", rate)


@main.command("sweep")
@click.option("--mode", type=click.Choice(tuple(MODES)), required=True)
@click.option("--m", "m_list", required=True,
              help="Comma-separated bin widths, e.g. 8,10,12.")
@click.option("--p", "p", type=float, required=True)
@click.option("--s", "s", type=float, default=0.9, show_default=True)
@click.option("--theta", type=float, default=None)
@click.option("--trials", type=int, default=10_000, show_default=True,
              help="Trials per sweep point.")
@click.option("--engine", type=click.Choice(["sampled", "scan"]), default="sampled",
              show_default=True)
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--assert", "assert_text", default=None,
              help="Check like \"slope≈1±0.1\"; exit 3 on failure.")
@seed_option
@workers_option
@output_option
def cmd_sweep(mode, m_list, p, s, theta, trials, engine, rho, assert_text,
              seed, workers, output):
    """Fit the guesswork growth rate from a sweep over bin widths."""
    from . import experiments

    steps = _parse_list(m_list, "--m", int)
    if len(steps) < 3:
        raise click.UsageError("--m needs at least 3 sweep points")
    cfg = ExperimentConfig(
        scenario=_scenario(steps[0], None, p, s, theta), trials=trials, seed=_parse_seed(seed),
        mode=mode, m_sweep=tuple(steps), engine=engine, rho=rho,
    )
    _warn_if_width_capped(cfg, steps[-1])
    workers = workers or _default_workers()
    result = experiments.sweep_rate(cfg, workers=workers)
    points = [(m, y, ci) for (m, y), ci in zip(result.points, result.cis)]
    _emit(
        output, _config_dict(cfg, "sweep", m_sweep=list(steps), workers=workers, output=output),
        {
            "result": {
                "fitted_rate": {"value": result.fitted_rate, "units": "bits_per_m"},
                "intercept": result.intercept,
                "r_squared": result.r_squared,
                "points": [{"m": m, "log2_mean": y, "ci": ci} for m, y, ci in points],
            },
        },
        ["m,log2_mean,ci"] + [f"{m},{y:.10g},{ci:.10g}" for m, y, ci in points],
        [f"m={m:<3d} log2(mean)={y:.4f} +- {ci:.4f}" for m, y, ci in points] + [
            f"fitted rate: {result.fitted_rate:.6f} bits_per_m (r^2={result.r_squared:.5f})"
        ],
    )
    _check_assert(assert_text, "sweep", "slope", result.fitted_rate)


@main.command("concentration")
@click.option("--m", "m", type=int, required=True)
@click.option("--n", "n", type=int, default=None)
@click.option("--p", "p", type=float, required=True)
@click.option("--s", "s", type=float, default=0.9, show_default=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--l", "l_list", default=None,
              help="Comma-separated absolute exponents l (bits per m).")
@click.option("--l-frac", "l_frac", default="0.25,0.5,0.8,0.95,1.0", show_default=True,
              help="Fractions of the all-ones bin exponent, used when --l is omitted.")
@click.option("--assert", "assert_flag", is_flag=True, default=False,
              help="Exit 3 unless every empirical CDF point is below bound + 3 sigma.")
@seed_option
@output_option
def cmd_concentration(m, n, p, s, trials, l_list, l_frac, assert_flag, seed, output):
    """Empirical P(G <= 2^{m l}) for the least likely bin against the bound."""
    from . import experiments

    cfg = ExperimentConfig(
        scenario=_scenario(m, n, p, s, None), trials=trials, seed=_parse_seed(seed),
        mode="allocated-online",
    )
    full = math.log2(1.0 / p)  # all-ones bin exponent H(1) + D(1||p)
    if l_list is not None:
        ls = _parse_list(l_list, "--l")
    else:
        ls = [f * full for f in _parse_list(l_frac, "--l-frac")]
    rows = experiments.concentration_report(cfg, ls)
    if n is None:
        _warn_if_width_capped(cfg, m)
    _emit(
        output, _config_dict(cfg, "concentration", l_values=ls, output=output),
        {"rows": [asdict(r) for r in rows]},
        ["l,empirical,ci,bound"] + [f"{r.l:.6g},{r.empirical:.6g},{r.ci:.6g},{r.bound:.6g}" for r in rows],
        [
            f"l={r.l:.4f}  empirical={r.empirical:.6f} (+-{r.ci:.6f})  bound={r.bound:.6f}"
            for r in rows
        ],
    )
    if assert_flag:
        bad = [r for r in rows if r.empirical > r.bound + 3.0 * r.ci / 1.96]
        if bad:
            click.echo(f"ASSERT FAIL: {len(bad)} points exceed bound + 3 sigma", err=True)
            sys.exit(3)
        click.echo("ASSERT OK: empirical CDF below bound + 3 sigma everywhere")


@main.command("keysize")
@click.option("--alpha", "alpha_list", default="1,1.25,1.5,2,3", show_default=True,
              help="Comma-separated guesswork exponents alpha >= 1.")
@output_option
def cmd_keysize(alpha_list, output):
    """Biased-versus-uniform key sizing at equal average guesswork."""
    from . import experiments

    alphas = _parse_list(alpha_list, "--alpha")
    rows = experiments.keysize_panel(alphas)
    _emit(
        output, {"command": "keysize", "alpha": alphas, "output": output},
        {"rows": [asdict(r) for r in rows]},
        ["alpha,p0,roundtrip,ratio,storage_ratio,entropy_coded_factor"] + [
            f"{r.alpha},{r.p0:.10g},{r.roundtrip:.10g},{r.ratio},"
            f"{r.storage_ratio:.10g},{r.entropy_coded_factor:.10g}"
            for r in rows
        ],
        [f"{'alpha':>6} {'p0':>10} {'ratio':>6} {'storage':>8} {'H(p0)':>7}  key sizes"] + [
            f"{r.alpha:>6g} {r.p0:>10.6f} {r.ratio:>6g} {r.storage_ratio:>8.4f} "
            f"{r.entropy_coded_factor:>7.4f}  {r.uniform_key_bits} vs {r.biased_key_bits}"
            for r in rows
        ],
    )


if __name__ == "__main__":
    main()
