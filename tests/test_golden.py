"""Byte-for-byte replay of the trial-producing commands' output.

Each case's stdout is stored in tests/golden/<name>.txt together with its
exit code.  The goldens pin simulate (two sampled modes, the scan engine
and broken-hash), sweep and concentration in every output format, so a
refactor of the renderer or the engines cannot change a printed byte
unnoticed.  Run this file as a script to rewrite them, all of them or
only the cases named (``python tests/test_golden.py simulate-scan-text``);
do that only for an intended output change, and say so in CHANGES.md.
"""
import pathlib
import sys

import pytest
from click.testing import CliRunner

from guesswork_lab import cli
from guesswork_lab.config import ExperimentConfig

GOLDEN = pathlib.Path(__file__).parent / "golden"

_SIMULATE = {
    "simulate-allocated-online": ["--mode", "allocated-online", "--m", "8", "--p", "0.3", "--trials", "300"],
    "simulate-unallocated-offline": ["--mode", "unallocated-offline", "--m", "8", "--p", "0.3", "--trials", "300"],
    "simulate-scan": ["--mode", "no-allocation-keyed", "--m", "6", "--p", "0.3", "--n", "14",
                      "--trials", "200", "--engine", "scan"],
    "simulate-broken-hash": ["--mode", "broken-hash", "--m", "8", "--p", "0.3", "--trials", "100"],
}

#: name -> (argv, exit code)
CASES = {
    **{
        f"{name}-{fmt}": (["simulate", *args, "--output", fmt], 0)
        for name, args in _SIMULATE.items() for fmt in ("text", "json", "csv")
    },
    **{
        f"sweep-{fmt}": (["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "6,8,10",
                          "--trials", "300", "--output", fmt], 0)
        for fmt in ("text", "json", "csv")
    },
    **{
        f"concentration-{fmt}": (["concentration", "--m", "8", "--p", "0.3", "--trials", "2000",
                                  "--output", fmt], 0)
        for fmt in ("text", "json", "csv")
    },
    "simulate-assert-ok": (["simulate", "--mode", "allocated-offline", "--m", "8", "--p", "0.3",
                            "--trials", "300", "--assert", "rate≈1.2±0.3"], 0),
    "simulate-assert-fail": (["simulate", "--mode", "allocated-online", "--m", "8", "--p", "0.3",
                              "--trials", "300", "--assert", "rate≈3±0.1"], 3),
    "sweep-assert-ok": (["sweep", "--mode", "no-allocation-keyed", "--p", "0.3", "--m", "6,8,10",
                         "--trials", "300", "--assert", "slope≈1±0.1"], 0),
    "sweep-assert-fail": (["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "6,8,10",
                           "--trials", "300", "--assert", "slope≈3±0.1"], 3),
    "concentration-assert-ok": (["concentration", "--m", "8", "--p", "0.3", "--trials", "2000",
                                 "--assert"], 0),
    **{
        f"rates-{fmt}": (["rates", "--p", "0.3", "--s", "0.9", "--output", fmt], 0)
        for fmt in ("text", "json", "csv")
    },
    "rates-theta-json": (["rates", "--p", "0.3", "--s", "0.9", "--theta", "0.3", "--output", "json"], 0),
    # n is capped at 62, below the 1.25 margin's 83
    "simulate-capped-width": (["simulate", "--mode", "allocated-online", "--m", "30", "--p", "0.3",
                               "--s", "0.9", "--trials", "100"], 0),
}


def invoke(argv):
    return CliRunner().invoke(cli.main, argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    argv, code = CASES[name]
    result = invoke(argv)
    assert result.exit_code == code, result.output
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _capped_warning(m, need):
    return (
        f"warning: input width capped at n=62, below the n={need} that m={m} asks for; "
        "guess counts near 2^62 are cut short\n"
    )


def test_capped_width_warns_on_stderr_only():
    argv, _ = CASES["simulate-capped-width"]
    result = invoke(argv)
    assert result.exit_code == 0
    assert result.stderr == _capped_warning(30, 83)
    assert result.stdout == (GOLDEN / "simulate-capped-width.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv,warning", [
    (["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "8,16,26", "--trials", "100"],
     _capped_warning(26, 72)),
    (["concentration", "--m", "30", "--p", "0.3", "--trials", "1000"], _capped_warning(30, 83)),
    (["simulate", "--mode", "allocated-online", "--m", "30", "--n", "62", "--p", "0.3",
      "--trials", "100"], ""),
    (["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "8,10,12", "--trials", "100"], ""),
])
def test_capped_width_warning_cases(argv, warning):
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert result.stderr == warning


def test_exact_mode_does_not_warn(capsys):
    cfg = ExperimentConfig(
        scenario=cli._scenario(30, None, 0.3, 0.9, None), trials=100, seed=1, mode="broken-hash",
    )
    cli._warn_if_width_capped(cfg, 30)
    assert capsys.readouterr().err == ""


def rewrite(names):
    """Rewrite the named goldens (every one when none is named); an unknown
    name exits non-zero before anything is written."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(CASES):
        argv, code = CASES[name]
        result = invoke(argv)
        if result.exit_code != code:
            sys.exit(f"{name}: exit {result.exit_code}, expected {code}")
        (GOLDEN / f"{name}.txt").write_text(result.stdout, encoding="utf-8")


def test_rewrite_refuses_an_unknown_case():
    stamps = {p.name: p.stat().st_mtime_ns for p in GOLDEN.iterdir()}
    with pytest.raises(SystemExit) as stop:
        rewrite(["simulate-scan-text", "no-such-case"])
    assert stop.value.code == "unknown golden case: no-such-case"
    assert {p.name: p.stat().st_mtime_ns for p in GOLDEN.iterdir()} == stamps


if __name__ == "__main__":
    rewrite(sys.argv[1:])
