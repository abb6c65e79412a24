"""Command line tests: output schemas, exit codes, replayability."""
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from guesswork_lab import cli


@pytest.fixture()
def runner():
    return CliRunner()


class TestRates:
    def test_unbiased_row(self, runner):
        result = runner.invoke(cli.main, ["rates", "--p", "0.5", "--s", "0.8"])
        assert result.exit_code == 0
        assert "0.278072" in result.output
        assert "online_unallocated_bounds" in result.output

    def test_most_likely_reference(self, runner):
        result = runner.invoke(
            cli.main, ["rates", "--p", "0.21", "--s", "0.9", "--output", "json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema"] == "guesswork-lab/1"
        assert doc["rates"]["most_likely_offline"]["rate"] == pytest.approx(
            0.2724871463, abs=1e-6
        )
        assert doc["rates"]["most_likely_offline"]["units"] == "bits_per_m"

    def test_degenerate_corner(self, runner):
        result = runner.invoke(
            cli.main, ["rates", "--p", "0.5", "--s", "0.5", "--output", "json"]
        )
        doc = json.loads(result.output)
        assert doc["rates"]["online_allocated"]["rate"] == pytest.approx(1.0)
        assert doc["rates"]["offline_allocated"]["rate"] == pytest.approx(0.0)

    def test_validation_exit_2(self, runner):
        result = runner.invoke(cli.main, ["rates", "--p", "0.7", "--s", "0.8"])
        assert result.exit_code == 2

    def test_biased_rate_included_with_theta(self, runner):
        result = runner.invoke(
            cli.main,
            ["rates", "--p", "0.3", "--s", "0.9", "--theta", "0.25",
             "--m", "20", "--n", "80", "--output", "json"],
        )
        doc = json.loads(result.output)
        assert "biased_password" in doc["rates"]


class TestTable1:
    def test_twelve_cells_with_deltas(self, runner):
        result = runner.invoke(cli.main, ["table1", "--output", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(doc["cells"]) == 12
        loose = [c for c in doc["cells"] if c["loose"]]
        assert len(loose) == 1
        assert loose[0]["delta"] == pytest.approx(2.03e-3, abs=2e-4)
        for cell in doc["cells"]:
            if not cell["loose"]:
                assert cell["delta_at_printed_precision"] <= 5e-4

    def test_discrepancy_not_hidden(self, runner):
        result = runner.invoke(cli.main, ["table1"])
        assert "0.992774" in result.output
        assert "known reference discrepancy" in result.output


class TestSimulate:
    def test_assert_pass_exit_0(self, runner):
        result = runner.invoke(
            cli.main,
            ["simulate", "--mode", "no-allocation-keyed", "--m", "8", "--p", "0.3",
             "--n", "24", "--trials", "2000", "--assert", "rate≈1±0.15"],
        )
        assert result.exit_code == 0, result.output
        assert "ASSERT OK" in result.output

    def test_assert_fail_exit_3(self, runner):
        result = runner.invoke(
            cli.main,
            ["simulate", "--mode", "no-allocation-keyed", "--m", "8", "--p", "0.3",
             "--n", "24", "--trials", "500", "--assert", "rate~=5+-0.1"],
        )
        assert result.exit_code == 3

    def test_validation_exit_2(self, runner):
        result = runner.invoke(
            cli.main, ["simulate", "--mode", "nonsense", "--m", "8", "--p", "0.3"]
        )
        assert result.exit_code == 2

    def test_resource_cap_exit_4(self, runner):
        result = runner.invoke(
            cli.main,
            ["simulate", "--mode", "broken-hash", "--m", "30", "--p", "0.25",
             "--trials", "100"],
        )
        assert result.exit_code == 4

    def test_json_replay_byte_identical(self, runner):
        args = ["simulate", "--mode", "allocated-online", "--m", "6", "--p", "0.3",
                "--n", "14", "--trials", "300", "--output", "json"]
        first = runner.invoke(cli.main, args)
        second = runner.invoke(cli.main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        doc = json.loads(first.output)
        assert doc["config"]["seed"] == cli.DEFAULT_SEED
        assert doc["result"]["units"] == "guesses"
        assert doc["result"]["rate"]["units"] == "bits_per_m"

    def test_trial_log_file(self, runner, tmp_path):
        log = tmp_path / "trials.csv"
        result = runner.invoke(
            cli.main,
            ["simulate", "--mode", "allocated-online", "--m", "6", "--p", "0.3",
             "--n", "14", "--trials", "150", "--trial-log", str(log)],
        )
        assert result.exit_code == 0
        lines = log.read_text().strip().splitlines()
        assert lines[0].startswith("trial_seed,")
        assert len(lines) == 151

    def test_random_seed_echoed(self, runner):
        args = ["simulate", "--mode", "no-allocation-keyed", "--m", "6", "--p", "0.3",
                "--n", "14", "--trials", "200", "--seed", "random", "--output", "json"]
        doc = json.loads(runner.invoke(cli.main, args).output)
        assert isinstance(doc["config"]["seed"], int)

    def test_fast_budget_resolved(self, runner):
        args = ["simulate", "--mode", "no-allocation-keyed", "--m", "6", "--p", "0.3",
                "--n", "14", "--trials", "200", "--budget", "fast", "--output", "json"]
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        # 2^(ceil(6 * log2(1/0.3)) + 6) = 2^17
        assert doc["config"]["budget"] == 1 << 17

    def test_bad_budget_exit_2(self, runner):
        args = ["simulate", "--mode", "no-allocation-keyed", "--m", "6", "--p", "0.3",
                "--n", "14", "--trials", "200", "--budget", "soon"]
        assert runner.invoke(cli.main, args).exit_code == 2

    @pytest.mark.parametrize("engine", ["sampled", "scan"])
    def test_budget_below_one_exit_2(self, runner, engine):
        args = ["simulate", "--mode", "no-allocation-keyed", "--m", "6", "--p", "0.3",
                "--n", "14", "--trials", "200", "--engine", engine, "--budget"]
        for budget in ("0", "-5"):
            result = runner.invoke(cli.main, args + [budget])
            assert result.exit_code == 2
            assert "budget must be >= 1" in result.output
        result = runner.invoke(cli.main, args + ["1", "--output", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["config"]["budget"] == 1
        # one guess: every success took exactly one, so the mean is the success share
        res = doc["result"]
        assert res["mean"] * res["trials"] == pytest.approx(res["trials"] - res["failures"])


class TestSweep:
    def test_unbiased_slope_one(self, runner):
        result = runner.invoke(
            cli.main,
            ["sweep", "--mode", "allocated-online", "--p", "0.5", "--s", "0.9",
             "--m", "8,10,12", "--trials", "800", "--assert", "slope≈1±0.1"],
        )
        assert result.exit_code == 0, result.output
        assert "ASSERT OK" in result.output

    def test_csv_output(self, runner):
        result = runner.invoke(
            cli.main,
            ["sweep", "--mode", "no-allocation-keyed", "--p", "0.3",
             "--m", "6,8,10", "--trials", "300", "--output", "csv"],
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        assert lines[0] == "m,log2_mean,ci"
        assert len(lines) == 4

    def test_too_few_points_exit_2(self, runner):
        result = runner.invoke(
            cli.main,
            ["sweep", "--mode", "no-allocation-keyed", "--p", "0.3", "--m", "6,8"],
        )
        assert result.exit_code == 2


class TestConcentration:
    def test_bound_check_passes(self, runner):
        result = runner.invoke(
            cli.main,
            ["concentration", "--m", "10", "--p", "0.3", "--trials", "20000",
             "--assert"],
        )
        assert result.exit_code == 0, result.output
        assert "ASSERT OK" in result.output

    def test_failing_assert_exits_3(self, runner, monkeypatch):
        from guesswork_lab import experiments

        def above_bound(cfg, l_values):
            return [experiments.ConcentrationRow(l=l, empirical=0.9, ci=0.01, bound=0.1) for l in l_values]

        monkeypatch.setattr(experiments, "concentration_report", above_bound)
        result = runner.invoke(
            cli.main, ["concentration", "--m", "10", "--p", "0.3", "--trials", "200", "--assert"]
        )
        assert result.exit_code == 3
        assert result.stderr.splitlines()[-1] == "ASSERT FAIL: 5 points exceed bound + 3 sigma"

    def test_csv_rows(self, runner):
        result = runner.invoke(
            cli.main,
            ["concentration", "--m", "8", "--p", "0.3", "--trials", "5000",
             "--l-frac", "0.5,0.9", "--output", "csv"],
        )
        lines = [l for l in result.output.splitlines() if not l.startswith("#")]
        assert lines[0] == "l,empirical,ci,bound"
        assert len(lines) == 3


class TestKeysize:
    def test_reference_alpha_two(self, runner):
        result = runner.invoke(
            cli.main, ["keysize", "--alpha", "2", "--output", "json"]
        )
        doc = json.loads(result.output)
        row = doc["rows"][0]
        assert row["p0"] == pytest.approx(0.0669872981, abs=1e-9)
        assert row["ratio"] == 2.0

    def test_default_panel(self, runner):
        result = runner.invoke(cli.main, ["keysize"])
        assert result.exit_code == 0
        assert "2^(3*m)" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--mode", "allocated-online", "--m", "8", "--p", "0.3"],
        ["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "8,10,12"],
        ["concentration", "--m", "10", "--p", "0.3"],
    ],
    ids=["simulate", "sweep", "concentration"],
)
def test_too_few_trials_exit_2(runner, args):
    result = runner.invoke(cli.main, args + ["--trials", "50"])
    assert result.exit_code == 2
    assert "trials must be >= 100" in result.output


def test_trial_log_independent_of_workers(runner, tmp_path):
    logs = []
    for workers in ("1", "2"):
        log = tmp_path / f"trials{workers}.csv"
        result = runner.invoke(
            cli.main,
            ["simulate", "--mode", "unallocated-online", "--m", "6", "--p", "0.3",
             "--n", "14", "--trials", "300", "--workers", workers, "--trial-log", str(log)],
        )
        assert result.exit_code == 0, result.output
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]
    assert len(logs[0].splitlines()) == 301


def test_assert_grammar():
    assert cli._parse_assert("rate≈1±0.15") == ("rate", 1.0, 0.15)
    assert cli._parse_assert("slope~=0.9+-0.06") == ("slope", 0.9, 0.06)
    with pytest.raises(Exception):
        cli._parse_assert("banana")


def test_light_commands_do_not_load_numpy():
    # --version, rates and table1 need only the closed forms; a fresh
    # process must not pay for importing numpy and the engines.
    code = (
        "import sys\n"
        "from click.testing import CliRunner\n"
        "from guesswork_lab import cli\n"
        "runner = CliRunner()\n"
        "for args in (['--version'], ['rates', '--p', '0.3', '--s', '0.9'], ['table1']):\n"
        "    assert runner.invoke(cli.main, args).exit_code == 0, args\n"
        "print(sorted(m for m in ('numpy', 'guesswork_lab.experiments') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args,message",
    [
        (["simulate", "--mode", "allocated-online", "--m", "8", "--p", "0.3", "--seed", "abc"],
         "--seed must be an integer or 'random', got 'abc'"),
        (["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "8,x,12"],
         "--m must be a comma-separated integer list"),
        (["concentration", "--m", "10", "--p", "0.3", "--l", "0.5,foo"],
         "--l must be a comma-separated number list"),
        (["concentration", "--m", "10", "--p", "0.3", "--l", "9"], "l values must stay below n/m"),
        (["keysize", "--alpha", "1,x"], "--alpha must be a comma-separated number list"),
        (["keysize", "--alpha", "0.5"], "alpha must be >= 1, got 0.5"),
        (["rates", "--p", "0.3", "--s", "0.4"], "s must lie in [1/2, 1], got 0.4"),
    ],
    ids=["seed", "int-list", "float-list", "l-range", "alpha-list", "alpha-range", "rates-s"],
)
def test_bad_input_exit_2(runner, args, message):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == f"Error: {message}"


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--mode", "allocated-online", "--m", "8", "--p", "0.3", "--trials", "100"],
        ["sweep", "--mode", "allocated-online", "--p", "0.3", "--m", "6,8,10", "--trials", "100"],
    ],
    ids=["simulate", "sweep"],
)
def test_workers_below_one_exit_2(runner, args, workers):
    result = runner.invoke(cli.main, args + ["--workers", workers])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        f"Error: Invalid value for '--workers': {workers} is not in the range x>=1."
    )


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--mode", "allocated-online", "--m", "8"],
        ["simulate", "--mode", "allocated-online", "--m", "8", "--budget", "fast"],
        ["sweep", "--mode", "allocated-online", "--m", "6,8,10"],
        ["concentration", "--m", "8"],
    ],
    ids=["simulate", "simulate-fast-budget", "sweep", "concentration"],
)
def test_nan_bias_without_width_exit_2(runner, args):
    # the default width reads p, so p is checked before it
    result = runner.invoke(cli.main, args + ["--p", "nan"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == "Error: p must lie in (0, 1/2], got nan"
    result = runner.invoke(cli.main, args + ["--p", "0.3", "--s", "nan"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == "Error: s must lie in [1/2, 1], got nan"


def test_errors_map_to_exit_codes_at_the_group(runner, monkeypatch):
    # a ValueError from any layer is a usage error of its command, and a
    # RuntimeError other than a resource cap is not swallowed
    from guesswork_lab import experiments

    result = runner.invoke(cli.main, ["keysize", "--alpha", "0.5"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[0] == "Usage: main keysize [OPTIONS]"

    def fail(alphas):
        raise RuntimeError("not a cap")

    monkeypatch.setattr(experiments, "keysize_panel", fail)
    result = runner.invoke(cli.main, ["keysize"])
    assert result.exit_code == 1
    assert isinstance(result.exception, RuntimeError) and "resource cap" not in result.stderr
