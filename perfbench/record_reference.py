"""Record the reference means and golden CLI outputs the checks compare with.

Run from the repository root, once per deliberate change of the program's
distributions or CLI output (not to make a failing check pass):

    python3 perfbench/record_reference.py

Reference means come from the sampled engine at many more trials than a
benchmark pass runs, from a seed no workload uses.  The scan-engine
configs are referenced through the sampled engine too: the two engines
agree in distribution, so the scan checks also cross-check the engines.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from guesswork_lab import experiments as ex  # noqa: E402

REFERENCE_SEED = 0x5EEDF00D
REFERENCE_TRIALS = 200_000
REFERENCE_PANEL_TRIALS = 5_000


def main() -> None:
    configs = {
        **wl.sampled_configs(REFERENCE_SEED, REFERENCE_TRIALS),
        **wl.scan_configs(REFERENCE_SEED, engine="sampled", trials=REFERENCE_TRIALS),
    }
    means = {}
    for label, cfg in configs.items():
        est = ex.run_experiment(cfg)
        means[label] = [est.mean, est.half_width_95]
        print(f"{label}: {est.mean:.6g} +- {est.half_width_95:.3g}", flush=True)
    panel = ex.most_likely_panel(wl.panel_config(REFERENCE_SEED, REFERENCE_PANEL_TRIALS))
    est = panel.offline_forced
    means["most_likely_panel.m30.offline"] = [est.mean, est.half_width_95]
    doc = {
        "seed": REFERENCE_SEED,
        "trials": REFERENCE_TRIALS,
        "panel_trials": REFERENCE_PANEL_TRIALS,
        "means": means,
    }
    wl.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in wl.cli_commands(wl.DEFAULT_SEED):
        if name in wl.GOLDEN_COMMANDS:
            code, stdout = wl.cli_subprocess(argv)
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            (wl.GOLDEN_DIR / f"{name}.txt").write_bytes(stdout)


if __name__ == "__main__":
    main()
