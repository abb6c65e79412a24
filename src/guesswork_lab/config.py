"""Experiment configuration: modes, limits and the validated config record.

Kept free of numpy so that the command line can parse and validate its
flags, and answer ``--version``, ``rates`` and ``table1``, without
loading the simulation engines.  ``experiments`` re-exports every name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .infotheory import binary_entropy
from .rates import ScenarioParams

#: Tag of every JSON document the package writes.
SCHEMA = "guesswork-lab/1"


@dataclass(frozen=True)
class Mode:
    """What an attack scenario does; every decision that depends on the mode reads these fields.

    allocated: users hold the least likely bins, their passwords planted
    by the backdoor (otherwise each password keeps its keyed-hash bin);
    offline: the attacker wins on any stored bin, not one user's;
    single_user: one user per trial; biased: that user's password is
    Bernoulli(theta) and raced in probability-descending order;
    exact: a closed-form moment, no trials drawn.
    """

    allocated: bool = False
    offline: bool = False
    single_user: bool = False
    biased: bool = False
    exact: bool = False


#: Every mode by name, in the order the command line lists them.
MODES = {
    "allocated-online": Mode(allocated=True),
    "allocated-offline": Mode(allocated=True, offline=True),
    "unallocated-online": Mode(),
    "unallocated-offline": Mode(offline=True),
    "broken-hash": Mode(exact=True),
    "biased-password": Mode(single_user=True, biased=True),
    "no-allocation-keyed": Mode(single_user=True),
}

#: Minimum trials for the normal-approximation interval to mean anything.
MIN_TRIALS = 100

#: Widest input: guess positions are int64 and keyed indices 62-bit.
MAX_INPUT_WIDTH = 62


def input_width_need(m: int, p: float, s: float, margin: float = 1.25) -> int:
    """Input width comfortably above the guesswork exponent:
    margin * m * (log2(1/p) + H(s)), rounded up."""
    return math.ceil(margin * m * (math.log2(1.0 / p) + binary_entropy(s)))


def default_input_width(m: int, p: float, s: float, margin: float = 1.25) -> int:
    """input_width_need capped at the 62-bit index limit, and at least m + 2."""
    return max(m + 2, min(MAX_INPUT_WIDTH, input_width_need(m, p, s, margin)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment's result, seed included."""

    scenario: ScenarioParams
    trials: int
    seed: int
    mode: str
    m_sweep: Optional[tuple[int, ...]] = None
    engine: str = "sampled"
    rho: float = 1.0
    budget: Optional[int] = None

    @property
    def kind(self) -> Mode:
        return MODES[self.mode]

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {tuple(MODES)}")
        if self.trials < MIN_TRIALS:
            raise ValueError(f"trials must be >= {MIN_TRIALS} for CI validity")
        if self.engine not in ("sampled", "scan"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.m_sweep is not None:
            steps = tuple(self.m_sweep)
            if len(steps) < 3:
                raise ValueError("m_sweep needs at least 3 points for a fit")
            if any(b <= a for a, b in zip(steps, steps[1:])):
                raise ValueError("m_sweep must be strictly increasing")
            object.__setattr__(self, "m_sweep", steps)
        if self.kind.biased and self.scenario.theta is None:
            raise ValueError("biased-password mode requires scenario.theta")
        if not self.kind.exact and self.scenario.n > MAX_INPUT_WIDTH:
            raise ValueError(f"n must be <= {MAX_INPUT_WIDTH}, got {self.scenario.n}")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1 guess, got {self.budget}")
