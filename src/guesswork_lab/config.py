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

MODES = (
    "allocated-online",
    "allocated-offline",
    "unallocated-online",
    "unallocated-offline",
    "broken-hash",
    "biased-password",
    "no-allocation-keyed",
)

#: Minimum trials for the normal-approximation interval to mean anything.
MIN_TRIALS = 100

#: Widest input: guess positions are int64 and keyed indices 62-bit.
MAX_INPUT_WIDTH = 62


def default_input_width(m: int, p: float, s: float, margin: float = 1.25) -> int:
    """Input width comfortably above the guesswork exponent: at least
    margin * m * (log2(1/p) + H(s)), capped at the 62-bit index limit."""
    need = margin * m * (math.log2(1.0 / p) + binary_entropy(s))
    return max(m + 2, min(MAX_INPUT_WIDTH, math.ceil(need)))


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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
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
        if self.mode == "biased-password" and self.scenario.theta is None:
            raise ValueError("biased-password mode requires scenario.theta")
        if self.mode != "broken-hash" and self.scenario.n > MAX_INPUT_WIDTH:
            raise ValueError(f"n must be <= {MAX_INPUT_WIDTH}, got {self.scenario.n}")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
