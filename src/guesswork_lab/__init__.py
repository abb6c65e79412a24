"""Average-guesswork analysis of biased hash functions.

Library layout:

* infotheory: entropy, divergence, Renyi entropy, type-class machinery
* rates: closed-form growth rates, finite-size expectations, key sizes
* hashmodel: keyed segmented hash and explicit table models
* allocation: least-likely-first bin assignment and backdoor planting
* attack: guessing strategies and guess-counting simulations
* config: experiment modes, limits and the validated config record
* experiments: Monte Carlo orchestration, sweeps, panels
* cli: the guesswork-lab command line front end
"""

from importlib import import_module

from .rates import RateReport, ScenarioParams

__version__ = "0.1.0"

#: Names whose modules load numpy, imported on first access so that
#: importing the package (and ``guesswork-lab --version``) does not.
_LAZY = {
    "BinLabel": "hashmodel",
    "EstimateWithCI": "attack",
    "KeyedHashModel": "hashmodel",
    "TableHash": "hashmodel",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BinLabel",
    "EstimateWithCI",
    "KeyedHashModel",
    "RateReport",
    "ScenarioParams",
    "TableHash",
    "__version__",
]
