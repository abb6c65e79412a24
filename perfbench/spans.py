"""Span tracer that times guesswork_lab's layers from outside the package.

For a traced pass, ``Tracer.installed()`` rebinds the listed public
functions to timing wrappers and restores the originals on exit.  The
rebinding is made in every ``guesswork_lab`` module namespace that holds
the function (and on ``KeyedHashModel`` for its methods).  Callers look
these names up at call time -- module attributes such as
``alloc.resolve_collisions``, module globals such as ``_scan_outcome_sampled``
and ``strategy_chunks``, class attributes such as ``eval_many`` -- so every
call in the package goes through a wrapper.

Each wrapped call records a span: name, start, end and the span that was
open when it started.  A span's self time is its duration minus the
durations of its direct children.  ``strategy_chunks`` returns a generator,
so each ``next()`` on it is a span, not the call that creates it.
Counts (calls, indices hashed, users resolved, ...) are recorded at the
same boundaries and are deterministic for a fixed seed.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from guesswork_lab import allocation, attack, experiments, hashmodel, infotheory, rates, rng
from workloads import MODE_ENGINES

_STRATEGY_NAMES = {
    "ascending-index": "ascending",
    "seeded-permutation": "permutation",
    "probability-descending": "descending",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.mode_seconds: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._start)
        self._span_name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> float:
        end = time.perf_counter()
        self._end[index] = end
        self._stack.pop()
        self.counts[self._names[self._span_name[index]] + ".calls"] += 1
        return end - self._start[index]

    def span_totals(self) -> dict[str, tuple[float, float]]:
        """(total duration, self time) in seconds for each span name."""
        if not self._start:
            return {}
        start = np.frombuffer(self._start, dtype=np.float64)
        dur = np.frombuffer(self._end, dtype=np.float64) - start
        parent = np.frombuffer(self._parent, dtype=np.int64)
        names = np.frombuffer(self._span_name, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        totals = np.bincount(names, weights=dur, minlength=len(self._names))
        selfs = np.bincount(names, weights=self_time, minlength=len(self._names))
        return {name: (float(totals[i]), float(selfs[i])) for i, name in enumerate(self._names)}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(span)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return wrapper

    def _wrap_chunks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(strat, n, budget):
            chunks = fn(strat, n, budget)
            name = "attack.strategy_chunks." + _STRATEGY_NAMES[strat.kind]
            while True:
                span = tracer.open(name)
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.counts[name + ".idx"] += int(chunk.size)
                yield chunk

        return wrapper

    def _count_models(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model):
            tracer.counts["hashmodel.models_built"] += 1
            return fn(model)

        return wrapper

    # after-hooks: counts taken from arguments and results

    def _after_biased_bits(self, args, kwargs, result, seconds):
        self.counts["rng.biased_bits.idx"] += int(result.size)

    def _after_eval_many(self, args, kwargs, result, seconds):
        model = args[0]
        kind = "overrides" if model.overrides else "plain"
        self.counts[f"hashmodel.eval_many_{kind}.idx"] += int(result.size)

    def _after_resolve(self, args, kwargs, result, seconds):
        self.counts["allocation.resolve_collisions.users"] += len(args[0])
        self.counts["allocation.collisions"] += result.collision_count

    def _after_attack(self, args, kwargs, result, seconds):
        self.counts["attack.attacks"] += 1
        self.counts["attack.guesses_used"] += result.guesses

    def _after_run(self, args, kwargs, result, seconds):
        cfg = args[0]
        self.counts["experiments.trials"] += cfg.trials
        self.counts["experiments.horizon_failures"] += result.failures
        self.mode_seconds[(cfg.mode, cfg.engine)] += seconds
        self.counts[f"experiments.mode_trials.{cfg.mode}.{cfg.engine}"] += cfg.trials

    def _after_panel(self, args, kwargs, result, seconds):
        self.counts["experiments.trials"] += args[0].trials
        for est in (result.online_conditional, result.offline_forced):
            if est is not None:
                self.counts["experiments.horizon_failures"] += est.failures

    def _after_concentration(self, args, kwargs, result, seconds):
        self.counts["experiments.trials"] += args[0].trials

    def _after_permutation(self, args, kwargs, result, seconds):
        self.counts["experiments.trials"] += result.trials
        self.counts["experiments.horizon_failures"] += result.failures

    def _targets(self):
        """(owner, attribute, wrapper) for every rebinding."""
        model = hashmodel.KeyedHashModel
        yield rng, "biased_bits", self._wrap(rng.biased_bits, "rng.biased_bits", self._after_biased_bits)
        yield rng, "generator", self._wrap(rng.generator, "rng.generator")
        yield rng, "uniforms", self._wrap(rng.uniforms, "rng.uniforms")
        yield model, "__post_init__", self._count_models(model.__post_init__)
        yield model, "eval_many", self._wrap(
            model.eval_many,
            lambda args: "hashmodel.eval_many_overrides" if args[0].overrides else "hashmodel.eval_many_plain",
            self._after_eval_many,
        )
        yield allocation, "allocate_bins", self._wrap(allocation.allocate_bins, "allocation.allocate_bins")
        yield allocation, "resolve_collisions", self._wrap(
            allocation.resolve_collisions, "allocation.resolve_collisions", self._after_resolve
        )
        yield allocation, "backdoor_install", self._wrap(allocation.backdoor_install, "allocation.backdoor_install")
        yield attack, "strategy_chunks", self._wrap_chunks(attack.strategy_chunks)
        for name in ("online_attack", "offline_attack_any", "biased_password_race"):
            yield attack, name, self._wrap(getattr(attack, name), "attack." + name, self._after_attack)
        yield experiments, "run_experiment", self._wrap(
            experiments.run_experiment, "experiments.run_experiment", self._after_run
        )
        yield experiments, "_scan_outcome_sampled", self._wrap(
            experiments._scan_outcome_sampled, "experiments.scan_outcome_sampled"
        )
        for name, after in (
            ("most_likely_panel", self._after_panel),
            ("concentration_report", self._after_concentration),
            ("permutation_mean_guesswork", self._after_permutation),
        ):
            yield experiments, name, self._wrap(getattr(experiments, name), "experiments." + name, after)
        for module in (rates, infotheory):
            for name, fn in vars(module).items():
                if (
                    callable(fn)
                    and getattr(fn, "__module__", None) == module.__name__
                    and not isinstance(fn, type)
                    and not name.startswith(("_", "check_"))
                ):
                    yield module, name, self._wrap(fn, "rates." + name)

    @contextmanager
    def installed(self):
        """Rebind every target in all loaded guesswork_lab modules; restore on exit."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "guesswork_lab" or key.startswith("guesswork_lab.")
        ]
        try:
            for owner, attr, wrapper in self._targets():
                original = vars(owner)[attr]
                if isinstance(owner, type):
                    self._rebind(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers a pass never touched read 0."""
        spans = self.span_totals()
        c = self.counts

        def self_s(*names):
            return sum(spans.get(name, (0.0, 0.0))[1] for name in names)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        eval_names = ("hashmodel.eval_many_plain", "hashmodel.eval_many_overrides")
        attack_names = ("attack.online_attack", "attack.offline_attack_any", "attack.biased_password_race")
        out = {
            "rng.biased_bits.calls": c["rng.biased_bits.calls"],
            "rng.biased_bits.idx": c["rng.biased_bits.idx"],
            "rng.biased_bits.self_s": self_s("rng.biased_bits"),
            "rng.biased_bits.idx_per_s": rate(c["rng.biased_bits.idx"], self_s("rng.biased_bits")),
            "rng.generator.calls": c["rng.generator.calls"],
            "rng.generator.self_s": self_s("rng.generator"),
            "rng.uniforms.calls": c["rng.uniforms.calls"],
            "rng.uniforms.self_s": self_s("rng.uniforms"),
            "hashmodel.models_built": c["hashmodel.models_built"],
            "hashmodel.eval_many.calls": sum(c[n + ".calls"] for n in eval_names),
            "hashmodel.eval_many.idx": sum(c[n + ".idx"] for n in eval_names),
            "hashmodel.eval_many.self_s": self_s(*eval_names),
            "hashmodel.eval_many.idx_per_s": rate(sum(c[n + ".idx"] for n in eval_names), self_s(*eval_names)),
            "hashmodel.eval_many_overrides.idx": c["hashmodel.eval_many_overrides.idx"],
            "hashmodel.eval_many_overrides.self_s": self_s("hashmodel.eval_many_overrides"),
            "allocation.allocate_bins.calls": c["allocation.allocate_bins.calls"],
            "allocation.allocate_bins.self_s": self_s("allocation.allocate_bins"),
            "allocation.resolve_collisions.calls": c["allocation.resolve_collisions.calls"],
            "allocation.resolve_collisions.users": c["allocation.resolve_collisions.users"],
            "allocation.resolve_collisions.self_s": self_s("allocation.resolve_collisions"),
            "allocation.backdoor_install.calls": c["allocation.backdoor_install.calls"],
            "allocation.backdoor_install.self_s": self_s("allocation.backdoor_install"),
            "allocation.collisions": c["allocation.collisions"],
        }
        chunk_idx = 0
        for kind in ("ascending", "permutation", "descending"):
            name = "attack.strategy_chunks." + kind
            out[name + ".idx"] = c[name + ".idx"]
            out[name + ".self_s"] = self_s(name)
            out[name + ".idx_per_s"] = rate(c[name + ".idx"], self_s(name))
            chunk_idx += c[name + ".idx"]
        out.update({
            "attack.attacks": c["attack.attacks"],
            "attack.self_s": self_s(*attack_names),
            "attack.idx_hashed": chunk_idx,
            "attack.guesses_used": c["attack.guesses_used"],
            "attack.useful_ratio": c["attack.guesses_used"] / chunk_idx if chunk_idx else 0.0,
            "experiments.trials": c["experiments.trials"],
            "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
            "experiments.scan_outcome_sampled.calls": c["experiments.scan_outcome_sampled.calls"],
            "experiments.scan_outcome_sampled.self_s": self_s("experiments.scan_outcome_sampled"),
            "experiments.most_likely_panel.self_s": self_s("experiments.most_likely_panel"),
            "experiments.permutation_mean_guesswork.self_s": self_s("experiments.permutation_mean_guesswork"),
            "experiments.concentration_report.self_s": self_s("experiments.concentration_report"),
            "experiments.horizon_failures": c["experiments.horizon_failures"],
        })
        for mode, engine in MODE_ENGINES:
            out[f"experiments.trials_per_s.{mode}.{engine}"] = rate(
                c[f"experiments.mode_trials.{mode}.{engine}"], self.mode_seconds[(mode, engine)]
            )
        out["rates.self_s"] = sum(s for name, (_, s) in spans.items() if name.startswith("rates."))
        return out

    def deterministic_counts(self) -> dict[str, int]:
        """Every count the tracer took; equal between passes at one seed."""
        return dict(sorted(self.counts.items()))
