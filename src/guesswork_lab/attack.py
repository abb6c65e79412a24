"""Attacker strategies and guess-counting simulations.

Attacks scan candidate passwords in strategy order, never evaluating an
index twice, and count 1-based guesses to the first success.  Failed
attacks report zero guesses: failures contribute zero to every mean.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import rng
from .hashmodel import (
    BinLabel,
    HashFunction,
    KeyedHashModel,
    ResourceCapError,
    weight_layer_order,
)
from .infotheory import check_probability

#: Indices per vectorized scan step; grows geometrically up to the cap.
_CHUNK0 = 2048
_CHUNK_CAP = 1 << 16

#: Most (row, index) pairs one lockstep round hashes.
_ROUND_PAIRS = 1 << 16

#: Most candidates a seeded permutation serves (a 256 MiB seen buffer).
_PERM_MASK_CAP = 1 << 26

#: Seen-buffer mark of a served candidate; below every chunk position.
_SEEN = np.iinfo(np.int32).min

#: Most candidates whose seen buffer (16 MiB) is kept for reuse.
_SEEN_FREE_CAP = 1 << 22

#: Indices of each probability-descending order kept in memory (1 MiB).
_ORDER_PREFIX = 1 << 17

#: Ranks unranked at once while building that prefix.
_UNRANK_BLOCK = 1 << 14

ARM_HASH = "hash"
ARM_PASSWORD = "password"


@dataclass(frozen=True)
class GuessStrategy:
    """Password guessing order.

    ascending-index scans 0, 1, 2, ...; seeded-permutation scans a
    uniformly random order; probability-descending scans by decreasing
    i.i.d. Bernoulli(theta) likelihood, ties broken ascending.
    """

    kind: str
    seed: Optional[int] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("ascending-index", "seeded-permutation", "probability-descending"):
            raise ValueError(f"unknown strategy kind: {self.kind}")
        if self.kind == "seeded-permutation" and self.seed is None:
            raise ValueError("seeded-permutation requires a seed")
        if self.kind == "probability-descending":
            if self.theta is None:
                raise ValueError("probability-descending requires theta")
            check_probability(self.theta, "theta")


def ascending() -> GuessStrategy:
    return GuessStrategy("ascending-index")


def permutation(seed: int) -> GuessStrategy:
    return GuessStrategy("seeded-permutation", seed=seed)


def descending_probability(theta: float) -> GuessStrategy:
    return GuessStrategy("probability-descending", theta=theta)


@dataclass(frozen=True)
class AttackResult:
    """Guess count to first success; zero when the budget was exhausted."""

    guesses: int
    success: bool
    arm: Optional[str] = None

    def __post_init__(self):
        if not self.success and self.guesses != 0:
            raise ValueError("failed attacks must report zero guesses")


def _ascending_chunks(budget: int) -> Iterator[np.ndarray]:
    """[0, budget) in chunks of _CHUNK0 * 4^k indices, at most _CHUNK_CAP."""
    chunk, start = _CHUNK0, 0
    while start < budget:
        stop = min(start + chunk, budget)
        yield np.arange(start, stop, dtype=np.uint64)
        start, chunk = stop, min(chunk * 4, _CHUNK_CAP)


def _permutation_chunks(n_candidates: int, budget: int, seed: int) -> Iterator[np.ndarray]:
    """A uniform permutation's first budget candidates, served lazily.

    Draw k is the top n bits of rng.words(seed, k, LANE_PERMUTATION), for
    n_candidates = 2^n, and the first occurrences of these i.i.d. uniform
    draws are exactly a uniform permutation's prefix.  Draws come
    min(chunk, 4x the candidates not yet served) at a time, chunk growing
    from _CHUNK0 by 4x to _CHUNK_CAP, and each batch's fresh candidates
    are served before the next is drawn, so a scan that stops at its
    first hit draws little.  Rejection stalls near exhaustion, so after
    the first 9/10 of the candidates (rounded down) the rest come as one
    chunk, in the order of their own words, rng.words(key, i,
    LANE_PERMUTATION) for candidate i with key the draws' key, ties by
    index.  Given the served prefix that order is uniform but for ties
    among the R <= n_candidates / 10 words, which occur with probability
    below R^2 / 2^65.  Every draw and word is a pure function of its
    counter and the switch comes at a fixed count, so batch sizes never
    change the order.
    """
    if n_candidates > _PERM_MASK_CAP:
        raise ResourceCapError(f"seeded permutation capped at {_PERM_MASK_CAP} candidates")
    n = n_candidates.bit_length() - 1
    key = rng.derive_seed(seed, rng.LANE_PERMUTATION)
    head = n_candidates * 9 // 10
    stop = min(head, budget)
    seen = _take_seen(n_candidates)
    marked: list[np.ndarray] = []  # entries of seen written: each batch's served candidates
    served = drawn = 0
    chunk = _CHUNK0
    try:
        while served < stop:
            raw = rng.key_draws(key, drawn, min(chunk, 4 * (n_candidates - served)), n)
            drawn += raw.size
            marked.append(raw)  # in flight, any of its entries may be written
            fresh = raw[_fresh_mask(seen, raw)]
            seen[fresh[stop - served :]] = 0  # past the switch or the budget: not served
            fresh = fresh[: stop - served]
            marked[-1] = fresh
            if fresh.size:
                yield fresh.view(np.uint64)
                served += fresh.size
            chunk = min(chunk * 4, _CHUNK_CAP)
        if served < budget:
            rest = np.flatnonzero(seen != _SEEN)
            if rest.size > 1:
                rest = rest.take(np.argsort(rng.words(key, rest, rng.LANE_PERMUTATION), kind="stable"))
            yield rest[: budget - served].view(np.uint64)
    finally:
        if n_candidates <= _SEEN_FREE_CAP:
            for fresh in marked:
                seen[fresh] = 0
            _SEEN_FREE.setdefault(n_candidates, []).append(seen)


#: Zeroed seen buffers of finished lazy permutation scans, by candidate
#: count: a scan takes one and hands it back clean, even when abandoned at
#: its first hit, so no scan zeroes (and faults in) a buffer of its own.
_SEEN_FREE: dict[int, list[np.ndarray]] = {}


def _take_seen(n_candidates: int) -> np.ndarray:
    try:  # one pop, so concurrent scans never share a buffer
        return _SEEN_FREE[n_candidates].pop()
    except (KeyError, IndexError):
        return np.zeros(n_candidates, dtype=np.int32)


def _fresh_mask(seen: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Which draws of raw (any shape, read in C order) are the first
    occurrence of a candidate not served before; those are then marked
    served.

    seen holds _SEEN for served candidates and 0 otherwise, and does so
    again on return.  Each draw's position (shifted below 0) goes in with
    np.minimum.at, so a candidate keeps its earliest position whatever
    order numpy writes in; the fresh draws are those that find their own
    position there.
    """
    pos = np.arange(-raw.size, 0, dtype=np.int32).reshape(raw.shape)
    np.minimum.at(seen, raw, pos)
    fresh = seen[raw] == pos
    seen[raw[fresh]] = _SEEN
    return fresh


@functools.lru_cache(maxsize=4)
def _descending_prefix(n: int, heavy_first: bool) -> np.ndarray:
    """The weight-layer order's first min(2^n, _ORDER_PREFIX) indices,
    read-only; every trial at the same (n, direction) shares them.  They
    are unranked _UNRANK_BLOCK at a time, so the temporaries stay small."""
    order = np.empty(min(1 << n, _ORDER_PREFIX), dtype=np.uint64)
    for lo in range(0, order.size, _UNRANK_BLOCK):
        block = order[lo : lo + _UNRANK_BLOCK]
        block[:] = weight_layer_order(n, heavy_first, np.arange(lo, lo + block.size))
    order.flags.writeable = False
    return order


def _weight_layer_chunks(n: int, theta: float, budget: int) -> Iterator[np.ndarray]:
    """Descending-probability order for i.i.d. Bernoulli(theta) passwords.

    For theta < 1/2 probability strictly decreases with weight, so the
    order is weight layers 0..n, ascending numeric inside each layer;
    theta > 1/2 walks the layers from n down.  theta = 1/2 degenerates to
    ascending index.  Chunks hold _CHUNK0 indices, served from the cached
    prefix and past it unranked (the prefix holds whole chunks).
    """
    if theta == 0.5:
        yield from _ascending_chunks(budget)
        return
    heavy_first = theta > 0.5
    prefix = _descending_prefix(n, heavy_first)
    for start in range(0, budget, _CHUNK0):
        stop = min(start + _CHUNK0, budget)
        if stop <= prefix.size:
            yield prefix[start:stop]
        else:
            yield weight_layer_order(n, heavy_first, np.arange(start, stop)).astype(np.uint64)


def guess_horizon(n: int, budget: Optional[int]) -> int:
    """Guesses a scan over the 2^n candidates may spend: all of them when
    budget is None, else at most budget."""
    return (1 << n) if budget is None else min(budget, 1 << n)


def strategy_chunks(strat: GuessStrategy, n: int, budget: Optional[int]) -> Iterator[np.ndarray]:
    """Candidate index chunks in strategy order, guess_horizon(n, budget)
    indices in all; indices never repeat."""
    budget = guess_horizon(n, budget)
    if strat.kind == "ascending-index":
        yield from _ascending_chunks(budget)
    elif strat.kind == "seeded-permutation":
        yield from _permutation_chunks(1 << n, budget, strat.seed)
    else:
        yield from _weight_layer_chunks(n, strat.theta, budget)


def _bits_of(b: Union[BinLabel, int]) -> int:
    return b.bits if isinstance(b, BinLabel) else int(b)


def _window_specials(keys: np.ndarray, window: np.ndarray, ascending_window: bool):
    """(entry, column) of every key lying in window; keys sorted ascending,
    repeats allowed.  An ascending-index window is a contiguous range."""
    if ascending_window:
        lo = int(np.searchsorted(keys, window[0], side="left"))
        hi = int(np.searchsorted(keys, window[-1], side="right"))
        return np.arange(lo, hi), (keys[lo:hi] - window[0]).astype(np.intp)
    left = np.searchsorted(keys, window, side="left")
    counts = np.searchsorted(keys, window, side="right") - left
    cols = np.flatnonzero(counts)
    if not cols.size:
        return cols, cols
    counts = counts[cols]
    ends = np.cumsum(counts)
    entries = np.arange(ends[-1]) + np.repeat(left[cols] - (ends - counts), counts)
    return entries, np.repeat(cols, counts)


def lockstep_scan(
    strat: GuessStrategy,
    n: int,
    budget: Optional[int],
    natural,
    rows: int,
    specials: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """First hits of `rows` scans that share one guess order.

    natural(active, window) gives the natural hits, shaped (len(active),
    len(window)), of the still-scanning rows `active` at the window's
    indices.  specials = (index, row, hit) arrays: at a special index of
    its row only `hit` decides (a planted override, or a password that
    ends the scan).  Each round hashes one window of the order for every
    active row.  strategy_chunks serves the order in chunks: _CHUNK0 * 4^k
    indices, at most _CHUNK_CAP, in ascending order; the fresh candidates
    of batches of at most that many draws in permutation order (a lazy
    permutation's near-exhaustion tail comes as one chunk); and _CHUNK0
    indices each in descending order.  A window is the rest of
    the current chunk, cut to _ROUND_PAIRS // active indices while more
    than one row scans.  One row thus keeps the chunk schedule, and many
    rows take narrow windows that overshoot their first hits by little.
    Returns each row's 1-based guess count (0 when no hit came within the
    budget) and the index of its first hit.
    """
    guesses = np.zeros(rows, dtype=np.int64)
    first = np.zeros(rows, dtype=np.uint64)
    active = np.arange(rows)
    if specials is not None:
        slot = np.arange(rows)  # position of each row in active, -1 once done
        order = np.argsort(specials[0], kind="stable")
        keys, key_rows, key_hits = (a[order] for a in specials)
        ascending_window = strat.kind == "ascending-index"
    consumed = 0
    for chunk in strategy_chunks(strat, n, budget):
        at = 0
        while at < chunk.size:
            width = chunk.size if active.size == 1 else max(1, _ROUND_PAIRS // active.size)
            window = chunk[at : at + width]
            hits = natural(active, window)
            if specials is not None and keys.size:
                entries, cols = _window_specials(keys, window, ascending_window)
                where = slot[key_rows[entries]]
                scanning = where >= 0
                hits[where[scanning], cols[scanning]] = key_hits[entries[scanning]]
            if active.size == 1:  # the last row: its first hit ends the scan
                col = int(hits[0].argmax())
                if hits[0, col]:
                    guesses[active[0]], first[active[0]] = consumed + col + 1, window[col]
                    return guesses, first
            else:
                cols = hits.argmax(axis=1)  # a row's first hit, or 0 when it has none
                done = hits[np.arange(active.size), cols]
                if done.any():
                    finished, cols = active[done], cols[done]
                    guesses[finished] = consumed + cols + 1
                    first[finished] = window[cols]
                    active = active[~done]
                    if not active.size:
                        return guesses, first
                    if specials is not None:
                        slot[finished] = -1
                        slot[active] = np.arange(active.size)
            consumed += window.size
            at += window.size
    return guesses, first


#: Most bytes of stacked target-set masks one keyed scan holds.
_STACK_BYTES = 1 << 22


def keyed_scan(
    strat: GuessStrategy,
    n: int,
    budget: Optional[int],
    keys: np.ndarray,
    p: float,
    m: int,
    targets: np.ndarray,
    specials: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """lockstep_scan of rows that each hash under their own key.

    keys holds each row's key seed (uint64).  targets holds each row's
    bin, shaped (rows,), or each row's set of bins, shaped (rows, k) with
    repeats allowed.  A row with one bin hits where its word falls in the
    bin's interval (rng.biased_bits); a row with a set looks each value up
    in its set's mask.  Rows with sets go in groups whose stacked masks,
    one per distinct set, fit in _STACK_BYTES.  specials are
    lockstep_scan's.
    """
    if targets.ndim == 1:
        def natural(active, window):
            return rng.biased_bits(keys[active, None], p, m, window, target=targets[active, None])

        return lockstep_scan(strat, n, budget, natural, keys.size, specials)
    group = max(1, _STACK_BYTES >> m)
    guesses = np.zeros(keys.size, dtype=np.int64)
    first = np.zeros(keys.size, dtype=np.uint64)
    for lo in range(0, keys.size, group):
        part = slice(lo, lo + group)
        sets, set_of = np.unique(np.sort(targets[part], axis=1), axis=0, return_inverse=True)
        masks = np.zeros((sets.shape[0], 1 << m), dtype=bool)
        masks[np.arange(sets.shape[0])[:, None], sets] = True
        seeds, set_of = keys[part], set_of.reshape(-1)

        def natural(active, window):
            return rng.biased_bits(seeds[active, None], p, m, window, masks, table=set_of[active, None])

        own = None
        if specials is not None:
            sel = (specials[1] >= lo) & (specials[1] < lo + group)
            own = (specials[0][sel], specials[1][sel] - lo, specials[2][sel])
        guesses[part], first[part] = lockstep_scan(strat, n, budget, natural, seeds.size, own)
    return guesses, first


def _scan(
    h: HashFunction,
    targets: np.ndarray,
    strat: GuessStrategy,
    budget: Optional[int],
) -> tuple[int, int]:
    """One row of lockstep_scan: (guesses, index of the first hit).

    targets is the row's bin, shaped (1,), or its set of bins, shaped
    (1, k), as keyed_scan takes them.  A keyed model's overrides are the
    row's specials.
    """
    keyed = isinstance(h, KeyedHashModel)
    specials = None
    if keyed and h.overrides:
        planted, bins = (np.array(col) for col in zip(*h.overrides.items()))
        specials = (planted.astype(np.uint64), np.zeros(planted.size, dtype=np.intp), np.isin(bins, targets))
    if keyed:
        keys = np.array([h.seed & rng.MASK64], dtype=np.uint64)
        guesses, first = keyed_scan(strat, h.n, budget, keys, h.p, h.m, targets, specials)
    else:
        def natural(active, idx):
            return np.isin(h.eval_many(idx), targets)[None, :]

        guesses, first = lockstep_scan(strat, h.n, budget, natural, 1, specials)
    return int(guesses[0]), int(first[0])


def online_attack(
    h: HashFunction,
    b: Union[BinLabel, int],
    strat: GuessStrategy,
    budget: Optional[int] = None,
) -> AttackResult:
    """Guess count to the first password hashing to bin b."""
    bits = _bits_of(b)
    if not 0 <= bits < (1 << h.m):
        raise ValueError(f"bin {bits} out of range for m={h.m}")
    guesses, _ = _scan(h, np.array([bits]), strat, budget)
    return AttackResult(guesses, guesses > 0)


def offline_attack_any(
    h: HashFunction,
    bins: Iterable[Union[BinLabel, int]],
    strat: GuessStrategy,
    budget: Optional[int] = None,
) -> AttackResult:
    """Guess count to the first password hashing into the stored bin set."""
    bit_set = sorted({_bits_of(b) for b in bins})
    if not bit_set:
        raise ValueError("bin set must be nonempty")
    if bit_set[0] < 0 or bit_set[-1] >= (1 << h.m):
        raise ValueError("bin out of range for m")
    guesses, _ = _scan(h, np.array([bit_set]), strat, budget)
    return AttackResult(guesses, guesses > 0)


def fast_budget(m: int, q_b: float, p: float) -> int:
    """Guess budget for fast-mode scans: 2^{ceil(m (H+D)) + 6}.

    64x the mean of the target bin's geometric, so the truncated tail
    contributes less than 2^-50 of the mean; failures beyond it are
    counted by the zero-on-failure convention.
    """
    from .infotheory import cross_entropy_identity

    return 1 << (math.ceil(m * cross_entropy_identity(q_b, p)) + 6)


def permutation_average_exact(total: int, preimages: int) -> float:
    """Mean first-success index over uniformly random guess orders.

    With L of N candidates succeeding, the average is (N+1)/(L+1); with
    L = 0 the attack always fails and the zero-on-failure convention
    applies.
    """
    if total < 1:
        raise ValueError(f"total must be positive, got {total}")
    if not 0 <= preimages <= total:
        raise ValueError(f"preimages must lie in [0, {total}], got {preimages}")
    if preimages == 0:
        return 0.0
    return (total + 1) / (preimages + 1)


def broken_hash_moment(probs: np.ndarray, rho: float) -> float:
    """Exact rho-th guesswork moment against a fully known hash.

    probs holds every bin's probability.  The attacker holds one preimage
    per bin and guesses bins by descending probability (ties ascending):
    sum of rank^rho * P(rank).
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-probs, kind="stable")
    ranks = np.arange(1, probs.size + 1, dtype=np.float64)
    return float((ranks ** rho) @ probs[order])


def biased_password_race(
    h: KeyedHashModel,
    b: Union[BinLabel, int],
    theta: float,
    true_pw: int,
    budget: Optional[int] = None,
) -> AttackResult:
    """Race a known true password against any other preimage of bin b.

    The true password is planted in bin b of a copy of h, over any override
    h has there.  Guesses run in probability-descending(theta) order and
    stop at the first hit: the password arm's when it is the true password,
    the hash arm's when an earlier guess hashes to b.
    """
    bits = _bits_of(b)
    check_probability(theta, "theta")
    planted = replace(h, overrides={**h.overrides, true_pw: bits})
    guesses, first = _scan(planted, np.array([bits]), descending_probability(theta), budget)
    if not guesses:
        return AttackResult(0, False)
    return AttackResult(guesses, True, ARM_PASSWORD if first == true_pw else ARM_HASH)


@dataclass
class EstimateWithCI:
    """Monte Carlo mean with a 95% normal-approximation half width.

    Accumulated from exact integer sums so merging is order-insensitive
    and bit-identical across worker splits.
    """

    mean: float
    half_width_95: float
    trials: int
    failures: int

    def __post_init__(self):
        if self.half_width_95 < 0:
            raise ValueError("half_width_95 must be nonnegative")
        if not 0 <= self.failures <= self.trials:
            raise ValueError("failures must lie in [0, trials]")


class GuessAccumulator:
    """Exact integer accumulator for guess counts (zero on failure)."""

    __slots__ = ("count", "failures", "total", "total_sq")

    def __init__(self):
        self.count = 0
        self.failures = 0
        self.total = 0
        self.total_sq = 0

    def add(self, guesses: int, success: bool) -> None:
        self.count += 1
        if success:
            self.total += guesses
            self.total_sq += guesses * guesses
        else:
            self.failures += 1

    def add_array(self, guesses: np.ndarray) -> None:
        """Bulk add; entries equal to 0 count as failures.

        Values must be integral (float inputs are rounded); sums are kept
        as Python ints so merging stays exact at any magnitude.  They are
        summed in int64 when max|g|^2 * size < 2^63 rules out overflow.
        """
        g = np.asarray(guesses)
        if g.dtype.kind == "f":
            g = np.rint(g)
        g = g.astype(np.int64).ravel()
        self.count += int(g.size)
        self.failures += int(np.count_nonzero(g == 0))
        if not g.size:
            return
        peak = max(-int(g.min()), int(g.max()))
        if peak * peak * g.size < 1 << 63:
            self.total += int(g.sum())
            self.total_sq += int(np.dot(g, g))
            return
        ints = g.tolist()
        self.total += sum(ints)
        self.total_sq += sum(x * x for x in ints)

    def merge(self, other: "GuessAccumulator") -> "GuessAccumulator":
        out = GuessAccumulator()
        out.count = self.count + other.count
        out.failures = self.failures + other.failures
        out.total = self.total + other.total
        out.total_sq = self.total_sq + other.total_sq
        return out

    def estimate(self) -> EstimateWithCI:
        if self.count == 0:
            raise ValueError("no trials accumulated")
        mean = self.total / self.count
        if self.count > 1:
            var = (self.total_sq - self.total * self.total / self.count) / (
                self.count - 1
            )
            half = 1.96 * math.sqrt(max(var, 0.0) / self.count)
        else:
            half = 0.0
        return EstimateWithCI(
            mean=mean, half_width_95=half, trials=self.count, failures=self.failures
        )
