"""Monte Carlo experiment orchestration and rate regression.

Two simulation engines share every scenario:

* "scan" builds the hash objects and literally guesses passwords one by
  one (the ground-truth mechanism, affordable at small widths);
* "sampled" draws each trial's scan outcome from its exact distribution:
  the first natural hit is geometric in the per-guess success
  probability, mapped around the planted/conditioned password positions,
  which are handled individually.  It runs one numpy kernel per block of
  trials.  The two engines agree in distribution and are cross-checked in
  the test suite.

All per-trial randomness derives from (seed, trial index), so estimates
are bit-identical for any block or worker split.  Both engines draw a
trial's passwords, attacked user and biased password with the same
counter-keyed block functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import allocation as alloc
from . import attack, rng
from .attack import EstimateWithCI, GuessAccumulator, run_heads
from .config import (  # noqa: F401  (re-exported)
    MAX_INPUT_WIDTH,
    MIN_TRIALS,
    MODES,
    ExperimentConfig,
    Mode,
    default_input_width,
    input_width_need,
)
from .hashmodel import BINOMIAL, exact_bernoulli_distribution, weight_layer_order, weight_layer_starts
from .infotheory import binary_entropy, cross_entropy_identity
from .rates import (  # noqa: F401  (the key-size panel, re-exported)
    KeySizeRow,
    ScenarioParams,
    concentration_bound,
    keysize_panel,
)

#: Most (trial, user) pairs a sampled draw takes at once: every kernel and
#: the concentration report draw in blocks of it.  It bounds a block's
#: memory: at 2^16 a 10^5-trial single-user run peaked 6 MB higher than
#: the per-trial engine did, at 2^14 it stays below it.
BLOCK_ELEMENTS = 1 << 14

#: "No forced hit", and the slot of a repeated special position: above
#: every guess position.
_NO_HIT = np.iinfo(np.int64).max

#: An ordinal past every guess position (1.5 * 2^62), with int64 headroom.
_BEYOND = 3 << 61


@dataclass(frozen=True)
class SweepResult:
    """Least-squares rate fit of log2 mean guesswork against m."""

    points: tuple[tuple[int, float], ...]
    cis: tuple[float, ...]
    fitted_rate: float
    intercept: float
    r_squared: float


def _map_past_specials(ordinal: int, specials: np.ndarray) -> int:
    """Raw 0-based position of the ordinal-th non-special index.

    specials must be sorted ascending and distinct.  Fixed point of
    pos = ordinal - 1 + #{specials <= pos}, kept in integers so positions
    beyond 2^53 stay exact; the iteration is monotone and terminates
    within len(specials) + 1 steps (typically one).
    """
    pos = ordinal - 1
    while True:
        shifted = ordinal - 1 + int(np.searchsorted(specials, pos, side="right"))
        if shifted == pos:
            return pos
        pos = shifted


def _scan_outcome_sampled(
    u: float,
    n: int,
    p_hit: float,
    special_hits,
    special_misses,
    budget: Optional[int] = None,
) -> tuple[int, bool]:
    """Exact draw of (guesses, success) for a sequential ascending scan.

    Non-special indices succeed i.i.d. with probability p_hit; special
    positions are forced hits or misses (planted or conditioned values).
    """
    horizon = attack.guess_horizon(n, budget)
    hits = np.unique(np.asarray(special_hits, dtype=np.int64))
    misses = np.unique(np.asarray(special_misses, dtype=np.int64))
    all_specials = np.union1d(hits, misses)
    candidates = []
    if p_hit > 0.0:
        ordinal = float(rng.geometric_from_uniform(np.array([u]), p_hit)[0])
        if ordinal <= (1 << n) - all_specials.size:
            candidates.append(_map_past_specials(int(ordinal), all_specials))
    if hits.size:
        candidates.append(int(hits[0]))
    if not candidates:
        return 0, False
    pos = min(candidates)
    if pos >= horizon:
        return 0, False
    return pos + 1, True


def _first_hits(
    u: np.ndarray,
    p_hit: np.ndarray,
    specials: np.ndarray,
    first_hit: np.ndarray,
    n: int,
    budget: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """_scan_outcome_sampled for many rows at once: (guesses, success).

    Row r scans with per-guess success p_hit[r] outside its special
    positions specials[r] (int64, sorted ascending, repeats allowed), whose
    smallest forced hit is first_hit[r] (_NO_HIT when none).  Only the set
    of specials and the first hit matter, so when every special is a hit
    a caller passes just the smallest one and the outcome is
    min(geometric - 1, first hit).
    """
    horizon = attack.guess_horizon(n, budget)
    specials = np.where(run_heads(specials), specials, _NO_HIT)
    # An ordinal past the 2^n - #specials free indices maps past 2^n, so
    # clamping it (and p_hit = 0) to _BEYOND leaves the outcome unchanged.
    never = p_hit <= 0.0
    ordinal = rng.geometric_from_uniform(u, np.where(never, 1.0, p_hit))
    ordinal = np.where(never, _BEYOND, np.minimum(ordinal, _BEYOND)).astype(np.int64)
    pos = ordinal - 1
    while True:
        shifted = ordinal - 1 + (specials <= pos[:, None]).sum(axis=1)
        if np.array_equal(shifted, pos):
            break
        pos = shifted
    pos = np.minimum(pos, first_hit)
    success = pos < horizon
    return np.where(success, pos + 1, 0), success


def _pk_table(sc: ScenarioParams) -> np.ndarray:
    """Probability of one bin of each popcount 0..m."""
    one, zero = math.log2(sc.p), math.log2(1.0 - sc.p)
    return np.array([2.0 ** (w * one + (sc.m - w) * zero) for w in range(sc.m + 1)])


def _p_any(pk: np.ndarray, bins) -> float:
    """Per-guess probability of hitting any of the distinct bins, summed in
    ascending bin order (the order the batched kernels use)."""
    total = 0.0
    for b in sorted(set(bins)):
        total += pk[b.bit_count()]
    return total


def _plan_bits(cfg: ExperimentConfig) -> np.ndarray:
    """The allocated bin of each user, in plan order."""
    sc = cfg.scenario
    return np.array([b.bits for b in alloc.allocate_bins(sc.m, sc.p, _user_count(cfg)).bins()], dtype=np.int64)


def _user_count(cfg: ExperimentConfig) -> int:
    """Users, each with a password, in every trial of the mode."""
    return 1 if cfg.kind.single_user else cfg.scenario.user_count()


# ---------------------------------------------------------------------------
# sampled-engine kernels
# ---------------------------------------------------------------------------
#
# A kernel draws a whole block of trials at once.  Every draw is a pure
# function of (seed, counter, lane): the counter is the trial index, or
# trial * users + user for per-user draws.  A block therefore gives the
# same per-trial results however the trials are split into blocks or
# across workers.


@dataclass(frozen=True)
class _Block:
    """Per-trial results of one block of trials, in trial order."""

    trials: np.ndarray  # trial indices (uint64)
    guesses: np.ndarray  # int64, 0 on failure
    success: np.ndarray
    user: np.ndarray  # 1-based attacked user
    bins: np.ndarray  # attacked bin (online) or count of target bins (offline)
    arm: Optional[np.ndarray] = None  # winning arm label (biased-password)


def _arms(success: np.ndarray, first: np.ndarray, password: np.ndarray) -> np.ndarray:
    """The password arm where the password is the first hit, else the hash arm, "" on failure."""
    return np.where(success, np.where(first == password, attack.ARM_PASSWORD, attack.ARM_HASH), "")


def _trial_users(trials: np.ndarray, count: int) -> np.ndarray:
    """Counter of each (trial, user) pair: trial * count + user."""
    return trials[:, None] * np.uint64(count) + np.arange(count, dtype=np.uint64)


def _draw_passwords(cfg: ExperimentConfig, trials: np.ndarray, count: int) -> np.ndarray:
    """Each user's uniform n-bit password."""
    return rng.passwords(cfg.seed, _trial_users(trials, count), cfg.scenario.n)


def _draw_user_bins(cfg: ExperimentConfig, counters: np.ndarray) -> np.ndarray:
    """The keyed-hash bin of each (trial, user) counter: m i.i.d.
    Bernoulli(p) bits, drawn whole from the counter's LANE_BINS word."""
    return rng.biased_values(cfg.seed, counters, rng.LANE_BINS, cfg.scenario.p, cfg.scenario.m)


def _draw_pick(cfg: ExperimentConfig, trials: np.ndarray, count: int) -> np.ndarray:
    """0-based index of the attacked user."""
    return (rng.uniforms(cfg.seed, trials, rng.LANE_PICK) * count).astype(np.int64)


def _collision_rows(ordered: np.ndarray) -> np.ndarray:
    """Rows of row-sorted passwords in which two users drew the same one."""
    return np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))


def _allocated_row(sc, plan, passwords, user_ix, u, online, budget) -> tuple[int, bool, int]:
    """One allocated trial from its drawn passwords, first writer wins."""
    outcome = alloc.resolve_collisions(plan.users, passwords)
    finals = [b for _, _, b in outcome.assignments]
    if online:
        target = finals[user_ix]
        hits = [pw for pw, b in outcome.planted if b.bits == target.bits]
        misses = [pw for pw, b in outcome.planted if b.bits != target.bits]
        p_hit, value = _pk_table(sc)[target.popcount], target.bits
    else:
        hits, misses = [pw for pw, _ in outcome.planted], []
        targets = [b.bits for b in finals]
        p_hit, value = _p_any(_pk_table(sc), targets), len(set(targets))
    guesses, success = _scan_outcome_sampled(u, sc.n, p_hit, hits, misses, budget)
    return guesses, success, value


def _unallocated_row(sc, passwords, raw_bins, user_ix, u, online, budget) -> tuple[int, bool, int]:
    """One unallocated trial from its drawn passwords and bins."""
    # A hash is a function: duplicate passwords share the first draw's bin.
    bin_of: dict[int, int] = {}
    bins = [bin_of.setdefault(pw, b) for pw, b in zip(passwords, raw_bins)]
    if online:
        target = bins[user_ix]
        hits = [pw for pw, b in bin_of.items() if b == target]
        misses = [pw for pw, b in bin_of.items() if b != target]
        p_hit, value = _pk_table(sc)[target.bit_count()], target
    else:
        hits, misses = list(bin_of), []
        p_hit, value = _p_any(_pk_table(sc), bins), len(set(bins))
    guesses, success = _scan_outcome_sampled(u, sc.n, p_hit, hits, misses, budget)
    return guesses, success, value


def _first_writer(pw: np.ndarray) -> np.ndarray:
    """For each (row, user), the first user of the row who drew the same
    password: a stable sort lists each run of equal passwords in user
    order, and every member of a run takes the run's head."""
    order = np.argsort(pw, axis=1, kind="stable")
    head = run_heads(np.take_along_axis(pw, order, axis=1))
    start = np.maximum.accumulate(np.where(head, np.arange(pw.shape[1]), 0), axis=1)
    writer = np.empty_like(order)
    np.put_along_axis(writer, order, np.take_along_axis(order, start, axis=1), axis=1)
    return writer


def _users_kernel(cfg: ExperimentConfig):
    """Every sampled mode.  Every user draws a password and holds a bin,
    planned or the key's value; a password two users drew keeps its first
    writer's bin.  Online the attacked user's bin is the target and the
    passwords holding it are forced hits; offline every password is a hit
    and the target set is the rows' distinct bins.  Positions are guess
    positions, so the biased mode's one planted password is its rank.

    Unallocated, offline reads every user's whole bin.  Online draws only
    the attacked password's first writer's bin whole: any other password's
    bin, independent Bernoulli(p)^m bits, equals a target of weight w with
    probability pk[w], so it holds the target when its LANE_BINS word, the
    one its bin would be drawn from, lies below threshold_for(pk[w])."""
    sc, kind = cfg.scenario, cfg.kind
    users = _user_count(cfg)
    pk = _pk_table(sc)
    if kind.allocated:
        plan_bits = _plan_bits(cfg)
        p_user = pk[np.bitwise_count(plan_bits)]
        p_all = _p_any(pk, plan_bits.tolist())
    elif not kind.offline:  # pk[0] can round to 1, past threshold_for's range
        match = np.array([rng.threshold_for(min(q, 1.0 - rng.TWO_NEG53)) for q in pk], dtype=np.uint64)

    def outcome(bins, pw, pick, ordered):
        """(bin column, p_hit, first forced hit) of rows holding these bins."""
        if kind.offline:
            ranked = np.sort(bins, axis=1)
            new = run_heads(ranked)
            terms = np.where(new, pk[np.bitwise_count(ranked)], 0.0)
            return new.sum(axis=1), np.cumsum(terms, axis=1)[:, -1], ordered[:, 0]  # sequential, as _p_any
        target = bins[np.arange(pick.size), pick]
        first = np.where(bins == target[:, None], pw, _NO_HIT).min(axis=1)
        return target, pk[np.bitwise_count(target)], first

    def run(trials: np.ndarray) -> _Block:
        pw = _draw_biased(cfg, trials)[:, None] if kind.biased else _draw_passwords(cfg, trials, users)
        pick = _draw_pick(cfg, trials, users)
        u = rng.uniforms(cfg.seed, trials, rng.LANE_GEOM)
        ordered = np.sort(pw, axis=1)
        clash = _collision_rows(ordered)
        writers = _first_writer(pw[clash]) if clash.size else None
        if kind.allocated:
            # Rows without a collision hold the plan's distinct bins.
            if kind.offline:
                value, p_hit = np.full(trials.size, users), np.full(trials.size, p_all)
                first = ordered[:, 0].copy()
            else:
                value, p_hit, first = plan_bits[pick], p_user[pick], pw[np.arange(trials.size), pick]
            if clash.size:
                parts = outcome(plan_bits[writers], pw[clash], pick[clash], ordered[clash])
                value[clash], p_hit[clash], first[clash] = parts
        elif kind.offline:
            bins = _draw_user_bins(cfg, _trial_users(trials, users))
            if clash.size:
                bins[clash] = np.take_along_axis(bins[clash], writers, axis=1)
            value, p_hit, first = outcome(bins, pw, pick, ordered)
        else:
            writer = pick.copy()
            if clash.size:
                writer[clash] = writers[np.arange(clash.size), pick[clash]]
            value = _draw_user_bins(cfg, trials * np.uint64(users) + writer.astype(np.uint64))
            weight = np.bitwise_count(value)
            p_hit, first = pk[weight], pw[np.arange(trials.size), writer]
            if users > 1:  # the writer's password is in first whatever its own word
                hit = rng.words(cfg.seed, _trial_users(trials, users), rng.LANE_BINS) < match[weight][:, None]
                if clash.size:
                    hit[clash] = np.take_along_axis(hit[clash], writers, axis=1)
                first = np.minimum(first, np.where(hit, pw, _NO_HIT).min(axis=1))
        specials = ordered[:, :1] if kind.offline else ordered
        guesses, success = _first_hits(u, p_hit, specials, first, sc.n, cfg.budget)
        arm = _arms(success, guesses - 1, first) if kind.biased else None
        return _Block(trials, guesses, success, pick + 1, value, arm)

    return run


def _draw_biased(cfg: ExperimentConfig, trials: np.ndarray) -> np.ndarray:
    """Rank of each trial's true biased password: its 0-based guess
    position in the weight-layer order the descending strategy serves,
    lightest layer first below theta = 1/2, heaviest first above it.
    The sampled engine plants the rank, the scan engine the password.

    The weight is an inverse-CDF Binomial(n, theta) draw and the rank a
    uniform position inside its layer of C(n, weight) passwords.  At
    theta = 1/2 the guess order is ascending index, and the rank, uniform
    over 2^n, is the password itself.
    """
    n, theta = cfg.scenario.n, cfg.scenario.theta
    layers = BINOMIAL[n, : n + 1].tolist()
    cdf = np.cumsum([layers[k] * theta ** k * (1.0 - theta) ** (n - k) for k in range(n + 1)])
    u = rng.uniforms(cfg.seed, trials, rng.LANE_WEIGHT)
    weight = np.minimum(np.searchsorted(cdf, u, side="right"), n)
    offset = rng.integers_below(cfg.seed, trials, rng.LANE_RANK, np.array(layers, dtype=np.uint64)[weight])
    return weight_layer_starts(n, theta > 0.5)[weight] + offset


# ---------------------------------------------------------------------------
# scan-engine kernel
# ---------------------------------------------------------------------------


def _strategy(cfg: ExperimentConfig) -> attack.GuessStrategy:
    """The mode's guess order, in both engines and the trial log."""
    return attack.descending_probability(cfg.scenario.theta) if cfg.kind.biased else attack.ascending()


def _scan_kernel(cfg: ExperimentConfig):
    """Literal scans of a block of trials, hashed in lockstep.

    Each trial draws the sampled engine's passwords, attacked user and
    biased password, and a key of its own; every trial scans the mode's
    guess order, so one attack.keyed_scan serves the block.  A row's target
    is its attacked bin online, and its users' final bins offline.  Planted
    passwords are the rows' special positions, decided by their planted
    bin alone.  The true biased password is the one planted user's, and
    the race is the password arm's when it is the first hit.
    """
    sc, kind = cfg.scenario, cfg.kind
    users = _user_count(cfg)
    if kind.allocated:
        plan_bits = _plan_bits(cfg)
    strat = _strategy(cfg)

    def run(trials: np.ndarray) -> _Block:
        keys = rng.words(cfg.seed, trials, rng.LANE_KEY)
        rows = np.arange(trials.size)
        specials = None
        if kind.biased:  # the true password, unranked from its guess position
            rank = _draw_biased(cfg, trials)
            pw = rank if sc.theta == 0.5 else weight_layer_order(sc.n, sc.theta > 0.5, rank)
            pw = pw.astype(np.uint64)[:, None]
        else:
            pw = _draw_passwords(cfg, trials, users)
        pick = _draw_pick(cfg, trials, users)
        if kind.allocated:
            writer = _first_writer(pw)
            finals = plan_bits[writer]
            target = finals[rows, pick]
            at, col = np.nonzero(writer == np.arange(users))  # the planted passwords
            # Every planted bin is some user's final bin: offline, a hit.
            specials = (pw[at, col].astype(np.uint64), at, kind.offline | (finals[at, col] == target[at]))
        elif kind.offline:
            finals = rng.biased_bits(keys[:, None], sc.p, sc.m, pw).astype(np.int64)
        else:  # online reads the attacked password's bin alone
            target = rng.biased_bits(keys, sc.p, sc.m, pw[rows, pick]).astype(np.int64)
        targets = finals if kind.offline else target
        guesses, first = attack.keyed_scan(strat, sc.n, cfg.budget, keys, sc.p, sc.m, targets, specials)
        bins = run_heads(np.sort(finals, axis=1)).sum(axis=1) if kind.offline else target
        success = guesses > 0
        arm = _arms(success, first, pw[:, 0]) if kind.biased else None
        return _Block(trials, guesses, success, pick + 1, bins, arm)

    return run


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

_LOG_HEADER = "trial_seed,user,bin,strategy,guesses,success,arm\n"


#: Every arm a trial-log line can name.
_ARMS = ("", attack.ARM_HASH, attack.ARM_PASSWORD)


def _labels(values: np.ndarray, fmt) -> list[str]:
    """fmt(v) for every value, each distinct value formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(list(map(fmt, distinct.tolist())), dtype=object)[inverse].tolist()


def _log_text(cfg: ExperimentConfig, block: _Block) -> str:
    """The block's trial-log CSV lines, in trial order.

    Every column but the seed takes few distinct values in a block, so
    each distinct piece is formatted once, separators included, and the
    lines are joined in one pass.
    """
    strategy = _strategy(cfg).kind
    bin_fmt = "any-of-{}" if cfg.kind.offline else f"{{:0{cfg.scenario.m}b}}"
    arm = 0 if block.arm is None else sum((block.arm == a) * k for k, a in enumerate(_ARMS))
    tails = np.array([f",{ok},{a}\n" for a in _ARMS for ok in (0, 1)], dtype=object)
    columns = (
        map(str, rng.derive_seeds(cfg.seed, block.trials).tolist()),
        _labels(block.user, ",{},".format),
        _labels(block.bins, (bin_fmt + f",{strategy},").format),
        _labels(block.guesses, str),
        tails[2 * arm + block.success].tolist(),
    )
    return "".join(map("".join, zip(*columns)))


def _run_range(
    cfg: ExperimentConfig, start: int, stop: int, log: bool = False
) -> tuple[GuessAccumulator, str]:
    """Trials [start, stop) in blocks of at most BLOCK_ELEMENTS trial-users.

    Returns the accumulated guesses and, when log is set, the range's
    trial-log lines in trial order.
    """
    run = (_users_kernel if cfg.engine == "sampled" else _scan_kernel)(cfg)
    step = max(1, BLOCK_ELEMENTS // _user_count(cfg))
    acc = GuessAccumulator()
    texts: list[str] = []
    for first in range(start, stop, step):
        block = run(np.arange(first, min(first + step, stop), dtype=np.uint64))
        acc.add_array(block.guesses)  # 0 marks a failed trial
        if log:
            texts.append(_log_text(cfg, block))
    return acc, "".join(texts)


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    trial_log=None,
) -> EstimateWithCI:
    """Run all trials of a config and return the mean guess estimate.

    The result is a pure function of cfg; workers only change wall time.
    When trial_log is given (a writable text stream), one CSV line per
    trial is emitted, in trial order for any worker count:
    trial_seed,user,bin,strategy,guesses,success,arm.
    """
    if cfg.kind.exact:  # the exact moment, no sampling
        dist = exact_bernoulli_distribution(cfg.scenario.m, cfg.scenario.p)
        moment = attack.broken_hash_moment(dist, cfg.rho)
        return EstimateWithCI(mean=moment, half_width_95=0.0, trials=cfg.trials, failures=0)
    log = trial_log is not None
    if workers <= 1:
        parts = [_run_range(cfg, 0, cfg.trials, log)]
    else:
        # Imported here: the process-pool machinery is a tenth of the
        # package's import time and only multi-worker runs need it.
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, cfg.trials, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_range, cfg, int(a), int(b), log)
                for a, b in zip(bounds[:-1], bounds[1:])
                if a < b
            ]
            parts = [fut.result() for fut in futures]
    acc = GuessAccumulator()
    for part, _ in parts:
        acc = acc.merge(part)
    if log:
        trial_log.write(_LOG_HEADER)
        for _, lines in parts:
            trial_log.write(lines)
    return acc.estimate()


def sweep_rate(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Ordinary least squares of log2(mean guesswork) against m.

    The slope estimates the growth rate; the intercept absorbs
    sub-exponential factors.  Each point rescales n to keep n/m headroom.
    """
    if cfg.m_sweep is None:
        raise ValueError("sweep_rate requires m_sweep")
    sc = cfg.scenario
    points: list[tuple[int, float]] = []
    cis: list[float] = []
    for m in cfg.m_sweep:
        scenario = replace(sc, m=m, n=default_input_width(m, sc.p, sc.s))
        est = run_experiment(replace(cfg, scenario=scenario, m_sweep=None), workers=workers)
        if est.mean <= 0:
            raise ValueError(f"mean guesswork at m={m} is zero; cannot take log2")
        points.append((m, math.log2(est.mean)))
        cis.append(est.half_width_95 / (est.mean * math.log(2.0)))
    slope, intercept, r2 = fit_line(points)
    return SweepResult(
        points=tuple(points),
        cis=tuple(cis),
        fitted_rate=slope,
        intercept=intercept,
        r_squared=r2,
    )


def fit_line(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) of an ordinary least-squares line."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit a line")
    xs = np.array([x for x, _ in points], dtype=np.float64)
    ys = np.array([y for _, y in points], dtype=np.float64)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# concentration report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    l: float
    empirical: float
    ci: float
    bound: float


def concentration_report(
    cfg: ExperimentConfig, l_values: Sequence[float]
) -> list[ConcentrationRow]:
    """Empirical P(G(b) <= 2^{m l}) against the closed-form bound.

    The target is the least likely allocated bin (all ones for p < 1/2)
    attacked through its natural preimages, so the guess count is the
    plain truncated geometric and the p = 1/2 case can be checked against
    the exact geometric CDF.  The trials are drawn in blocks of
    BLOCK_ELEMENTS, like every sampled draw, and each threshold's hits are
    counted exactly, so the block size changes no value.
    """
    sc = cfg.scenario
    if not all(l < sc.n / sc.m + 1e-12 for l in l_values):  # NaN too
        raise ValueError("l values must stay below n/m")
    p_hit = _pk_table(sc)[sc.m]  # all-ones bin
    # A hit succeeds within the horizon 2^n and by 2^{m l} guesses.
    limits = [min(2.0 ** (sc.m * l), float(1 << sc.n)) for l in l_values]
    hits = [0] * len(limits)
    for start in range(0, cfg.trials, BLOCK_ELEMENTS):
        trials = np.arange(start, min(start + BLOCK_ELEMENTS, cfg.trials), dtype=np.uint64)
        g = rng.geometric_from_uniform(rng.uniforms(cfg.seed, trials, rng.LANE_GEOM), p_hit)
        hits = [count + np.count_nonzero(g <= limit) for count, limit in zip(hits, limits)]
    rows = []
    for l, count in zip(l_values, hits):
        emp = count / cfg.trials
        ci = 1.96 * math.sqrt(max(emp * (1.0 - emp), 1e-12) / cfg.trials)
        rows.append(
            ConcentrationRow(
                l=l,
                empirical=emp,
                ci=ci,
                bound=concentration_bound(sc.m, 1.0, sc.p, l),
            )
        )
    return rows


def exact_geometric_cdf(m: int, l: float, p_hit: float) -> float:
    """P(Geom(p_hit) <= 2^{m l}) = 1 - (1 - p_hit)^{2^{m l}}."""
    count = 2.0 ** (m * l)
    return -math.expm1(count * math.log1p(-p_hit))


# ---------------------------------------------------------------------------
# most-likely panel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MostLikelyPanel:
    """Desk-scale check of the most-probable guesswork behavior.

    The online side is the no-allocation-keyed attack on the trials whose
    attacked bin lands in the modal type shell; the offline side forces the all-users-on-modal-type
    profile (the conditional law of the characterized event) and attacks
    the whole set.
    """

    m: int
    modal_weight: int
    nearest_weight: int
    modal_frequency: float
    online_conditional: EstimateWithCI
    offline_forced: EstimateWithCI
    online_theory_log2: float
    offline_theory_log2: float


def most_likely_panel(cfg: ExperimentConfig) -> MostLikelyPanel:
    sc = cfg.scenario
    user_exponent = binary_entropy(1.0 - sc.s)  # == H(s); u = 1-s bookkeeping
    users = max(1, int(math.floor(2.0 ** (user_exponent * sc.m))))
    nearest = round(sc.p * sc.m)

    # online: the attacked user's bin and scan are no-allocation-keyed's
    trials = np.arange(cfg.trials, dtype=np.uint64)
    block = _users_kernel(replace(cfg, mode="no-allocation-keyed"))(trials)
    weights = np.bitwise_count(block.bins)
    counts = np.bincount(weights, minlength=sc.m + 1)
    modal_weight = int(counts.argmax())
    modal_freq = float(counts[modal_weight]) / cfg.trials
    acc = GuessAccumulator()
    acc.add_array(block.guesses[weights == modal_weight])

    # offline: forced modal-type profile, users distinct bins in the shell.
    # Every password is a hit, so only the smallest of the forced_users
    # uniform passwords matters: drawn directly by inverting
    # P(min >= x) = (1 - x/2^n)^forced_users.
    shell = int(BINOMIAL[sc.m, nearest])
    forced_users = min(users, shell)
    p_any = forced_users * _pk_table(sc)[nearest]
    v = rng.uniforms(cfg.seed, trials, rng.LANE_FORCED_FIRST)
    first = np.floor(float(1 << sc.n) * -np.expm1(np.log1p(-v) / forced_users)).astype(np.int64)
    u_off = rng.uniforms(cfg.seed, trials, rng.LANE_FORCED_GEOM)
    g_offline, _ = _first_hits(
        u_off, np.full(cfg.trials, p_any), first[:, None], first, sc.n, cfg.budget
    )
    acc_off = GuessAccumulator()
    acc_off.add_array(g_offline)

    online_theory = sc.m * cross_entropy_identity(nearest / sc.m, sc.p)
    offline_theory = online_theory - math.log2(forced_users)
    return MostLikelyPanel(
        m=sc.m,
        modal_weight=modal_weight,
        nearest_weight=nearest,
        modal_frequency=modal_freq,
        online_conditional=acc.estimate(),
        offline_forced=acc_off.estimate(),
        online_theory_log2=online_theory,
        offline_theory_log2=offline_theory,
    )


# ---------------------------------------------------------------------------
# strategy-averaged fixed-table attacks
# ---------------------------------------------------------------------------


#: Samples whose guess counts the oracle finds together, and the draws
#: every sample starts with.
_ORACLE_PIECE, _ORACLE_PREFIX = 2048, 16

#: Most (row, draw) pairs of one oracle step, unless one row is wider.
_ORACLE_STEP = 1 << 14


def permutation_mean_guesswork(
    h, target_bits: int, samples: int, seed: int
) -> EstimateWithCI:
    """Mean guess count of online attacks on a fixed table over uniformly
    random guessing orders.

    Samples each order's first-success index exactly: sample s draws
    candidates from its own stream, rng.key_draws with the key
    rng.words(seed, s, LANE_ORACLE), and the first occurrences of those
    i.i.d. uniform draws are a uniform permutation, so a sample's guess
    count is the number of distinct draws up to its first hit
    (_oracle_guesses).  Samples go in pieces of _ORACLE_PIECE, each
    finished before the next is drawn.  Every draw is a pure function of
    its sample and counter, so the sizes of pieces and steps never change
    an estimate.  Cross-checked against the (N+1)/(L+1) closed form and
    the literal scanning attack in the test suite.
    """
    table = np.asarray(h.table)
    hitmask = np.zeros(1 << h.m, dtype=bool)
    hitmask[target_bits] = True
    hit = hitmask[table]  # does each candidate hit?
    acc = GuessAccumulator()
    if not hit.any():
        acc.add_array(np.zeros(samples))
        return acc.estimate()
    for lo in range(0, samples, _ORACLE_PIECE):
        keys = rng.words(seed, np.arange(lo, min(lo + _ORACLE_PIECE, samples)), rng.LANE_ORACLE)
        acc.add_array(_oracle_guesses(keys, hit))
    return acc.estimate()


def _oracle_guesses(keys: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """The guess count of the oracle sample with each key, for a table
    with at least one hit.

    Each row's first w draws are drawn again from counter 0, w starting
    at _ORACLE_PREFIX and growing 4x for the rows with no hit among them,
    in steps of at most _ORACLE_STEP draws, or one row once w is wider.
    So time and memory grow with the draws up to a sample's first hit,
    about (N/L) ln(samples) for the slowest of many samples on N
    candidates with L hits, where a seen buffer would bound memory by N.
    """
    n = hit.size.bit_length() - 1
    guesses = np.zeros(keys.size, dtype=np.int64)
    rows, width = np.arange(keys.size), _ORACLE_PREFIX
    while rows.size:
        step = max(1, _ORACLE_STEP // width)
        for lo in range(0, rows.size, step):
            part = rows[lo : lo + step]
            draws = rng.key_draws(keys[part], 0, width, n)
            guesses[part] = attack.first_hit_guesses(draws, hit[draws])
        rows, width = rows[guesses[rows] == 0], width * 4
    return guesses


# ---------------------------------------------------------------------------
# theory helpers used by acceptance checks
# ---------------------------------------------------------------------------


def realized_min_type(m: int, p: float, user_count: int) -> float:
    """Type of the most likely allocated bin (the realized s)."""
    return alloc.allocate_bins(m, p, user_count).min_type
