"""Deterministic seed derivation and counter-keyed bit generation.

Every source of randomness in this package is derived from a 64-bit root
seed through a fixed mixing chain, so any trial, key segment, or password
draw is replayable in isolation and results are independent of worker
count or evaluation order.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants; the increment is the 64-bit golden ratio.
GOLDEN = 0x9E3779B97F4A7C15
GOLDEN2 = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)
_U_GOLDEN2 = np.uint64(GOLDEN2)
_UM1 = np.uint64(_M1)
_UM2 = np.uint64(_M2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)

TWO_NEG53 = 2.0 ** -53
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

#: Lane of every password stream: the scan engine's per-trial password
#: generators, the backdoor installer's draws and the sampled engine's
#: counter-keyed passwords.
LANE_PASSWORDS = 0x9A55


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wraps mod 2^64)."""
    z = z ^ (z >> _S30)
    z *= _UM1
    z ^= z >> _S27
    z *= _UM2
    z ^= z >> _S31
    return z


def _mix64_int(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, *path: int) -> int:
    """Fold a path of integers into a new 64-bit seed.

    derive_seed(root, a, b) != derive_seed(root, a', b') whenever the paths
    differ, for all practical purposes; used to split key, password, and
    per-trial streams from one experiment seed.
    """
    state = _mix64_int(root)
    for part in path:
        state = _mix64_int(state ^ ((part + 1) * GOLDEN & MASK64))
    return state


def derive_seeds(root: int, parts: np.ndarray) -> np.ndarray:
    """derive_seed(root, t) for every t of a uint64 array."""
    t = np.asarray(parts, dtype=np.uint64)
    return mix64(np.uint64(_mix64_int(root)) ^ ((t + _ONE) * _U_GOLDEN))


def generator(root: int, *path: int) -> np.random.Generator:
    """A numpy Generator seeded from the derived path seed."""
    return np.random.default_rng(derive_seed(root, *path))


def threshold_for(p: float) -> np.uint64:
    """Integer threshold T with h < T  iff  (h >> 11) * 2^-53 < p.

    p * 2^53 is exact in floats (power-of-two scaling), so the per-bit
    acceptance probability equals p to within 2^-53.  p = 1 would need
    T = 2^64, which no uint64 holds, so the range is [0, 1).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p}")
    return np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def words(seed: int, idx: np.ndarray, lane: int = 0) -> np.ndarray:
    """Uniform 64-bit words, one per index, replayable per index."""
    return mix64(idx.astype(np.uint64) * _U_GOLDEN + np.uint64(derive_seed(seed, lane)))


def uniforms(seed: int, idx: np.ndarray, lane: int = 0) -> np.ndarray:
    """53-bit uniforms in [0, 1), one per index, replayable per index."""
    return (words(seed, idx, lane) >> _S11).astype(np.float64) * TWO_NEG53


def integers_below(seed: int, idx: np.ndarray, lane: int, bound: np.ndarray) -> np.ndarray:
    """Integers in [0, bound) per index: the high word of word * bound.

    Multiply-shift (Lemire) without rejection: P(value <= x) is off by at
    most 2^-64 from the uniform CDF.  The 128-bit product is assembled
    from 32-bit limbs, each partial sum fitting in 64 bits.
    """
    a = words(seed, idx, lane)
    b = np.asarray(bound, dtype=np.uint64)
    a0, a1 = a & _LOW32, a >> _S32
    b0, b1 = b & _LOW32, b >> _S32
    mid = a1 * b0 + ((a0 * b0) >> _S32)
    mid2 = a0 * b1 + (mid & _LOW32)
    return (a1 * b1 + (mid >> _S32) + (mid2 >> _S32)).astype(np.int64)


def biased_bits(
    seed,
    p: float,
    m: int,
    idx: np.ndarray,
    live: Optional[Sequence[np.ndarray]] = None,
    table=None,
    target=None,
) -> np.ndarray:
    """m-bit values for each index, bits i.i.d. Bernoulli(p) under the seed.

    Bit j of index i comes from one 53-bit uniform draw compared against p;
    draws for distinct (i, j) use distinct mixed states.  Output is uint64
    with bit 0 holding the last (least significant) position.  seed is one
    seed, or a uint64 array broadcast against idx (an (R, 1) column of
    seeds over a (W,) window gives R keys' values there): every (seed,
    index) pair draws from mix64(index * GOLDEN + seed).

    live, when given, holds m boolean tables; live[j] is indexed by the
    first j + 1 bits of a value (its top bits) and must be False wherever
    live[j - 1] is False for the shorter prefix.  Bits are then drawn
    only while an index's prefix is live (dead indices leave in batches,
    so some draw a few bits more): each value is either the true one or
    a dead prefix of it followed by 0 bits.  With live[m - 1] the target
    mask, mask[value] equals mask[true value].  Stacked tables, live[j]
    of shape (K, 2^(j+1)), serve several target sets at once: table
    (broadcast like seed) names each value's row k.  target, instead of
    live, keeps a value live while its prefix is one of its own target's
    (an int, or an array broadcast like seed), so the value equals the
    target exactly when the true one does.
    """
    idx64 = idx.astype(np.uint64, copy=False)
    thr = threshold_for(p)
    if isinstance(seed, np.ndarray):
        seed = seed.astype(np.uint64, copy=False)
    else:
        seed = np.uint64(int(seed) & MASK64)
    base = mix64(idx64 * _U_GOLDEN + seed)
    if live is None and target is None:
        vals = np.zeros(base.shape, dtype=np.uint64)
        for j in range(m):
            h = mix64(base ^ _BIT_LANES[j])
            vals = (vals << _ONE) | (h < thr).astype(np.uint64)
        return vals
    if table is not None:
        # Row k's prefixes follow k in the index of its flattened tables.
        live = [t.reshape(-1) for t in live]
    vals = _pruned_bits(base, thr, m, live, table, target)
    if table is not None:
        vals &= np.uint64((1 << m) - 1)
    return vals.reshape(base.shape)


#: Lane of output bit j: (j + 1) * GOLDEN2 mod 2^64, for every j < 64.
_BIT_LANES = tuple(np.uint64(((j + 1) * GOLDEN2) & MASK64) for j in range(64))


def _pruned_bits(base, thr, m, live, table, target) -> np.ndarray:
    """biased_bits' pruned draw over mixed bases; returns a flat array.

    A dead prefix stays dead when extended, so rows need not leave the
    moment they die.  rows holds the positions still drawing (None while
    all are) and prefix their bits so far as table indices, after the
    table row k when one is given.  Once at least half of them are dead,
    every row stores its value so far and the live ones are compacted with
    nonzero and take, severalfold cheaper than boolean-mask indexing.
    An array of targets broadcasts over base's shape until the first
    compaction and is gathered per position from then on.
    """
    shape = base.shape
    base = base.reshape(-1)
    per_row = isinstance(target, np.ndarray)
    if per_row:
        target = target.astype(np.intp, copy=False)
    vals = None
    rows = None
    prefix = None
    for j in range(m):
        bits = mix64(base ^ _BIT_LANES[j]) < thr
        if prefix is None:
            if table is None:
                prefix = bits.astype(np.intp)
            else:
                prefix = ((np.asarray(table, dtype=np.intp) << 1) | bits.reshape(shape)).reshape(-1)
        else:
            prefix <<= 1
            prefix |= bits
        shift = m - 1 - j
        if target is None:
            alive = live[j][prefix]
        elif per_row and rows is None:
            alive = (prefix.reshape(shape) == target >> shift).reshape(-1)
        else:
            alive = prefix == target >> shift
        if 2 * np.count_nonzero(alive) > prefix.size:
            continue
        keep = alive.nonzero()[0]
        so_far = prefix.view(np.uint64) << np.uint64(shift)
        if rows is None:
            vals = so_far
            if per_row:
                target = np.broadcast_to(target, shape)[np.unravel_index(keep, shape)]
        else:
            vals[rows] = so_far
            if per_row:
                target = target.take(keep)
        if not keep.size:
            return vals
        rows = keep if rows is None else rows.take(keep)
        prefix, base = prefix.take(keep), base.take(keep)
    if rows is None:
        return prefix.view(np.uint64)
    vals[rows] = prefix
    return vals


def geometric_from_uniform(u: np.ndarray, p) -> np.ndarray:
    """Inverse-CDF geometric sample (support 1, 2, ...) as float64.

    p is one success probability or one per entry of u.  Kept in floats
    because the result can exceed int64 range for tiny p; callers compare
    against their truncation horizon before casting.  numpy's log1p gives
    the same value for a scalar and for an array entry, so per-trial and
    batched callers draw identical samples.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0.0) | (p > 1.0)):
        raise ValueError(f"success probability out of range: {p}")
    with np.errstate(divide="ignore"):  # p == 1: log1p(-1) = -inf gives 1
        return np.floor(np.log1p(-u) / np.log1p(-p)) + 1.0
