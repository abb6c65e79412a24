"""Deterministic seed derivation and counter-keyed bit generation.

Every source of randomness in this package is derived from a 64-bit root
seed through a fixed mixing chain, so any trial, key segment, or password
draw is replayable in isolation and results are independent of worker
count or evaluation order.
"""
from __future__ import annotations

import functools
import itertools
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

# Lanes: a draw is a pure function of (seed, counter, lane), so the lane
# names the stream.  Every stream of the package is listed here, once.
LANE_KEY = 0x4E1  # each scan-engine trial's hash key
LANE_GEOM = 0x6E0  # uniform behind a trial's first natural hit
LANE_PICK = 0x05E7  # the attacked user
LANE_BINS = 0xB175  # a sampled user's bin word: its bin, drawn whole, or online its match with the target
LANE_WEIGHT = 0x3E16  # the biased password's weight
LANE_RANK = 0x3A4C  # its position inside its weight layer
LANE_PASSWORDS = 0x9A55  # users' uniform passwords: trials and the backdoor alike
LANE_FORCED_FIRST = 0x0FF1  # most-likely panel: smallest forced password
LANE_FORCED_GEOM = 0x0FF2  # most-likely panel: the forced profile's natural hit
LANE_ORACLE = 0x9E34  # the key of each fixed-table permutation oracle sample
LANE_PERMUTATION = 0x9E12  # a seeded-permutation guess order's draws and tail
LANE_TABLE = 0xAB1E  # the key of a sampled explicit table


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wraps mod 2^64): a copy of
    z mixed by _mix_into."""
    z = np.array(z, dtype=np.uint64)
    _mix_into(z, np.empty_like(z))
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


def generator(root: int, *path: int):
    """Retired: no stream of the package draws from a numpy Generator, so
    numpy.random is never loaded.  The name stays bound because the
    benchmark's span tracer (perfbench/spans.py) wraps it by name; a call
    raises."""
    raise NotImplementedError("rng.generator is retired: draw with rng.words or rng.key_draws")


def threshold_for(p: float) -> np.uint64:
    """Integer threshold T with h < T  iff  (h >> 11) * 2^-53 < p.

    p * 2^53 is exact in floats (power-of-two scaling), so the per-bit
    acceptance probability equals p to within 2^-53.  p = 1 would need
    T = 2^64, which no uint64 holds, so the range is [0, 1).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p}")
    return np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def words(seed: int, idx: np.ndarray, lane: int) -> np.ndarray:
    """Uniform 64-bit words, one per index, replayable per index, mixed
    in place in the result and one scratch array."""
    z = idx.astype(np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(derive_seed(seed, lane))
    _mix_into(z, np.empty_like(z))
    return z


def key_draws(key, start: int, count: int, n: int) -> np.ndarray:
    """Draws start, ..., start + count - 1 of a counter-keyed stream, each
    uniform on [0, 2^n) for 0 <= n <= 63: the top n bits of
    mix64(k * GOLDEN + key) at counter k, as int64.

    key is one uint64 key, giving shape (count,), or an array of R keys,
    giving (R, count) with row r from key r.  A draw is a pure function
    of (key, k), so a stream read in pieces of any size is the same
    stream.  words(seed, k, lane) is counter k of key
    derive_seed(seed, lane).  The words are mixed in place in hit-test
    scratch; only the result is allocated.
    """
    keys = np.asarray(key, dtype=np.uint64)
    shape = keys.shape + (count,)
    size = math.prod(shape)
    out = np.empty(shape, dtype=np.int64)
    s = take_scratch(size)
    try:
        base, tmp = s[0, :size].reshape(shape), s[1, :size].reshape(shape)
        _hash_words(np.arange(start, start + count, dtype=np.uint64), keys[..., None], base, tmp)
        np.right_shift(base, np.uint64(64 - n), out=out.view(np.uint64))
    finally:
        give_back(s)
    return out


def uniforms(seed: int, idx: np.ndarray, lane: int) -> np.ndarray:
    """53-bit uniforms in [0, 1), one per index, replayable per index."""
    return (words(seed, idx, lane) >> _S11).astype(np.float64) * TWO_NEG53


def passwords(seed: int, counters: np.ndarray, n: int) -> np.ndarray:
    """Uniform n-bit passwords, one per counter: the top n bits of a word."""
    return (words(seed, counters, LANE_PASSWORDS) >> np.uint64(64 - n)).astype(np.int64)


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


def _widths(m: int) -> list[int]:
    """The chunk widths of an m-bit value, first (highest) chunk first:
    14 bits each, and the last the m % 14 left over."""
    return [14] * (m // 14) + [m % 14] * (m % 14 > 0)


def _chunk_words(word: np.ndarray, widths: list[int], tmp: np.ndarray):
    """(k, word) of each chunk: chunk 0's word as given, then chunk j's,
    mix64(chunk 0's word ^ _LANES[j]), written over it.  tmp is scratch of
    word's shape; a caller may overwrite word before taking the next chunk."""
    first = word.copy() if len(widths) > 1 else None
    for j, k in enumerate(widths):
        if j:
            np.bitwise_xor(first, _LANES[j], out=word)
            _mix_into(word, tmp)
        yield k, word


def biased_values(seed: int, idx: np.ndarray, lane: int, p: float, m: int) -> np.ndarray:
    """m-bit values, bits i.i.d. Bernoulli(p), one per index, as int64: chunks
    of at most 14 bits, the first highest, each drawn whole by its _alias_table
    from words(seed, idx, lane) (chunk 0) or that word mixed with lane j."""
    word, out = words(seed, idx, lane), 0
    for k, word in _chunk_words(word, _widths(m), np.empty_like(word)):
        threshold, alias = _alias_table(float(p), k)
        col = (word >> np.uint64(64 - k)).view(np.int64)
        word &= np.uint64((1 << (64 - k)) - 1)
        out = out << k | np.where(word < threshold.take(col), col, alias.take(col))
    return out


def _layer_masses(p: float, k: int) -> list[int]:
    """The words of the 2^64 that each value of k Bernoulli(p) bits owns, by
    its weight w, in exact integers: floor(p^w (1-p)^(k-w) 2^64) for w >= 1,
    and value 0 the rest, so that all 2^k values own 2^64 words."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p}")
    a, b = p.as_integer_ratio()
    layer = [(a**w * (b - a) ** (k - w) << 64) // b**k for w in range(k + 1)]
    layer[0] = (1 << 64) - sum(math.comb(k, w) * layer[w] for w in range(1, k + 1))
    return layer


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for t in tables:
        t.flags.writeable = False  # the cache hands them to every caller
    return tables


@functools.lru_cache(maxsize=32)
def _alias_table(p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of k Bernoulli(p) bits in exact integers, paired
    as Vose does: column c holds 2^(64-k) units, value c's below threshold[c]
    and alias[c]'s above.  Value v has _layer_masses' units of its weight,
    so a chunk is within 2^(k-64) of its law."""
    layer = _layer_masses(p, k)
    mass, cap = [layer[v.bit_count()] for v in range(1 << k)], 1 << (64 - k)
    threshold, alias = [cap] * (1 << k), list(range(1 << k))
    small, large = [v for v, u in enumerate(mass) if u < cap], [v for v, u in enumerate(mass) if u >= cap]
    while small:  # exact integers: the last large columns hold cap each
        s, g = small.pop(), large[-1]
        threshold[s], alias[s] = mass[s], g
        mass[g] -= cap - mass[s]
        if mass[g] < cap:
            small.append(large.pop())
    return _read_only(np.array(threshold, dtype=np.uint64), np.array(alias, dtype=np.int64))


@functools.lru_cache(maxsize=32)
def _intervals(p: float, k: int) -> tuple[np.ndarray, ...]:
    """The keyed hash's chunk of k bits as intervals of the 2^64 words: the
    values in order, lightest layer first and ascending inside one, own
    their _layer_masses words in turn from word 0.  Read-only, it returns
    lo, each value's first word; by weight, size (a value's words), start
    (the layer's first word) and first (its first position in order); the
    bounds, the layers' ends below 2^64; and order.  Sizes and starts are
    mod 2^64: value 0 owning every word has size 0, and a value past the
    last word lo 0, which a hit test never reaches as its size is 0."""
    masses = _layer_masses(p, k)
    counts = [math.comb(k, w) for w in range(k + 1)]
    ends = list(itertools.accumulate(c * u for c, u in zip(counts, masses)))
    size = np.array([u & MASK64 for u in masses], dtype=np.uint64)
    start = np.array([0] + [e & MASK64 for e in ends[:-1]], dtype=np.uint64)
    first = np.array(list(itertools.accumulate(counts[:-1], initial=0)), dtype=np.uint64)
    bounds = np.array([e for e in ends[:-1] if e >> 64 == 0], dtype=np.uint64)
    order = np.argsort(np.bitwise_count(np.arange(1 << k)), kind="stable").astype(np.uint64)
    weight = np.bitwise_count(order)
    lo = np.empty(1 << k, dtype=np.uint64)
    lo[order] = start[weight] + (np.arange(1 << k, dtype=np.uint64) - first[weight]) * size[weight]
    return _read_only(lo, size, start, first, bounds, order)


def _chunk_values(word: np.ndarray, tmp: np.ndarray, p: float, k: int) -> np.ndarray:
    """The k-bit values of chunk words, as uint64, by inverse transform over
    _intervals; word is overwritten and tmp is scratch of its shape.  A
    word's layer is the count of bounds at or below it, its position in
    order the layer's first plus (word - start) // size."""
    _, size, start, first, bounds, order = _intervals(p, k)
    if not bounds.size:  # value 0 owns all 2^64 words
        return np.zeros_like(word)
    # k compares summed in uint8 take a third of np.searchsorted's time
    layer, ok = np.zeros(word.shape, dtype=np.uint8), np.empty(word.shape, dtype=bool)
    for b in bounds:
        layer += np.greater_equal(word, b, out=ok).view(np.uint8)
    layer = layer.astype(np.intp)
    # mode="clip": take buffers its out under the default mode="raise"
    word -= start.take(layer, out=tmp, mode="clip")
    word //= size.take(layer, out=tmp, mode="clip")
    word += first.take(layer, out=tmp, mode="clip")
    return order.take(word.view(np.int64))


def _values(word: np.ndarray, tmp: np.ndarray, p: float, m: int) -> np.ndarray:
    """The keyed hash's m-bit values, as uint64, from the words of chunk 0
    (overwritten); tmp is scratch of word's shape."""
    out = None
    for k, word in _chunk_words(word, _widths(m), tmp):
        value = _chunk_values(word, tmp, p, k)
        out = value if out is None else out << np.uint64(k) | value
    return out


def biased_bits(
    seed,
    p: float,
    m: int,
    idx: np.ndarray,
    masks: Optional[np.ndarray] = None,
    table=None,
    target=None,
) -> np.ndarray:
    """The keyed hash: an m-bit value for each index, bits i.i.d. Bernoulli(p)
    to within 2^(14-64) per chunk, as uint64.

    seed is one key, or a uint64 array broadcast against idx (an (R, 1)
    column of keys over a (W,) window gives R keys' values there).  Index
    i under key s takes chunks of at most 14 bits, the first highest, each
    from one word: chunk 0 from mix64(i * GOLDEN + s), chunk j from that
    word mixed with lane j.  A chunk's value is the one whose _intervals
    hold its word; a value of weight w owns floor(p^w (1-p)^(k-w) 2^64)
    of the 2^64 words, exactly its units in _alias_table.

    Given target or masks, the result is instead a boolean array of the
    same shape: is each value a hit?  target is an int in [0, 2^m), or an
    array broadcast against the shape's leading axes and 1 (an (R, 1)
    column over R rows gives one per row), and a hit is a value equal to
    its target: chunk 0's word w hits when (w - lo) mod 2^64 < size, one
    subtraction and one compare (interval_hits), and later chunks are
    drawn for the survivors alone.  masks is a (K, 2^m) stack of boolean
    masks and table (broadcast like seed) names each value's mask: a hit
    is a value in it.
    """
    idx64 = idx.astype(np.uint64, copy=False)
    if isinstance(seed, np.ndarray):
        seed = seed.astype(np.uint64, copy=False)
    else:
        seed = np.uint64(int(seed) & MASK64)
    shape = np.broadcast(idx64, seed).shape
    if target is not None:
        lo, size = target_interval(p, m, target)
        target = np.asarray(target, dtype=np.uint64)
    pairs = math.prod(shape)
    s = take_scratch(pairs)
    try:
        word, tmp = s[0, :pairs].reshape(shape), s[1, :pairs].reshape(shape)
        if target is not None and interval_decides(p, min(m, 14)):
            hits = interval_hits(idx64, seed, lo, size, word, tmp)
            if m > 14:  # the survivors' whole values decide
                flat = hits.reshape(-1)
                (pos,) = flat.nonzero()
                w = word.reshape(-1).take(pos)
                rows = np.broadcast_to(target, shape[:-1] + (1,)).reshape(-1)
                flat[pos] = _values(w, np.empty_like(w), p, m) == rows.take(pos // shape[-1])
            return hits
        _hash_words(idx64, seed, word, tmp)
        values = _values(word, tmp, p, m)
        if masks is not None:  # row k's mask follows k in the flattened stack
            return masks.reshape(-1).take((np.asarray(table, dtype=np.intp) << m) + values.view(np.int64))
        return values if target is None else values == target
    finally:
        give_back(s)


def interval_decides(p: float, m: int) -> bool:
    """Does interval_hits alone decide whether an m-bit value is a target?
    Past 14 bits later chunks decide too, and below p = 2^-63 value 0 can
    own all 2^64 words of a chunk, a size no uint64 holds."""
    return m <= 14 and p >= 2.0**-63


def target_interval(p: float, m: int, target) -> tuple:
    """(lo, size): the words of chunk 0 that hit target, an int in [0, 2^m)
    or an array of them, are those with (word - lo) mod 2^64 < size, lo
    and size uint64 and shaped like target.  Exact for p >= 2^-63; past 14
    bits they hold chunk 0's value alone, and later chunks decide."""
    t = np.asarray(target)
    if (t >> m).any():  # negative ones too
        raise ValueError(f"target out of range for m={m}")
    lo, size = _intervals(p, min(m, 14))[:2]
    t = t.astype(np.uint64) >> np.uint64(max(m - 14, 0))
    return lo[t], size[np.bitwise_count(t)]


def interval_hits(idx: np.ndarray, key, lo, size, word: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The hit test of chunk 0: does each index's word under key fall in
    its target_interval (lo, size)?  key, lo and size are scalars, or
    (R, 1) columns over a (W,) window; word and tmp are scratch of the
    broadcast shape, and word is left holding the words."""
    _hash_words(idx, key, word, tmp)
    np.subtract(word, lo, out=tmp)
    return np.less(tmp, size)


def _hash_words(idx: np.ndarray, key, word: np.ndarray, tmp: np.ndarray) -> None:
    """Chunk 0's words mix64(idx * GOLDEN + key) into word, idx * GOLDEN
    taken once in tmp and broadcast against the keys."""
    step = tmp.reshape(-1)[: idx.size].reshape(idx.shape)
    np.multiply(idx, _U_GOLDEN, out=step)
    np.add(key, step, out=word)
    _mix_into(word, tmp)


#: Lane j of a value's chunks, (j + 1) * GOLDEN2 mod 2^64 for every j < 64.
_LANES = np.array([((j + 1) * GOLDEN2) & MASK64 for j in range(64)], dtype=np.uint64)

#: Pairs of kept hash scratch: the widest window of a scan, whose
#: lockstep rounds hash at most 2^16 pairs and whose one-row windows
#: hold at most 2^16 indices.  Pages fault in only where calls write, so
#: a small call costs no more for it.
_SCRATCH_CAP = 1 << 16

#: Scratch of finished hash calls: a call takes one and hands it back, even
#: when it raises, so calls reuse pages instead of faulting in their own.
_SCRATCH_FREE: list[np.ndarray] = []


def take_scratch(size: int) -> np.ndarray:
    """A hash call's working arrays, rows of at least size pairs (uint64):
    the words, and mix64's shifts and the tables' gathers.  Past
    _SCRATCH_CAP, a call's own."""
    if size > _SCRATCH_CAP:
        return np.empty((2, size), dtype=np.uint64)
    try:  # one pop, so concurrent calls never share scratch
        return _SCRATCH_FREE.pop()
    except IndexError:
        return np.empty((2, _SCRATCH_CAP), dtype=np.uint64)


def give_back(s: np.ndarray) -> None:
    """Hand scratch back to the free list, unless it was a call's own."""
    if s.shape[1] == _SCRATCH_CAP:
        _SCRATCH_FREE.append(s)


def _mix_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of z in place; tmp is scratch of z's shape."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _UM1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _UM2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


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
