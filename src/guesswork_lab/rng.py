"""Deterministic seed derivation and counter-keyed bit generation.

Every source of randomness in this package is derived from a 64-bit root
seed through a fixed mixing chain, so any trial, key segment, or password
draw is replayable in isolation and results are independent of worker
count or evaluation order.
"""
from __future__ import annotations

import functools
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
    s = _take_scratch(size)
    try:
        base = s.base[:size].reshape(shape)
        steps = np.arange(start, start + count, dtype=np.uint64)
        steps *= _U_GOLDEN
        np.add(keys[..., None], steps, out=base)
        _mix_into(base, s.tmp[:size].reshape(shape))
        np.right_shift(base, np.uint64(64 - n), out=out.view(np.uint64))
    finally:
        _give_back(s)
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


def biased_values(seed: int, idx: np.ndarray, lane: int, p: float, m: int) -> np.ndarray:
    """m-bit values, bits i.i.d. Bernoulli(p), one per index, as int64: chunks
    of at most 14 bits, the first highest, each drawn whole by its _alias_table
    from words(seed, idx, lane) (chunk 0) or that word mixed with lane j."""
    word, out = words(seed, idx, lane), 0
    base = word ^ (word >> _S30) if m > 14 else None  # the first xorshift of every lane mix
    for j, k in enumerate([14] * (m // 14) + [m % 14] * (m % 14 > 0)):
        if j:
            _lane_into(word, base, _LANES[j], np.empty_like(word))
        threshold, alias = _alias_table(float(p), k)
        col = (word >> np.uint64(64 - k)).view(np.int64)
        word &= np.uint64((1 << (64 - k)) - 1)
        out = out << k | np.where(word < threshold.take(col), col, alias.take(col))
    return out


@functools.lru_cache(maxsize=32)
def _alias_table(p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of k Bernoulli(p) bits in exact integers, paired
    as Vose does: column c holds 2^(64-k) units, value c's below threshold[c]
    and alias[c]'s above.  A value of weight w has floor(p^w (1-p)^(k-w) 2^64)
    units and value 0 the rest, so a chunk is within 2^(k-64) of its law."""
    a, b = p.as_integer_ratio()
    layer = [(a**w * (b - a) ** (k - w) << 64) // b**k for w in range(k + 1)]
    mass = [layer[v.bit_count()] for v in range(1 << k)]
    mass[0], cap = (1 << 64) - sum(mass[1:]), 1 << (64 - k)
    threshold, alias = [cap] * (1 << k), list(range(1 << k))
    small, large = [v for v, u in enumerate(mass) if u < cap], [v for v, u in enumerate(mass) if u >= cap]
    while small:  # exact integers: the last large columns hold cap each
        s, g = small.pop(), large[-1]
        threshold[s], alias[s] = mass[s], g
        mass[g] -= cap - mass[s]
        if mass[g] < cap:
            small.append(large.pop())
    tables = np.array(threshold, dtype=np.uint64), np.array(alias, dtype=np.int64)
    for t in tables:
        t.flags.writeable = False  # the cache hands them to every caller
    return tables


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

    Given target or live, the result is instead a boolean array of the
    same shape: is each value a hit?  Bits are then drawn only while a
    value can still be one, so a miss costs the bits up to the first that
    rules it out.  target is an int in [0, 2^m), or one per row: an array
    broadcast against the shape's leading axes and 1 (an (R, 1) column
    over R rows), and a hit is a value equal to its target.  A target
    array whose entries are all equal serves every row, as the int it
    holds.  live instead holds m stacked boolean tables, one row k per
    mask, and table (broadcast like seed) names each value's row: live[j],
    of shape (K, 2^(j+1)), is indexed by k and the first j + 1 bits of a
    value (its top bits), must be False wherever live[j - 1] is False for
    the shorter prefix, and a hit is a value in the mask live[m - 1][k].
    """
    idx64 = idx.astype(np.uint64, copy=False)
    thr = threshold_for(p)
    if isinstance(seed, np.ndarray):
        seed = seed.astype(np.uint64, copy=False)
    else:
        seed = np.uint64(int(seed) & MASK64)
    shape = np.broadcast(idx64, seed).shape
    if live is None and target is None:  # in arrays of the call's own
        base, z, tmp = (np.empty(shape, dtype=np.uint64) for _ in range(3))
        _bases_into(base, idx64, seed, tmp)
        # the bits gather in the narrowest unsigned type that holds m of them
        vals, ok = np.zeros(shape, dtype=np.min_scalar_type((1 << m) - 1)), np.empty(shape, dtype=bool)
        for j in range(m):
            _lane_into(z, base, _LANES[j], tmp)
            np.less(z, thr, out=ok)
            vals <<= 1
            vals |= ok
        return vals.astype(np.uint64, copy=False)
    if live is None:
        if isinstance(target, np.ndarray) and target.size and (target == target.flat[0]).all():
            target = target.flat[0].item()  # one target for every row: the scalar compare
        if np.any(target >> m) if isinstance(target, np.ndarray) else not 0 <= target < 1 << m:
            raise ValueError(f"target out of range for m={m}")
    else:
        # Row k's prefixes follow k in the index of its flattened tables.
        live = [t.reshape(-1) for t in live]
    size = math.prod(shape)
    if size <= _FINISH_ROWS:  # the 2-D finish alone, in arrays of its own
        base = np.empty(shape, dtype=np.uint64)
        _bases_into(base, idx64, seed, np.empty_like(base))
        return _hits(base, thr, m, live, table, target, None)
    s = _take_scratch(size)
    try:
        base = s.base[:size].reshape(shape)
        _bases_into(base, idx64, seed, s.tmp[:size].reshape(shape))
        return _hits(base, thr, m, live, table, target, s)
    finally:
        _give_back(s)


#: Lane L of output bit j, (j + 1) * GOLDEN2 mod 2^64 for every j < 64,
#: stored pre-shifted as L ^ (L >> 30): mix64's first xorshift is linear,
#: so that of base ^ L is that of base, taken once, xored with this.
_LANES = np.array(
    [L ^ (L >> 30) for L in (((j + 1) * GOLDEN2) & MASK64 for j in range(64))], dtype=np.uint64
)

#: Shifts of k bits drawn first to last, the last one lowest: _DOWN[64 - k:].
_DOWN = np.arange(63, -1, -1, dtype=np.uint64)

#: Weights that pack rows of k bits, first bit highest: _BIT_WEIGHTS[64 - k:].
_BIT_WEIGHTS = _ONE << _DOWN

#: Survivors at or below which a hit test takes all their remaining bits
#: in one 2-D mix: numpy's fixed cost per call then outweighs the bits
#: drawn for survivors that would have been ruled out early.
_FINISH_ROWS = 256

#: Pairs of kept hit-test scratch: the widest call of a lockstep scan,
#: whose rounds hash at most 2^16 pairs and whose one-row chunks hold at
#: most 2^16 indices.  Pages fault in only where calls write, so a small
#: call costs no more for it.
_SCRATCH_CAP = 1 << 16


class _Scratch:
    """A hit test's working arrays, size entries each: the mixed bases,
    the states of the bit being drawn and mix64's shifts (uint64), and the
    bit's test (bool).  The survivors' bases move between base and z."""

    __slots__ = ("base", "z", "tmp", "ok")

    def __init__(self, size: int):
        self.base, self.z, self.tmp = (np.empty(size, dtype=np.uint64) for _ in range(3))
        self.ok = np.empty(size, dtype=bool)


#: Scratch of finished hit tests: a call takes one and hands it back, even
#: when it raises, so calls reuse pages instead of faulting in their own.
_SCRATCH_FREE: list[_Scratch] = []


def _take_scratch(size: int) -> _Scratch:
    """Scratch of at least size pairs; past _SCRATCH_CAP, a call's own."""
    if size > _SCRATCH_CAP:
        return _Scratch(size)
    try:  # one pop, so concurrent calls never share scratch
        return _SCRATCH_FREE.pop()
    except IndexError:
        return _Scratch(_SCRATCH_CAP)


def _give_back(s: _Scratch) -> None:
    """Hand scratch back to the free list, unless it was a call's own."""
    if s.ok.size == _SCRATCH_CAP:
        _SCRATCH_FREE.append(s)


def _mix_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of z in place; tmp is scratch of z's shape."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    _mix_rest(z, tmp)


def _bases_into(base: np.ndarray, idx64: np.ndarray, seed, tmp: np.ndarray) -> None:
    """The bases of biased_bits' pairs into base: mix64(index * GOLDEN +
    seed), with the first xorshift of every bit's lane mix taken."""
    np.multiply(idx64, _U_GOLDEN, out=base)
    base += seed
    _mix_into(base, tmp)
    np.right_shift(base, _S30, out=tmp)
    base ^= tmp


def _lane_into(z: np.ndarray, base: np.ndarray, lane, tmp: np.ndarray) -> None:
    """The states mix64(b ^ L) of a bit's lane L (one of _LANES, or a row
    of them broadcast against base) into z, from the bases of _bases_into."""
    np.bitwise_xor(base, lane, out=z)
    _mix_rest(z, tmp)


def _mix_rest(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of z in place, its first xorshift already taken."""
    z *= _UM1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _UM2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


def _hits(base, thr, m, live, table, target, s: Optional[_Scratch]) -> np.ndarray:
    """biased_bits' hit test over the bases of _bases_into, held in s.base
    (a call of at most _FINISH_ROWS pairs takes no scratch: s is None).

    Every pair draws bit 0, tested in base's shape against the rows'
    target bits as a column.  From then on only the survivors, the pairs
    that can still hit, draw: they are compacted with nonzero and take
    after every step, keeping their flat positions pos, with per-row
    targets their rows (pos // width, divided once for the first
    survivors), and with tables their bits so far as table indices.  Once
    at most _FINISH_ROWS survive, their remaining bits come from one 2-D
    mix and are tested whole, as the target's low bits or through the
    mask; a call that small starts there.  Hits are written once, at the
    end.
    """
    shape, size = base.shape, base.size
    lead = shape[:-1] + (1,)
    per_row = live is None and isinstance(target, np.ndarray)
    if per_row:
        target = np.broadcast_to(target.astype(np.uint64), lead).reshape(-1)
        want = ((target >> _DOWN[64 - m :, None]) & _ONE).astype(bool)  # want[j]: the rows' bit j
    pos = row = prefix = None
    for j in range(m):
        n = base.size
        if n <= _FINISH_ROWS:
            if pos is None:  # the whole call: every pair is a survivor
                pos, base = np.arange(n), base.reshape(-1)
                if live is not None:
                    prefix = np.broadcast_to(np.asarray(table, dtype=np.intp), shape).reshape(-1)
                elif per_row:
                    row = pos // shape[-1]
            rest = np.empty((n, m - j), dtype=np.uint64)
            _lane_into(rest, base[:, None], _LANES[j:m], np.empty_like(rest))
            low = np.dot((rest < thr).view(np.uint8), _BIT_WEIGHTS[64 - m + j :])
            if live is not None:
                ok = live[-1].take((prefix << (m - j)) | low.view(np.intp))
            else:
                ok = low == (target.take(row) if per_row else target) & np.uint64((1 << (m - j)) - 1)
            pos = pos[ok]
            break
        z, ok = s.z[:n].reshape(base.shape), s.ok[:n].reshape(base.shape)
        _lane_into(z, base, _LANES[j], s.tmp[:n].reshape(base.shape))
        if live is not None:
            np.less(z, thr, out=ok)
            if j:
                prefix <<= 1
                prefix |= ok
            else:
                prefix = ok.astype(np.intp)
                prefix |= np.asarray(table, dtype=np.intp) << 1
            ok = live[j].take(prefix)
        elif per_row:
            np.less(z, thr, out=ok)
            np.equal(ok, want[j].take(row) if j else want[0].reshape(lead), out=ok)
        elif (target >> (m - 1 - j)) & 1:
            np.less(z, thr, out=ok)
        else:
            np.greater_equal(z, thr, out=ok)
        (keep,) = ok.reshape(-1).nonzero()
        if per_row:
            row = row.take(keep) if j else keep // shape[-1]
        pos = keep if pos is None else pos.take(keep)
        if not keep.size:
            break
        # the survivors' bases move to z's buffer, whose states are spent
        base = base.reshape(-1).take(keep, out=s.z[: keep.size], mode="clip")
        s.base, s.z = s.z, s.base
        if live is not None:
            prefix = prefix.reshape(-1).take(keep)
    hits = np.zeros(size, dtype=bool)
    hits[pos] = True
    return hits.reshape(shape)


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
