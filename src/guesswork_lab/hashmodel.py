"""Hash-function models: the lazily keyed segmented family and explicit tables.

The keyed model realizes a hash whose value on input i is the i-th m-bit
segment of a Bernoulli(p) key.  The key is never materialized: segments
are a pure function of (seed, i), so n up to 62 is usable.  Explicit
tables are capped at n, m <= 24.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from . import rng
from .infotheory import check_bias

#: Explicit tables beyond these widths are refused (16 MiB of packed bits).
TABLE_N_CAP = 24
TABLE_M_CAP = 24


class ResourceCapError(RuntimeError):
    """Requested object exceeds the explicit-enumeration caps."""


@dataclass(frozen=True)
class BinLabel:
    """An m-bit hash output value."""

    bits: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if not 0 <= self.bits < (1 << self.m):
            raise ValueError(f"bits {self.bits} out of range for m={self.m}")

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    @property
    def type_fraction(self) -> float:
        """q(b): fraction of one-bits, indexing the bin's probability class."""
        return self.popcount / self.m

@dataclass
class KeyedHashModel:
    """Segmented keyed hash with Bernoulli(p) segments and sparse overrides.

    Overrides map password indices to planted bin values and take
    precedence over the generated segment.  Mutate overrides only during
    installation; attack code treats the model as frozen.
    """

    m: int
    n: int
    p: float
    seed: int
    overrides: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if not self.m < self.n <= 62:
            raise ValueError(f"need m < n <= 62, got m={self.m}, n={self.n}")
        check_bias(self.p)
        for pw, bits in self.overrides.items():
            self._check_override(pw, bits)

    def _check_override(self, pw: int, bits: int) -> None:
        if not 0 <= pw < (1 << self.n):
            raise ValueError(f"override index {pw} out of range for n={self.n}")
        if not 0 <= bits < (1 << self.m):
            raise ValueError(f"override bin {bits} out of range for m={self.m}")

    def eval_many(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized hash of an index array, overrides applied."""
        vals = rng.biased_bits(self.seed, self.p, self.m, idx)
        if self.overrides:
            keys, repl = (np.array(col, dtype=np.uint64) for col in zip(*sorted(self.overrides.items())))
            idx64 = idx.astype(np.uint64, copy=False)
            at = np.minimum(np.searchsorted(keys, idx64), keys.size - 1)
            hit = keys[at] == idx64
            vals[hit] = repl[at[hit]]
        return vals

@dataclass
class TableHash:
    """Explicit hash table of 2^n entries, each an m-bit value."""

    m: int
    n: int
    table: np.ndarray

    def __post_init__(self):
        # hashing compresses (n > m) in every scenario, but degenerate
        # m == n tables are allowed for exact small oracles
        if self.m > self.n:
            raise ValueError(f"need m <= n, got m={self.m}, n={self.n}")
        if self.n > TABLE_N_CAP or self.m > TABLE_M_CAP:
            raise ResourceCapError(
                f"explicit table capped at n<={TABLE_N_CAP}, m<={TABLE_M_CAP}"
            )
        self.table = np.asarray(self.table, dtype=np.uint32)
        if self.table.shape != (1 << self.n,):
            raise ValueError(f"table must have exactly 2^{self.n} entries")
        if self.table.size and int(self.table.max()) >= (1 << self.m):
            raise ValueError("table entry out of range for m")

    def eval_many(self, idx: np.ndarray) -> np.ndarray:
        return self.table[idx.astype(np.int64)]


HashFunction = Union[KeyedHashModel, TableHash]


def sample_table_hash(m: int, n: int, p: float, seed: int) -> TableHash:
    """Explicit table with entries sampled bitwise i.i.d. Bernoulli(p)."""
    if n > TABLE_N_CAP or m > TABLE_M_CAP:
        raise ResourceCapError(
            f"explicit table capped at n<={TABLE_N_CAP}, m<={TABLE_M_CAP}"
        )
    check_bias(p)
    gen = rng.generator(seed, 0xAB1E)
    size = 1 << n
    table = np.zeros(size, dtype=np.uint32)
    chunk = 1 << 20
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        bits = gen.random((stop - start, m)) < p
        weights = (1 << np.arange(m - 1, -1, -1)).astype(np.uint32)
        table[start:stop] = bits @ weights
    return TableHash(m=m, n=n, table=table)


@dataclass
class EffectiveDistribution:
    """P_H(b) for all 2^m bins; nonnegative, sums to one."""

    m: int
    fractions: np.ndarray

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=np.float64)
        if self.fractions.shape != (1 << self.m,):
            raise ValueError("fractions must cover all 2^m bins")
        if (self.fractions < 0).any():
            raise ValueError("fractions must be nonnegative")
        if abs(float(self.fractions.sum()) - 1.0) > 1e-12:
            raise ValueError("fractions must sum to 1")


def exact_bernoulli_distribution(m: int, p: float) -> EffectiveDistribution:
    """The exact i.i.d. Bernoulli(p) distribution over all 2^m bins."""
    if m > TABLE_M_CAP:
        raise ResourceCapError(f"exact distribution capped at m<={TABLE_M_CAP}")
    check_bias(p)
    w = popcounts(m)
    logs = w * math.log(p) + (m - w) * math.log1p(-p)
    return EffectiveDistribution(m=m, fractions=np.exp(logs))


def popcounts(m: int) -> np.ndarray:
    """Popcount of every value in [0, 2^m) as an int8-ish array."""
    vals = np.arange(1 << m, dtype=np.uint32)
    counts = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        counts += (vals >> j) & 1
    return counts


def iter_bins_by_likelihood(m: int, p: float) -> Iterator[int]:
    """Lazy least-likely-first bin enumeration, usable for any m.

    Walks type classes from popcount m down to 0, each in ascending
    numeric order.
    """
    check_bias(p)
    for w in range(m, -1, -1):
        yield from same_weight_ascending(m, w)


def same_weight_ascending(width: int, weight: int, start: Optional[int] = None) -> Iterator[int]:
    """Values below 2^width with `weight` one-bits in ascending order,
    from start (a member) when given (Gosper's hack)."""
    limit = 1 << width
    v = (1 << weight) - 1 if start is None else start
    while v < limit:
        yield v
        if v == 0:
            return
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)
