"""Hash models: lazily keyed segments, explicit tables, the weight-layer order.

The keyed model realizes a hash whose value on input i is the i-th m-bit
segment of a Bernoulli(p) key.  The key is never materialized: segments
are a pure function of (seed, i), so n up to 62 is usable.  Explicit
tables are capped at n, m <= 24.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

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
        table[start:stop] = (gen.random((stop - start, m)) < p) @ rng.BIT_WEIGHTS[64 - m :]
    return TableHash(m=m, n=n, table=table)


def exact_bernoulli_distribution(m: int, p: float) -> np.ndarray:
    """P(b) of every bin b in [0, 2^m) under i.i.d. Bernoulli(p) bits."""
    if m > TABLE_M_CAP:
        raise ResourceCapError(f"exact distribution capped at m<={TABLE_M_CAP}")
    check_bias(p)
    w = np.bitwise_count(np.arange(1 << m)).astype(np.float64)
    return np.exp(w * math.log(p) + (m - w) * math.log1p(-p))


#: C(c, k) for c, k <= 62, zero where k > c: every count of the weight-layer
#: order, exact in int64 (C(62, 31) < 2^59).
BINOMIAL = np.array([[math.comb(c, k) for k in range(63)] for c in range(63)], dtype=np.int64)


def weight_layer_starts(width: int, heavy_first: bool) -> np.ndarray:
    """First rank of each weight's layer in weight_layer_order, by weight."""
    if not 0 <= width < BINOMIAL.shape[0]:
        raise ValueError(f"weight-layer order needs 0 <= width <= 62, got {width}")
    sizes = BINOMIAL[width, : width + 1]
    return (np.cumsum(sizes[::-1])[::-1] if heavy_first else np.cumsum(sizes)) - sizes


def weight_layer_order(width: int, heavy_first: bool, rank: np.ndarray) -> np.ndarray:
    """The width-bit value at each rank of the weight-layer order, as int64.

    Values are listed by weight, the heaviest layer first when heavy_first,
    ascending inside a layer: least-likely-first bin allocation (heavy
    first, for p < 1/2) and the probability-descending order of
    Bernoulli(theta) passwords.  Values of one weight ascend in the colex
    order of their bit sets, so scanning bits from the top, bit c is set
    exactly when C(c, k) <= the offset left, k being the bits left to set.
    """
    starts = weight_layer_starts(width, heavy_first)
    rank = np.asarray(rank, dtype=np.int64)
    if rank.size and (rank.min() < 0 or rank.max() >> width):
        raise ValueError(f"rank out of range for width={width}")
    weights = np.arange(width, -1, -1) if heavy_first else np.arange(width + 1)
    left = weights[np.searchsorted(starts[weights], rank, side="right") - 1]
    rest = rank - starts[left]
    value = np.zeros(rank.shape, dtype=np.int64)
    for c in range(width - 1, -1, -1):
        step = BINOMIAL[c].take(left)
        take = step <= rest
        value <<= 1
        value |= take
        rest -= step * take
        left -= take
    return value
