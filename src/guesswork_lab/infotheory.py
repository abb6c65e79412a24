"""Scalar information-theoretic primitives for binary alphabets.

All quantities are in bits (base-2 logs).  Probabilities that would
underflow in linear space are exposed through log-space helpers.
"""
from __future__ import annotations

import math

#: Tolerance for deciding whether q*m is an integer (a realizable type).
REALIZABLE_TOL = 1e-9


def check_probability(value: float, name: str = "q") -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def check_bias(p: float, name: str = "p") -> float:
    """Bias parameters live in (0, 1/2]; p = 1/2 is the unbiased reference."""
    if not 0.0 < p <= 0.5:
        raise ValueError(f"{name} must lie in (0, 1/2], got {p}")
    return float(p)


def check_rho(rho: float) -> float:
    if rho < 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return float(rho)


def _xlog2x(x: float) -> float:
    # 0 * log(0) == 0 by convention
    return 0.0 if x == 0.0 else x * math.log2(x)


def binary_entropy(q: float) -> float:
    """H(q) = -q log2 q - (1-q) log2 (1-q), in [0, 1]."""
    check_probability(q)
    return -_xlog2x(q) - _xlog2x(1.0 - q)


def kl_divergence(q: float, p: float) -> float:
    """D(q||p) = q log2(q/p) + (1-q) log2((1-q)/(1-p)), >= 0.

    For p in {0, 1} with a mass mismatch the divergence is a signaled
    +infinity rather than a NaN.
    """
    check_probability(q)
    check_probability(p, "p")
    total = 0.0
    if q > 0.0:
        if p == 0.0:
            return math.inf
        total += q * math.log2(q / p)
    if q < 1.0:
        if p == 1.0:
            return math.inf
        total += (1.0 - q) * math.log2((1.0 - q) / (1.0 - p))
    return total


def cross_entropy_identity(q: float, p: float) -> float:
    """H(q) + D(q||p), evaluated as q log2(1/p) + (1-q) log2(1/(1-p)).

    The algebraic form avoids the 0*log(0) corner cases and is exact at
    q in {0, 1}.  Its maximum over q is log2(1/p), attained at q = 1 for
    p <= 1/2.
    """
    check_probability(q)
    check_bias(p)
    return -q * math.log2(p) - (1.0 - q) * math.log2(1.0 - p)


def renyi_entropy_bernoulli(p: float, rho: float) -> float:
    """Order-1/(1+rho) Renyi entropy of a Bernoulli(p) bit.

    H_{1/(1+rho)}(p) = (1+rho)/rho * log2(p^{1/(1+rho)} + (1-p)^{1/(1+rho)}).
    rho = 0 returns the Shannon limit H(p).  Always >= H(p), with equality
    only at p = 1/2.
    """
    check_rho(rho)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if rho == 0.0:
        return binary_entropy(p)
    a = 1.0 / (1.0 + rho)
    return (1.0 + rho) / rho * math.log2(p ** a + (1.0 - p) ** a)


def is_realizable_type(m: int, q: float) -> bool:
    """True when q*m rounds to an integer reproducing q within 1e-9."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    k = round(q * m)
    return 0 <= k <= m and abs(k / m - q) <= REALIZABLE_TOL


def check_realizable_type(m: int, q: float) -> int:
    """Return the integer weight k = q*m, or raise if q is off-lattice."""
    if not is_realizable_type(m, q):
        raise ValueError(f"q={q} is not a realizable type for m={m}")
    return round(q * m)


def type_class_log2_probability(m: int, q: float, p: float) -> float:
    """log2 of the per-sequence probability: -m * (H(q) + D(q||p))."""
    check_realizable_type(m, q)
    check_bias(p)
    return -m * cross_entropy_identity(q, p)


def type_class_probability(m: int, q: float, p: float) -> float:
    """Per-sequence probability 2^{-m (H(q)+D(q||p))} = p^{qm} (1-p)^{(1-q)m}.

    This is the probability of one particular m-bit value of type q, not
    the aggregate over the class; multiply by the exact binomial for the
    class total.
    """
    return 2.0 ** type_class_log2_probability(m, q, p)


def type_class_size_bounds(m: int, q: float) -> tuple[float, float]:
    """(2^{mH(q)} / (m+1)^2, 2^{mH(q)}) bracketing the binomial C(m, qm)."""
    check_realizable_type(m, q)
    size = 2.0 ** (m * binary_entropy(q))
    return size / (m + 1) ** 2, size


def solve_bias_for_alpha(alpha: float) -> float:
    """The bias p0 in (0, 1/2] with 1 + D(1/2||p0) = alpha.

    D(1/2||p0) = -1 - log2(p0 (1-p0)) / 2, so p0 (1-p0) = 2^{-2 alpha} and
    p0 is the lower root of the quadratic.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    prod = 2.0 ** (-2.0 * alpha)
    p0 = (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * prod))) / 2.0
    return min(max(p0, 0.0), 0.5)
