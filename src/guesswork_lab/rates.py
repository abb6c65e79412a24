"""Closed-form guesswork growth rates and finite-size expectations.

Rates are dimensioned in bits per unit of bin width m (the exponent of
the average guess count); finite-size expectations are plain guess
counts.  The key-size panel lives here too: it needs no numpy.  Piecewise formulas report which branch fired so callers can
assert on the region, not just the value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .infotheory import (
    binary_entropy,
    check_bias,
    check_probability,
    check_realizable_type,
    check_rho,
    cross_entropy_identity,
    kl_divergence,
    renyi_entropy_bernoulli,
    solve_bias_for_alpha,
)

#: s values exactly on a piecewise boundary report this region.
REGION_BOUNDARY = "boundary"


@dataclass(frozen=True)
class ScenarioParams:
    """Shared parameter block for rate formulas and simulations.

    s sets the user count M = floor(2^{H(s) m - 1}); p is the mapping
    bias; m and n are the output and input widths in bits; theta is the
    optional password bias.
    """

    s: float
    p: float
    m: int
    n: int
    theta: Optional[float] = None

    def __post_init__(self):
        if not 0.5 <= self.s <= 1.0:
            raise ValueError(f"s must lie in [1/2, 1], got {self.s}")
        check_bias(self.p)
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.n <= self.m:
            raise ValueError(f"n must exceed m, got n={self.n}, m={self.m}")
        if self.theta is not None and not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def n_over_m(self) -> float:
        return self.n / self.m

    def user_count(self) -> int:
        """M = floor(2^{H(s) m - 1}), at least 1."""
        return max(1, int(math.floor(2.0 ** (binary_entropy(self.s) * self.m - 1.0))))


@dataclass(frozen=True)
class RateReport:
    """A rate value with optional bounds and the piecewise region label."""

    scenario: str
    rate: Optional[float]
    lower: Optional[float] = None
    upper: Optional[float] = None
    region: Optional[str] = None

    def __post_init__(self):
        if self.rate is not None and self.lower is not None and self.upper is not None:
            if not (self.lower <= self.rate + 1e-12 and self.rate <= self.upper + 1e-12):
                raise ValueError(
                    f"rate {self.rate} outside bounds [{self.lower}, {self.upper}]"
                )


def _check_sp(s: float, p: float) -> None:
    if not 0.5 <= s <= 1.0:
        raise ValueError(f"s must lie in [1/2, 1], got {s}")
    check_bias(p)


def _region(x: float, edge: float, below: str, above: str) -> str:
    """The region label of x on either side of a piecewise edge, and
    REGION_BOUNDARY on it."""
    return REGION_BOUNDARY if x == edge else below if x < edge else above


def online_rate_allocated(s: float, p: float) -> RateReport:
    """Growth rate of the mean online guesswork with least-likely-first bins.

    H(s) + D(s||p) for s >= 1-p, else 2 H(p) + D(1-p||p) - H(s); the two
    branches agree at s = 1-p.
    """
    _check_sp(s, p)
    rate = (
        binary_entropy(s) + kl_divergence(s, p) if s >= 1.0 - p
        else 2.0 * binary_entropy(p) + kl_divergence(1.0 - p, p) - binary_entropy(s)
    )
    return RateReport("online-allocated", rate, region=_region(s, 1.0 - p, "s<1-p", "s>=1-p"))


def offline_rate_allocated(s: float, p: float) -> RateReport:
    """Growth rate of the any-assigned-bin guesswork: D(s||p)."""
    _check_sp(s, p)
    return RateReport("offline-allocated", kl_divergence(s, p))


def offline_rate_bounds_unallocated(s: float, p: float) -> RateReport:
    """[D(1-s||p) or 0, D(s||p)] bounds when bins are not allocated."""
    _check_sp(s, p)
    u = 1.0 - s
    return RateReport(
        "offline-unallocated", None, lower=kl_divergence(u, p) if u < p else 0.0,
        upper=kl_divergence(s, p), region=_region(u, p, "1-s<=p", "1-s>p"),
    )


def online_rate_bounds_unallocated(s: float, p: float) -> RateReport:
    """[H(s) + D(1-s||p), online allocated rate]; the bounds meet at p = 1/2."""
    _check_sp(s, p)
    lower = binary_entropy(s) + kl_divergence(1.0 - s, p)
    upper_report = online_rate_allocated(s, p)
    return RateReport(
        "online-unallocated",
        None,
        lower=lower,
        upper=upper_report.rate,
        region=upper_report.region,
    )


def most_likely_rate_offline(s: float, p: float) -> RateReport:
    """Most probable any-bin guesswork rate for uniformly chosen passwords.

    H(p) - H(u) with u = 1-s the user-count exponent parameter, valid when
    u <= p; zero otherwise.  All user-count bookkeeping is in terms of
    u = 1-s ("M = 2^{H(u) m}" users); H is symmetric so callers may pass
    either convention for the count itself.
    """
    _check_sp(s, p)
    u = 1.0 - s
    rate = binary_entropy(p) - binary_entropy(u) if u <= p else 0.0
    return RateReport("most-likely-offline", rate, region=_region(u, p, "1-s<=p", "p<=1-s"))


def most_likely_rate_online(p: float) -> RateReport:
    """Most probable single-user guesswork rate: H(p)."""
    check_bias(p)
    return RateReport("most-likely-online", binary_entropy(p))


def most_likely_type_probability_exponents(
    m: int, s: float, q: float, p: float
) -> tuple[float, float]:
    """Exponent descriptors for the all-users-on-type-q profile probability.

    The probability behaves like exp(-2^{m c1}) * 2^{-m c2(m)} with
    c1 = 2 H(1-s) - H(q) and c2 = D(q||p) * 2^{H(1-s) m}.  The two
    descriptors are returned separately; their product underflows for any
    interesting m.
    """
    _check_sp(s, p)
    check_realizable_type(m, q)
    u = 1.0 - s
    if not u < q <= p + 1e-12:
        raise ValueError(f"q={q} outside the profile region ({u}, {p}]")
    doubly = 2.0 * binary_entropy(u) - binary_entropy(q)
    singly = kl_divergence(q, p) * 2.0 ** (binary_entropy(u) * m)
    return doubly, singly


REGION_PASSWORD = "password-dominated"
REGION_HASH = "hash-dominated"
REGION_INDETERMINATE = "indeterminate"


def biased_password_critical_type(theta: float) -> float:
    """sqrt(theta) / (sqrt(theta) + sqrt(1-theta)), the dominant guess type."""
    check_probability(theta, "theta")
    r = math.sqrt(theta)
    return r / (r + math.sqrt(1.0 - theta))


def biased_password_rate(scenario: ScenarioParams, q_b: float) -> RateReport:
    """Per-bin guesswork rate when passwords are Bernoulli(theta) biased.

    The password arm dominates (rate (n/m) H_{1/2}(theta)) when guessing
    reaches the critical type before the hash arm's exponent; the hash arm
    dominates (rate H(q_b) + D(q_b||p)) when the password entropy exceeds
    that exponent.  Between the two strict thresholds neither arm provably
    dominates and the region is reported as indeterminate with both
    candidate rates as bounds.
    """
    if scenario.theta is None:
        raise ValueError("scenario.theta is required for biased-password rates")
    theta = scenario.theta
    check_realizable_type(scenario.m, q_b)
    ratio = scenario.n_over_m
    hash_exponent = cross_entropy_identity(q_b, scenario.p)
    password_rate = ratio * renyi_entropy_bernoulli(theta, 1.0)
    crit = biased_password_critical_type(theta)
    if 2.0 * ratio * binary_entropy(crit) < hash_exponent:
        return RateReport("biased-password", password_rate, region=REGION_PASSWORD)
    if ratio * binary_entropy(theta) > hash_exponent:
        return RateReport("biased-password", hash_exponent, region=REGION_HASH)
    lo, hi = sorted((password_rate, hash_exponent))
    return RateReport(
        "biased-password", None, lower=lo, upper=hi, region=REGION_INDETERMINATE
    )


def moment_rate_broken_hash(p: float, rho: float) -> RateReport:
    """Growth rate of the rho-th guesswork moment once the hash is known:
    rho * H_{1/(1+rho)}(p)."""
    check_bias(p)
    check_rho(rho)
    rate = 0.0 if rho == 0.0 else rho * renyi_entropy_bernoulli(p, rho)
    return RateReport("broken-hash-moment", rate)


def key_size_ratio(s: float, p: float) -> float:
    """Unbiased-to-biased key length ratio at equal guesswork: H(s) + D(s||p)."""
    _check_sp(s, p)
    return binary_entropy(s) + kl_divergence(s, p)


def expected_guesses_per_bin(m: int, n: int, q_b: float, p: float) -> float:
    """Exact mean guess count for one bin of type q_b over 2^n candidates.

    Mean of the geometric with success probability P = 2^{-m (H+D)},
    truncated at 2^n trials with failures contributing zero:
    1/P - (1-P)^{2^n} (1/P + 2^n).  The power term is evaluated as
    exp(2^n log1p(-P)) so it underflows cleanly, and the deeply truncated
    regime (2^n P << 1) switches to a series to avoid cancellation.

    n is not required to exceed m here: the formula stands for any
    truncation horizon, and degenerate widths are useful for exact
    cross-checks by direct summation.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    check_realizable_type(m, q_b)
    check_bias(p)
    log2_inv_p = m * cross_entropy_identity(q_b, p)
    inv_p = 2.0 ** log2_inv_p
    prob = 2.0 ** (-log2_inv_p)
    trials = 2.0 ** n
    c = trials * prob
    if c < 1e-3:
        # E = (1 - (1+c) e^{-c}) / P + O(c P); expand the bracket in c.
        bracket = c * c / 2.0 - c ** 3 / 3.0 + c ** 4 / 8.0 - c ** 5 / 30.0
        return bracket / prob + 0.5 * c * (1.0 + c) * math.exp(-c)
    log_miss = trials * math.log1p(-prob)
    miss = math.exp(log_miss) if log_miss > -745.0 else 0.0
    return inv_p - miss * (inv_p + trials)


def expected_guesses_convergence_bound(m: int, n: int, q_b: float, p: float) -> float:
    """Upper bound on |2^{m(H+D)} - E(G)|: (2^{m(H+D)} + 2^n) e^{-2^{n - m(H+D)}}."""
    check_realizable_type(m, q_b)
    check_bias(p)
    exponent = m * cross_entropy_identity(q_b, p)
    gap = 2.0 ** (n - exponent)
    scale = 2.0 ** exponent + 2.0 ** n
    return scale * math.exp(-gap) if gap < 745.0 else 0.0


def concentration_bound(m: int, q_b: float, p: float, l: float) -> float:
    """Upper bound on P(G(b) <= 2^{m l}): 1 - exp(-2 * 2^{-(H+D-l) m})."""
    check_realizable_type(m, q_b)
    check_bias(p)
    gap = (cross_entropy_identity(q_b, p) - l) * m
    if gap < -60.0:
        return 1.0
    return -math.expm1(-2.0 * 2.0 ** (-gap))


def guesswork_argmax_type(s: float, p: float) -> tuple[float, float]:
    """Maximizer of 2 H(q) + D(q||p) over q in [s, 1] and its value.

    Unconstrained the maximum sits at q = 1-p; the constraint moves it to
    max(s, 1-p).
    """
    _check_sp(s, p)
    q_star = max(s, 1.0 - p)
    value = 2.0 * binary_entropy(q_star) + kl_divergence(q_star, p)
    return q_star, value


def concentration_exponent_allocated(epsilon1: float, p: float) -> float:
    """Decay exponent for strategies beating the allocated mean: eps1 * log2(1/p)."""
    if not 0.0 < epsilon1 < 1.0:
        raise ValueError(f"epsilon1 must lie in (0, 1), got {epsilon1}")
    check_bias(p)
    return epsilon1 * math.log2(1.0 / p)


@dataclass(frozen=True)
class KeySizeRow:
    alpha: float
    p0: float
    roundtrip: float
    uniform_key_bits: str
    biased_key_bits: str
    ratio: float
    storage_ratio: float
    entropy_coded_factor: float


def keysize_panel(alpha_values: Sequence[float]) -> list[KeySizeRow]:
    """Key- and storage-size comparison at equal average guesswork 2^{alpha m}.

    The ratio column is the symbolic identity alpha (uniform key
    alpha*m*2^{alpha m} bits against biased m*2^{alpha m}); the solver
    roundtrip is reported so the identity is auditable.
    """
    rows = []
    for alpha in alpha_values:
        p0 = solve_bias_for_alpha(alpha)
        roundtrip = 1.0 + kl_divergence(0.5, p0)
        rows.append(
            KeySizeRow(
                alpha=alpha,
                p0=p0,
                roundtrip=roundtrip,
                uniform_key_bits=f"{alpha:g}*m*2^({alpha:g}*m)",
                biased_key_bits=f"m*2^({alpha:g}*m)",
                ratio=alpha,
                storage_ratio=key_size_ratio(0.5, p0),
                entropy_coded_factor=binary_entropy(p0),
            )
        )
    return rows
