"""Closed-form rate tests: reference cells, piecewise regions, oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork_lab import rates
from guesswork_lab.infotheory import (
    binary_entropy,
    cross_entropy_identity,
    kl_divergence,
    renyi_entropy_bernoulli,
)
from guesswork_lab.rates import ScenarioParams


def brute_truncated_geometric_mean(prob: float, trials: int) -> float:
    """Direct summation oracle for the truncated geometric mean."""
    total = 0.0
    for count in range(1, trials + 1):
        total += count * prob * (1.0 - prob) ** (count - 1)
    return total


class TestOnlineRateAllocated:
    def test_table_value_at_s_one(self):
        rep = rates.online_rate_allocated(1.0, 0.45)
        assert rep.rate == pytest.approx(1.15200309344505, abs=1e-9)
        assert rep.region == "s>=1-p"

    def test_unbiased_rate_is_one(self):
        for s in (0.5, 0.7, 0.95, 1.0):
            assert rates.online_rate_allocated(s, 0.5).rate == pytest.approx(1.0, abs=1e-12)

    def test_many_users_branch(self):
        rep = rates.online_rate_allocated(0.5, 0.3)
        assert rep.rate == pytest.approx(1.2515387669959646, abs=1e-12)
        assert rep.region == "s<1-p"

    @pytest.mark.parametrize("p", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_continuous_at_branch_point(self, p):
        s = 1.0 - p
        left = 2.0 * binary_entropy(p) + kl_divergence(1.0 - p, p) - binary_entropy(s)
        right = binary_entropy(s) + kl_divergence(s, p)
        assert left == pytest.approx(right, abs=1e-10)
        assert rates.online_rate_allocated(s, p).region == "boundary"

    def test_nonincreasing_in_p(self):
        for s in (0.5, 0.75, 0.9, 1.0):
            values = [
                rates.online_rate_allocated(s, p).rate
                for p in np.linspace(0.02, 0.5, 25)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestOfflineRateAllocated:
    def test_reference_values(self):
        assert rates.offline_rate_allocated(0.9, 0.21).rate == pytest.approx(
            1.5913968409, abs=1e-9
        )
        assert rates.offline_rate_allocated(0.5, 0.5).rate == 0.0
        assert rates.offline_rate_allocated(1.0, 0.45).rate == pytest.approx(
            1.15200309344505, abs=1e-9
        )


class TestUnallocatedBounds:
    def test_offline_reference_row(self):
        rep = rates.offline_rate_bounds_unallocated(1.0, 0.45)
        assert rep.lower == pytest.approx(0.8624964762500651, abs=1e-9)
        assert rep.upper == pytest.approx(1.15200309344505, abs=1e-9)

    def test_offline_bounds_meet_at_half(self):
        rep = rates.offline_rate_bounds_unallocated(0.8, 0.5)
        assert rep.lower == pytest.approx(0.2780719051126377, abs=1e-12)
        assert rep.upper == pytest.approx(rep.lower, abs=1e-12)

    def test_offline_zero_lower_region(self):
        rep = rates.offline_rate_bounds_unallocated(0.6, 0.2)
        assert rep.lower == 0.0
        assert rep.region == "1-s>p"
        assert rep.upper == pytest.approx(
            0.6 * math.log2(3.0) + 0.4 * math.log2(0.5), abs=1e-12
        )

    def test_online_reference_values(self):
        rep = rates.online_rate_bounds_unallocated(1.0, 0.45)
        assert rep.lower == pytest.approx(0.8624964762500651, abs=1e-9)
        assert rep.upper == pytest.approx(1.15200309344505, abs=1e-9)
        rep9 = rates.online_rate_bounds_unallocated(0.9, 0.21)
        assert rep9.lower == pytest.approx(0.5312217741374561, abs=1e-9)
        assert rep9.upper == pytest.approx(2.06039243445613, abs=1e-9)

    def test_online_collapses_at_half(self):
        for s in (0.5, 0.8, 1.0):
            rep = rates.online_rate_bounds_unallocated(s, 0.5)
            assert rep.lower == pytest.approx(1.0, abs=1e-12)
            assert rep.upper == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=0.5, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=200)
    def test_bounds_ordered(self, s, p):
        off = rates.offline_rate_bounds_unallocated(s, p)
        on = rates.online_rate_bounds_unallocated(s, p)
        assert off.lower <= off.upper + 1e-12
        assert on.lower <= on.upper + 1e-12


class TestMostLikelyRates:
    def test_offline_reference(self):
        rep = rates.most_likely_rate_offline(0.9, 0.21)
        assert rep.rate == pytest.approx(0.2724871463419924, abs=1e-9)
        assert rep.region == "1-s<=p"

    def test_offline_all_users_distinct_bin(self):
        rep = rates.most_likely_rate_offline(1.0, 0.45)
        assert rep.rate == pytest.approx(0.9927744539878083, abs=1e-9)

    def test_offline_zero_region(self):
        rep = rates.most_likely_rate_offline(0.6, 0.3)
        assert rep.rate == 0.0
        assert rep.region == "p<=1-s"

    def test_online_values(self):
        assert rates.most_likely_rate_online(0.5).rate == 1.0
        assert rates.most_likely_rate_online(0.21).rate == pytest.approx(
            0.7414827399312737, abs=1e-12
        )
        assert rates.most_likely_rate_online(0.3).rate == pytest.approx(
            0.8812908992306927, abs=1e-12
        )


class TestProfileProbabilityExponents:
    def test_at_q_equals_p(self):
        doubly, singly = rates.most_likely_type_probability_exponents(10, 0.9, 0.3, 0.3)
        assert singly == 0.0
        assert doubly == pytest.approx(
            2.0 * binary_entropy(0.1) - binary_entropy(0.3), abs=1e-12
        )

    def test_scalar_evaluation(self):
        doubly, singly = rates.most_likely_type_probability_exponents(
            8, 0.9, 0.125, 0.21
        )
        assert doubly == pytest.approx(
            2.0 * binary_entropy(0.1) - binary_entropy(0.125), abs=1e-12
        )
        assert singly == pytest.approx(
            kl_divergence(0.125, 0.21) * 2.0 ** (binary_entropy(0.1) * 8), rel=1e-12
        )

    def test_s_one_doubly_exponent_negative(self):
        doubly, _ = rates.most_likely_type_probability_exponents(10, 1.0, 0.3, 0.3)
        assert doubly == pytest.approx(-binary_entropy(0.3), abs=1e-12)

    def test_region_error(self):
        with pytest.raises(ValueError):
            rates.most_likely_type_probability_exponents(10, 0.9, 0.5, 0.3)


class TestBiasedPasswordRate:
    def test_uniform_passwords_hash_dominated(self):
        scenario = ScenarioParams(s=0.9, p=0.3, m=10, n=40, theta=0.5)
        rep = rates.biased_password_rate(scenario, 0.5)
        assert rep.region == rates.REGION_HASH
        assert rep.rate == pytest.approx(cross_entropy_identity(0.5, 0.3), abs=1e-12)

    def test_password_dominated_region(self):
        # very biased passwords against the hardest bin, short inputs
        scenario = ScenarioParams(s=0.9, p=0.3, m=10, n=12, theta=0.02)
        rep = rates.biased_password_rate(scenario, 1.0)
        assert rep.region == rates.REGION_PASSWORD
        assert rep.rate == pytest.approx(
            1.2 * renyi_entropy_bernoulli(0.02, 1.0), abs=1e-12
        )

    def test_indeterminate_gap_not_guessed(self):
        # thresholds straddle the hash exponent: neither inequality strict
        scenario = ScenarioParams(s=0.9, p=0.3, m=10, n=23, theta=0.2)
        exponent = cross_entropy_identity(1.0, 0.3)
        ratio = 2.3
        crit = rates.biased_password_critical_type(0.2)
        assert 2 * ratio * binary_entropy(crit) > exponent
        assert ratio * binary_entropy(0.2) < exponent
        rep = rates.biased_password_rate(scenario, 1.0)
        assert rep.region == rates.REGION_INDETERMINATE
        assert rep.rate is None
        assert rep.lower <= rep.upper

    def test_critical_type_values(self):
        assert rates.biased_password_critical_type(0.25) == pytest.approx(
            0.3660254037844386, abs=1e-12
        )
        assert rates.biased_password_critical_type(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_requires_theta(self):
        scenario = ScenarioParams(s=0.9, p=0.3, m=10, n=40)
        with pytest.raises(ValueError):
            rates.biased_password_rate(scenario, 0.5)


class TestMomentRate:
    def test_values(self):
        assert rates.moment_rate_broken_hash(0.5, 1.0).rate == pytest.approx(1.0, abs=1e-12)
        assert rates.moment_rate_broken_hash(0.25, 1.0).rate == pytest.approx(
            0.8999686269529916, abs=1e-12
        )
        assert rates.moment_rate_broken_hash(0.3, 2.0).rate == pytest.approx(
            2.0 * 0.9586216884303365, abs=1e-12
        )

    @given(st.floats(min_value=0.02, max_value=0.5))
    def test_first_moment_between_entropy_and_one(self, p):
        rate = rates.moment_rate_broken_hash(p, 1.0).rate
        assert rate >= binary_entropy(p) - 1e-12
        assert rate <= 1.0 + 1e-12


class TestKeySizeRatio:
    def test_alpha_identity_at_half(self):
        assert rates.key_size_ratio(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert rates.key_size_ratio(0.5, 0.0669872981077807) == pytest.approx(
            2.0, abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 3.0])
    def test_solver_composition(self, alpha):
        from guesswork_lab.infotheory import solve_bias_for_alpha

        assert rates.key_size_ratio(0.5, solve_bias_for_alpha(alpha)) == pytest.approx(
            alpha, abs=1e-9
        )


class TestExpectedGuessesPerBin:
    def test_tiny_case_direct_sum(self):
        assert rates.expected_guesses_per_bin(1, 1, 1.0, 0.5) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_untruncated_limit(self):
        assert rates.expected_guesses_per_bin(8, 60, 1.0, 0.25) == pytest.approx(
            2.0 ** 16, rel=1e-12
        )

    def test_negligible_truncation_case(self):
        assert rates.expected_guesses_per_bin(8, 32, 1.0, 0.25) == pytest.approx(
            65536.0, rel=1e-6
        )

    @pytest.mark.parametrize(
        "m,n,q,p",
        [(2, 3, 0.5, 0.3), (2, 4, 1.0, 0.25), (3, 5, 1.0 / 3.0, 0.4), (4, 6, 0.75, 0.2)],
    )
    def test_matches_brute_force(self, m, n, q, p):
        prob = 2.0 ** (-m * cross_entropy_identity(q, p))
        oracle = brute_truncated_geometric_mean(prob, 1 << n)
        assert rates.expected_guesses_per_bin(m, n, q, p) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_deep_truncation_series(self):
        # horizon far below the mean: series path against direct summation
        prob = 2.0 ** (-12 * cross_entropy_identity(1.0, 0.25))
        oracle = brute_truncated_geometric_mean(prob, 1 << 9)
        got = rates.expected_guesses_per_bin(12, 9, 1.0, 0.25)
        assert got == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("m,n,q,p", [(6, 24, 1.0, 0.3), (10, 26, 0.8, 0.3)])
    def test_convergence_bound(self, m, n, q, p):
        gap = abs(
            rates.expected_guesses_per_bin(m, n, q, p)
            - 2.0 ** (m * cross_entropy_identity(q, p))
        )
        assert gap <= rates.expected_guesses_convergence_bound(m, n, q, p) + 1e-9


class TestConcentrationBound:
    def test_zero_gap(self):
        exponent = cross_entropy_identity(1.0, 0.3)
        assert rates.concentration_bound(10, 1.0, 0.3, exponent) == pytest.approx(
            0.8646647167633873, abs=1e-12
        )

    def test_ten_bit_gap(self):
        exponent = cross_entropy_identity(1.0, 0.3)
        got = rates.concentration_bound(10, 1.0, 0.3, exponent - 1.0)
        assert got == pytest.approx(0.0019512188925244756, abs=1e-12)

    def test_far_left_tail_zero(self):
        assert rates.concentration_bound(10, 1.0, 0.3, -50.0) == pytest.approx(
            0.0, abs=1e-90
        )

    def test_far_right_tail_one(self):
        # l far above H + D: the gap is below -60 and the bound is 1
        assert rates.concentration_bound(10, 1.0, 0.3, 100.0) == 1.0

    def test_within_unit_interval(self):
        for l in np.linspace(-5, 5, 41):
            b = rates.concentration_bound(8, 0.75, 0.3, float(l))
            assert 0.0 <= b <= 1.0


class TestArgmaxType:
    def test_unbiased(self):
        q_star, value = rates.guesswork_argmax_type(0.5, 0.5)
        assert q_star == 0.5
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_interior_argmax_matches_grid_search(self):
        q_star, value = rates.guesswork_argmax_type(0.5, 0.3)
        assert q_star == pytest.approx(0.7, abs=1e-12)
        assert value == pytest.approx(2.2515387669959646, abs=1e-12)
        grid = np.linspace(0.0, 1.0, 100001)
        vals = [2.0 * binary_entropy(q) + kl_divergence(q, p) for q, p in
                zip(grid, [0.3] * grid.size)]
        assert value >= max(vals) - 1e-8

    def test_constrained_boundary(self):
        q_star, _ = rates.guesswork_argmax_type(0.8, 0.3)
        assert q_star == 0.8


class TestConcentrationExponentAllocated:
    def test_values(self):
        assert rates.concentration_exponent_allocated(0.5, 0.25) == pytest.approx(
            1.0, abs=1e-12
        )
        assert rates.concentration_exponent_allocated(0.37, 0.5) == pytest.approx(
            0.37, abs=1e-12
        )
        assert rates.concentration_exponent_allocated(1e-9, 0.3) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            rates.concentration_exponent_allocated(0.0, 0.3)
        with pytest.raises(ValueError):
            rates.concentration_exponent_allocated(1.0, 0.3)


class TestScenarioParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioParams(s=0.4, p=0.3, m=8, n=20)
        with pytest.raises(ValueError):
            ScenarioParams(s=0.9, p=0.6, m=8, n=20)
        with pytest.raises(ValueError):
            ScenarioParams(s=0.9, p=0.3, m=8, n=8)

    def test_user_count_floor_formula(self):
        sc = ScenarioParams(s=0.9, p=0.3, m=10, n=26)
        assert sc.user_count() == int(
            math.floor(2.0 ** (binary_entropy(0.9) * 10 - 1))
        )
        assert ScenarioParams(s=1.0, p=0.3, m=10, n=26).user_count() == 1


def test_rates_reject_s_out_of_range():
    with pytest.raises(ValueError, match=r"s must lie in \[1/2, 1\], got 0.4"):
        rates.online_rate_allocated(0.4, 0.3)


def test_expected_guesses_need_a_positive_width():
    with pytest.raises(ValueError, match="n must be positive"):
        rates.expected_guesses_per_bin(6, 0, 1.0, 0.3)


def test_rate_report_bounds_invariant():
    with pytest.raises(ValueError):
        rates.RateReport("x", rate=2.0, lower=0.0, upper=1.0)
