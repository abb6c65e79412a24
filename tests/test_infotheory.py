"""Scalar primitive tests: frozen values plus property checks."""
import math

import pytest
from hypothesis import given, strategies as st

from guesswork_lab import infotheory as it


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert it.binary_entropy(0.5) == 1.0

    def test_deterministic_ends(self):
        assert it.binary_entropy(0.0) == 0.0
        assert it.binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        # 1 - D(0.2||0.5) = H(0.2)
        assert it.binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            it.binary_entropy(-0.1)
        with pytest.raises(ValueError):
            it.binary_entropy(1.1)

    @given(st.floats(min_value=0.5, max_value=1.0))
    def test_mirror_symmetry_bit_identical(self, q):
        # 1-q is exact for q in [1/2, 1], so the mirrored call must agree
        # to the bit.
        assert it.binary_entropy(q) == it.binary_entropy(1.0 - q)


class TestKlDivergence:
    def test_reference_cells(self):
        assert it.kl_divergence(0.1, 0.21) == pytest.approx(0.0622261805, abs=1e-9)
        assert it.kl_divergence(0.9, 0.21) == pytest.approx(1.5913968409, abs=1e-9)

    def test_self_divergence_zero(self):
        assert it.kl_divergence(0.3, 0.3) == 0.0

    def test_signaled_infinity_not_nan(self):
        assert it.kl_divergence(0.5, 0.0) == math.inf
        assert it.kl_divergence(0.5, 1.0) == math.inf
        assert it.kl_divergence(0.0, 0.0) == 0.0
        assert it.kl_divergence(1.0, 1.0) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_nonnegative_zero_iff_equal(self, q, p):
        d = it.kl_divergence(q, p)
        assert d >= -1e-12
        if q == p:
            assert d == 0.0
        if abs(q - p) > 1e-6:
            assert d > 0.0


class TestCrossEntropyIdentity:
    def test_at_one_is_log_inv_p(self):
        assert it.cross_entropy_identity(1.0, 0.45) == pytest.approx(
            1.15200309344505, abs=1e-12
        )

    def test_at_p_is_entropy(self):
        assert it.cross_entropy_identity(0.3, 0.3) == pytest.approx(
            it.binary_entropy(0.3), abs=1e-12
        )

    def test_frozen_value(self):
        assert it.cross_entropy_identity(0.5, 0.25) == pytest.approx(
            1.207518749639422, abs=1e-12
        )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_equals_entropy_plus_divergence(self, q, p):
        assert it.cross_entropy_identity(q, p) == pytest.approx(
            it.binary_entropy(q) + it.kl_divergence(q, p), abs=1e-12
        )

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.35, 0.5])
    def test_grid_max_at_one(self, p):
        # maximum over the type grid sits at q=1 (flat tie at p=1/2)
        m = 16
        grid = [k / m for k in range(m + 1)]
        values = [it.cross_entropy_identity(q, p) for q in grid]
        assert values[-1] == max(values)
        if p < 0.5:
            assert values[-1] > max(values[:-1])
        assert values[-1] == pytest.approx(math.log2(1.0 / p), abs=1e-12)


class TestRenyiEntropy:
    def test_uniform_all_orders_one(self):
        assert it.renyi_entropy_bernoulli(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_half_order(self):
        assert it.renyi_entropy_bernoulli(0.25, 1.0) == pytest.approx(
            0.8999686269529916, abs=1e-12
        )

    def test_shannon_limit(self):
        assert it.renyi_entropy_bernoulli(0.3, 0.0) == pytest.approx(
            it.binary_entropy(0.3), abs=1e-12
        )
        assert it.renyi_entropy_bernoulli(0.3, 1e-9) == pytest.approx(
            it.binary_entropy(0.3), abs=1e-6
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            it.renyi_entropy_bernoulli(0.0, 1.0)
        with pytest.raises(ValueError):
            it.renyi_entropy_bernoulli(1.0, 1.0)
        with pytest.raises(ValueError):
            it.renyi_entropy_bernoulli(0.3, -1.0)

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.01, max_value=8.0),
    )
    def test_dominates_shannon(self, p, rho):
        gap = it.renyi_entropy_bernoulli(p, rho) - it.binary_entropy(p)
        assert gap >= -1e-12
        if abs(p - 0.5) > 1e-3:
            assert gap > 0.0


class TestTypeClasses:
    def test_all_ones_is_p_power(self):
        assert it.type_class_probability(2, 1.0, 0.25) == pytest.approx(
            0.0625, abs=1e-15
        )

    def test_uniform_case(self):
        assert it.type_class_probability(4, 0.0, 0.5) == pytest.approx(
            0.0625, abs=1e-15
        )

    def test_log_space_matches_direct_product(self):
        got = it.type_class_probability(8, 0.5, 0.3)
        assert got == pytest.approx(0.3 ** 4 * 0.7 ** 4, rel=1e-12)

    def test_rejects_off_lattice_type(self):
        with pytest.raises(ValueError):
            it.type_class_probability(8, 0.15, 0.3)

    def test_size_bounds_bracket_binomial(self):
        for m, k in [(4, 2), (1, 1), (10, 3)]:
            lower, upper = it.type_class_size_bounds(m, k / m)
            assert lower <= math.comb(m, k) <= upper

    @pytest.mark.parametrize("m,p", [(6, 0.3), (10, 0.45), (12, 0.2), (16, 0.5)])
    def test_total_probability_over_types(self, m, p):
        total = sum(
            it.type_class_probability(m, k / m, p) * math.comb(m, k)
            for k in range(m + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestSolveBiasForAlpha:
    def test_no_bias_at_one(self):
        assert it.solve_bias_for_alpha(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_values(self):
        assert it.solve_bias_for_alpha(2.0) == pytest.approx(
            0.0669872981077807, abs=1e-12
        )
        assert it.solve_bias_for_alpha(1.5) == pytest.approx(
            0.1464466094067262, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            it.solve_bias_for_alpha(0.99)

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 3.0, 5.0])
    def test_roundtrip(self, alpha):
        p0 = it.solve_bias_for_alpha(alpha)
        assert 0.0 < p0 <= 0.5
        assert 1.0 + it.kl_divergence(0.5, p0) == pytest.approx(alpha, abs=1e-10)


def test_realizable_type_checks():
    assert it.is_realizable_type(10, 0.3)
    assert not it.is_realizable_type(8, 0.15)
    assert it.check_realizable_type(8, 0.125) == 1
    with pytest.raises(ValueError):
        it.check_realizable_type(8, 0.15)


def test_realizable_type_needs_a_positive_width():
    with pytest.raises(ValueError, match="m must be positive, got 0"):
        it.is_realizable_type(0, 0.5)
