"""Hash model tests: keyed segments, tables, rankings."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from guesswork_lab import allocation as al
from guesswork_lab import hashmodel as hm
from guesswork_lab import rng


class TestBinLabel:
    def test_type_fraction(self):
        b = hm.BinLabel(0b1011, 4)
        assert b.popcount == 3
        assert b.type_fraction == 0.75

    def test_range_check(self):
        with pytest.raises(ValueError):
            hm.BinLabel(16, 4)
        with pytest.raises(ValueError):
            hm.BinLabel(-1, 4)


def eval_one(model, pw):
    return int(model.eval_many(np.array([pw], dtype=np.uint64))[0])


class TestKeyedHashEval:
    def test_override_precedence(self):
        plain = hm.KeyedHashModel(m=4, n=10, p=0.3, seed=1)
        idx = np.arange(1 << 10, dtype=np.uint64)
        vals = plain.eval_many(idx)
        pw = int(np.flatnonzero(vals != 0b1111)[0])
        model = hm.KeyedHashModel(m=4, n=10, p=0.3, seed=1, overrides={pw: 0b1111})
        got = model.eval_many(idx)
        assert got[pw] == 0b1111 and eval_one(model, pw) == 0b1111
        others = np.arange(idx.size) != pw
        assert (got[others] == vals[others]).all()

    def test_range_error(self):
        with pytest.raises(ValueError):
            hm.KeyedHashModel(m=4, n=10, p=0.3, seed=1, overrides={1 << 10: 0})
        with pytest.raises(ValueError):
            hm.KeyedHashModel(m=4, n=10, p=0.3, seed=1, overrides={5: 1 << 4})

    def test_deterministic_over_random_pairs(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            seed = int(gen.integers(0, 1 << 63))
            model = hm.KeyedHashModel(m=6, n=20, p=0.3, seed=seed)
            pws = gen.integers(0, 1 << 20, size=50)
            first = model.eval_many(pws.astype(np.uint64))
            second = np.array([eval_one(model, int(pw)) for pw in pws])
            assert (first == second).all()

    def test_unbiased_per_bit_mean(self):
        model = hm.KeyedHashModel(m=8, n=24, p=0.5, seed=777)
        vals = model.eval_many(np.arange(100_000, dtype=np.uint64))
        bit_means = [
            float(((vals >> np.uint64(j)) & np.uint64(1)).mean()) for j in range(8)
        ]
        assert 0.497 <= float(np.mean(bit_means)) <= 0.503

    def test_biased_all_ones_fraction(self):
        model = hm.KeyedHashModel(m=4, n=22, p=0.25, seed=4242)
        vals = model.eval_many(np.arange(1_000_000, dtype=np.uint64))
        frac = float((vals == 15).mean())
        expected = 0.25 ** 4
        sigma = math.sqrt(expected * (1 - expected) / 1_000_000)
        assert abs(frac - expected) <= 3 * sigma


class TestSampleTableHash:
    def test_shape_and_range(self):
        t = hm.sample_table_hash(2, 3, 0.5, seed=9)
        assert t.table.shape == (8,)
        assert int(t.table.max()) <= 3

    def test_uniform_chi_square_not_rejected(self):
        t = hm.sample_table_hash(4, 20, 0.5, seed=31337)
        counts = np.bincount(t.table, minlength=16)
        stat, _ = stats.chisquare(counts)
        # df=15 critical value at the 1e-3 level
        assert stat < stats.chi2.ppf(1.0 - 1e-3, 15)

    def test_distinct_seeds_differ(self):
        for seed in range(100):
            a = hm.sample_table_hash(3, 8, 0.3, seed=seed)
            b = hm.sample_table_hash(3, 8, 0.3, seed=seed + 1000)
            assert (a.table != b.table).any()

    def test_entries_are_the_keyed_models_values(self):
        # drawn in pieces; the keyed model (m < n) reads the same values
        t = hm.sample_table_hash(5, 17, 0.3, seed=12)
        key = rng.derive_seed(12, rng.LANE_TABLE)
        idx = np.arange(1 << 17, dtype=np.uint64)
        assert np.array_equal(t.table, rng.biased_bits(key, 0.3, 5, idx))
        assert np.array_equal(t.table, hm.KeyedHashModel(m=5, n=17, p=0.3, seed=key).eval_many(idx))

    def test_caps(self):
        with pytest.raises(hm.ResourceCapError):
            hm.sample_table_hash(4, 25, 0.3, seed=0)
        with pytest.raises(hm.ResourceCapError):
            hm.sample_table_hash(25, 26, 0.3, seed=0)


def fractions(t):
    """Exact fraction of a table's inputs mapped to each bin."""
    return np.bincount(t.table, minlength=1 << t.m) / float(1 << t.n)


class TestEffectiveDistribution:
    def test_constant_table(self):
        t = hm.TableHash(m=3, n=4, table=np.full(16, 5, dtype=np.uint32))
        dist = fractions(t)
        assert dist[5] == 1.0
        assert dist.sum() == 1.0

    def test_two_entry_table(self):
        t = hm.TableHash(m=1, n=1, table=np.array([0, 1], dtype=np.uint32))
        assert fractions(t).tolist() == [0.5, 0.5]

    def test_fractions_are_exact_counts(self):
        scaled = fractions(hm.sample_table_hash(4, 12, 0.3, seed=5)) * (1 << 12)
        assert np.allclose(scaled, np.round(scaled))

    def test_sampled_matches_bernoulli_cell(self):
        dist = fractions(hm.sample_table_hash(4, 20, 0.3, seed=77))
        expected = 0.3 ** 4
        sigma = math.sqrt(expected * (1 - expected) / (1 << 20))
        assert abs(dist[0b1111] - expected) <= 3 * sigma

    def test_convergence_to_key_distribution(self):
        exact = hm.exact_bernoulli_distribution(4, 0.3)
        medians = []
        for n in (12, 16, 20):
            gaps = []
            for seed in range(20):
                dist = fractions(hm.sample_table_hash(4, n, 0.3, seed))
                gaps.append(float(np.abs(dist - exact).max()))
            medians.append(float(np.median(gaps)))
        assert medians[0] > medians[1] > medians[2]


def ranking(m, p):
    """Every m-bit bin, least likely first: the full allocation plan."""
    return [b.bits for b in al.allocate_bins(m, p, 1 << m).bins()]


def layer_listing(width, heavy_first):
    """Brute force: the weight layers in order, each listed ascending."""
    weights = range(width, -1, -1) if heavy_first else range(width + 1)
    return [
        v for k in weights
        for v in sorted(sum(1 << i for i in c) for c in itertools.combinations(range(width), k))
    ]


class TestRankBins:
    def test_m2_order(self):
        # popcount descending, ascending numeric inside a class
        assert ranking(2, 0.25) == [3, 1, 2, 0]

    def test_first_is_all_ones(self):
        for m in (1, 2, 5, 8):
            for p in (0.1, 0.3, 0.49):
                assert al.allocate_bins(m, p, 1).bins()[0].bits == (1 << m) - 1

    def test_m3_leading_classes(self):
        assert ranking(3, 0.4)[:4] == [7, 3, 5, 6]

    def test_permutation_and_monotone_probability(self):
        for m, p in [(4, 0.3), (6, 0.45), (5, 0.5)]:
            order = ranking(m, p)
            assert sorted(order) == list(range(1 << m))
            probs = hm.exact_bernoulli_distribution(m, p)[order]
            # float rounding in exp(log) leaves ~1e-17 wiggle on exact ties
            assert (np.diff(probs) >= -1e-16).all()

    def test_half_bias_keeps_order(self):
        assert ranking(4, 0.5) == ranking(4, 0.3)

    def test_iterator_agrees_with_full_ranking(self):
        # brute force: popcount descending, then ascending value
        for m in (1, 3, 6, 10):
            expect = sorted(range(1 << m), key=lambda v: (-v.bit_count(), v))
            assert ranking(m, 0.3) == expect


class TestWeightLayerOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force_listing(self, data):
        width = data.draw(st.integers(0, 12))
        heavy_first = data.draw(st.booleans())
        listing = layer_listing(width, heavy_first)
        starts = hm.weight_layer_starts(width, heavy_first)
        # each layer's first and last rank, and ranks anywhere
        edges = [r for s in starts.tolist() for r in (s - 1, s) if r >= 0] + [len(listing) - 1]
        ranks = data.draw(st.lists(st.integers(0, len(listing) - 1), max_size=20)) + edges
        got = hm.weight_layer_order(width, heavy_first, np.array(ranks))
        assert got.tolist() == [listing[r] for r in ranks]
        weights = [v.bit_count() for v in listing]
        assert starts.tolist() == [weights.index(w) for w in range(width + 1)]

    @pytest.mark.parametrize("heavy_first", [False, True])
    def test_ends_of_the_width_62_order(self, heavy_first):
        full = (1 << 62) - 1
        got = hm.weight_layer_order(62, heavy_first, np.array([0, 1, 62, 63, full - 1, full]))
        light = [0, 1, 1 << 61, 3, full ^ 1, full]  # lightest: 0, then 1, 2, ..., 2^61, then 3
        heavy = [full, full ^ (1 << 61), full ^ 1, full ^ (3 << 60), 1 << 61, 0]
        assert got.tolist() == (heavy if heavy_first else light)

    def test_width_above_62_and_ranks_out_of_range_fail_loudly(self):
        with pytest.raises(ValueError):
            hm.weight_layer_order(63, False, np.arange(4))
        with pytest.raises(ValueError):
            hm.weight_layer_starts(63, True)
        with pytest.raises(ValueError):
            hm.weight_layer_order(4, True, np.array([16]))
        with pytest.raises(ValueError):
            hm.weight_layer_order(4, False, np.array([-1]))


class TestPreimageCount:
    def test_constant_table(self):
        t = hm.TableHash(m=2, n=5, table=np.full(32, 2, dtype=np.uint32))
        assert np.count_nonzero(t.table == 2) == 32
        assert np.count_nonzero(t.table == hm.BinLabel(1, 2).bits) == 0

    def test_two_entry(self):
        t = hm.TableHash(m=1, n=1, table=np.array([0, 1], dtype=np.uint32))
        assert np.count_nonzero(t.table == 0) == 1
        assert np.count_nonzero(t.table == 1) == 1

    def test_pigeonhole_mean(self):
        t = hm.sample_table_hash(8, 16, 0.25, seed=3)
        counts = [np.count_nonzero(t.table == b) for b in range(256)]
        assert sum(counts) == 1 << 16
        assert float(np.mean(counts)) == 256.0


def test_biased_bits_integer_threshold_matches_uniform_rule():
    # (h >> 11) < ceil(p * 2^53) must equal u < p for the 53-bit uniform
    for p in (0.3, 0.25, 0.5, 1e-6, 0.49999999):
        thr = int(rng.threshold_for(p)) >> 11
        assert thr == math.ceil(p * 2.0 ** 53)
        below = (thr - 1) * 2.0 ** -53
        at = thr * 2.0 ** -53
        assert below < p <= at or p == at


def test_biased_bits_edge_probabilities():
    idx = np.arange(1000, dtype=np.uint64)
    assert (rng.biased_bits(5, 0.0, 12, idx) == 0).all()
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        rng.biased_bits(5, 1.0, 12, idx)
    with pytest.raises(ValueError):
        rng.threshold_for(1.0)


def test_derive_seeds_matches_scalar_path():
    parts = [0, 1, 1 << 32, 1 << 63, (1 << 64) - 2]
    for root in (0, 7, (1 << 64) - 1):
        got = rng.derive_seeds(root, np.array(parts, dtype=np.uint64)).tolist()
        assert got == [rng.derive_seed(root, t) for t in parts]


def test_integers_below_is_high_word_of_product():
    idx = np.arange(2000, dtype=np.uint64)
    gen = np.random.default_rng(3)
    bound = np.concatenate([
        [1, 2, 3, (1 << 62) + 12345, (1 << 63) - 1],
        gen.integers(1, 1 << 62, size=1995, dtype=np.int64),
    ]).astype(np.uint64)
    got = rng.integers_below(99, idx, 5, bound)
    words = rng.words(99, idx, 5)
    expect = [(int(w) * int(b)) >> 64 for w, b in zip(words, bound)]
    assert got.tolist() == expect
    assert (got >= 0).all() and (got < bound.astype(object)).all()
