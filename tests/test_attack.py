"""Attack strategy and guess-counting tests."""
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from guesswork_lab import attack
from guesswork_lab import experiments as ex
from guesswork_lab import hashmodel as hm
from guesswork_lab import rng
from guesswork_lab.rates import expected_guesses_per_bin


def constant_table(m, n, value):
    return hm.TableHash(m=m, n=n, table=np.full(1 << n, value, dtype=np.uint32))


def target_mask(m, bins):
    """Boolean mask over the 2^m bins, True on the given ones."""
    mask = np.zeros(1 << m, dtype=bool)
    mask[list(bins)] = True
    return mask


class TestOnlineAttack:
    def test_constant_table_first_guess(self):
        t = constant_table(3, 6, 5)
        for strat in (attack.ascending(), attack.permutation(1),
                      attack.descending_probability(0.2)):
            assert attack.online_attack(t, 5, strat).guesses == 1

    def test_single_preimage_ascending(self):
        table = np.zeros(64, dtype=np.uint32)
        table[7] = 3
        t = hm.TableHash(m=2, n=6, table=table)
        res = attack.online_attack(t, 3, attack.ascending())
        assert res.guesses == 8 and res.success

    def test_zero_on_failure(self):
        t = constant_table(2, 6, 0)
        res = attack.online_attack(t, 3, attack.ascending())
        assert res.guesses == 0 and not res.success

    def test_budget_respected(self):
        table = np.zeros(64, dtype=np.uint32)
        table[40] = 1
        t = hm.TableHash(m=1, n=6, table=table)
        assert attack.online_attack(t, 1, attack.ascending(), budget=16).success is False
        assert attack.online_attack(t, 1, attack.ascending(), budget=41).guesses == 41

    def test_keyed_mean_matches_truncated_geometric(self):
        trials = 3000
        acc = attack.GuessAccumulator()
        for trial in range(trials):
            model = hm.KeyedHashModel(m=6, n=24, p=0.3, seed=rng.derive_seed(404, trial))
            res = attack.online_attack(model, (1 << 6) - 1, attack.ascending())
            acc.add(res.guesses, res.success)
        est = acc.estimate()
        theory = expected_guesses_per_bin(6, 24, 1.0, 0.3)
        assert abs(est.mean - theory) <= 3.0 * est.half_width_95 / 1.96


class TestOfflineAttackAny:
    def test_all_bins_first_guess(self):
        t = hm.sample_table_hash(3, 8, 0.3, seed=2)
        res = attack.offline_attack_any(t, range(8), attack.ascending())
        assert res.guesses == 1

    def test_single_bin_reduces_to_online(self):
        t = hm.sample_table_hash(4, 10, 0.3, seed=3)
        strat = attack.permutation(99)
        a = attack.online_attack(t, 9, strat)
        b = attack.offline_attack_any(t, [9], strat)
        assert (a.guesses, a.success) == (b.guesses, b.success)

    def test_coupled_any_never_slower_than_single(self):
        t = hm.sample_table_hash(4, 10, 0.3, seed=4)
        bins = [15, 14, 7]
        for seed in range(50):
            strat = attack.permutation(seed)
            single = attack.online_attack(t, 15, strat)
            any_res = attack.offline_attack_any(t, bins, strat)
            assert any_res.guesses <= single.guesses

    def test_empty_set_rejected(self):
        t = hm.sample_table_hash(3, 8, 0.3, seed=2)
        with pytest.raises(ValueError):
            attack.offline_attack_any(t, [], attack.ascending())

    @pytest.mark.parametrize("bins", [[-1], [2, -1], [8], [0, 8]])
    def test_bins_outside_the_range_rejected(self, bins):
        # -1 used to wrap around to bin 2^m - 1 of the target mask
        for h in (hm.sample_table_hash(3, 8, 0.3, seed=2), hm.KeyedHashModel(m=3, n=8, p=0.3, seed=2)):
            with pytest.raises(ValueError):
                attack.offline_attack_any(h, bins, attack.ascending())
            with pytest.raises(ValueError):
                attack.online_attack(h, bins[-1], attack.ascending())


class TestPermutationAverageExact:
    def test_enumeration_n3_l1(self):
        # single success over 3 slots: positions equally likely
        mean = np.mean([pos + 1 for pos in range(3)])
        assert attack.permutation_average_exact(3, 1) == mean == 2.0

    def test_all_succeed(self):
        assert attack.permutation_average_exact(9, 9) == 1.0

    def test_enumeration_n7_l3(self):
        total = 1 << 7
        first = []
        for positions in itertools.combinations(range(7), 3):
            first.append(min(positions) + 1)
        assert attack.permutation_average_exact(7, 3) == pytest.approx(
            float(np.mean(first)), abs=1e-12
        )

    def test_failure_convention(self):
        assert attack.permutation_average_exact(16, 0) == 0.0


class TestBrokenHashMoment:
    def test_uniform_mean_rank(self):
        dist = hm.exact_bernoulli_distribution(6, 0.5)
        assert attack.broken_hash_moment(dist, 1.0) == pytest.approx(
            (2 ** 6 + 1) / 2.0, rel=1e-12
        )

    def test_point_mass(self):
        dist = np.eye(8)[5]
        for rho in (0.0, 1.0, 2.0):
            assert attack.broken_hash_moment(dist, rho) == 1.0

    def test_exact_bernoulli_rate_approaches_renyi(self):
        # per-m rates carry big subexponential factors; they must increase
        # toward H_{1/2}(0.25) and the m-slope lands close to it
        target = 0.8999686269529916
        points = []
        for m in (8, 10, 12, 14):
            dist = hm.exact_bernoulli_distribution(m, 0.25)
            points.append((m, math.log2(attack.broken_hash_moment(dist, 1.0))))
        rates_per_m = [y / m for m, y in points]
        assert rates_per_m == sorted(rates_per_m)
        assert all(r <= target for r in rates_per_m)
        slope, _, _ = ex.fit_line(points)
        assert abs(slope - target) <= 0.05

    def test_monotone_in_bias(self):
        values = [
            attack.broken_hash_moment(hm.exact_bernoulli_distribution(8, p), 1.0)
            for p in (0.5, 0.4, 0.3, 0.2, 0.1)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestFixedTableStrategyAverage:
    def test_vectorized_engine_matches_oracle(self):
        for seed in (0, 1, 2):
            t = hm.sample_table_hash(4, 10, 0.25, seed=seed)
            counts = np.bincount(t.table, minlength=16)
            target = int(counts.argmax())
            est = ex.permutation_mean_guesswork(t, target, samples=50_000, seed=seed)
            oracle = attack.permutation_average_exact(1 << 10, int(counts[target]))
            assert abs(est.mean - oracle) / oracle < 0.01

    @pytest.mark.parametrize("size,preimages", [(256, 2), (1024, 10), (1024, 51), (1024, 174)])
    def test_sparse_target_prefix_path(self, size, preimages):
        # hit rates of about 1%, 5% and 17%: most 48-draw prefixes find no
        # hit at 1%, a handful of the 40,000 at 17%, and those rows finish
        # in the continuation
        table = np.zeros(size, dtype=np.uint32)
        table[np.linspace(0, size - 1, preimages).astype(int)] = 1
        t = hm.TableHash(m=1, n=size.bit_length() - 1, table=table)
        est = ex.permutation_mean_guesswork(t, 1, samples=40_000, seed=5)
        oracle = attack.permutation_average_exact(size, preimages)
        assert abs(est.mean - oracle) <= 3.5 * est.half_width_95 / 1.96

    def test_engine_agrees_with_literal_op(self):
        t = hm.sample_table_hash(3, 8, 0.3, seed=6)
        counts = np.bincount(t.table, minlength=8)
        target = int(counts.argmax())
        acc = attack.GuessAccumulator()
        for seed in range(2000):
            res = attack.online_attack(t, target, attack.permutation(seed))
            acc.add(res.guesses, res.success)
        literal = acc.estimate()
        engine = ex.permutation_mean_guesswork(t, target, samples=50_000, seed=7)
        zgap = abs(literal.mean - engine.mean) / (literal.half_width_95 / 1.96)
        assert zgap < 3.5


class TestBiasedPasswordAttack:
    def test_true_password_guessed_first(self):
        # the lightest password comes first below theta = 1/2, the heaviest above
        for theta, pw in ((0.05, 0), (0.95, (1 << 16) - 1)):
            for seed in range(5):
                model = hm.KeyedHashModel(m=4, n=16, p=0.3, seed=seed)
                res = attack.biased_password_race(model, 15, theta, pw)
                assert res.guesses == 1 and res.arm == attack.ARM_PASSWORD

    def test_hash_arm_immediate_with_planted_first_guess(self):
        model = hm.KeyedHashModel(m=4, n=16, p=0.3, seed=2)
        model.overrides[0] = 15  # first guess under theta < 1/2
        for pw in (1, 0b1011, 1 << 15, (1 << 16) - 1):
            res = attack.biased_password_race(model, 15, 0.3, pw)
            assert res.guesses == 1 and res.arm == attack.ARM_HASH

    def test_password_arm_fraction_shifts_with_theta(self):
        trials = 1200
        place = 1 << np.arange(15, -1, -1)
        fractions = []
        for theta in (0.05, 0.15, 0.3, 0.45):
            # true passwords with bits i.i.d. Bernoulli(theta)
            passwords = (np.random.default_rng(22).random((trials, 16)) < theta) @ place
            wins = 0
            for trial, pw in enumerate(passwords.tolist()):
                model = hm.KeyedHashModel(
                    m=6, n=16, p=0.3, seed=rng.derive_seed(21, trial)
                )
                model.overrides[pw] = 63
                res = attack.biased_password_race(model, 63, theta, pw)
                assert res.success
                wins += res.arm == attack.ARM_PASSWORD
            fractions.append(wins / trials)
        assert fractions[0] > fractions[1] > fractions[2] > fractions[3]


class TestStrategyOrdering:
    def test_probability_descending_prefix(self):
        chunks = list(attack.strategy_chunks(attack.descending_probability(0.2), 4, 16))
        order = np.concatenate(chunks).tolist()
        assert order == [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15]

    def test_half_theta_is_ascending(self):
        chunks = list(attack.strategy_chunks(attack.descending_probability(0.5), 4, 16))
        assert np.concatenate(chunks).tolist() == list(range(16))

    def test_permutation_is_permutation(self):
        for n in (8, 16):
            chunks = list(attack.strategy_chunks(attack.permutation(3), n, 1 << n))
            seen = np.concatenate(chunks)
            assert sorted(seen.tolist()) == list(range(1 << n))

    def test_small_permutation_orders_equally_likely(self):
        # every permutation is served lazily, 4 candidates too: each of
        # the 24 orders should come up 500 times in 12,000 seeds
        counts = {}
        for seed in range(12_000):
            chunks = attack.strategy_chunks(attack.permutation(seed), 2, 4)
            order = tuple(np.concatenate(list(chunks)).tolist())
            counts[order] = counts.get(order, 0) + 1
        assert sorted(counts) == sorted(itertools.permutations(range(4)))
        assert stats.chisquare(list(counts.values())).pvalue > 1e-3

    def test_small_order_draws_few_words(self, monkeypatch):
        # a draw is sized by the candidates left, not by the chunk, and a
        # scan that stops at its first chunk draws one batch
        sizes, key_draws = [], rng.key_draws

        def counted(key, start, count, n):
            sizes.append(count)
            return key_draws(key, start, count, n)

        monkeypatch.setattr(rng, "key_draws", counted)
        for seed in range(200):
            sizes.clear()
            order = np.concatenate(list(attack.strategy_chunks(attack.permutation(seed), 2, 4)))
            assert sorted(order.tolist()) == [0, 1, 2, 3]
            assert sum(sizes) <= 64
        sizes.clear()
        next(attack.strategy_chunks(attack.permutation(5), 18, 1 << 18))
        assert sizes == [attack._CHUNK0]

    def test_order_ignores_chunk_sizes(self, monkeypatch):
        # every draw is keyed by its counter and the tail starts at a fixed
        # count, so tiny chunks serve the same orders, tails included
        cases = [(1, 4, 16), (2, 10, 1 << 10), (3, 14, 5000)]

        def orders():
            return [np.concatenate(list(attack.strategy_chunks(attack.permutation(s), n, b))) for s, n, b in cases]

        before = orders()
        monkeypatch.setattr(attack, "_CHUNK0", 3)
        monkeypatch.setattr(attack, "_CHUNK_CAP", 7)
        for got, expect in zip(orders(), before):
            assert np.array_equal(got, expect)

    def test_lazy_permutation_no_repeats(self):
        chunks = list(attack.strategy_chunks(attack.permutation(4), 18, 50_000))
        seen = np.concatenate(chunks)
        assert seen.size == 50_000
        assert np.unique(seen).size == seen.size

    @pytest.mark.parametrize("theta", [0.2, 0.8])
    def test_descending_chunks_cross_cached_prefix(self, theta):
        # 300,000 indices run past the cached 2^17-index prefix into the
        # resumed walk; theta > 1/2 walks the weight layers from n down
        n, budget = 23, 300_000
        chunks = list(attack.strategy_chunks(attack.descending_probability(theta), n, budget))
        assert [c.size for c in chunks[:-1]] == [2048] * (len(chunks) - 1)
        full = (1 << n) - 1
        expect = []
        for k in range(n + 1):
            layer = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(n), k))
            expect.extend(layer if theta < 0.5 else sorted(full ^ v for v in layer))
            if len(expect) >= budget:
                break
        assert np.concatenate(chunks).tolist() == expect[:budget]

    def test_descending_prefix_memory(self):
        # the cached 2^17 indices are unranked in blocks into one array
        tracemalloc.start()
        try:
            order = attack._descending_prefix.__wrapped__(23, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order.size == attack._ORDER_PREFIX and not order.flags.writeable
        assert peak < 3 << 20

    def test_permutation_past_cap_fails_loudly(self):
        # 2^27 candidates would need a 512 MiB seen buffer: refused before
        # any buffer is taken
        with pytest.raises(hm.ResourceCapError):
            next(attack.strategy_chunks(attack.permutation(1), 27, 10))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            attack.GuessStrategy("seeded-permutation")
        with pytest.raises(ValueError):
            attack.GuessStrategy("probability-descending")
        with pytest.raises(ValueError):
            attack.GuessStrategy("sideways")


class TestStrategyIrrelevanceSmall:
    def test_ascending_vs_permutations_key_averaged(self):
        target = 0b111100  # popcount-4 bin at m=6
        trials = 1500
        means = []
        sems = []
        for arm in range(5):
            acc = attack.GuessAccumulator()
            for trial in range(trials):
                model = hm.KeyedHashModel(
                    m=6, n=16, p=0.3, seed=rng.derive_seed(5000 + arm, trial)
                )
                strat = (
                    attack.ascending()
                    if arm == 0
                    else attack.permutation(rng.derive_seed(6000 + arm, trial))
                )
                res = attack.online_attack(model, target, strat)
                acc.add(res.guesses, res.success)
            est = acc.estimate()
            means.append(est.mean)
            sems.append(est.half_width_95 / 1.96)
        for i in range(5):
            for j in range(i + 1, 5):
                combined = math.hypot(sems[i], sems[j])
                assert abs(means[i] - means[j]) <= 3.0 * combined


def test_attack_result_failure_invariant():
    with pytest.raises(ValueError):
        attack.AttackResult(guesses=5, success=False)


class TestPrunedHitTest:
    """Keyed scans draw a bit only while the bits before it can still lead
    into the target set, looked up in stacked prefix tables; the hit test
    must equal the mask of full values."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_mask_of_full_eval(self, data):
        m = data.draw(st.sampled_from([1, 8, 14]))
        top = (1 << m) - 1
        kind = data.draw(st.sampled_from(["single", "several", "all"]))
        if kind == "all":
            bins = range(1 << m)
        elif kind == "single":
            bins = [data.draw(st.integers(0, top))]
        else:
            bins = data.draw(st.lists(st.integers(0, top), min_size=2, max_size=40))
        size = 3000
        start = data.draw(st.integers(0, (1 << 22) - size))
        p = data.draw(st.sampled_from([0.05, 0.3, 0.5]))
        seed = data.draw(st.integers(0, (1 << 64) - 1))
        idx = np.arange(start, start + size, dtype=np.uint64)
        mask = target_mask(m, bins)
        hits = rng.biased_bits(seed, p, m, idx, attack._prefix_tables(mask[None]), table=0)
        full = rng.biased_bits(seed, p, m, idx)
        assert hits.dtype == bool and hits.shape == idx.shape
        assert (hits == mask[full]).all()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rows_of_keys_match_one_key_at_a_time(self, data):
        m = data.draw(st.sampled_from([1, 6, 12]))
        top = (1 << m) - 1
        rows = data.draw(st.integers(1, 6))
        p = data.draw(st.sampled_from([0.05, 0.3, 0.5]))
        seeds = np.array(data.draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=rows, max_size=rows)),
                         dtype=np.uint64)
        start = data.draw(st.integers(0, 1 << 40))
        window = np.arange(start, start + data.draw(st.integers(1, 300)), dtype=np.uint64)
        full = np.stack([rng.biased_bits(int(seed), p, m, window) for seed in seeds])
        column = seeds[:, None]
        assert (rng.biased_bits(column, p, m, window) == full).all()

        # one target bin per row
        targets = np.array(data.draw(st.lists(st.integers(0, top), min_size=rows, max_size=rows)),
                           dtype=np.uint64)[:, None]
        hits = rng.biased_bits(column, p, m, window, target=targets.astype(np.int64))
        assert (hits == (full == targets)).all()

        # one target set per row, from stacked prefix tables
        sets = [data.draw(st.sets(st.integers(0, top), min_size=1, max_size=5)) for _ in range(rows)]
        masks = np.stack([target_mask(m, bins) for bins in sets])
        k = np.arange(rows)[:, None]
        hits = rng.biased_bits(column, p, m, window, attack._prefix_tables(masks), table=k)
        assert (hits == masks[k, full.astype(np.intp)]).all()


class TestTargetBits:
    """biased_bits with a target draws a bit only while the bits before it
    match the target's, and finishes few survivors with one 2-D draw: a
    pair is a hit exactly when its full value equals its row's target."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_full_draw(self, data):
        m = data.draw(st.sampled_from([1, 8, 14, 62]))
        p = data.draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.95]))
        rows = data.draw(st.integers(1, 4))
        width = data.draw(st.sampled_from([1, 7, rng._FINISH_ROWS, rng._FINISH_ROWS + 1, 2000]))
        seeds = np.array(data.draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=rows, max_size=rows)),
                         dtype=np.uint64)[:, None]
        start = data.draw(st.integers(0, 1 << 40))
        window = np.arange(start, start + width, dtype=np.uint64)
        full = rng.biased_bits(seeds, p, m, window)

        def some_target(r):
            # a value the row takes, so that some entries match, or any bin
            if data.draw(st.booleans()):
                return int(full[r, data.draw(st.integers(0, width - 1))])
            return data.draw(st.integers(0, (1 << m) - 1))

        if data.draw(st.booleans()):
            t = some_target(0)
            hits = rng.biased_bits(seeds, p, m, window, target=t)
            targets = np.full((rows, 1), t, dtype=np.uint64)
        else:
            targets = np.array([[some_target(r)] for r in range(rows)], dtype=np.uint64)
            hits = rng.biased_bits(seeds, p, m, window, target=targets.astype(np.int64))
        assert hits.dtype == bool and hits.shape == full.shape
        assert (hits == (full == targets)).all()

    @pytest.mark.parametrize("m", [1, 8, 40])
    def test_one_element_target_is_the_int(self, m):
        # one target serves every row, whatever the shape of its array
        seeds = np.arange(1, 6, dtype=np.uint64)[:, None] * np.uint64(rng.GOLDEN)
        window = np.arange(3000, dtype=np.uint64)
        full = rng.biased_bits(seeds, 0.3, m, window)
        t = int(full[2, 17])
        hits = rng.biased_bits(seeds, 0.3, m, window, target=t)
        assert hits.any() and (hits == (full == np.uint64(t))).all()
        for one in (np.array([t]), np.array([[t]]), np.array([t], dtype=np.uint64)):
            assert (rng.biased_bits(seeds, 0.3, m, window, target=one) == hits).all()

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_every_row_dies_at_bit_0(self, m):
        # p = 0 draws only 0 bits: a target with its top bit set matches nowhere
        seeds = np.array([[3], [5], [7]], dtype=np.uint64)
        window = np.arange(1000, dtype=np.uint64)
        top = 1 << (m - 1)
        for target in (top, np.array([[top], [(1 << m) - 1], [top]])):
            hits = rng.biased_bits(seeds, 0.0, m, window, target=target)
            assert hits.shape == (3, 1000) and not hits.any()
        if m <= 5:  # a mask over every bin
            mask = np.zeros((1, 1 << m), dtype=bool)
            mask[0, top:] = True
            hits = rng.biased_bits(7, 0.0, m, window, attack._prefix_tables(mask), table=0)
            assert not hits.any()

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("m", [2, 9, 40])
    def test_finish_at_and_above_the_survivor_cap(self, m, extra):
        """With each row's own target, exactly _FINISH_ROWS survivors after
        bit 0 take the 2-D finish; one more take another step first.  Either
        way every hit is found (and with one shared target or masks too)."""
        seeds = np.array([[11], [12]], dtype=np.uint64)
        wide = np.arange(1 << 12, dtype=np.uint64)
        full = rng.biased_bits(seeds, 0.5, m, wide)
        targets = full[:, :1].copy()  # each row's value at index 0: at least one hit per row
        alive = (full >> np.uint64(m - 1)) == (targets >> np.uint64(m - 1))
        # cut the window where the survivors of bit 0, over both rows, number the cap (+ 1)
        counts = np.cumsum(alive.sum(axis=0))
        width = int(np.searchsorted(counts, rng._FINISH_ROWS + extra)) + 1
        assert counts[width - 1] == rng._FINISH_ROWS + extra
        window, full = wide[:width], full[:, :width]
        for t in (targets.astype(np.int64), int(targets[0, 0])):
            hits = rng.biased_bits(seeds, 0.5, m, window, target=t)
            assert (hits == (full == np.broadcast_to(t, (2, 1)))).all()
        if m <= 9:  # masks over every bin
            masks = np.zeros((2, 1 << m), dtype=bool)
            masks[0, full[0, -3:].astype(np.intp)] = True
            masks[1, full[1, :2].astype(np.intp)] = True
            k = np.arange(2)[:, None]
            hits = rng.biased_bits(seeds, 0.5, m, window, attack._prefix_tables(masks), table=k)
            assert (hits == masks[k, full.astype(np.intp)]).all()

    @pytest.mark.parametrize("m", [1, 8, 62])
    def test_width_1_windows_with_row_targets(self, m):
        seeds = np.arange(1, 41, dtype=np.uint64)[:, None] * np.uint64(rng.GOLDEN)
        for at in (0, 12345):
            window = np.array([at], dtype=np.uint64)
            full = rng.biased_bits(seeds, 0.3, m, window)
            targets = full.copy()
            targets[::3] ^= np.uint64(1)  # every third row misses, in its last bit
            hits = rng.biased_bits(seeds, 0.3, m, window, target=targets.astype(np.int64))
            assert hits.shape == (40, 1)
            assert (hits == (full == targets)).all()
            assert hits.sum() == 40 - len(range(0, 40, 3))

    def test_target_out_of_range(self):
        idx = np.arange(10, dtype=np.uint64)
        with pytest.raises(ValueError):
            rng.biased_bits(3, 0.3, 4, idx, target=16)
        with pytest.raises(ValueError):
            rng.biased_bits(3, 0.3, 4, idx, target=np.array([[1], [-1]]))
        with pytest.raises(ValueError):
            rng.biased_bits(3, 0.3, 4, idx, target=np.array([16]))


class TestHitScratch:
    """Hit tests run in scratch taken from a free list and handed back:
    calls of any size, one after another, each equal the full draw."""

    #: (rows, width) of calls of 1, 65,536, 3, 70,000 and 5 pairs.  Calls
    #: of at most _FINISH_ROWS pairs need no scratch, 70,000 is past the
    #: kept scratch's size, and 65,536 takes the one scratch kept.
    SHAPES = [(1, 1), (4, 1 << 14), (3, 1), (7, 10_000), (1, 5)]

    @staticmethod
    def _hits_and_expect(kind, rows, width, at):
        p = 0.7 if kind == "rows-0.7" else 0.3
        m = 10
        seeds = (np.arange(rows, dtype=np.uint64)[:, None] + np.uint64(at)) * np.uint64(rng.GOLDEN)
        window = np.arange(at, at + width, dtype=np.uint64)
        full = rng.biased_bits(seeds, p, m, window)
        if kind == "scalar":
            t = int(full[0, width // 2])
            return rng.biased_bits(seeds, p, m, window, target=t), full == np.uint64(t)
        if kind == "tables":
            masks = np.zeros((rows, 1 << m), dtype=bool)
            masks[np.arange(rows), full[:, -1].astype(np.intp)] = True
            masks[:, 5] = True
            k = np.arange(rows)[:, None]
            hits = rng.biased_bits(seeds, p, m, window, attack._prefix_tables(masks), table=k)
            return hits, masks[k, full.astype(np.intp)]
        targets = full[:, width // 3, None].copy()  # one hit per row at least
        targets[1::2] = np.uint64(0b1011001110)
        return rng.biased_bits(seeds, p, m, window, target=targets.astype(np.int64)), full == targets

    def _run_sizes(self, kind, kept=False):
        for at, (rows, width) in enumerate(self.SHAPES):
            hits, expect = self._hits_and_expect(kind, rows, width, 1000 * at)
            assert hits.dtype == bool and hits.shape == (rows, width)
            assert (hits == expect).all() and hits.any()
            assert len(rng._SCRATCH_FREE) == (kept or at >= 1)

    @pytest.mark.parametrize("kind", ["scalar", "rows-0.3", "rows-0.7", "tables"])
    def test_sizes_in_turn_match_full_draw(self, kind, monkeypatch):
        monkeypatch.setattr(rng, "_SCRATCH_FREE", [])
        self._run_sizes(kind)
        (kept,) = rng._SCRATCH_FREE
        assert kept.ok.size == rng._SCRATCH_CAP

    def test_raising_call_hands_scratch_back(self, monkeypatch):
        monkeypatch.setattr(rng, "_SCRATCH_FREE", [])
        seeds = np.arange(1, 3, dtype=np.uint64)[:, None]
        window = np.arange(3000, dtype=np.uint64)
        with pytest.raises(ValueError):  # three targets cannot broadcast over two rows
            rng.biased_bits(seeds, 0.3, 8, window, target=np.array([[1], [2], [3]]))
        assert len(rng._SCRATCH_FREE) == 1
        self._run_sizes("rows-0.3", kept=True)


class TestKeyedScan:
    """Rows that each hash under their own key scan as each would alone:
    the first index whose full value hits the row's bin or set, or whose
    special decides."""

    @pytest.mark.parametrize("offline", [False, True])
    def test_rows_match_full_values(self, offline, monkeypatch):
        m, n, p, rows = 4, 11, 0.3, 9
        keys = rng.words(5, np.arange(rows, dtype=np.uint64), rng.LANE_KEY)
        gen = np.random.default_rng(3)
        targets = gen.integers(0, 1 << m, size=(rows, 3) if offline else rows)
        specials = (gen.integers(0, 40, size=6).astype(np.uint64), np.array([0, 0, 2, 5, 5, 8]),
                    np.array([True, False, True, False, True, True]))
        monkeypatch.setattr(attack, "_STACK_BYTES", 1 << (m + 2))  # offline rows go in pairs
        guesses, first = attack.keyed_scan(attack.ascending(), n, 1 << n, keys, p, m, targets, specials)
        for r in range(rows):
            hits = np.isin(rng.biased_bits(int(keys[r]), p, m, np.arange(1 << n)), targets[r])
            for at, row, hit in zip(*specials):
                if row == r:
                    hits[at] = hit
            col = int(hits.argmax())
            assert (guesses[r], first[r]) == ((col + 1, col) if hits[col] else (0, 0))


class TestWindowSpecials:
    """A lockstep round finds every special index lying in its window
    (repeats allowed, several rows may share one); brute force agrees."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        keys = np.sort(np.array(data.draw(st.lists(st.integers(0, 60), max_size=30)), dtype=np.uint64))
        ascending = data.draw(st.booleans())
        if ascending:
            start = data.draw(st.integers(0, 60))
            window = np.arange(start, start + data.draw(st.integers(1, 20)), dtype=np.uint64)
        else:
            window = np.array(data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=20, unique=True)),
                              dtype=np.uint64)
        entries, cols = attack._window_specials(keys, window, ascending)
        expect = [(e, c) for e, k in enumerate(keys.tolist()) for c, w in enumerate(window.tolist()) if k == w]
        assert sorted(zip(entries.tolist(), cols.tolist())) == sorted(expect)


class TestScanGolden:
    """Guess counts recorded from the unpruned scan with sort-based dedup;
    the faster scan must reproduce them exactly.  The seeded-permutation
    pins were recorded again when permutations became counter-keyed."""

    def test_online_attack_guesses(self):
        asc, perm = [], []
        for k in range(12):
            model = hm.KeyedHashModel(m=8, n=18, p=0.3, seed=rng.derive_seed(99, k))
            asc.append(attack.online_attack(model, 0b11111100, attack.ascending()).guesses)
            strat = attack.permutation(rng.derive_seed(98, k))
            perm.append(attack.online_attack(model, 0b11111100, strat).guesses)
        assert asc == [2819, 372, 866, 8870, 689, 3967, 3461, 415, 2732, 3631, 833, 4]
        assert perm == [1567, 3763, 1179, 5118, 1453, 1835, 1356, 7661, 1087, 5056, 598, 588]

    def test_online_attack_near_exhaustion(self):
        guesses = []
        for k in range(6):
            model = hm.KeyedHashModel(m=5, n=15, p=0.3, seed=rng.derive_seed(97, k))
            strat = attack.permutation(rng.derive_seed(96, k))
            guesses.append(attack.online_attack(model, 0b11111, strat).guesses)
        assert guesses == [283, 367, 310, 1360, 210, 125]

    @pytest.mark.parametrize("n,budget,seed,digest", [
        (15, 1 << 15, 5, "ec5bc08fdfa3c05bc8e5be725e328300ce9b39b717f495882533a757d95fb2fb"),
        (18, 300_000, 6, "eb38acfb8f5325c41cf376474a0855dbaffef7f3b209d2935365cd8df4ac1a5e"),
    ])
    def test_permutation_stream(self, n, budget, seed, digest):
        chunks = list(attack.strategy_chunks(attack.permutation(seed), n, budget))
        order = np.concatenate(chunks).astype("<u8")
        assert hashlib.sha256(order.tobytes()).hexdigest() == digest

    def test_abandoned_scan_returns_a_clean_seen_buffer(self, monkeypatch):
        # two lazy scans at one n share the seen-buffer free list; one is
        # abandoned after its first chunk, as a scan stops at its first hit
        monkeypatch.setattr(attack, "_SEEN_FREE", {})
        a = attack.strategy_chunks(attack.permutation(1), 18, 1 << 18)
        b = attack.strategy_chunks(attack.permutation(2), 18, 1 << 18)
        head = [next(b)]
        next(a)
        head.append(next(b))
        a.close()
        interleaved = np.concatenate(head + list(b))
        free = attack._SEEN_FREE[1 << 18]
        assert len(free) == 2 and not any(buf.any() for buf in free)
        alone = np.concatenate(list(attack.strategy_chunks(attack.permutation(2), 18, 1 << 18)))
        assert np.array_equal(interleaved, alone)
        self.test_permutation_stream(
            18, 300_000, 6, "eb38acfb8f5325c41cf376474a0855dbaffef7f3b209d2935365cd8df4ac1a5e"
        )


class TestGuessAccumulatorSums:
    @pytest.mark.parametrize("values", [
        [0, 1, 2, 1 << 20, 0],
        [0, 1 << 31],
        [0, 1 << 31, (1 << 32) + 1, 1 << 40],
        [3, (1 << 32) + 1],
        [1 << 31] * 3,
        [1 << 40, 0, 0],
    ])
    def test_add_array_equals_python_int_sums(self, values):
        acc = attack.GuessAccumulator()
        acc.add_array(np.array(values, dtype=np.int64))
        assert acc.total == sum(values)
        assert acc.total_sq == sum(v * v for v in values)
        assert acc.failures == values.count(0)
        assert acc.count == len(values)
