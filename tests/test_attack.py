"""Attack strategy and guess-counting tests."""
import functools
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


def served_order(chunks):
    """The guess order of strategy chunks: the first occurrences of their
    indices (a seeded permutation serves raw draws, repeats kept)."""
    raw = np.concatenate(list(chunks))
    _, at = np.unique(raw, return_index=True)
    return raw[np.sort(at)]


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


@pytest.mark.parametrize("call,message", [
    (lambda: attack.permutation_average_exact(0, 0), "total must be positive"),
    (lambda: attack.permutation_average_exact(4, 5), "preimages must lie"),
    (lambda: attack.broken_hash_moment(np.array([1.0]), -1.0), "rho must be"),
    (lambda: attack.EstimateWithCI(mean=1.0, half_width_95=-1.0, trials=1, failures=0), "nonnegative"),
    (lambda: attack.EstimateWithCI(mean=1.0, half_width_95=0.0, trials=1, failures=2), "failures must lie"),
    (lambda: attack.GuessAccumulator().estimate(), "no trials"),
], ids=["total", "preimages", "rho", "half-width", "failures", "empty-accumulator"])
def test_bad_arguments_fail_loudly(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

    def test_race_leaves_the_callers_overrides(self):
        model = hm.KeyedHashModel(m=4, n=16, p=0.3, seed=3)
        model.overrides[5] = 15
        overrides = model.overrides
        for pw in (1, 5, 9):
            attack.biased_password_race(model, 15, 0.3, pw)
            assert model.overrides is overrides and overrides == {5: 15}

    def test_planted_password_replaces_an_override_into_another_bin(self):
        for theta, pw in ((0.05, 0), (0.95, (1 << 16) - 1)):
            model = hm.KeyedHashModel(m=4, n=16, p=0.3, seed=4, overrides={pw: 3})
            res = attack.biased_password_race(model, 15, theta, pw)
            assert res.guesses == 1 and res.arm == attack.ARM_PASSWORD
            assert model.overrides == {pw: 3}

    def test_true_password_out_of_range(self):
        model = hm.KeyedHashModel(m=4, n=16, p=0.3, seed=4)
        for pw in (-1, 1 << 16):
            with pytest.raises(ValueError, match="out of range"):
                attack.biased_password_race(model, 15, 0.3, pw)


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
            order = served_order(chunks)
            assert sorted(order.tolist()) == list(range(1 << n))
            assert order.size < sum(c.size for c in chunks)  # the raw draws repeat

    def test_small_permutation_orders_equally_likely(self):
        # every permutation is served lazily, 4 candidates too: each of
        # the 24 orders should come up 500 times in 12,000 seeds
        counts = {}
        for seed in range(12_000):
            chunks = attack.strategy_chunks(attack.permutation(seed), 2, 4)
            order = tuple(served_order(chunks).tolist())
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
            order = served_order(attack.strategy_chunks(attack.permutation(seed), 2, 4))
            assert sorted(order.tolist()) == [0, 1, 2, 3]
            assert sum(sizes) <= 64
        sizes.clear()
        next(attack.strategy_chunks(attack.permutation(5), 18, 1 << 18))
        assert sizes == [attack._CHUNK0]

    def test_order_ignores_chunk_sizes(self, monkeypatch):
        # every draw is keyed by its counter and the draws are cut at a fixed
        # distinct count, so tiny chunks serve the same raw draws, and so
        # the same orders, tails included
        cases = [(1, 4, 16), (2, 10, 1 << 10), (3, 14, 5000)]

        def draws():
            return [np.concatenate(list(attack.strategy_chunks(attack.permutation(s), n, b))) for s, n, b in cases]

        before = draws()
        monkeypatch.setattr(attack, "_CHUNK0", 3)
        monkeypatch.setattr(attack, "_CHUNK_CAP", 7)
        for got, expect, (_, _, budget) in zip(draws(), before, cases):
            assert np.array_equal(got, expect)
            assert served_order([got]).size == budget

    def test_lazy_permutation_no_repeats(self):
        # the order repeats no candidate, and the raw draws end at the
        # first occurrence of the budget's last candidate
        chunks = list(attack.strategy_chunks(attack.permutation(4), 18, 50_000))
        raw, order = np.concatenate(chunks), served_order(chunks)
        assert order.size == 50_000 and np.unique(order).size == order.size
        assert raw[-1] == order[-1] and np.count_nonzero(raw == raw[-1]) == 1

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
        # a scan of 2^22 candidates that reaches the tail would keep about
        # 360 MiB: refused before anything is drawn; 2^21 is served
        with pytest.raises(hm.ResourceCapError):
            next(attack.strategy_chunks(attack.permutation(1), 22, 10))
        assert next(attack.strategy_chunks(attack.permutation(1), 21, 10)).size == 10

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
    """Keyed scans look each value up in the stacked masks of their target
    sets; the hit test must equal the mask of full values."""

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
        hits = rng.biased_bits(seed, p, m, idx, mask[None], table=0)
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

        # one target set per row, from stacked masks
        sets = [data.draw(st.sets(st.integers(0, top), min_size=1, max_size=5)) for _ in range(rows)]
        masks = np.stack([target_mask(m, bins) for bins in sets])
        k = np.arange(rows)[:, None]
        hits = rng.biased_bits(column, p, m, window, masks, table=k)
        assert (hits == masks[k, full.astype(np.intp)]).all()


class TestTargetBits:
    """biased_bits with a target tests chunk 0's word against the target's
    interval and draws later chunks for the survivors alone: a pair is a
    hit exactly when its full value equals its row's target."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_full_draw(self, data):
        m = data.draw(st.sampled_from([1, 8, 14, 62]))
        p = data.draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.95]))
        rows = data.draw(st.integers(1, 4))
        width = data.draw(st.sampled_from([1, 7, 256, 257, 2000]))
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
        # at p = 0 every value is 0: a target with its top bit set matches nowhere
        seeds = np.array([[3], [5], [7]], dtype=np.uint64)
        window = np.arange(1000, dtype=np.uint64)
        top = 1 << (m - 1)
        for target in (top, np.array([[top], [(1 << m) - 1], [top]])):
            hits = rng.biased_bits(seeds, 0.0, m, window, target=target)
            assert hits.shape == (3, 1000) and not hits.any()
        if m <= 5:  # a mask over every bin
            mask = np.zeros((1, 1 << m), dtype=bool)
            mask[0, top:] = True
            hits = rng.biased_bits(7, 0.0, m, window, mask, table=0)
            assert not hits.any()

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

    #: (rows, width) of calls of 1, 65,536, 3, 70,000 and 5 pairs.  70,000
    #: is past the kept scratch's size, and every other call takes the one
    #: scratch kept.
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
            hits = rng.biased_bits(seeds, p, m, window, masks, table=k)
            return hits, masks[k, full.astype(np.intp)]
        targets = full[:, width // 3, None].copy()  # one hit per row at least
        targets[1::2] = np.uint64(0b1011001110)
        return rng.biased_bits(seeds, p, m, window, target=targets.astype(np.int64)), full == targets

    def _run_sizes(self, kind, kept=False):
        for at, (rows, width) in enumerate(self.SHAPES):
            hits, expect = self._hits_and_expect(kind, rows, width, 1000 * at)
            assert hits.dtype == bool and hits.shape == (rows, width)
            assert (hits == expect).all() and hits.any()
            assert len(rng._SCRATCH_FREE) == 1

    @pytest.mark.parametrize("kind", ["scalar", "rows-0.3", "rows-0.7", "tables"])
    def test_sizes_in_turn_match_full_draw(self, kind, monkeypatch):
        monkeypatch.setattr(rng, "_SCRATCH_FREE", [])
        self._run_sizes(kind)
        (kept,) = rng._SCRATCH_FREE
        assert kept.shape == (2, rng._SCRATCH_CAP) and kept.dtype == np.uint64

    @pytest.mark.parametrize("p", [0.0, 1e-18, 0.05, 0.3, 0.5, 0.95])
    @pytest.mark.parametrize("m", [1, 8, 14, 15, 28, 62])
    def test_hits_and_sets_equal_the_values(self, m, p, monkeypatch):
        # at every size in turn: one target, a target per row and, where the
        # 2^m values can be listed, a mask per row
        monkeypatch.setattr(rng, "_SCRATCH_FREE", [])
        for at, (rows, width) in enumerate(self.SHAPES):
            seeds = (np.arange(rows, dtype=np.uint64)[:, None] + np.uint64(at)) * np.uint64(rng.GOLDEN)
            window = np.arange(1000 * at, 1000 * at + width, dtype=np.uint64)
            full = rng.biased_bits(seeds, p, m, window)
            t = int(full[0, width // 2])
            assert (rng.biased_bits(seeds, p, m, window, target=t) == (full == np.uint64(t))).all()
            targets = full[:, width // 3, None].copy()
            targets[1::2] ^= np.uint64(1)  # odd rows: a value one bit away
            hits = rng.biased_bits(seeds, p, m, window, target=targets.astype(np.int64))
            assert (hits == (full == targets)).all()
            if m <= 15:
                masks = np.zeros((rows, 1 << m), dtype=bool)
                masks[np.arange(rows), full[:, -1].astype(np.intp)] = True
                masks[:, 1] = True
                k = np.arange(rows)[:, None]
                hits = rng.biased_bits(seeds, p, m, window, masks, table=k)
                assert (hits == masks[k, full.astype(np.intp)]).all()
            assert len(rng._SCRATCH_FREE) == 1

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
        monkeypatch.setattr(attack, "_STACK_BYTES", 1 << (m + 1))  # offline rows go in pairs
        guesses, first = attack.keyed_scan(attack.ascending(), n, 1 << n, keys, p, m, targets, specials)
        for r in range(rows):
            hits = np.isin(rng.biased_bits(int(keys[r]), p, m, np.arange(1 << n)), targets[r])
            for at, row, hit in zip(*specials):
                if row == r:
                    hits[at] = hit
            col = int(hits.argmax())
            assert (guesses[r], first[r]) == ((col + 1, col) if hits[col] else (0, 0))

    def test_permutation_rows_match_single_scans(self):
        # rows that share one permutation's raw draws, repeats included,
        # count the guesses each row counts alone
        m, n, p, rows = 3, 9, 0.3, 12
        keys = rng.words(6, np.arange(rows, dtype=np.uint64), rng.LANE_KEY)
        targets = np.arange(rows) % (1 << m)
        specials = (np.array([5, 5, 17, 300], dtype=np.uint64), np.array([0, 3, 3, 7]),
                    np.array([True, False, True, True]))
        for budget in (40, 470, None):
            strat = attack.permutation(8)
            guesses, first = attack.keyed_scan(strat, n, budget, keys, p, m, targets, specials)
            for r in range(rows):
                sel = specials[1] == r
                own = (specials[0][sel], np.zeros(sel.sum(), dtype=np.intp), specials[2][sel])
                alone = attack.keyed_scan(strat, n, budget, keys[r : r + 1], p, m, targets[r : r + 1], own)
                assert (guesses[r], first[r]) == (alone[0][0], alone[1][0])
            assert (guesses > 0).sum() > rows // 2


class TestWindowSpecials:
    """A lockstep round finds every special index lying in its window
    (repeats allowed, several rows may share one); brute force agrees.
    A permutation's window of raw draws may hold an index twice."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        keys = np.sort(np.array(data.draw(st.lists(st.integers(0, 60), max_size=30)), dtype=np.uint64))
        ascending = data.draw(st.booleans())
        if ascending:
            start = data.draw(st.integers(0, 60))
            window = np.arange(start, start + data.draw(st.integers(1, 20)), dtype=np.uint64)
        else:
            window = np.array(data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=20)), dtype=np.uint64)
        entries, cols = attack._window_specials(keys, window, ascending)
        expect = [(e, c) for e, k in enumerate(keys.tolist()) for c, w in enumerate(window.tolist()) if k == w]
        assert sorted(zip(entries.tolist(), cols.tolist())) == sorted(expect)


@functools.lru_cache(maxsize=None)
def reference_permutation(seed, n):
    """A seeded permutation's whole order from its draws and words alone:
    the first occurrences of rng.key_draws, one draw at a time, up to 9/10
    of the 2^n candidates (rounded down), then the rest sorted by their
    rng.words, ties by index."""
    size = 1 << n
    key = rng.derive_seed(seed, rng.LANE_PERMUTATION)
    order, seen, start = [], set(), 0
    while len(order) < size * 9 // 10:
        for v in rng.key_draws(key, start, 64, n).tolist():
            if v not in seen and len(order) < size * 9 // 10:
                seen.add(v)
                order.append(v)
        start += 64
    rest = [i for i in range(size) if i not in seen]
    words = rng.words(key, np.array(rest, dtype=np.uint64), rng.LANE_PERMUTATION).tolist()
    return tuple(order + [i for _, i in sorted(zip(words, rest))])


def reference_guesses(h, bins, order, budget):
    """1-based position of the first candidate in order[:budget] whose hash
    (overrides applied) lies in bins, or 0."""
    values = h.eval_many(np.array(order[:budget], dtype=np.uint64)).tolist()
    return next((g for g, v in enumerate(values, 1) if v in bins), 0)


class TestPermutationReference:
    """Seeded-permutation attacks guess in the order a brute-force reference
    builds from the draws alone, at budgets around the start of the tail.
    The one preimage of each planted bin sits first, last in the head,
    first in the tail or last of all."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_attacks_match_reference(self, n):
        size, head = 1 << n, (1 << n) * 9 // 10
        budgets = (1, head - 1, head, head + 1, size, None)
        m, m_table = min(8, n - 1), min(2, n - 1)
        full = (1 << m) - 1
        tail_hits = 0
        for k in range(2):
            seed = rng.derive_seed(61, n, k)
            order = reference_permutation(seed, n)
            sampled = hm.sample_table_hash(m_table, n, 0.3, seed=rng.derive_seed(63, n, k))
            for j in sorted({0, head - 1, head, size - 1}):
                planted = order[j]
                table = np.zeros(size, dtype=np.uint32)
                table[planted] = 1
                keyed = hm.KeyedHashModel(m=m, n=n, p=0.3, seed=rng.derive_seed(62, n, k, j),
                                          overrides={order[size // 2]: 0, planted: full})
                cases = [(keyed, full, {full, full - 1}), (hm.TableHash(m=1, n=n, table=table), 1, {1}),
                         (sampled, (1 << m_table) - 1, {0, (1 << m_table) - 1})]
                for h, target, bins in cases:
                    for budget in budgets:
                        strat = attack.permutation(seed)
                        online = attack.online_attack(h, target, strat, budget)
                        assert online.guesses == reference_guesses(h, {target}, order, budget)
                        offline = attack.offline_attack_any(h, bins, strat, budget)
                        assert offline.guesses == reference_guesses(h, bins, order, budget)
                        tail_hits += online.guesses > head
        assert tail_hits > 0


class TestScanGolden:
    """Guess counts recorded from the unpruned scan with sort-based dedup;
    the faster scan must reproduce them exactly.  The seeded-permutation
    pins were recorded again when permutations became counter-keyed, and
    the guess counts when the keyed hash became exact integer intervals."""

    def test_online_attack_guesses(self):
        asc, perm = [], []
        for k in range(12):
            model = hm.KeyedHashModel(m=8, n=18, p=0.3, seed=rng.derive_seed(99, k))
            asc.append(attack.online_attack(model, 0b11111100, attack.ascending()).guesses)
            strat = attack.permutation(rng.derive_seed(98, k))
            perm.append(attack.online_attack(model, 0b11111100, strat).guesses)
        assert asc == [289, 1654, 2018, 6529, 426, 516, 2122, 7458, 125, 1111, 4335, 12889]
        assert perm == [2680, 3743, 5853, 1517, 93, 3087, 1963, 222, 798, 984, 1480, 315]

    def test_online_attack_near_exhaustion(self):
        guesses = []
        for k in range(6):
            model = hm.KeyedHashModel(m=5, n=15, p=0.3, seed=rng.derive_seed(97, k))
            strat = attack.permutation(rng.derive_seed(96, k))
            guesses.append(attack.online_attack(model, 0b11111, strat).guesses)
        assert guesses == [1188, 333, 143, 141, 93, 308]

    @pytest.mark.parametrize("n,budget,seed,digest", [
        (15, 1 << 15, 5, "ec5bc08fdfa3c05bc8e5be725e328300ce9b39b717f495882533a757d95fb2fb"),
        (18, 300_000, 6, "eb38acfb8f5325c41cf376474a0855dbaffef7f3b209d2935365cd8df4ac1a5e"),
    ])
    def test_permutation_stream(self, n, budget, seed, digest):
        order = served_order(attack.strategy_chunks(attack.permutation(seed), n, budget)).astype("<u8")
        assert hashlib.sha256(order.tobytes()).hexdigest() == digest

    def test_interleaved_scans_serve_their_solo_orders(self):
        # two scans at one n run side by side and one is abandoned after
        # its first chunk, as a scan stops at its first hit: neither
        # changes the other's order, nor any later scan's
        a = attack.strategy_chunks(attack.permutation(1), 18, 1 << 18)
        b = attack.strategy_chunks(attack.permutation(2), 18, 1 << 18)
        head = [next(b)]
        first_a = next(a)
        head.append(next(b))
        a.close()
        interleaved = served_order(head + list(b))
        assert np.array_equal(interleaved, served_order(attack.strategy_chunks(attack.permutation(2), 18, 1 << 18)))
        assert np.array_equal(first_a, next(attack.strategy_chunks(attack.permutation(1), 18, 1 << 18)))
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

    def test_add_array_of_nothing(self):
        acc = attack.GuessAccumulator()
        acc.add_array(np.array([], dtype=np.int64))
        assert (acc.count, acc.failures, acc.total, acc.total_sq) == (0, 0, 0, 0)
