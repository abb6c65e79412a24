"""Allocation and backdoor tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork_lab import allocation as al
from guesswork_lab import experiments as ex
from guesswork_lab import hashmodel as hm
from guesswork_lab.rates import ScenarioParams


class TestAllocateBins:
    def test_single_user_gets_all_ones(self):
        plan = al.allocate_bins(3, 0.3, 1)
        assert plan.users == ((1, hm.BinLabel(7, 3)),)

    def test_exhaustive_allocation(self):
        for p in (0.1, 0.3, 0.5):
            plan = al.allocate_bins(3, p, 8)
            assert sorted(b.bits for _, b in plan.users) == list(range(8))

    def test_types_stay_high_for_few_users(self):
        # 25 users at m=10 all fit inside the top three type shells
        plan = al.allocate_bins(10, 0.3, 25)
        assert sum(math.comb(10, k) for k in (10, 9, 8)) == 56 >= 25
        assert all(b.popcount >= 8 for _, b in plan.users)
        assert plan.min_type == 0.8

    def test_user_count_validation(self):
        with pytest.raises(ValueError):
            al.allocate_bins(3, 0.3, 0)
        with pytest.raises(ValueError):
            al.allocate_bins(3, 0.3, 9)

    def test_bins_distinct_and_least_likely_first(self):
        plan = al.allocate_bins(6, 0.25, 30)
        bits = [b.bits for _, b in plan.users]
        assert len(set(bits)) == 30
        pops = [b.popcount for _, b in plan.users]
        assert pops == sorted(pops, reverse=True)


def _collision_seed(model_args, plan, start=0):
    """Find a password seed whose install produces a collision."""
    for seed in range(start, start + 4000):
        model = hm.KeyedHashModel(**model_args)
        outcome = al.backdoor_install(model, plan, seed)
        if outcome.collision_count:
            return seed, outcome
    raise AssertionError("no collision found in seed range")


class TestBackdoorInstall:
    def test_single_user(self):
        model = hm.KeyedHashModel(m=4, n=12, p=0.3, seed=5)
        plan = al.allocate_bins(4, 0.3, 1)
        outcome = al.backdoor_install(model, plan, password_seed=1)
        assert len(outcome.planted) == 1
        assert outcome.collision_count == 0
        assert model.overrides == {outcome.planted[0][0]: 15}

    def test_eval_matches_final_bin(self):
        for seed in range(100):
            model = hm.KeyedHashModel(m=5, n=14, p=0.3, seed=seed)
            plan = al.allocate_bins(5, 0.3, 10)
            outcome = al.backdoor_install(model, plan, password_seed=seed + 7)
            for _, pw, final in outcome.assignments:
                assert model.eval_many(np.array([pw], dtype=np.uint64))[0] == final.bits

    def test_planted_indices_unique_and_match_overrides(self):
        model = hm.KeyedHashModel(m=6, n=10, p=0.3, seed=2)
        plan = al.allocate_bins(6, 0.3, 50)
        outcome = al.backdoor_install(model, plan, password_seed=3)
        planted_idx = [pw for pw, _ in outcome.planted]
        assert len(planted_idx) == len(set(planted_idx))
        assert len(model.overrides) == len(outcome.planted)

    def test_collision_keeps_first_writer_and_reassigns(self):
        plan = al.allocate_bins(4, 0.3, 14)
        seed, outcome = _collision_seed(dict(m=4, n=6, p=0.3, seed=11), plan)
        model = hm.KeyedHashModel(m=4, n=6, p=0.3, seed=11)
        outcome = al.backdoor_install(model, plan, seed)
        by_user = {uid: (pw, final) for uid, pw, final in outcome.assignments}
        original = dict(plan.users)
        assert outcome.reassigned
        for uid, final in outcome.reassigned:
            pw, recorded = by_user[uid]
            assert recorded == final
            # override belongs to the earlier, less likely claimant
            assert model.overrides[pw] == final.bits
            assert final.bits != original[uid].bits
            # reassignment never lands on a more likely bin
            assert final.popcount >= original[uid].popcount

    def test_collision_rate_matches_birthday_bound(self):
        runs, users, n = 300, 256, 16
        plan = al.allocate_bins(10, 0.3, users)
        total = 0
        for seed in range(runs):
            model = hm.KeyedHashModel(m=10, n=n, p=0.3, seed=seed)
            total += al.backdoor_install(model, plan, seed).collision_count
        expected_per_run = users * (users - 1) / 2 / (1 << n)
        expected = runs * expected_per_run
        assert abs(total - expected) <= 3.0 * math.sqrt(expected)

    def test_plants_trial_zero_of_an_allocated_experiment(self):
        # The backdoor at seed s draws the passwords of trial 0 of an
        # allocated experiment at seed s, and every user ends in its first
        # writer's bin.  28 users over 2^9 passwords: collisions are common.
        sc = ScenarioParams(s=0.6, p=0.3, m=6, n=9)
        users = sc.user_count()
        plan = al.allocate_bins(sc.m, sc.p, users)
        collided = 0
        for seed in range(40):
            cfg = ex.ExperimentConfig(scenario=sc, trials=100, seed=seed, mode="allocated-online")
            pw = ex._draw_passwords(cfg, np.zeros(1, dtype=np.uint64), users)
            finals = ex._plan_bits(cfg)[ex._first_writer(pw)][0].tolist()
            model = hm.KeyedHashModel(sc.m, sc.n, sc.p, seed=1)
            outcome = al.backdoor_install(model, plan, seed)
            assert [(x, b.bits) for _, x, b in outcome.assignments] == list(zip(pw[0].tolist(), finals))
            assert model.overrides == dict(zip(pw[0].tolist(), finals))
            collided += outcome.collision_count > 0
        assert collided >= 10

    def test_dimension_mismatch(self):
        model = hm.KeyedHashModel(m=4, n=12, p=0.3, seed=5)
        with pytest.raises(ValueError):
            al.backdoor_install(model, al.allocate_bins(5, 0.3, 2), 1)


class TestResolveCollisions:
    """First writer wins: every user of a password ends in the bin planned
    for its first drawer, so every final bin is a planned one; the sampled
    and scan engines' vectorised map names the same first writers."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_first_writer_wins(self, data):
        m = data.draw(st.integers(1, 6))
        users = data.draw(st.integers(1, min(1 << m, 12)))
        plan = al.allocate_bins(m, 0.3, users)
        planned = [b for _, b in plan.users]
        pool = data.draw(st.integers(1, 2 * users))  # few passwords: collisions are common
        drawn = st.lists(st.integers(0, pool - 1), min_size=users, max_size=users)
        pw = np.array(data.draw(st.lists(drawn, min_size=1, max_size=4)), dtype=np.int64)
        writer = ex._first_writer(pw)
        for row, first in zip(pw.tolist(), writer.tolist()):
            outcome = al.resolve_collisions(plan.users, row)
            assert [row.index(x) for x in row] == first
            assert [final for _, _, final in outcome.assignments] == [planned[w] for w in first]
            assert [(uid, x, planned[row.index(x)]) for (uid, _), x in zip(plan.users, row)] \
                == outcome.assignments
            assert all(final in planned for _, _, final in outcome.assignments)
            assert outcome.planted == [(x, planned[row.index(x)]) for x in dict.fromkeys(row)]
            assert outcome.reassigned == [
                (uid, planned[row.index(x)]) for i, ((uid, _), x) in enumerate(zip(plan.users, row))
                if row.index(x) < i
            ]
            assert outcome.collision_count == users - len(set(row))
