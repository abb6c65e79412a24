"""Experiment orchestration tests: engines, determinism, panels, sweeps."""
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guesswork_lab import allocation as al
from guesswork_lab import attack
from guesswork_lab import experiments as ex
from guesswork_lab import hashmodel as hm
from guesswork_lab import rng
from guesswork_lab.infotheory import binary_entropy
from guesswork_lab.rates import ScenarioParams

SAMPLED_MODES = [
    ("allocated-online", None),
    ("allocated-offline", None),
    ("unallocated-online", None),
    ("unallocated-offline", None),
    ("no-allocation-keyed", None),
    ("biased-password", 0.15),
]


def make_cfg(mode, m=6, n=14, p=0.3, s=0.9, theta=None, trials=600, seed=5, **kw):
    sc = ScenarioParams(s=s, p=p, m=m, n=n, theta=theta)
    return ex.ExperimentConfig(scenario=sc, trials=trials, seed=seed, mode=mode, **kw)


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_cfg("sideways")

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            make_cfg("allocated-online", trials=50)

    def test_sweep_shape(self):
        with pytest.raises(ValueError):
            make_cfg("allocated-online", m_sweep=(8, 10))
        with pytest.raises(ValueError):
            make_cfg("allocated-online", m_sweep=(8, 10, 10))

    def test_biased_needs_theta(self):
        with pytest.raises(ValueError):
            make_cfg("biased-password")

    def test_input_width_cap(self):
        make_cfg("allocated-online", m=20, n=62)
        with pytest.raises(ValueError):
            make_cfg("allocated-online", m=20, n=63)


class TestDeterminism:
    def test_same_config_bit_identical(self):
        cfg = make_cfg("allocated-online", trials=400)
        a = ex.run_experiment(cfg)
        b = ex.run_experiment(cfg)
        assert a == b

    def test_worker_count_invariant(self):
        for mode, theta in SAMPLED_MODES:
            for engine in ("sampled", "scan"):
                cfg = make_cfg(mode, theta=theta, trials=300, engine=engine)
                serial_log, parallel_log = io.StringIO(), io.StringIO()
                serial = ex.run_experiment(cfg, workers=1, trial_log=serial_log)
                parallel = ex.run_experiment(cfg, workers=3, trial_log=parallel_log)
                assert serial == parallel == ex.run_experiment(cfg), (mode, engine)
                assert serial_log.getvalue() == parallel_log.getvalue(), (mode, engine)

    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_block_split_invariant(self, mode, theta, monkeypatch):
        # s = 0.6 gives 28 users at m = 6, so n = 9 makes collision rows common
        default = ex.BLOCK_ELEMENTS
        for engine in ("sampled", "scan"):
            cfg = make_cfg(mode, s=0.6, n=9, theta=theta, trials=400, engine=engine)
            monkeypatch.setattr(ex, "BLOCK_ELEMENTS", default)
            whole, whole_log = ex._run_range(cfg, 0, cfg.trials, log=True)
            monkeypatch.setattr(ex, "BLOCK_ELEMENTS", 7 * ex._user_count(cfg))
            k = 150  # not a multiple of the 7-trial block
            head, head_log = ex._run_range(cfg, 0, k, log=True)
            tail, tail_log = ex._run_range(cfg, k, cfg.trials, log=True)
            assert head.merge(tail).estimate() == whole.estimate(), engine
            assert head_log + tail_log == whole_log, engine


def _brute_force_position(n, specials, ordinal):
    free = [i for i in range(1 << n) if i not in specials]
    return free[ordinal - 1]


class TestSampledOutcome:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_map_past_specials_matches_enumeration(self, data):
        n = data.draw(st.integers(1, 12))
        specials = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=min(40, (1 << n) - 1)))
        ordinal = data.draw(st.integers(1, (1 << n) - len(specials)))
        ordered = np.array(sorted(specials), dtype=np.int64)
        assert ex._map_past_specials(ordinal, ordered) == _brute_force_position(n, specials, ordinal)

    def test_map_past_specials_beyond_2_53(self):
        top = 1 << 60
        specials = np.arange(top - 4, top, dtype=np.int64)
        assert ex._map_past_specials(top, specials) == top + 3

    def test_batched_rows_match_scalar(self):
        gen = np.random.default_rng(2024)
        n = 10
        for size in (0, 1, 2, 5):
            for budget in (None, 1 << n, 40, 3):
                rows = 300
                # values from a narrow range so that repeats (collisions) occur
                specials = np.sort(gen.integers(0, 24, size=(rows, size)), axis=1)
                is_hit = gen.random((rows, size)) < 0.3
                all_hits = gen.random(rows) < 0.25
                is_hit[all_hits] = True
                p_hit = gen.choice([0.0, 1e-3, 0.02, 0.3, 1.0], size=rows)
                u = gen.random(rows)
                first = np.where(is_hit, specials, ex._NO_HIT).min(axis=1, initial=ex._NO_HIT)
                guesses, success = ex._first_hits(u, p_hit, specials, first, n, budget)
                # every special a hit: passing only the smallest is exact
                short_g, short_s = ex._first_hits(u, p_hit, first[:, None], first, n, budget)
                for r in range(rows):
                    hits = specials[r][is_hit[r]].tolist()
                    misses = specials[r][~is_hit[r]].tolist()
                    expect = ex._scan_outcome_sampled(u[r], n, p_hit[r], hits, misses, budget)
                    assert (int(guesses[r]), bool(success[r])) == expect
                    if all_hits[r] and size:
                        assert (int(short_g[r]), bool(short_s[r])) == expect

    def test_positions_beyond_2_53_exact(self):
        n, p, u = 62, 2.0 ** -60, 1.0 - math.exp(-1.0)
        ordinal = int(rng.geometric_from_uniform(np.array([u]), p)[0])  # about 2^60
        assert ordinal > 1 << 59
        specials = ordinal - np.array([[5, 4, 3, 2]], dtype=np.int64)  # all below ordinal - 1
        guesses, success = ex._first_hits(
            np.array([u]), np.array([p]), specials, np.array([ex._NO_HIT]), n
        )
        assert success[0] and int(guesses[0]) == ordinal + 4
        assert ex._scan_outcome_sampled(u, n, p, [], specials[0].tolist()) == (ordinal + 4, True)


class TestKernelsMatchScalarPath:
    """Each block kernel against the per-trial scalar path (resolve_collisions
    or the first-draw bin map, then _scan_outcome_sampled) on the same draws.
    At s = 0.6, m = 6, n = 9 there are 28 users, so most trials collide."""

    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    @pytest.mark.parametrize("budget", [None, 60])
    def test_kernel_rows(self, mode, theta, budget):
        cfg = make_cfg(mode, s=0.6, n=9, theta=theta, trials=300, budget=budget)
        sc = cfg.scenario
        trials = np.arange(40, 340, dtype=np.uint64)
        block = ex._SAMPLED_KERNELS[mode](cfg)(trials)
        users = ex._user_count(cfg)
        pw = ex._draw_passwords(cfg, trials, users)
        pick = ex._draw_pick(cfg, trials, users)
        u = rng.uniforms(cfg.seed, trials, ex._LANE_GEOM)
        online = mode not in ex._OFFLINE_MODES
        if mode.startswith("allocated"):
            plan = ex._plan_for(cfg)
            expect = [
                ex._allocated_row(sc, plan, pw[r].tolist(), int(pick[r]), u[r], online, budget)
                for r in range(trials.size)
            ]
        elif mode == "biased-password":
            rank = ex._draw_ranks(cfg, trials)
            p_hit = ex._pk(sc.m, sc.p, sc.m)
            expect = [
                (*ex._scan_outcome_sampled(u[r], sc.n, p_hit, [int(rank[r])], [], budget), (1 << sc.m) - 1)
                for r in range(trials.size)
            ]
        else:
            raw = ex._draw_user_bins(cfg, trials, users)
            expect = [
                ex._unallocated_row(sc, pw[r].tolist(), raw[r].tolist(), int(pick[r]), u[r], online, budget)
                for r in range(trials.size)
            ]
        got = list(zip(block.guesses.tolist(), block.success.tolist(), block.bins.tolist()))
        assert got == expect
        if users > 1:
            ordered = np.sort(pw, axis=1)
            assert ex._collision_rows(ordered).size > trials.size // 4


class TestEngineAgreement:
    """The sampled engine must match the literal scanning engine in
    distribution; means are compared by a z-test at matched parameters."""

    @pytest.mark.parametrize(
        "mode,theta",
        [
            ("allocated-online", None),
            ("allocated-offline", None),
            ("unallocated-online", None),
            ("unallocated-offline", None),
            ("no-allocation-keyed", None),
            ("biased-password", 0.15),
        ],
    )
    def test_scan_vs_sampled(self, mode, theta):
        sampled = ex.run_experiment(
            make_cfg(mode, theta=theta, trials=900, seed=31, engine="sampled")
        )
        scanned = ex.run_experiment(
            make_cfg(mode, theta=theta, trials=900, seed=77, engine="scan")
        )
        combined = math.hypot(sampled.half_width_95, scanned.half_width_95) / 1.96
        assert abs(sampled.mean - scanned.mean) <= 3.5 * combined


#: Literal-scan estimates (mean, half-width, failures) recorded from the
#: unpruned scan with sort-based dedup; the faster scan is bit-identical.
SCAN_GOLDEN = {
    "allocated-online": (735.915, 125.00038015323982, 0),
    "allocated-offline": (208.395, 32.74544970731769, 0),
    "unallocated-online": (54.62, 12.114806338854109, 0),
    "unallocated-offline": (13.105, 2.1071584981871703, 0),
    "no-allocation-keyed": (78.03, 23.775094744783186, 0),
    "biased-password": (219.155, 73.41599583517308, 0),
}


class TestScanGolden:
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_scan_engine_estimates(self, mode, theta):
        est = ex.run_experiment(make_cfg(mode, theta=theta, trials=200, seed=2024, engine="scan"))
        assert (est.mean, est.half_width_95, est.failures) == SCAN_GOLDEN[mode]

    def test_heavy_first_and_budgeted_scans(self):
        heavy = ex.run_experiment(make_cfg("biased-password", theta=0.7, trials=100, seed=11, engine="scan"))
        assert (heavy.mean, heavy.half_width_95, heavy.failures) == (704.63, 160.97924020161258, 0)
        capped = ex.run_experiment(
            make_cfg("no-allocation-keyed", m=8, n=18, trials=200, seed=3, engine="scan", budget=300)
        )
        assert (capped.mean, capped.half_width_95, capped.failures) == (65.355, 11.197957146420293, 43)

    @pytest.mark.parametrize("n,m,p,target,samples,expected", [
        (10, 4, 0.25, 0, 20_000, (2.94805, 0.033204326952706316, 0)),
        (8, 6, 0.3, 0, 20_000, (9.2061, 0.11536659510476377, 0)),
        (10, 4, 0.25, 15, 3000, (333.07733333333334, 8.683757130704102, 0)),
    ])
    def test_permutation_mean_guesswork(self, n, m, p, target, samples, expected):
        from guesswork_lab import hashmodel as hm

        table = hm.sample_table_hash(m, n, p, seed=17)
        est = ex.permutation_mean_guesswork(table, target, samples, seed=23)
        assert (est.mean, est.half_width_95, est.failures) == expected


#: sha256 of the scan engine's trial log for make_cfg(mode, trials=200,
#: seed=2024, engine="scan"), recorded from the per-trial scan engine,
#: without a budget and with one of 500 guesses (inside a lockstep window).
SCAN_LOG_SHA256 = {
    (None, "allocated-online"): "d885d2ab4940e1fcfb4f8d20ec73ca8237e11d2e5170a03015660069cf6d755a",
    (None, "allocated-offline"): "872772049a8e32fc3baf60ca2ecc584c3df35737a208df54949a4cce22f08eb1",
    (None, "unallocated-online"): "0aba06668c668c34c5b4629f7c6465598c6c6af8cfabc6d48e8fbbd6a5c4f02e",
    (None, "unallocated-offline"): "e84f7b2afca74696a554864ef5b741a9d79e2d83ac22bea86763ba30b3b63f09",
    (None, "no-allocation-keyed"): "a555f79e484376c37129a55ab9742ca48fb152fb7b335cf121f0c6b64762d0f7",
    (None, "biased-password"): "3d06fb8ef3afe726751b604c323a66eb0db6f801d721f7057c18a19707e3b198",
    (500, "allocated-online"): "7c527888c1908234f600c0fe07684853fc9fd051144e7a368bf499d479da93d6",
    (500, "allocated-offline"): "e21148a54602b5c0390d6136c3019584804abb92f821b2e1afece0db218abe1c",
    (500, "unallocated-online"): "7425395259c77b8aa95a8a8ed966cf1e1f0bf5bdbf869f79ae0f98a3188a66f6",
    (500, "unallocated-offline"): "e84f7b2afca74696a554864ef5b741a9d79e2d83ac22bea86763ba30b3b63f09",
    (500, "no-allocation-keyed"): "5cf745567bc90df0fb0c51d55cf847275edb0c23b87ef2fe8c94e04e59c1bfbc",
    (500, "biased-password"): "27aaa5468deefb223840156d74c06d96af7e27f8d9420c7ffebc61b51472bcfe",
}


class TestScanLogDigests:
    @pytest.mark.parametrize("budget", [None, 500])
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_trial_log_sha256(self, mode, theta, budget):
        buf = io.StringIO()
        ex.run_experiment(make_cfg(mode, theta=theta, trials=200, seed=2024, engine="scan", budget=budget), trial_log=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SCAN_LOG_SHA256[budget, mode]


def _literal_trial(cfg, plan, trial):
    """One trial as a literal experiment runs it: its own model, planted
    overrides, and one attack call.  (guesses, success, user, bin, arm)."""
    sc = cfg.scenario
    key_seed = rng.derive_seed(cfg.seed, trial, ex._LANE_KEY)
    pw_seed = rng.derive_seed(cfg.seed, trial, rng.LANE_PASSWORDS)
    model = hm.KeyedHashModel(sc.m, sc.n, sc.p, key_seed)
    pick = rng.generator(cfg.seed, trial, ex._LANE_PICK)
    if cfg.mode == "biased-password":
        true_pw = attack.draw_biased_password(pw_seed, sc.n, sc.theta)
        target = (1 << sc.m) - 1
        model.overrides[true_pw] = target
        res = attack.biased_password_race(model, target, sc.theta, true_pw, cfg.budget)
        return res.guesses, res.success, 1, target, res.arm or ""
    if plan is not None:
        finals = al.backdoor_install(model, plan, pw_seed).final_bins()
        user = plan.users[int(pick.integers(0, plan.user_count))][0]
        bins = [finals[uid].bits for uid, _ in plan.users]
    else:
        count = ex._user_count(cfg)
        passwords = rng.generator(pw_seed, rng.LANE_PASSWORDS).integers(0, 1 << sc.n, size=count)
        bins = model.eval_many(passwords.astype(np.uint64)).tolist()
        user = int(pick.integers(0, count)) + 1
    if cfg.mode in ex._OFFLINE_MODES:
        res = attack.offline_attack_any(model, bins, attack.ascending(), cfg.budget)
        return res.guesses, res.success, user, len(set(bins)), ""
    res = attack.online_attack(model, bins[user - 1], attack.ascending(), cfg.budget)
    return res.guesses, res.success, user, bins[user - 1], ""


class TestScanKernelMatchesAttacks:
    """The lockstep kernel's rows against one attack call per trial on the
    trial's own model.  s = 0.6, n = 9 gives 28 users whose passwords often
    collide (first writer wins in the allocated modes)."""

    @pytest.mark.parametrize("budget", [None, 300])
    @pytest.mark.parametrize("shape", [dict(), dict(s=0.6, n=9)])
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_rows(self, mode, theta, shape, budget):
        cfg = make_cfg(mode, theta=theta, trials=100, seed=41, engine="scan", budget=budget, **shape)
        trials = np.arange(20, 120, dtype=np.uint64)
        block = ex._scan_kernel(cfg)(trials)
        plan = ex._plan_for(cfg) if mode.startswith("allocated") else None
        expect = [_literal_trial(cfg, plan, t) for t in trials.tolist()]
        arms = block.arm.tolist() if block.arm is not None else [""] * trials.size
        got = list(zip(block.guesses.tolist(), block.success.tolist(), block.user.tolist(), block.bins.tolist(), arms))
        assert got == expect

    def test_biased_password_past_cached_prefix(self):
        # At theta = 0.45, n = 18 many true passwords rank beyond the 2^17
        # cached indices of the descending order; p^m makes hash hits rare.
        cfg = make_cfg("biased-password", m=14, n=18, theta=0.45, trials=100, seed=12, engine="scan")
        trials = np.arange(0, 10, dtype=np.uint64)
        block = ex._scan_kernel(cfg)(trials)
        assert (block.guesses > attack._ORDER_PREFIX).sum() >= 3
        expect = [_literal_trial(cfg, None, t) for t in trials.tolist()]
        got = list(zip(block.guesses.tolist(), block.success.tolist(), block.user.tolist(),
                       block.bins.tolist(), block.arm.tolist()))
        assert got == expect


class TestFirstOccurrenceMask:
    @pytest.mark.parametrize("size", [1, 7, 1024, (1 << 20) + 3])
    def test_matches_brute_force(self, size):
        rows = 2000 if size > 1024 else 20_000
        draws = np.random.default_rng(size).integers(0, size, size=(rows, 48))
        expect = np.zeros(draws.shape, dtype=bool)
        for r, row in enumerate(draws.tolist()):
            seen = set()
            for c, v in enumerate(row):
                expect[r, c] = v not in seen
                seen.add(v)
        assert (ex._first_occurrence_mask(draws, size) == expect).all()


class TestRunExperiment:
    def test_no_allocation_rate_near_one(self):
        est = ex.run_experiment(make_cfg("no-allocation-keyed", m=8, n=18, trials=4000))
        rate = math.log2(est.mean) / 8
        assert abs(rate - 1.0) <= 0.15

    def test_unbiased_allocated_rate_one_any_s(self):
        for s in (0.6, 0.9):
            est = ex.run_experiment(
                make_cfg("allocated-online", m=8, n=18, p=0.5, s=s, trials=3000)
            )
            assert abs(math.log2(est.mean) / 8 - 1.0) <= 0.1

    def test_failures_zero_at_adequate_width(self):
        for mode in ("allocated-online", "unallocated-offline", "no-allocation-keyed"):
            est = ex.run_experiment(make_cfg(mode, m=8, n=18, trials=2000))
            assert est.failures == 0

    def test_budget_produces_failures_counted_as_zero(self):
        cfg = make_cfg("no-allocation-keyed", m=8, n=18, trials=2000, budget=4)
        est = ex.run_experiment(cfg)
        assert est.failures > 0
        # zero-on-failure pulls the mean below the budget
        assert est.mean < 4

    def test_broken_hash_exact_uniform(self):
        cfg = make_cfg("broken-hash", m=8, n=18, p=0.5, trials=100)
        est = ex.run_experiment(cfg)
        assert est.mean == pytest.approx((2 ** 8 + 1) / 2.0, rel=1e-12)
        assert est.half_width_95 == 0.0

    def test_allocated_matches_exact_theory(self):
        cfg = make_cfg("allocated-online", m=8, n=20, trials=6000)
        est = ex.run_experiment(cfg)
        theory = ex.allocated_theory_log2_mean(8, 20, 0.3, cfg.scenario.user_count())
        assert abs(math.log2(est.mean) - theory) <= 0.1

    def test_trial_log_csv(self):
        buf = io.StringIO()
        cfg = make_cfg("allocated-online", trials=120)
        est = ex.run_experiment(cfg, trial_log=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "trial_seed,user,bin,strategy,guesses,success,arm"
        assert len(lines) == 121
        parts = lines[1].split(",")
        assert len(parts) == 7
        assert parts[3] == "ascending-index"
        assert est.trials == 120


class TestCiCalibration:
    def test_truncated_geometric_coverage(self):
        # single allocated user: the scan outcome is min over the planted
        # position and the natural geometric, with exactly known mean
        m, n, p = 6, 24, 0.3
        prob = p ** m
        size = float(1 << n)
        true_mean = 1.0 / prob - (1.0 - prob) / (size * prob * prob)
        covered = 0
        for run in range(200):
            cfg = make_cfg(
                "allocated-online", m=m, n=n, p=p, s=1.0, trials=150, seed=9000 + run
            )
            est = ex.run_experiment(cfg)
            covered += abs(est.mean - true_mean) <= est.half_width_95
        assert covered >= 180

    def test_trial_log_seeds_are_derived_per_trial(self):
        buf = io.StringIO()
        ex.run_experiment(make_cfg("no-allocation-keyed", trials=150, seed=2**64 - 3), trial_log=buf)
        seeds = [int(line.split(",")[0]) for line in buf.getvalue().splitlines()[1:]]
        assert seeds == [rng.derive_seed(2**64 - 3, t) for t in range(150)]

    def test_accumulator_merge_exact(self):
        from guesswork_lab.attack import GuessAccumulator

        a, b = GuessAccumulator(), GuessAccumulator()
        a.add(5, True)
        a.add(0, False)
        b.add(7, True)
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.total == 12
        assert merged.failures == 1


class TestSweep:
    def test_unbiased_allocated_slope_one(self):
        cfg = make_cfg(
            "allocated-online", m=8, n=18, p=0.5, s=0.7,
            trials=2500, m_sweep=(8, 10, 12),
        )
        result = ex.sweep_rate(cfg)
        assert abs(result.fitted_rate - 1.0) <= 0.05
        assert result.r_squared > 0.999

    def test_points_and_csv_shape(self):
        cfg = make_cfg(
            "no-allocation-keyed", m=6, n=14, trials=400, m_sweep=(6, 8, 10)
        )
        result = ex.sweep_rate(cfg)
        assert [m for m, _ in result.points] == [6, 8, 10]
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "m,log2_mean,ci"
        assert len(lines) == 4

    def test_fit_line_exact(self):
        slope, intercept, r2 = ex.fit_line([(1, 3.0), (2, 5.0), (3, 7.0)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


class TestConcentrationReport:
    def test_bound_holds_everywhere(self):
        cfg = make_cfg("allocated-online", m=10, n=26, trials=20000)
        full = math.log2(1.0 / 0.3)
        rows = ex.concentration_report(cfg, [f * full for f in (0.25, 0.5, 0.8, 1.0)])
        for row in rows:
            assert row.empirical <= row.bound + 3.0 * row.ci / 1.96

    def test_unbiased_matches_exact_geometric_cdf(self):
        cfg = make_cfg("allocated-online", m=10, n=14, p=0.5, s=0.8, trials=20000)
        rows = ex.concentration_report(cfg, [0.5, 0.8, 0.95])
        for row in rows:
            exact = ex.exact_geometric_cdf(10, row.l, 2.0 ** -10)
            sigma = max(row.ci / 1.96, 1e-9)
            assert abs(row.empirical - exact) <= 3.5 * sigma

    def test_l_range_check(self):
        cfg = make_cfg("allocated-online", m=10, n=26, trials=200)
        with pytest.raises(ValueError):
            ex.concentration_report(cfg, [3.0])


class TestMostLikelyPanel:
    def test_modal_type_is_nearest_realizable(self):
        cfg = make_cfg("unallocated-offline", m=10, n=22, trials=4000)
        panel = ex.most_likely_panel(cfg)
        assert panel.modal_weight == panel.nearest_weight == 3
        assert 0.2 <= panel.modal_frequency <= 0.35

    def test_conditional_means_track_theory(self):
        cfg = make_cfg("unallocated-offline", m=10, n=22, trials=6000)
        panel = ex.most_likely_panel(cfg)
        assert abs(math.log2(panel.online_conditional.mean) - panel.online_theory_log2) <= 0.25
        assert abs(math.log2(panel.offline_forced.mean) - panel.offline_theory_log2) <= 0.25
        assert panel.online_theory_log2 == pytest.approx(
            10 * binary_entropy(0.3), abs=1e-12
        )


class TestKeySizePanel:
    def test_reference_rows(self):
        rows = ex.keysize_panel([1.0, 1.5, 2.0])
        assert rows[0].p0 == pytest.approx(0.5, abs=1e-12)
        assert rows[0].ratio == 1.0
        assert rows[1].p0 == pytest.approx(0.1464466094067262, abs=1e-9)
        assert rows[2].p0 == pytest.approx(0.0669872981077807, abs=1e-9)
        for row in rows:
            assert row.roundtrip == pytest.approx(row.alpha, abs=1e-10)
            assert row.storage_ratio == pytest.approx(row.alpha, abs=1e-10)
            assert row.ratio == row.alpha

    def test_key_size_strings(self):
        row = ex.keysize_panel([2.0])[0]
        assert row.uniform_key_bits == "2*m*2^(2*m)"
        assert row.biased_key_bits == "m*2^(2*m)"


class TestWidthHelpers:
    def test_default_width_covers_exponent(self):
        for m in (6, 10, 14):
            n = ex.default_input_width(m, 0.3, 0.9)
            assert n >= 1.25 * m * (math.log2(1 / 0.3) + binary_entropy(0.9)) - 1
            assert n <= 62

    def test_realized_min_type(self):
        assert ex.realized_min_type(10, 0.3, 25) == 0.8
