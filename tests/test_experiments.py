"""Experiment orchestration tests: engines, determinism, panels, sweeps."""
import ast
import hashlib
import io
import itertools
import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from guesswork_lab import allocation as al
from guesswork_lab import attack
from guesswork_lab import experiments as ex
from guesswork_lab import hashmodel as hm
from guesswork_lab import rng
from guesswork_lab.infotheory import binary_entropy
from guesswork_lab.rates import ScenarioParams, expected_guesses_per_bin

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

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine 'literal'"):
            make_cfg("allocated-online", engine="literal")

    @pytest.mark.parametrize("engine", ["sampled", "scan"])
    def test_budget_below_one(self, engine):
        make_cfg("no-allocation-keyed", engine=engine, budget=1)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget"):
                make_cfg("no-allocation-keyed", engine=engine, budget=budget)


class TestSweepGuards:
    def test_sweep_needs_widths(self):
        with pytest.raises(ValueError, match="requires m_sweep"):
            ex.sweep_rate(make_cfg("allocated-online"))

    def test_zero_mean_cannot_be_fitted(self):
        # one guess a trial: no trial of 600 hits a bin of mass <= 0.1^5
        cfg = make_cfg("allocated-online", p=0.1, budget=1, m_sweep=(6, 8, 10))
        with pytest.raises(ValueError, match="mean guesswork at m=6 is zero"):
            ex.sweep_rate(cfg)

    def test_line_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two points"):
            ex.fit_line([(6.0, 1.0)])


def _mode_comparisons(tree):
    """Line numbers of comparisons against a mode's name, or a literal
    tuple, list or set holding one: decisions that should read Mode fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                names = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                if any(isinstance(c, ast.Constant) and c.value in ex.MODES for c in names):
                    yield node.lineno


class TestModesAreData:
    def test_no_module_compares_against_a_mode_name(self):
        for path in sorted(pathlib.Path(ex.__file__).parent.glob("*.py")):
            lines = list(_mode_comparisons(ast.parse(path.read_text())))
            assert not lines, f"{path.name}:{lines} compares against a mode name; read the Mode fields"

    def test_the_mode_comparison_check_sees_them(self):
        for code in ('cfg.mode == "biased-password"', 'if "allocated-online" != mode:\n    pass',
                     'mode in ("broken-hash", "exact")', 'x = a < b == "no-allocation-keyed"'):
            assert list(_mode_comparisons(ast.parse(code))), code
        for code in ("cfg.kind.biased", 'strat.kind == "ascending-index"', 'MODES["biased-password"]',
                     'replace(cfg, mode="no-allocation-keyed")', "mode in MODES"):
            assert not list(_mode_comparisons(ast.parse(code))), code


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


def _online_raw_bins(cfg, trials, pw, pick):
    """Unallocated-online's raw bins from the kernel's draws.  The attacked
    password's first writer holds its whole bin; every other user holds it
    where its bin word is below threshold_for(pk[w]), else a bin one bit
    away."""
    counters = ex._trial_users(trials, pw.shape[1])
    raw = ex._draw_user_bins(cfg, counters)
    pk, words = ex._pk_table(cfg.scenario), rng.words(cfg.seed, counters, rng.LANE_BINS)
    for r in range(trials.size):
        row = pw[r].tolist()
        writer = row.index(row[pick[r]])
        target = int(raw[r, writer])
        raw[r] = np.where(words[r] < rng.threshold_for(pk[target.bit_count()]), target, target ^ 1)
        raw[r, writer] = target
    return raw


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
        block = ex._users_kernel(cfg)(trials)
        users = ex._user_count(cfg)
        pw = ex._draw_passwords(cfg, trials, users)
        pick = ex._draw_pick(cfg, trials, users)
        u = rng.uniforms(cfg.seed, trials, rng.LANE_GEOM)
        online = not cfg.kind.offline
        if mode.startswith("allocated"):
            plan = al.allocate_bins(sc.m, sc.p, sc.user_count())
            expect = [
                ex._allocated_row(sc, plan, pw[r].tolist(), int(pick[r]), u[r], online, budget)
                for r in range(trials.size)
            ]
        elif mode == "biased-password":
            rank = ex._draw_biased(cfg, trials)
            p_hit = ex._pk_table(sc)[sc.m]
            expect = [
                (*ex._scan_outcome_sampled(u[r], sc.n, p_hit, [int(rank[r])], [], budget), (1 << sc.m) - 1)
                for r in range(trials.size)
            ]
            # the allocated path's one planted user, whose password is the rank
            plan = al.allocate_bins(sc.m, sc.p, 1)
            assert expect == [
                ex._allocated_row(sc, plan, [int(rank[r])], int(pick[r]), u[r], online, budget)
                for r in range(trials.size)
            ]
        else:
            if online:
                raw = _online_raw_bins(cfg, trials, pw, pick)
            else:
                raw = ex._draw_user_bins(cfg, ex._trial_users(trials, users))
            expect = [
                ex._unallocated_row(sc, pw[r].tolist(), raw[r].tolist(), int(pick[r]), u[r], online, budget)
                for r in range(trials.size)
            ]
        got = list(zip(block.guesses.tolist(), block.success.tolist(), block.bins.tolist()))
        assert got == expect
        if users > 1:
            ordered = np.sort(pw, axis=1)
            assert ex._collision_rows(ordered).size > trials.size // 4


class TestOnlineMatches:
    """Unallocated-online draws the attacked bin whole and gives every other
    user one bin word: below threshold_for(pk[w]) its bin is the target.
    TestKernelsMatchScalarPath holds the kernel to that rule row by row;
    these tests check the rule's law, its collision rows and its cost."""

    def test_match_frequency_is_the_bin_law(self):
        # m = 3: every target weight 0..3 is common; n = 12 keeps most users
        # their own first writer.  Seed and trials fixed before the first run.
        cfg = make_cfg("unallocated-online", m=3, n=12, s=0.6, seed=41, trials=20_000)
        sc, users = cfg.scenario, ex._user_count(cfg)
        trials = np.arange(cfg.trials, dtype=np.uint64)
        block = ex._users_kernel(cfg)(trials)
        pw = ex._draw_passwords(cfg, trials, users)
        own = ex._first_writer(pw) == np.arange(users)
        own[np.arange(trials.size), block.user - 1] = False  # the attacked user
        own &= pw != pw[np.arange(trials.size), block.user - 1][:, None]  # and its password
        words = rng.words(cfg.seed, ex._trial_users(trials, users), rng.LANE_BINS)
        weight = np.bitwise_count(block.bins)
        pk = ex._pk_table(sc)
        for w in range(sc.m + 1):
            law = sc.p ** w * (1.0 - sc.p) ** (sc.m - w)
            assert pk[w] == pytest.approx(law, rel=1e-12)
            sel = own & (weight == w)[:, None]
            hits = np.count_nonzero(words[sel] < rng.threshold_for(pk[w]))
            sigma = math.sqrt(law * (1.0 - law) / sel.sum())
            assert abs(hits / sel.sum() - law) <= 4.0 * sigma, w

    def test_tiny_width_rows(self):
        # 4 users over 16 passwords: a repeated password's later copy often
        # holds the target while its first writer does not, and the first
        # writer's bin must win.
        cfg = make_cfg("unallocated-online", m=3, n=4, s=0.5, seed=43, trials=2_000)
        sc, users = cfg.scenario, ex._user_count(cfg)
        trials = np.arange(cfg.trials, dtype=np.uint64)
        block = ex._users_kernel(cfg)(trials)
        pw = ex._draw_passwords(cfg, trials, users)
        pick = ex._draw_pick(cfg, trials, users)
        u = rng.uniforms(cfg.seed, trials, rng.LANE_GEOM)
        raw = _online_raw_bins(cfg, trials, pw, pick)
        expect = [
            ex._unallocated_row(sc, pw[r].tolist(), raw[r].tolist(), int(pick[r]), u[r], True, None)
            for r in range(trials.size)
        ]
        assert list(zip(block.guesses.tolist(), block.success.tolist(), block.bins.tolist())) == expect

    @pytest.mark.parametrize("mode", ["unallocated-online", "unallocated-offline"])
    def test_bits_drawn(self, mode, monkeypatch):
        # Online draws one whole bin per trial; offline reads every user's.
        # Every bin comes from biased_values, none from the keyed hash.
        drawn = []
        real = rng.biased_values

        def counted(seed, idx, *args, **kw):
            drawn.append(np.size(idx))
            return real(seed, idx, *args, **kw)

        def bitwise(*args, **kw):
            raise AssertionError("a sampled bin drawn by the keyed hash")

        cfg = make_cfg(mode, s=0.6, n=9)
        trials = np.arange(50, 250, dtype=np.uint64)
        monkeypatch.setattr(rng, "biased_values", counted)
        monkeypatch.setattr(rng, "biased_bits", bitwise)
        ex._users_kernel(cfg)(trials)
        users = ex._user_count(cfg)
        assert users > 1
        assert sum(drawn) == trials.size * (1 if mode.endswith("online") else users)

    def test_certain_weight(self):
        # At p = 1e-18, pk[0] rounds to 1, past threshold_for's range.
        block = ex._users_kernel(make_cfg("unallocated-online", p=1e-18))(np.arange(200, dtype=np.uint64))
        assert (block.bins == 0).all() and (block.guesses == 1).all()


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
            ("biased-password", 0.7),
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


def _layer_of(n, heavy_first, rank):
    """(weight, offset) of each rank: the layer of the weight-layer order
    that holds it, by weight_layer_starts, and its place inside."""
    starts = hm.weight_layer_starts(n, heavy_first)
    sizes = np.array([math.comb(n, w) for w in range(n + 1)])
    inside = (starts <= rank[:, None]) & (rank[:, None] < starts + sizes)
    assert (inside.sum(axis=1) == 1).all()
    weight = inside.argmax(axis=1)
    return weight, rank - starts[weight]


class TestBiasedDraws:
    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.7])
    def test_rank_lies_in_the_drawn_weight_layer(self, theta):
        # The descending order serves weight layers lightest first below
        # theta = 1/2 and heaviest first above it; at 1/2 it is ascending
        # index, so there the rank is the password itself.  The layer
        # holding a rank is its drawn Binomial(n, theta) weight.
        n, trials = 10, 3000
        cfg = make_cfg("biased-password", m=6, n=n, theta=theta, trials=trials)
        rank = ex._draw_biased(cfg, np.arange(trials, dtype=np.uint64))
        weight, _ = _layer_of(n, theta > 0.5, rank)
        order = np.concatenate(list(attack.strategy_chunks(attack.descending_probability(theta), n, 1 << n)))
        assert np.unique(weight).size >= 5
        assert abs(weight.mean() - n * theta) <= 4 * math.sqrt(n * theta * (1 - theta) / trials)
        if theta == 0.5:
            assert np.array_equal(order, np.arange(1 << n))
        else:
            assert np.array_equal(np.bitwise_count(order[rank]), weight)

    # The scan's true password is the value at rank layer start + offset:
    # the offset-th n-bit value of the drawn weight, ascending.

    @pytest.mark.parametrize("n", range(1, 11))
    def test_nth_of_weight_enumerates_each_layer(self, n):
        for w in range(n + 1):
            layer = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(n), w))
            for heavy_first in (False, True):
                rank = hm.weight_layer_starts(n, heavy_first)[w] + np.arange(len(layer))
                assert hm.weight_layer_order(n, heavy_first, rank).tolist() == layer

    def test_nth_of_weight_layer_ends_at_62_bits(self):
        n = 62
        for w in (0, 1, 2, 17, 31, 45, 61, 62):
            first = (1 << w) - 1  # the low w bits
            second = [first ^ (3 << (w - 1))] if 0 < w < n else []  # top low bit moved up one
            last = first << (n - w)  # the top w bits
            offsets = [0] + [1] * len(second) + [math.comb(n, w) - 1]
            for heavy_first in (False, True):
                rank = hm.weight_layer_starts(n, heavy_first)[w] + np.array(offsets)
                assert hm.weight_layer_order(n, heavy_first, rank).tolist() == [first] + second + [last]


class TestEnginesShareDraws:
    """Both engines draw each trial's passwords, attacked user, planted set
    and biased password alike, so they agree row by row on everything but
    the natural hit's position."""

    @pytest.mark.parametrize("shape", [dict(), dict(s=0.6, n=9)])
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES + [("biased-password", 0.7)])
    def test_rows(self, mode, theta, shape):
        trials = np.arange(10, 310, dtype=np.uint64)
        sampled = ex._users_kernel(make_cfg(mode, theta=theta, seed=9, **shape))(trials)
        scanned = ex._scan_kernel(make_cfg(mode, theta=theta, seed=9, engine="scan", **shape))(trials)
        assert np.array_equal(sampled.user, scanned.user)
        if not mode.startswith("unallocated") and mode != "no-allocation-keyed":
            assert np.array_equal(sampled.bins, scanned.bins)
        if mode == "biased-password":
            rank = ex._draw_biased(make_cfg(mode, theta=theta, seed=9, **shape), trials)
            assert (sampled.guesses <= rank + 1).all() and (scanned.guesses <= rank + 1).all()
            both = (sampled.arm == attack.ARM_PASSWORD) & (scanned.arm == attack.ARM_PASSWORD)
            assert both.sum() >= 10
            assert np.array_equal(sampled.guesses[both], scanned.guesses[both])


#: Literal-scan estimates (mean, half-width, failures), recorded once the
#: scan engine drew its inputs with the sampled engine's block functions,
#: and again when the keyed hash became exact integer intervals.
SCAN_GOLDEN = {
    "allocated-online": (768.28, 105.30456952128485, 0),
    "allocated-offline": (240.605, 30.999003053377642, 0),
    "unallocated-online": (80.835, 22.38396074862938, 0),
    "unallocated-offline": (12.925, 2.271327488009808, 0),
    "no-allocation-keyed": (55.81, 14.232293703811688, 0),
    "biased-password": (205.2, 48.35880877451855, 0),
}


class TestScanGolden:
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_scan_engine_estimates(self, mode, theta):
        est = ex.run_experiment(make_cfg(mode, theta=theta, trials=200, seed=2024, engine="scan"))
        assert (est.mean, est.half_width_95, est.failures) == SCAN_GOLDEN[mode]

    def test_heavy_first_and_budgeted_scans(self):
        heavy = ex.run_experiment(make_cfg("biased-password", theta=0.7, trials=100, seed=11, engine="scan"))
        assert (heavy.mean, heavy.half_width_95, heavy.failures) == (809.04, 168.14736757799238, 0)
        capped = ex.run_experiment(
            make_cfg("no-allocation-keyed", m=8, n=18, trials=200, seed=3, engine="scan", budget=300)
        )
        assert (capped.mean, capped.half_width_95, capped.failures) == (73.345, 10.8884019309931, 29)

    @pytest.mark.parametrize("n,m,p,target,samples,expected", [
        (10, 4, 0.25, 0, 20_000, (2.94745, 0.03315174901152164, 0)),
        (8, 6, 0.3, 0, 20_000, (10.283, 0.12987422163983248, 0)),
        (10, 4, 0.25, 15, 3000, (508.004, 10.550156405843085, 0)),
    ])
    def test_permutation_mean_guesswork(self, n, m, p, target, samples, expected):
        from guesswork_lab import hashmodel as hm

        table = hm.sample_table_hash(m, n, p, seed=17)
        est = ex.permutation_mean_guesswork(table, target, samples, seed=23)
        assert (est.mean, est.half_width_95, est.failures) == expected


#: sha256 of the scan engine's trial log for make_cfg(mode, trials=200,
#: seed=2024, engine="scan"), without a budget and with one of 500 guesses
#: (inside a lockstep window), recorded with the shared input draws and
#: the keyed hash's exact integer intervals.
SCAN_LOG_SHA256 = {
    (None, "allocated-online"): "3645e73f48117a4f5aff7999e2b56f07639dce0b31352ca4ccc00b34a78e2f10",
    (None, "allocated-offline"): "8269c7597b9f0d6335c7508d5bf0dbf940a989772f7afc554dbb88fcdc8709e0",
    (None, "unallocated-online"): "4cc0842bdc3ab12fb42c514a3405579eeeba1cf2c40e76355c980dc6c0b0d4e4",
    (None, "unallocated-offline"): "18f529d093eb99cc33ca5433e9da43ba0cd211b8dcaa331aa470e34b21d4e197",
    (None, "no-allocation-keyed"): "721ce04e475a16b7758b50d4d708c80dbb5d5453e63b83f310e3ee91a0ae0ee4",
    (None, "biased-password"): "7b58da7281f82efcddcd2692bf9f04e969ff87d30dc1e0e85754bb4cb7a5b5ce",
    (500, "allocated-online"): "76d1319f2908829299f0f64f0d14bab89a5555c9738adf51e86e61b69b6390bd",
    (500, "allocated-offline"): "5be7f46e9b88a4cd0dd443e275ea4e1d32d7caecc058f6faa0fea22e403d9bd6",
    (500, "unallocated-online"): "8f62378ab2d537cb68285b3e0e75b7c2138596e50def44dc104379d43b50248b",
    (500, "unallocated-offline"): "18f529d093eb99cc33ca5433e9da43ba0cd211b8dcaa331aa470e34b21d4e197",
    (500, "no-allocation-keyed"): "19b3cf4a56c5cf11bc5896af80c3d8042ff345cbac906a36a82db64b2f86c6ae",
    (500, "biased-password"): "3499b454d7ecf4a4100305824807fc0a22ab7c960395dd5b78a8d0da196eb7be",
}


class TestScanLogDigests:
    @pytest.mark.parametrize("budget", [None, 500])
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_trial_log_sha256(self, mode, theta, budget):
        buf = io.StringIO()
        ex.run_experiment(make_cfg(mode, theta=theta, trials=200, seed=2024, engine="scan", budget=budget), trial_log=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SCAN_LOG_SHA256[budget, mode]


#: sha256 of the sampled engine's trial log for make_cfg(mode, trials=600,
#: seed=2024) in two shapes: "plain" (3 users at m = 6, n = 14) and
#: "colliding" (s = 0.6, n = 9, budget 60: 28 users whose passwords mostly
#: collide, so most rows are collision rows).
SAMPLED_LOG_SHA256 = {
    ("plain", "allocated-online"): "7efc901e367ecf9f9b0e55b4f40c940e4e009ab1eac1da28cf16d0592687b6cb",
    ("plain", "allocated-offline"): "215eaf76fd9c8f51d0a983d1e2f4cb3975d380db7c467c9fab4d773ce060482a",
    ("plain", "unallocated-online"): "f07f926396f5097746900a3c86c22b08169533d44b82493b1d765d9ce562b2b4",
    ("plain", "unallocated-offline"): "a0b8642d691b88c453c137bf21d67696902e11fd695d1b00229bc0739b44e796",
    ("plain", "no-allocation-keyed"): "29ef421238a30aaa6e71d05e37d68d849aa4214638fc5b0fc4815df6d295bc24",
    ("plain", "biased-password"): "4c0a13ab7f444e93aefd97b9894e523deea1367461f0c8dfa9d91f15167d31f2",
    ("colliding", "allocated-online"): "8cdec2201cc25c8549bd540cc3bdd6a4decf6534159e5f28702569a2bbc69f29",
    ("colliding", "allocated-offline"): "88425767dc19513d8f61d165e026543a8d67ef41f415330c522ff996fa3308af",
    ("colliding", "unallocated-online"): "ed7b68d71c2d622ecfb82fe0ca1646c907449d6ad493ecf7153132124caf5d5a",
    ("colliding", "unallocated-offline"): "52ac100a1009886607694596de8634a21c4047cc965d8d1229da35551f649704",
    ("colliding", "no-allocation-keyed"): "a5a1c5b564ac394ffeb463bd2d2b4e44c9192b335712dd4cf0b79e997c0512f3",
    ("colliding", "biased-password"): "4a5ccf30dfc1db3103f872826a998763e589b6fe78c217b3fb6e658e65c4b63b",
}


class TestSampledLogDigests:
    @pytest.mark.parametrize("shape", ["plain", "colliding"])
    @pytest.mark.parametrize("mode,theta", SAMPLED_MODES)
    def test_trial_log_sha256(self, mode, theta, shape):
        extra = dict(s=0.6, n=9, budget=60) if shape == "colliding" else {}
        buf = io.StringIO()
        ex.run_experiment(make_cfg(mode, theta=theta, trials=600, seed=2024, **extra), trial_log=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SAMPLED_LOG_SHA256[shape, mode]


def _literal_trial(cfg, plan, trial):
    """One trial as a literal experiment runs it, from the draws both
    engines share: its own model, the first writers' planted overrides and
    one attack call.  (guesses, success, user, bin, arm)."""
    sc = cfg.scenario
    at = np.array([trial], dtype=np.uint64)
    model = hm.KeyedHashModel(sc.m, sc.n, sc.p, int(rng.words(cfg.seed, at, rng.LANE_KEY)[0]))
    if cfg.mode == "biased-password":
        rank = ex._draw_biased(cfg, at)
        weight, offset = (int(v[0]) for v in _layer_of(sc.n, sc.theta > 0.5, rank))
        values = np.arange(1 << sc.n)
        layer = values[np.bitwise_count(values) == weight]  # the weight's passwords, ascending
        true_pw = int(rank[0]) if sc.theta == 0.5 else int(layer[offset])
        target = (1 << sc.m) - 1
        model.overrides[true_pw] = target
        res = attack.biased_password_race(model, target, sc.theta, true_pw, cfg.budget)
        return res.guesses, res.success, 1, target, res.arm or ""
    count = ex._user_count(cfg)
    passwords = ex._draw_passwords(cfg, at, count)[0].tolist()
    user = int(ex._draw_pick(cfg, at, count)[0]) + 1
    if plan is not None:
        outcome = al.resolve_collisions(plan.users, passwords)
        for pw, b in outcome.planted:
            model.overrides[pw] = b.bits
        bins = [b.bits for _, _, b in outcome.assignments]
    else:
        bins = model.eval_many(np.array(passwords, dtype=np.uint64)).tolist()
    if cfg.kind.offline:
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
        sc = cfg.scenario
        plan = al.allocate_bins(sc.m, sc.p, sc.user_count()) if mode.startswith("allocated") else None
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


def _oracle_keys(seed, samples):
    """The stream keys of an oracle's first samples."""
    return rng.words(seed, np.arange(samples), rng.LANE_ORACLE)


class TestFirstHitGuesses:
    """The C04 oracle counts repeats only up to each row's first hit."""

    def test_replay_matches_brute_force(self):
        # a dense 16-entry table: repeats before the first hit are common
        table = hm.TableHash(m=2, n=4, table=np.array([1, 0, 2, 1, 0, 3, 0, 0, 2, 0, 1, 3, 0, 2, 0, 0]))
        target = 1  # 3 of 16 entries: just dense enough for 48 draws a row
        samples, seed = 3000, 31
        draws = rng.key_draws(_oracle_keys(seed, samples), 0, 48, 4)
        got = attack.first_hit_guesses(draws, table.table[draws] == target)
        expect = []
        for row in draws.tolist():
            seen, guesses = [], 0
            for v in row:
                if v not in seen:
                    seen.append(v)
                    if table.table[v] == target:
                        guesses = len(seen)
                        break
            expect.append(guesses)
        assert got.tolist() == expect
        first_col = (table.table[draws] == target).argmax(axis=1)
        assert np.count_nonzero(got < first_col + 1) > samples // 4
        assert (got > 0).all()  # so every sample's count is the replay's
        acc = attack.GuessAccumulator()
        acc.add_array(got)
        assert ex.permutation_mean_guesswork(table, target, samples, seed) == acc.estimate()


class TestFirstOccurrenceMask:
    """Only first occurrences count as guesses, at table sizes from 1 to
    past the old dedup bucket cap."""

    @pytest.mark.parametrize("size", [1, 7, 1024, (1 << 20) + 3])
    def test_matches_brute_force(self, size):
        rows = 2000 if size > 1024 else 20_000
        gen = np.random.default_rng(size)
        draws = gen.integers(0, size, size=(rows, 48))
        # a quarter of the rows repeat their first 12 draws, so repeats
        # precede the first hit at every size
        draws[::4, 12:24] = draws[::4, :12]
        hit_values = gen.random(size) < 1 / 24
        hit_values[0] = True
        hits = hit_values[draws]
        expect = []
        for row in draws.tolist():
            seen, guesses = set(), 0
            for v in row:
                if v not in seen:
                    seen.add(v)
                    if hit_values[v]:
                        guesses = len(seen)
                        break
            expect.append(guesses)
        got = attack.first_hit_guesses(draws, hits)
        assert got.tolist() == expect
        if size > 1:
            assert (got == 0).any() and (got < hits.argmax(axis=1) + 1).any()


def _scan_by_set(key, hit):
    """Reference scan of one oracle sample: its stream read 256 draws at
    a time, filtered to first occurrences one draw at a time."""
    n = hit.size.bit_length() - 1
    seen, start = set(), 0
    while True:
        for v in rng.key_draws(key, start, 256, n).tolist():
            if v not in seen:
                seen.add(v)
                if hit[v]:
                    return len(seen)
        start += 256


class TestPermutationContinuation:
    """A C04 oracle row whose prefix finds no hit is widened until its
    first hit."""

    @pytest.mark.parametrize("size", [16, 64, 1024])
    def test_matches_set_reference(self, size):
        hit = np.random.default_rng(size).random(size) < 4 / size
        hit[size - 1] = True
        keys = _oracle_keys(size, 100)
        got = ex._oracle_guesses(keys, hit)
        assert got.tolist() == [_scan_by_set(key, hit) for key in keys.tolist()]

    def test_continued_rows_keep_the_closed_form_mean(self, monkeypatch):
        # 180 of 1,024 entries: a share (1 - 180/1024)^16 = 4.5% of the
        # 16-draw prefixes finds no hit, and those rows are widened
        size, preimages, samples = 1024, 180, 1 << 16
        table = np.zeros(size, dtype=np.uint32)
        table[np.arange(preimages) * 5] = 1
        widened, original = [], attack.first_hit_guesses

        def counted(draws, hits):
            guesses = original(draws, hits)
            if draws.shape[1] > ex._ORACLE_PREFIX:
                widened.append(guesses[guesses > 0])
            return guesses

        monkeypatch.setattr(attack, "first_hit_guesses", counted)
        est = ex.permutation_mean_guesswork(hm.TableHash(m=1, n=10, table=table), 1, samples, seed=3)
        rows = np.concatenate(widened)
        assert rows.size > samples // 40 and (rows > 1).all()
        exact = attack.permutation_average_exact(size, preimages)
        assert abs(est.mean - exact) <= 3.5 * est.half_width_95 / 1.96


def _guesses_by_sorting(keys, hit):
    """Reference oracle: each sample's guess count is the number of
    distinct draws up to its first hit, found by sorting the first w draws
    of its stream, w growing 4x until they hit; 256 samples at a time."""
    n = hit.size.bit_length() - 1
    guesses = np.zeros(keys.size, dtype=np.int64)
    for lo in range(0, keys.size, 256):
        rows, width = np.arange(lo, min(lo + 256, keys.size)), 64
        while rows.size:
            draws = rng.key_draws(keys[rows], 0, width, n)
            hits = hit[draws]
            done = hits.any(axis=1)
            first = hits.argmax(axis=1)[done, None]
            before = np.sort(np.where(np.arange(width) < first, draws[done], -1), axis=1)
            distinct = (before[:, 0] >= 0) + ((before[:, 1:] != before[:, :-1]) & (before[:, 1:] >= 0)).sum(axis=1)
            guesses[rows[done]] = distinct + 1
            rows, width = rows[~done], width * 4
    return guesses


def _sparse_table(preimages, size=1024):
    """A table whose target bin 1 has preimages of size entries, spread out."""
    table = np.zeros(size, dtype=np.uint32)
    table[np.linspace(0, size - 1, preimages).astype(int)] = 1
    return hm.TableHash(m=1, n=size.bit_length() - 1, table=table)


class TestOraclePieces:
    """Pieces, prefixes and widened steps give every sample the guess count
    of its whole stream: the oracle matches a reference that reads each
    sample's stream at once, at sample counts around the piece size."""

    # The 1-of-1,024 table continues nearly every row, so it runs at
    # fewer sample counts: one row, past one piece and past eight.
    @pytest.mark.parametrize("preimages,samples", [
        (preimages, samples)
        for preimages in (None, 10)
        for samples in (1, 2047, 2048, 2049, 16384, 16385, 20_000)
    ] + [(1, 1), (1, 2049), (1, 16385)])
    def test_matches_whole_batches(self, preimages, samples):
        if preimages is None:  # dense: about a third of the entries hit
            table, target = hm.sample_table_hash(4, 10, 0.25, seed=17), 0
        else:
            table, target = _sparse_table(preimages), 1
        est = ex.permutation_mean_guesswork(table, target, samples, seed=29)
        acc = attack.GuessAccumulator()
        acc.add_array(_guesses_by_sorting(_oracle_keys(29, samples), table.table == target))
        assert est == acc.estimate()

    def test_estimate_ignores_piece_and_step_sizes(self, monkeypatch):
        cases = [(hm.sample_table_hash(4, 10, 0.25, seed=17), 0), (_sparse_table(10), 1), (_sparse_table(1), 1)]
        before = [ex.permutation_mean_guesswork(table, target, 300, seed=8) for table, target in cases]
        for name, value in (("_ORACLE_PIECE", 7), ("_ORACLE_PREFIX", 2), ("_ORACLE_STEP", 1)):  # one-row steps
            monkeypatch.setattr(ex, name, value)
        assert [ex.permutation_mean_guesswork(table, target, 300, seed=8) for table, target in cases] == before

    def test_traced_memory_is_bounded(self):
        table = hm.sample_table_hash(4, 10, 0.25, seed=17)
        tracemalloc.start()
        try:
            ex.permutation_mean_guesswork(table, 0, 20_000, seed=29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20

    def test_sparse_traced_memory_is_bounded(self):
        # nearly every row of the 1-of-1,024 table is continued, and each
        # piece's rows finish before the next piece is drawn
        tracemalloc.start()
        try:
            ex.permutation_mean_guesswork(_sparse_table(1), 1, 20_000, seed=29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20


def _first_hit_law(size, preimages):
    """P(G = k), k = 1 .. size - preimages + 1, of a uniform order's first
    hit with preimages of size candidates: P(G > k) = C(N-L, k) / C(N, k)."""
    above = [math.comb(size - preimages, k) / math.comb(size, k) for k in range(size - preimages + 2)]
    return -np.diff(above)


def _decile_pvalue(guesses, size, preimages):
    """Chi-square p-value of guess counts against the exact first-hit law,
    each count binned by the decile its CDF below it falls in."""
    pmf = _first_hit_law(size, preimages)
    below = np.concatenate([[0.0], np.cumsum(pmf)[:-1]])
    decile = np.minimum((below * 10).astype(int), 9)
    mass = np.bincount(decile, weights=pmf, minlength=10)
    observed = np.bincount(decile[np.asarray(guesses) - 1], minlength=10)
    used = mass > 0
    expected = mass[used] / mass[used].sum() * observed.sum()
    return stats.chisquare(observed[used], expected).pvalue


class TestFirstHitLaw:
    """The first hit of a seeded permutation, and each oracle sample's
    guess count, follow P(G > k) = C(N-L, k) / C(N, k): one chi-square
    test over deciles each, at seeds and counts fixed before the first run."""

    # one preimage of 16 puts the first hit in the tail (past 14 drawn
    # candidates) an eighth of the time
    @pytest.mark.parametrize("size,preimages,orders", [(16, 3, 4000), (16, 1, 4000), (1024, 10, 2000)])
    def test_permutation_first_hit(self, size, preimages, orders):
        table = _sparse_table(preimages, size)
        guesses = [attack.online_attack(table, 1, attack.permutation(rng.derive_seed(71, k))).guesses
                   for k in range(orders)]
        assert _decile_pvalue(guesses, size, preimages) > 1e-3

    @pytest.mark.parametrize("size,preimages", [(16, 3), (1024, 10)])
    def test_oracle_guesses(self, size, preimages):
        table = _sparse_table(preimages, size)
        guesses = ex._oracle_guesses(_oracle_keys(72, 20_000), table.table == 1)
        assert _decile_pvalue(guesses, size, preimages) > 1e-3


class TestPermutationOracle:
    def test_zero_preimages_fail_every_sample(self):
        table = hm.TableHash(m=2, n=6, table=np.ones(64, dtype=np.uint32))
        est = ex.permutation_mean_guesswork(table, 0, 500, seed=1)
        assert (est.mean, est.half_width_95, est.trials, est.failures) == (0.0, 0.0, 500, 500)


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
        # exact per-bin truncated-geometric expectation, averaged over users
        plan = al.allocate_bins(8, 0.3, cfg.scenario.user_count())
        per_bin = [expected_guesses_per_bin(8, 20, b.type_fraction, 0.3) for _, b in plan.users]
        theory = math.log2(sum(per_bin) / plan.user_count)
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
        # the csv rendering is checked through the command line
        cfg = make_cfg(
            "no-allocation-keyed", m=6, n=14, trials=400, m_sweep=(6, 8, 10)
        )
        result = ex.sweep_rate(cfg)
        assert [m for m, _ in result.points] == [6, 8, 10]
        assert len(result.cis) == 3 and all(ci > 0 for ci in result.cis)

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

    @staticmethod
    def _one_shot(cfg, l_values):
        """The report with every trial drawn at once."""
        sc = cfg.scenario
        trials = np.arange(cfg.trials, dtype=np.uint64)
        u = rng.uniforms(cfg.seed, trials, rng.LANE_GEOM)
        g = rng.geometric_from_uniform(u, ex._pk_table(sc)[sc.m])
        success = g <= float(1 << sc.n)
        rows = []
        for l in l_values:
            emp = float((success & (g <= 2.0 ** (sc.m * l))).mean())
            ci = 1.96 * math.sqrt(max(emp * (1.0 - emp), 1e-12) / cfg.trials)
            rows.append(ex.ConcentrationRow(l, emp, ci, ex.concentration_bound(sc.m, 1.0, sc.p, l)))
        return rows

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * ex.BLOCK_ELEMENTS + 7])
    def test_blocks_equal_one_shot(self, extra):
        # n = 18 is short of many trials' geometric draws, so the horizon
        # decides some rows, and the last l sits just below n/m
        cfg = make_cfg("allocated-online", m=10, n=18, trials=ex.BLOCK_ELEMENTS + extra, seed=23)
        l_values = [0.25, 0.8, 1.2, 1.5, 1.8 - 1e-9]
        assert ex.concentration_report(cfg, l_values) == self._one_shot(cfg, l_values)

    def test_traced_memory_is_bounded(self):
        cfg = make_cfg("allocated-online", m=10, n=26, trials=1_000_000)
        tracemalloc.start()
        try:
            ex.concentration_report(cfg, [0.5, 1.0, 1.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


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

    def test_online_side_is_the_no_allocation_keyed_run(self):
        # the same trials, kept where the attacked bin has the modal weight;
        # the budget cuts some of them short
        cfg = make_cfg("unallocated-offline", m=8, n=16, trials=1500, budget=300)
        panel = ex.most_likely_panel(cfg)
        log = io.StringIO()
        ex.run_experiment(replace(cfg, mode="no-allocation-keyed"), trial_log=log)
        rows = [line.split(",") for line in log.getvalue().splitlines()[1:]]
        assert len(rows) == 1500
        acc = attack.GuessAccumulator()
        acc.add_array(np.array([int(r[4]) for r in rows if r[2].count("1") == panel.modal_weight]))
        assert panel.online_conditional == acc.estimate()
        assert 0 < panel.online_conditional.failures < panel.online_conditional.trials < 1500


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
