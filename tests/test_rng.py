"""The lane table: every random stream of the package is named once in rng,
and every one is counter-keyed: numpy.random is never loaded.  Also the
module boundary: no module reads another's underscore-prefixed names, and
biased_bits and biased_values against their definitions, written out in
integers, with the alias tables' masses and the keyed hash's intervals
checked exactly."""
import ast
import bisect
import functools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from guesswork_lab import hashmodel as hm, rng

SRC = pathlib.Path(rng.__file__).parent

#: rng functions that take a lane, and the position of the lane argument.
LANE_ARG = {"words": 2, "uniforms": 2, "integers_below": 2, "biased_values": 2, "derive_seed": 1}

LANES = {name: value for name, value in vars(rng).items() if name.startswith("LANE_")}


def _rng_calls(tree):
    """Every call rng.<f>(...) of a lane-taking f in a module's tree."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "rng"
            and func.attr in LANE_ARG
        ):
            yield node


def _lane_name(node):
    """The X of an rng.LANE_X expression, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "rng":
        return node.attr if node.attr.startswith("LANE_") else None
    return None


def test_lanes_are_distinct():
    assert len(LANES) == 12
    assert len(set(LANES.values())) == len(LANES)


def test_every_draw_outside_rng_names_a_lane():
    named, calls = set(), 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rng.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):  # the functions are reached through rng only
            if isinstance(node, ast.ImportFrom) and node.module == "rng":
                assert not {a.name for a in node.names} & set(LANE_ARG), path.name
        for call in _rng_calls(tree):
            calls += 1
            at = LANE_ARG[call.func.attr]
            lane = _lane_name(call.args[at]) if len(call.args) > at else None
            assert lane in LANES, f"{path.name}:{call.lineno} draws from an unnamed lane"
            named.add(lane)
    assert calls >= 13
    # LANE_PASSWORDS is drawn through rng.passwords; every other lane is named by a caller.
    assert named == set(LANES) - {"LANE_PASSWORDS"}


def test_passwords_are_the_top_bits_of_the_password_lane():
    counters = np.arange(50, dtype=np.uint64)
    for n in (1, 9, 62):
        got = rng.passwords(77, counters, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, (rng.words(77, counters, rng.LANE_PASSWORDS) >> np.uint64(64 - n)).astype(np.int64))
        assert got.min() >= 0 and got.max() < 1 << n


def _numpy_random_references(tree):
    """Line numbers of every np.random / numpy.random reference or import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("numpy.random") or node.module == "numpy" and any(a.name == "random" for a in node.names)
        ):
            yield node.lineno


def test_no_module_refers_to_numpy_random():
    for path in sorted(SRC.glob("*.py")):
        lines = list(_numpy_random_references(ast.parse(path.read_text())))
        assert not lines, f"{path.name}:{lines} refers to numpy.random"


def test_the_reference_check_sees_numpy_random():
    for code in ("np.random.default_rng(1)", "import numpy.random", "from numpy import random",
                 "from numpy.random import default_rng"):
        assert list(_numpy_random_references(ast.parse(code))), code


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(tree):
    """Line numbers where a module reads another package module's
    underscore-prefixed name: m._x for an m bound by `from . import m`,
    or `from .m import _x`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names}
            elif any(_private(a.name) for a in node.names):
                yield node.lineno
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _private(node.attr):
            yield node.lineno


def test_no_module_reads_another_modules_private_names():
    for path in sorted(SRC.glob("*.py")):
        lines = list(_private_reads(ast.parse(path.read_text())))
        assert not lines, f"{path.name}:{lines} reads another module's private name"


def test_the_private_read_check_sees_them():
    for code in ("from . import attack\nattack._take_seen(4)", "from . import allocation as alloc\nx = alloc._CAP",
                 "from .attack import _fresh_mask", "def f():\n    from . import rng\n    return rng._LANES"):
        assert list(_private_reads(ast.parse(code))), code
    for code in ("from . import attack\nattack.permutation(1)", "from . import __version__",
                 "import numpy as np\nnp._x", "_SEEN = 1\nx = _SEEN"):
        assert not list(_private_reads(ast.parse(code))), code

def test_numpy_random_is_never_loaded():
    # a C03-style permutation attack, the C04 oracle, a sampled table and
    # one scan-engine experiment, in a fresh process
    code = """
import sys
from guesswork_lab import attack, experiments as ex, hashmodel as hm, rng
from guesswork_lab.rates import ScenarioParams
model = hm.KeyedHashModel(m=8, n=18, p=0.3, seed=1)
for k in range(20):
    attack.online_attack(model, 0b11111100, attack.permutation(rng.derive_seed(2, k)))
table = hm.sample_table_hash(4, 10, 0.25, seed=3)
ex.permutation_mean_guesswork(table, 0, 3000, seed=4)
scenario = ScenarioParams(s=0.9, p=0.3, m=8, n=18)
ex.run_experiment(ex.ExperimentConfig(scenario=scenario, trials=100, seed=5, mode="allocated-online", engine="scan"))
print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_generator_is_retired():
    with pytest.raises(NotImplementedError):
        rng.generator(1, rng.LANE_PERMUTATION)


def test_key_draws_are_the_top_bits_of_words():
    seed, lane = 91, rng.LANE_PERMUTATION
    counters = np.arange(40, 140, dtype=np.uint64)
    for n in (0, 1, 10, 63):
        got = rng.key_draws(rng.derive_seed(seed, lane), 40, 100, n)
        assert got.dtype == np.int64
        assert got.tolist() == (rng.words(seed, counters, lane) >> np.uint64(64 - n)).astype(np.int64).tolist()


def test_key_draws_rows_and_pieces():
    keys = rng.words(5, np.arange(7), rng.LANE_ORACLE)
    whole = rng.key_draws(keys, 0, 300, 12)
    assert whole.shape == (7, 300)
    for r, key in enumerate(keys.tolist()):
        assert np.array_equal(whole[r], rng.key_draws(key, 0, 300, 12))
    pieces = np.concatenate([rng.key_draws(keys, lo, 100, 12) for lo in (0, 100, 200)], axis=1)
    assert np.array_equal(pieces, whole)
    wide = rng.key_draws(keys[:1], 0, (1 << 16) + 3, 12)  # past the kept scratch
    assert np.array_equal(wide[0, :300], whole[0])


def _widths(m: int) -> list[int]:
    return [14] * (m // 14) + [m % 14] * (m % 14 > 0)


@functools.lru_cache(maxsize=None)
def _defined_intervals(p: float, k: int):
    """The keyed hash's chunk of k bits by its definition, in Python ints:
    the values by weight, ascending inside one weight, own words in turn
    from 0, floor(p^w (1-p)^(k-w) 2^64) for a value of weight w >= 1 and
    the rest for value 0.  Returns each value's first word, in that order,
    the values, and their words."""
    q = Fraction(p)
    layer = [math.floor(q**w * (1 - q) ** (k - w) * 2**64) for w in range(k + 1)]
    size = {v: layer[v.bit_count()] for v in range(1, 1 << k)}
    size[0] = 2**64 - sum(size.values())
    starts, values, at = [], [], 0
    for v in sorted(range(1 << k), key=lambda v: (v.bit_count(), v)):
        starts.append(at)
        values.append(v)
        at += size[v]
    assert at == 2**64
    return starts, values, size


def _defined_value(seed: int, i: int, p: float, m: int) -> int:
    """The keyed hash of index i under seed, by its definition: chunk j of k
    bits (first chunk highest, 14 bits but the last) comes from word w_0 =
    mix(i * GOLDEN + seed) for j = 0, else w_j = mix(w_0 ^ lane_j), lane_j
    = (j + 1) * GOLDEN2 mod 2^64; its value is the one whose interval holds
    the word, found by a search over the intervals."""
    w0, value = rng._mix64_int(i * rng.GOLDEN + seed), 0
    for j, k in enumerate(_widths(m)):
        word = rng._mix64_int(w0 ^ ((j + 1) * rng.GOLDEN2 & rng.MASK64)) if j else w0
        starts, values, size = _defined_intervals(p, k)
        at = bisect.bisect_right(starts, word) - 1  # the last interval starting at or below word
        assert starts[at] <= word < starts[at] + size[values[at]]
        value = value << k | values[at]
    return value


@pytest.mark.parametrize("column", [False, True], ids=["scalar-seed", "seed-column"])
@pytest.mark.parametrize("p", [0.0, 1e-18, 0.05, 0.3, 0.5, 0.95])
@pytest.mark.parametrize("m", [1, 8, 14, 15, 28, 62])
def test_biased_bits_follow_their_definition(m, p, column):
    # 300 indices around 2^40, where i * GOLDEN wraps
    window = np.arange(2**40 - 150, 2**40 + 150, dtype=np.uint64)
    keys = [0x5EED, rng.MASK64 - 3] if column else [0x5EED]
    defined = np.array([[_defined_value(k, int(i), p, m) for i in window] for k in keys], dtype=np.uint64)
    seed, lead = (np.array(keys, dtype=np.uint64)[:, None], slice(None)) if column else (keys[0], 0)
    values = rng.biased_bits(seed, p, m, window)
    assert values.dtype == np.uint64 and values.tolist() == defined[lead].tolist()

    targets = defined[:, 37:38].copy()  # the values the rows hold at one index,
    targets[1:] ^= np.uint64(1)  # with the last bit flipped past row 0
    hits = rng.biased_bits(seed, p, m, window, target=targets[lead].astype(np.int64))
    assert hits.tolist() == (defined == targets)[lead].tolist()

    if m < 20:  # a mask over every value: 2^62 of them cannot be listed
        masks = np.zeros((2, 1 << m), dtype=bool)
        masks[0, defined[0, ::7].astype(np.intp)] = True
        masks[1, [0, (1 << m) - 1]] = True
        k = np.arange(len(keys))[:, None] if column else 0
        hits = rng.biased_bits(seed, p, m, window, masks, table=k)
        assert hits.tolist() == masks[k, defined[lead].astype(np.intp)].tolist()


@pytest.mark.parametrize("k", [1, 2, 8, 14])
@pytest.mark.parametrize("p", [0.0, 1e-18, 0.05, 0.3, 0.5, 0.95])
def test_intervals_tile_the_words_with_the_alias_units(p, k):
    # Walked in order, each value's interval starts where the last ended
    # and is as long as the value's units in its alias table, and the
    # intervals end at 2^64; lo, size and start are read mod 2^64.  The
    # first and last word of each interval invert to its value.  Equality
    # in Python ints, not a tolerance.
    lo, size, start, first, bounds, order = rng._intervals(p, k)
    threshold, alias = rng._alias_table(p, k)
    units = [0] * (1 << k)
    for c, (own, other) in enumerate(zip(threshold.tolist(), alias.tolist())):
        units[c] += own
        units[other] += (1 << (64 - k)) - own
    assert order.tolist() == hm.weight_layer_order(k, False, np.arange(1 << k)).tolist()
    at, ends = 0, []
    for r, v in enumerate(order.tolist()):
        w = v.bit_count()
        assert int(lo[v]) == at % 2**64 and int(size[w]) == units[v] % 2**64
        if r == first[w]:  # the layer's first value
            assert int(start[w]) == at % 2**64
            ends.append(at)
        at += units[v]
    assert at == 2**64
    assert bounds.tolist() == [e for e in ends[1:] if e < 2**64]
    live = [v for v in order.tolist() if units[v]]
    words = [int(lo[v]) for v in live] + [int(lo[v]) + units[v] - 1 for v in live]
    got = rng._chunk_values(np.array(words, dtype=np.uint64), np.empty(len(words), dtype=np.uint64), p, k)
    assert got.tolist() == live + live


def _unmix64(z: np.ndarray) -> np.ndarray:
    """The states whose mix64 is z: mix64 inverted step by step."""
    for shift, mult in ((31, rng._M2), (27, rng._M1), (30, None)):
        x = z
        for _ in range(64 // shift + 1):  # undo z ^= z >> shift
            x = z ^ (x >> np.uint64(shift))
        z = x * np.uint64(pow(mult, -1, 2**64)) if mult else x
    return z


@pytest.mark.parametrize("k", [1, 8, 14])
@pytest.mark.parametrize("p", [0.0, 1e-18, 0.05, 0.3, 0.5, 0.95])
def test_hit_test_at_the_interval_ends(p, k):
    # Index 0 under key unmix(w) has chunk-0 word w.  For every value that
    # owns words, its first and last word hit it, and the words just
    # outside its interval do not, unless it owns all 2^64: one compare,
    # off by one nowhere.
    lo, size = rng._intervals(p, k)[:2]
    values = np.arange(1 << k)
    own = size[np.bitwise_count(values)]
    whole = own == 0  # a size of 2^64, read mod 2^64
    keep = (own > 0) | (whole & (values == 0) & (p < 2.0**-63))
    values, lo, own, whole = values[keep], lo[keep], own[keep], whole[keep]
    ends = np.stack([lo - np.uint64(1), lo, lo + own - np.uint64(1), lo + own], axis=1)
    keys = _unmix64(ends.reshape(-1, 1))
    assert np.array_equal(rng.mix64(keys), ends.reshape(-1, 1))
    hits = rng.biased_bits(keys, p, k, np.zeros(1, dtype=np.uint64), target=np.repeat(values, 4)[:, None])
    inside = np.stack([whole, np.ones_like(whole), np.ones_like(whole), whole], axis=1)
    assert hits.reshape(-1, 4).tolist() == inside.tolist()


def test_biased_bits_weights_across_the_chunk_boundary():
    # m = 16 hashes a 14-bit chunk and a 2-bit chunk: the joint law of their
    # weights is Binomial(14, p) x Binomial(2, p).  Seed and count were fixed
    # before the first run; cells expected below 5 are pooled.
    p, count = 0.3, 1 << 18
    values = rng.biased_bits(16, p, 16, np.arange(count, dtype=np.uint64)).astype(np.int64)
    cells = np.bitwise_count(values >> 2) * 3 + np.bitwise_count(values & 3)
    observed = np.bincount(cells, minlength=45)
    law = np.outer(stats.binom.pmf(np.arange(15), 14, p), stats.binom.pmf(np.arange(3), 2, p)).ravel()
    expected = law * count
    rare = expected < 5
    observed = np.append(observed[~rare], observed[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("k", [1, 2, 8, 14])
@pytest.mark.parametrize("p", [0.5, 0.3, 0.1, 1e-18])
def test_alias_tables_hold_the_floor_masses_exactly(p, k):
    # Rebuilt from the table's columns in Python ints: a value of weight w
    # holds floor(p^w (1-p)^(k-w) 2^64) units, value 0 the rest.  Equality,
    # not a tolerance.
    threshold, alias = rng._alias_table(p, k)
    cap = 1 << (64 - k)
    assert threshold.max() <= cap and 0 <= alias.min() and alias.max() < 1 << k
    mass = [0] * (1 << k)
    for c, (own, other) in enumerate(zip(threshold.tolist(), alias.tolist())):
        mass[c] += own
        mass[other] += cap - own
    q = Fraction(p)
    layer = [math.floor(q**w * (1 - q) ** (k - w) * 2**64) for w in range(k + 1)]
    assert mass[1:] == [layer[v.bit_count()] for v in range(1, 1 << k)]
    assert mass[0] == 2**64 - sum(mass[1:]) and sum(mass) == 2**64


def _defined_values(seed: int, lane: int, i: int, p: float, m: int) -> int:
    """biased_values' value of index i, by its definition: chunk j of k
    bits (first chunk highest, 14 bits but the last) comes from word
    w_0 = words(seed, i, lane) for j = 0, else w_j = mix(w_0 ^ lane_j):
    column c = w_j >> (64 - k) holds c where the low 64 - k bits fall below
    threshold[c], else alias[c]."""
    w0, value = rng._mix64_int(i * rng.GOLDEN + rng.derive_seed(seed, lane)), 0
    for j, k in enumerate(_widths(m)):
        word = rng._mix64_int(w0 ^ ((j + 1) * rng.GOLDEN2 & rng.MASK64)) if j else w0
        threshold, alias = rng._alias_table(p, k)
        col, low = word >> (64 - k), word & ((1 << (64 - k)) - 1)
        value = value << k | (col if low < int(threshold[col]) else int(alias[col]))
    return value


@pytest.mark.parametrize("p", [1e-18, 0.3, 0.5])
@pytest.mark.parametrize("m", [1, 14, 16, 30, 62])
def test_biased_values_follow_their_definition(m, p):
    window = np.arange(2**40 - 150, 2**40 + 150, dtype=np.uint64)  # i * GOLDEN wraps
    values = rng.biased_values(0x5EED, window, rng.LANE_BINS, p, m)
    assert values.dtype == np.int64
    assert values.tolist() == [_defined_values(0x5EED, rng.LANE_BINS, int(i), p, m) for i in window]


def test_biased_values_weights_across_the_chunk_boundary():
    # m = 16 draws a 14-bit chunk and a 2-bit chunk: the joint law of their
    # weights is Binomial(14, p) x Binomial(2, p).  Seed and count were fixed
    # before the first run; cells expected below 5 are pooled.
    p, count = 0.3, 1 << 18
    values = rng.biased_values(16, np.arange(count, dtype=np.uint64), rng.LANE_BINS, p, 16)
    cells = np.bitwise_count(values >> 2) * 3 + np.bitwise_count(values & 3)
    observed = np.bincount(cells, minlength=45)
    law = np.outer(stats.binom.pmf(np.arange(15), 14, p), stats.binom.pmf(np.arange(3), 2, p)).ravel()
    expected = law * count
    rare = expected < 5
    observed = np.append(observed[~rare], observed[rare].sum())
    expected = np.append(expected[~rare], expected[rare].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("p", [0.0, -0.1, 1.5, [0.5, 0.0]])
def test_geometric_from_uniform_rejects_p_out_of_range(p):
    with pytest.raises(ValueError, match="out of range"):
        rng.geometric_from_uniform(np.array([0.25, 0.5]), p)
