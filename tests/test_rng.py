"""The lane table: every random stream of the package is named once in rng,
and every one is counter-keyed: numpy.random is never loaded."""
import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from guesswork_lab import rng

SRC = pathlib.Path(rng.__file__).parent

#: rng functions that take a lane, and the position of the lane argument.
LANE_ARG = {"words": 2, "uniforms": 2, "integers_below": 2, "derive_seed": 1}

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
