"""The lane table: every random stream of the package is named once in rng."""
import ast
import pathlib

import numpy as np

from guesswork_lab import rng

SRC = pathlib.Path(rng.__file__).parent

#: rng functions that take a lane, and the position of the lane argument.
LANE_ARG = {"words": 2, "uniforms": 2, "integers_below": 2, "generator": 1, "derive_seed": 1}

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
